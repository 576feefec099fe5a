"""Layout and time-subset bookkeeping."""

import pytest

from groupcodes.codes import GroupCode, restriction
from groupcodes.residues import Subgroup
from groupcodes.spaces import Interval, SymbolLayout


def test_coords_spec_examples():
    lay = SymbolLayout.uniform(2, 4, 3)
    assert lay.coords({1}) == [3, 4, 5]
    assert lay.coords(lay.full_subset()) == list(range(12))
    mixed = SymbolLayout(2, (2, 1, 2))
    assert mixed.coords({0, 2}) == [0, 1, 3, 4]


def test_coords_partition():
    lay = SymbolLayout(3, (2, 1, 3, 1))
    j = lay.subset({0, 2})
    assert sorted(lay.coords(j) + lay.coords(lay.complement(j))) == list(range(lay.total_dim))


def test_out_of_range_time():
    lay = SymbolLayout.uniform(2, 3)
    with pytest.raises(ValueError):
        lay.coords({3})


def test_restriction_full_space_memoryless():
    lay = SymbolLayout(4, (1, 2, 1))
    full = GroupCode.full(lay)
    for times in [{0}, {1}, {0, 2}, {0, 1, 2}]:
        j = lay.subset(times)
        r = restriction(full, j)
        assert r.layout == lay.restricted(j)
        assert r.carrier == Subgroup.full(4, len(lay.coords(j)))


def test_interval_times():
    lay = SymbolLayout.uniform(2, 6)
    assert sorted(Interval(1, 3).times(lay)) == [1, 2, 3]
    assert sorted(Interval(4, 1, wraparound=True).times(lay)) == [0, 1, 4, 5]
    with pytest.raises(ValueError):
        Interval(3, 1)
    with pytest.raises(ValueError):
        Interval(1, 3, wraparound=True)
