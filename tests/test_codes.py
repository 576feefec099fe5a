"""Set-level code duality: duals, restrictions, subcodes, conditioning."""

import itertools
import random

import pytest

from groupcodes import oracle, residues
from groupcodes.codes import (GroupCode, code_equal, code_intersect, code_sum,
                              conditioned, cut_product, dual, lift_restriction,
                              restricted_subcode, restriction, shorten)
from groupcodes.residues import Subgroup
from groupcodes.spaces import SymbolLayout


def explicit(modulus, axis, rows, width=1):
    return GroupCode.from_generators(SymbolLayout.uniform(modulus, axis, width), rows)


def random_code(rng, modulus, axis, width=1):
    lay = SymbolLayout.uniform(modulus, axis, width)
    r = rng.randint(0, lay.total_dim)
    return GroupCode.from_generators(
        lay, [[rng.randrange(modulus) for _ in range(lay.total_dim)] for _ in range(r)])


def test_dual_spec_examples():
    rep2 = explicit(2, 2, [[1, 1]])
    assert code_equal(dual(rep2), rep2)  # self-dual binary repetition, length 2

    lay = SymbolLayout.uniform(4, 3)
    assert code_equal(dual(GroupCode.full(lay)), GroupCode.trivial(lay))

    rep4 = explicit(4, 4, [[1, 1, 1, 1]])
    zsum = dual(rep4)
    for row in zsum.carrier.basis:
        assert sum(map(int, row)) % 4 == 0
    assert zsum.order() == 4 ** 4 // 4
    assert code_equal(dual(zsum), rep4)


def test_restriction_spec_examples(rate13):
    rep4 = explicit(4, 4, [[1, 1, 1, 1]])
    r = restriction(rep4, frozenset({1}))
    assert r.carrier == Subgroup.full(4, 1)

    c = rate13.code
    inner = restriction(c, frozenset({6}))
    assert inner.order() == 32
    assert inner.carrier == Subgroup.span(4, [(1, 0, 0), (0, 1, 0), (0, 0, 2)], 3)

    with pytest.raises(ValueError):
        restriction(rep4, frozenset())


def test_shorten_spec_examples(rate13):
    lay = SymbolLayout.uniform(2, 4)
    full = GroupCode.full(lay)
    k = lay.subset({1, 2})
    s = shorten(full, k)
    assert s.order() == 4  # free exactly on the kept times

    rep4 = explicit(4, 4, [[1, 1, 1, 1]])
    assert code_equal(shorten(rep4, rep4.subset({1, 2})), GroupCode.trivial(rep4.layout))

    # interior length-3 window of the width-3 fixture: spanned by one full
    # generator shift plus twice the next shift (computed by enumeration)
    s3 = shorten(rate13.code, rate13.code.layout.interval(5, 7))
    elems = oracle.subgroup_elements(s3.carrier)
    assert len(elems) == 8
    g5 = [0] * 15 + [1, 0, 0, 0, 1, 0, 0, 0, 2] + [0] * 12
    g6_twice = [0] * 18 + [2, 0, 0, 0, 2, 0, 0, 0, 0] + [0] * 9
    want = oracle.subgroup_elements(Subgroup.span(4, [g5, g6_twice], 36))
    assert elems == want


def test_restricted_subcode_is_composition():
    rng = random.Random(3)
    for _ in range(10):
        c = random_code(rng, 4, 4)
        k = frozenset({0, 1})
        assert code_equal(restricted_subcode(c, k), restriction(shorten(c, k), k))


def test_conditioned_spec_cases():
    rng = random.Random(8)
    c = random_code(rng, 2, 4)
    j = c.layout.subset({0, 1})
    comp = c.layout.complement(j)
    full_d = GroupCode.full(c.layout.restricted(comp))
    triv_d = GroupCode.trivial(c.layout.restricted(comp))
    assert code_equal(conditioned(c, full_d, j), c)
    assert code_equal(conditioned(c, triv_d, j), shorten(c, j))


def test_conditioned_matches_filter_oracle():
    # composite moduli exercise the zero divisors of the one-pass projection
    rng = random.Random(21)
    for modulus in (2, 4, 6, 9):
        for _ in range(15):
            c = random_code(rng, modulus, 4)
            j = c.layout.subset({t for t in range(4) if rng.random() < 0.5} or {0})
            if len(j) == 4:
                j = c.layout.subset({0, 1})
            comp = c.layout.complement(j)
            d = random_code(rng, modulus, len(comp))
            got = conditioned(c, d, j)
            comp_idx = c.layout.coords(comp)
            want = {w for w in oracle.code_elements(c)
                    if d.contains([w[i] for i in comp_idx])}
            assert oracle.code_elements(got) == want, (modulus, c, d, sorted(j))


def test_code_plumbing(rate13):
    c = explicit(2, 2, [[1, 1]])
    assert code_equal(code_sum(c, GroupCode.trivial(c.layout)), c)
    assert code_equal(code_intersect(c, dual(c)), c)  # self-dual

    pairs = explicit(4, 8, [[1] * 8, [0, 2] * 4])
    assert pairs.order() == 8

    with pytest.raises(ValueError):
        code_sum(c, explicit(2, 3, [[1, 1, 1]]))


def test_projection_subcode_duality_random():
    rng = random.Random(77)
    for _ in range(20):
        c = random_code(rng, rng.choice([2, 3, 4]), rng.randint(2, 5))
        n = c.layout.axis_len
        ts = c.layout.subset({t for t in range(n) if rng.random() < 0.5} or {0})
        if len(ts) == n:
            ts = c.layout.subset({0})
        lhs = residues.orthogonal(restriction(c, ts).carrier)
        rhs = restricted_subcode(dual(c), ts).carrier
        assert lhs == rhs


def test_cut_product_duality_corollary():
    # orthogonal of C_{|J} x C_{|I-J} equals (C*)_{:J} + (C*)_{:I-J}
    rng = random.Random(5)
    for _ in range(15):
        c = random_code(rng, 4, 4)
        ts = c.layout.subset({0, 2})
        comp = c.layout.complement(ts)
        lhs = residues.orthogonal(cut_product(c, ts).carrier)
        rhs = residues.add(shorten(dual(c), ts).carrier, shorten(dual(c), comp).carrier)
        assert lhs == rhs


def test_lift_restriction_degenerate():
    c = explicit(4, 3, [[1, 1, 1]])
    assert code_equal(lift_restriction(c, frozenset()), GroupCode.full(c.layout))
    assert code_equal(lift_restriction(c, c.layout.full_subset()), c)


def test_lift_restriction_matches_window_oracle():
    # the words whose part on every window is the part of some codeword there,
    # for no window, one, and several that overlap, are disjoint or wrap past
    # the end of the axis
    shapes = [(), ({1, 2},), ({0, 1}, {2, 3}), ({0, 1, 2}, {1, 2}),
              ({0, 1}, {1, 2}, {2, 3}), ({3, 0}, {0, 1}, {2}),
              ({0}, {1}, {2}, {3}), ({2, 3, 0}, {3, 0, 1}, {1, 2})]
    rng = random.Random(25)
    for modulus in (2, 4, 6, 9):
        for windows in shapes:
            for _ in range(2):
                c = random_code(rng, modulus, 4)
                elems = oracle.code_elements(c)
                parts = [(J, {tuple(w[t] for t in sorted(J)) for w in elems})
                         for J in windows]
                want = {w for w in itertools.product(range(modulus), repeat=4)
                        if all(tuple(w[t] for t in sorted(J)) in seen for J, seen in parts)}
                got = lift_restriction(c, *map(c.layout.subset, windows))
                assert oracle.code_elements(got) == want, (modulus, c, windows)
