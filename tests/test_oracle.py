"""Brute-force oracle: self-checks and fast-path agreement."""

import random

import pytest

from groupcodes import dynamics as dyn
from groupcodes import machines as mc
from groupcodes import oracle
from groupcodes.codes import GroupCode, dual, shorten
from groupcodes.residues import Subgroup, written_out
from groupcodes.spaces import SymbolLayout


def random_code(rng, moduli=(2, 3, 4), max_axis=4, max_width=2, ambient_cap=4096):
    while True:
        m = rng.choice(moduli)
        axis = rng.randint(2, max_axis)
        widths = tuple(rng.randint(1, max_width) for _ in range(axis))
        lay = SymbolLayout(m, widths)
        if m ** lay.total_dim <= ambient_cap:
            rows = [[rng.randrange(m) for _ in range(lay.total_dim)]
                    for _ in range(rng.randint(0, lay.total_dim))]
            return GroupCode.from_generators(lay, rows)


def test_code_elements_examples(pairs8):
    assert len(oracle.code_elements(pairs8.code)) == 8
    lay = SymbolLayout.uniform(2, 3)
    assert oracle.code_elements(GroupCode.trivial(lay)) == {(0, 0, 0)}


def test_cap_exceeded():
    lay = SymbolLayout.uniform(4, 6)
    with pytest.raises(oracle.CapExceeded):
        oracle.code_elements(GroupCode.full(lay), cap=100)
    with pytest.raises(oracle.CapExceeded):
        oracle.dual_elements(GroupCode.trivial(lay), cap=100)


def test_dual_elements_example():
    rep2 = GroupCode.from_generators(SymbolLayout.uniform(2, 2), [[1, 1]])
    assert oracle.dual_elements(rep2) == {(0, 0), (1, 1)}


def test_quotient_order():
    a = {(0, 0), (1, 1), (2, 2), (3, 3)}
    b = {(0, 0), (2, 2)}
    assert oracle.quotient_order(a, b) == 2
    with pytest.raises(ValueError):
        oracle.quotient_order(b, {(1, 0)})


def test_invariants_by_orders_known_groups():
    z4 = oracle.subgroup_elements(Subgroup.span(4, [(1,)], 1))
    triv = {(0,)}
    assert oracle.quotient_invariants_by_orders(z4, triv, 4) == (4,)
    pair = oracle.subgroup_elements(Subgroup.span(4, [(1, 1), (0, 2)], 2))
    assert oracle.quotient_invariants_by_orders(pair, {(0, 0)}, 4) == (2, 4)
    klein = oracle.subgroup_elements(Subgroup.span(4, [(2, 0), (0, 2)], 2))
    assert oracle.quotient_invariants_by_orders(klein, {(0, 0)}, 4) == (2, 2)
    z6 = oracle.subgroup_elements(Subgroup.span(6, [(1,)], 1))
    assert oracle.quotient_invariants_by_orders(z6, {(0,)}, 6) == (6,)


def test_fast_path_agreement_many_instances():
    """Every fast-path quantity equals the enumeration oracle (spec gate)."""
    rng = random.Random(2024)
    for _ in range(50):
        code = random_code(rng)
        n = code.layout.axis_len
        elems = oracle.code_elements(code)
        # order and dual
        assert len(elems) == code.order()
        assert oracle.dual_elements(code) == \
            oracle.subgroup_elements(dual(code).carrier)
        # state counts
        k = rng.randint(1, n - 1)
        observer = mc.StateObserver(code)
        assert oracle.state_count(code, k) == dyn.state_at(code, k).order \
            == observer.state_count(k)
        # each cut's label reducer against its definition; F_k is Y([k-L, k]),
        # the symbols that follow a zero window; and the window observer
        # agrees with the full-word one on an encoded word
        lay, L = code.layout, observer.memory
        enc = mc.ObserverEncoder(code)
        word, _ = enc.encode(enc.random_inputs(random.Random(0)))
        for cut in range(n + 1):
            past = shorten(code, lay.subset(range(0, cut))).carrier.basis
            future = shorten(code, lay.subset(range(cut, n))).carrier.basis
            assert Subgroup(lay.modulus, lay.total_dim, written_out(
                observer._tables[cut].denom, lay.total_dim)) == Subgroup.span(
                lay.modulus, past + future, lay.total_dim)
            lo = max(0, cut - L)
            if cut < n:
                assert enc.input_groups[cut] == dyn._block_group(
                    lay, cut, dyn.trellis(code).windows[lo][cut])
            window = word[lay.starts[lo]:lay.starts[cut]]
            assert observer.observe(window, cut) == observer.observe_codeword(word, cut)
        # the sweep tables: |C_{:[m,n)}| and |C_{|[m,n)}| for every m <= n
        for m in range(n + 1):
            for nn in range(m, n + 1):
                inside = lay.subset(range(m, nn))
                assert dyn.trellis(code).interval_orders[m][nn] == \
                    len(oracle.supported_inside(elems, lay, inside))
                cols = lay.coords(inside)
                assert dyn.trellis(code).window_orders[m][nn] == \
                    len({tuple(e[c] for c in cols) for e in elems})
        # input groups: F_k is the set of time-k symbols of C_{:[k,N)}
        t = rng.randint(0, n - 1)
        block = code.layout.block(t)
        tail = oracle.supported_inside(elems, code.layout, code.layout.subset(range(t, n)))
        assert len({e[block.start:block.stop] for e in tail}) == \
            dyn.first_output_group(code, t).order()
        # granules
        j = rng.randint(0, n - 1)
        kk = rng.randint(0, n - 1 - j)
        times = list(range(kk, kk + j + 1))
        assert oracle.controller_granule(code, elems, times, kk, kk + j) == \
            dyn.controller_granule(code, kk, j)
        assert oracle.observer_granule(code, elems, times, kk, kk + j) == \
            dyn.observer_granule(code, kk, j)
        # syndrome kernel
        sf = mc.SyndromeFormer(code)
        kernel = {w for w in oracle._all_words(code.layout.modulus,
                                               code.layout.total_dim)
                  if sf.is_member(list(w))}
        assert kernel == elems


def test_granules_against_oracle_on_every_interval():
    # every (k, level), so both on-demand reads are met at their edges: level
    # 0, where one side is a fill, and k + level = N - 1
    rng = random.Random(2027)
    for _ in range(15):
        code = random_code(rng)
        n = code.layout.axis_len
        elems = oracle.code_elements(code)
        for k in range(n):
            for level in range(n - k):
                times = list(range(k, k + level + 1))
                assert dyn.controller_granule(code, k, level) == \
                    oracle.controller_granule(code, elems, times, k, k + level)
                assert dyn.observer_granule(code, k, level) == \
                    oracle.observer_granule(code, elems, times, k, k + level)


def test_end_around_granule_against_oracle():
    rng = random.Random(3000)
    for _ in range(10):
        code = random_code(rng, max_axis=4)
        n = code.layout.axis_len
        m = rng.randint(0, n - 2)
        nn = rng.randint(m + 1, n - 1)
        elems = oracle.code_elements(code)
        times = list(range(nn, n)) + list(range(0, m + 1))
        from groupcodes.spaces import Interval
        iv = Interval(nn, m, wraparound=True)
        assert dyn.end_around_controller_granule(code, iv) == \
            oracle.controller_granule(code, elems, times, nn, m)
        assert dyn.end_around_observer_granule(code, iv) == \
            oracle.observer_granule(code, elems, times, nn, m)
