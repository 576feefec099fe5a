"""State spaces, granules, memory tests, chains, end-around isomorphisms."""

import ast
import pathlib
import random

import pytest

from groupcodes import dynamics as dyn
from groupcodes import oracle, residues, verify
from groupcodes.codes import GroupCode, code_equal, dual, restriction, shorten
from groupcodes.spaces import Interval, SymbolLayout


def explicit(modulus, axis, rows, width=1):
    return GroupCode.from_generators(SymbolLayout.uniform(modulus, axis, width), rows)


def random_code(rng, modulus, axis, width=1):
    lay = SymbolLayout.uniform(modulus, axis, width)
    r = rng.randint(0, lay.total_dim)
    return GroupCode.from_generators(
        lay, [[rng.randrange(modulus) for _ in range(lay.total_dim)] for _ in range(r)])


@pytest.fixture(scope="module")
def rep6():
    return explicit(4, 6, [[1] * 6])


@pytest.fixture(scope="module")
def zerosum6(rep6):
    return dual(rep6)


@pytest.fixture(scope="module")
def pairs(pairs8):
    return pairs8.code


# --- state spaces ---------------------------------------------------------------

def test_state_space_fixture_values(rate13, rep6):
    assert dyn.state_at(rate13.code, 6).invariants == (2, 4)
    assert dyn.state_at(dual(rate13.code), 6).invariants == (2, 4)
    for k in range(1, 6):
        assert dyn.state_at(rep6, k).invariants == (4,)


def test_state_space_rejects_degenerate_cuts(rep6):
    with pytest.raises(ValueError):
        verify.state_space(rep6, frozenset())
    with pytest.raises(ValueError):
        verify.state_space(rep6, rep6.layout.full_subset())
    for k in (0, 6):
        with pytest.raises(ValueError, match=f"cut {k} .* N = 6"):
            dyn.state_at(rep6, k)


def test_state_space_arbitrary_subset_cut(rep6):
    # cuts need not be intervals
    assert verify.state_space(rep6, rep6.layout.subset({0, 2, 4})) == (4,)


def test_dual_state_space_check_random():
    rng = random.Random(13)
    for _ in range(20):
        c = random_code(rng, rng.choice([2, 3, 4]), rng.randint(2, 5))
        n = c.layout.axis_len
        ts = c.layout.subset({t for t in range(n) if rng.random() < 0.5} or {0})
        if len(ts) == n:
            ts = c.layout.subset({0})
        assert verify.dual_state_space(c, ts) is None


def test_state_count_matches_oracle():
    rng = random.Random(4)
    for _ in range(10):
        c = random_code(rng, rng.choice([2, 4]), 4)
        for k in range(1, 4):
            assert dyn.state_at(c, k).order == oracle.state_count(c, k)


# --- the trellis ------------------------------------------------------------------

def test_trellis_sweeps_each_family_once(monkeypatch, rate13):
    # every table is read off two full-width sweeps (profile, windows), each
    # run on first read and never again
    code = rate13.code
    n, built = code.layout.total_dim, []
    init = residues.IncrementalHowell.__init__

    def counted(self, modulus, width, howell=()):
        built.append(width)
        init(self, modulus, width, howell)

    dyn.trellis.cache_clear()
    monkeypatch.setattr(residues.IncrementalHowell, "__init__", counted)
    tables = ("profile", "windows", "interval_orders", "window_orders")
    for name in tables:
        getattr(dyn.trellis(code), name)
    assert built.count(n) == 2
    built.clear()
    for name in tables:
        getattr(dyn.trellis(code), name)
    assert built == []
    dyn.trellis.cache_clear()


# --- controllable subcodes / observable supercodes --------------------------------

def test_controllable_subcode_examples(rep6, rate13):
    assert code_equal(dyn.controllable_subcode(rep6, 0), GroupCode.trivial(rep6.layout))
    full = GroupCode.full(SymbolLayout.uniform(4, 5))
    assert code_equal(dyn.controllable_subcode(full, 0), full)
    assert code_equal(dyn.controllable_subcode(rate13.code, 2), rate13.code)
    assert not code_equal(dyn.controllable_subcode(rate13.code, 1), rate13.code)


def test_observable_supercode_examples(rep6, rate13):
    assert code_equal(dyn.observable_supercode(rep6, 1), rep6)
    full = GroupCode.full(SymbolLayout.uniform(4, 5))
    assert code_equal(dyn.observable_supercode(full, 0), full)
    assert code_equal(dyn.observable_supercode(rate13.code, 1), rate13.code)
    # C^0 is the per-time output sequence space (boundary blocks are smaller)
    c = rate13.code
    c0 = dyn.observable_supercode(c, 0)
    per_time = 1
    for k in c.layout.times():
        per_time *= restriction(c, frozenset({k})).order()
    assert c0.order() == per_time
    assert restriction(c, frozenset({6})).order() == 32


def test_subcode_supercode_duality(rate13):
    rng = random.Random(31)
    for _ in range(10):
        c = random_code(rng, 2, 5)
        for j in range(0, 5):
            assert verify.subcode_supercode_duality(c, j) is None
    assert verify.subcode_supercode_duality(rate13.code, 1) is None
    # large j: both sides collapse to the dual
    c = random_code(rng, 3, 4)
    assert verify.subcode_supercode_duality(c, 9) is None


# --- granules ----------------------------------------------------------------------

def test_controller_granules(zerosum6, rate13):
    assert dyn.controller_granule(zerosum6, 2, 1) == (4,)
    full = GroupCode.full(SymbolLayout.uniform(4, 5))
    assert dyn.controller_granule(full, 1, 1) == ()
    assert dyn.controller_granule(full, 1, 2) == ()
    assert dyn.controller_granule(rate13.code, 5, 2) == (2,)
    assert dyn.controller_granule(rate13.code, 5, 1) == (2,)


def test_observer_granules(rate13, rep6):
    c = rate13.code
    assert dyn.observer_granule(c, 6, 0) == (2,)
    assert dyn.observer_granule(c, 6, 1) == (2, 4)
    assert dyn.observer_granule(rep6, 2, 1) == (4,)


def test_observer_granule_level1_is_reciprocal_pair_quotient(rate13):
    # Phi_{[k,k+1]} == (C_{|{k}} x C_{|{k+1}}) / C_{|[k,k+1]}
    from groupcodes import residues
    from groupcodes.codes import cut_product
    c = rate13.code
    k = 6
    pair = restriction(c, c.layout.interval(k, k + 1))
    prod = cut_product(pair, pair.layout.subset({0}))
    assert residues.quotient_invariants(prod.carrier, pair.carrier) == (2, 4)


def test_granule_duality(rate13):
    rng = random.Random(6)
    for _ in range(8):
        c = random_code(rng, 3, 4)
        n = c.layout.axis_len
        for j in range(0, n):
            for k in range(0, n - j):
                assert verify.granule_duality(c, k, j) is None
    assert verify.granule_duality(GroupCode.trivial(SymbolLayout.uniform(3, 3)), 1, 1) is None
    assert verify.granule_duality(rate13.code, 6, 1) is None
    assert dyn.observer_granule(rate13.code, 6, 1) == \
        dyn.controller_granule(dual(rate13.code), 6, 1) == (2, 4)


def test_granules_match_oracle():
    rng = random.Random(14)
    for _ in range(8):
        c = random_code(rng, rng.choice([2, 4]), 4)
        elems = oracle.code_elements(c)
        for j in range(0, 3):
            for k in range(0, 4 - j):
                times = list(range(k, k + j + 1))
                assert dyn.controller_granule(c, k, j) == \
                    oracle.controller_granule(c, elems, times, k, k + j)
                assert dyn.observer_granule(c, k, j) == \
                    oracle.observer_granule(c, elems, times, k, k + j)


def test_chain_granule_reads(rate13):
    report = dyn.output_chains(rate13.code, 6, 2)
    assert report.first_quotients[0] == ()
    assert report.observer_granules[1] == (2, 4)
    assert report.observer_granules == tuple(
        dyn.observer_granule(rate13.code, 6, j) for j in range(3))
    iv = Interval(8, 2, wraparound=True)
    assert dyn.end_around_controller_granule(rate13.code, iv) == \
        dyn.observer_granule(rate13.code, 2, 6)


# --- end-around theorem ----------------------------------------------------------

def test_end_around_examples(pairs):
    # three-time axes: all (m, n) pairs
    rng = random.Random(17)
    for _ in range(12):
        c = random_code(rng, 2, 3)
        for m in range(0, 2):
            for n in range(m + 1, 3):
                assert verify.end_around(c, m, n) is None
    assert verify.end_around(pairs, 2, 4) is None


def test_end_around_two_partition_reduces_to_state_isomorphism():
    # on a two-time axis the wrap interval [1, 0] covers the whole axis, its
    # granule is the two-sided state space, and the ordinary level-1 observer
    # granule is the reciprocal state space; the theorem becomes their
    # isomorphism
    rng = random.Random(23)
    for _ in range(8):
        c = random_code(rng, 4, 2, width=2)
        gamma = dyn.end_around_controller_granule(c, Interval(1, 0, wraparound=True))
        routes = verify.state_space_routes(c, c.layout.subset({0}))
        assert gamma == routes["two_sided"]
        assert dyn.observer_granule(c, 0, 1) == routes["reciprocal"]
        assert verify.end_around(c, 0, 1) is None


# --- interval tests and indices ----------------------------------------------------

def test_controllability_fixture_values(rate13, rep6):
    c = rate13.code
    assert dyn.controllable_on(c, 5, 7)
    assert not dyn.controllable_on(c, 5, 6)
    for m, n in [(1, 2), (2, 4), (1, 5)]:
        assert not dyn.controllable_on(rep6, m, n)
    full = GroupCode.full(SymbolLayout.uniform(4, 6))
    assert dyn.controllable_on(full, 2, 3)


def test_observability_fixture_values(rate13, rep6):
    c = rate13.code
    assert dyn.observable_on(c, 5, 6)
    d = dual(c)
    assert dyn.observable_on(d, 5, 7)
    assert not dyn.observable_on(d, 5, 6)
    full = GroupCode.full(SymbolLayout.uniform(4, 6))
    assert dyn.observable_on(full, 2, 3)
    assert dyn.observable_on(rep6, 2, 3)


def test_indices_fixture_values(rate13, rep6):
    c = rate13.code
    assert dyn.controllability_index(c, 3) == 2
    assert dyn.observability_index(c, 3) == 1
    d = dual(c)
    assert dyn.controllability_index(d, 3) == 1
    assert dyn.observability_index(d, 3) == 2
    assert dyn.controllability_index(rep6, 1) is None
    assert dyn.observability_index(rep6, 1) == 1


def test_per_test_detail_agrees(rate13):
    c = rate13.code
    assert dyn.controllability_tests(c, 5, 7) == \
        {"puncture_product": True, "shortened_sum": True}
    assert dyn.observability_tests(c, 5, 6) == \
        {"window_lift": True, "shortened_product": True}
    assert dyn.controllability_tests(c, 5, 6) == \
        {"puncture_product": False, "shortened_sum": False}


def test_controllability_transfers_to_dual_observability():
    rng = random.Random(37)
    for _ in range(15):
        c = random_code(rng, rng.choice([2, 3, 4]), rng.randint(2, 5))
        n = c.layout.axis_len
        m = rng.randint(0, n - 1)
        nn = rng.randint(m + 1, n)
        assert dyn.controllable_on(c, m, nn) == dyn.observable_on(dual(c), m, nn)


def test_empty_interval_is_the_zero_memory_cut():
    # at m = n both interval tests are the cut test C == C_{:[0,m)} + C_{:[m,N)},
    # taken here through shorten, at every cut 0..N of random codes and duals
    rng = random.Random(53)
    for _ in range(12):
        c = random_code(rng, rng.choice([2, 3, 4, 6]), rng.randint(2, 5), rng.randint(1, 2))
        for code in (c, dual(c)):
            lay, N = code.layout, code.layout.axis_len
            for m in range(N + 1):
                cut = residues.add(shorten(code, lay.subset(range(0, m))).carrier,
                                   shorten(code, lay.subset(range(m, N))).carrier)
                memoryless = cut == code.carrier
                assert dyn.controllable_on(code, m, m) == memoryless
                assert dyn.observable_on(code, m, m) == memoryless


def test_l_finite_examples(rate13):
    c = rate13.code
    assert code_equal(dyn.controllable_subcode(c, 2), c)
    assert not code_equal(dyn.controllable_subcode(c, 1), c)
    full = GroupCode.full(SymbolLayout.uniform(2, 4))
    assert code_equal(dyn.controllable_subcode(full, 0), full)
    for code in (c, full):
        for L in range(code.layout.axis_len):
            assert verify.l_finite_l_controllable(code, L) is None


# --- chains ---------------------------------------------------------------------

def test_output_chains_repetition(rep6):
    report = dyn.output_chains(rep6, 3, 2)
    assert report.first_output_group.is_trivial()
    assert report.syndrome_group == (4,)


def test_output_chains_pairs(pairs):
    report = dyn.output_chains(pairs, 4, 2)
    assert report.first_output_group.is_trivial()
    assert report.syndrome_group == (4,)


def test_output_chains_rejects_negative_levels(rep6):
    with pytest.raises(ValueError, match="max_level must be >= 0"):
        dyn.output_chains(rep6, 3, -1)


def test_output_chains_rate13(rate13):
    # computed by enumerating (C_j) restrictions: orders 1, 2, 4 at levels 0..2
    report = dyn.output_chains(rate13.code, 6, 3)
    assert [g.order() for g in report.first_output] == [1, 2, 4, 4]
    assert report.first_quotients == ((), (2,), (2,), ())
    assert report.first_output_group.order() == 4
    assert report.syndrome_group == (4, 4)
    assert verify.chain_granule_consistency(rate13.code, 6, 3) is None


def test_syndrome_group_dual_to_last_output_group():
    # S_k(C) = G_k/F_k(C) and the last-output group L_k = L_{k,k} of the dual
    # are character groups of each other, so their invariants agree at every
    # time
    rng = random.Random(47)
    for _ in range(10):
        c = random_code(rng, rng.choice([2, 3, 4]), rng.randint(2, 5))
        d = dual(c)
        for k in c.layout.times():
            from groupcodes import residues
            assert dyn.syndrome_group(c, k) == \
                residues.invariants(dyn.output_chains(d, k).last_output[k])


def test_one_sided_future_coset_generators(rate13):
    # the future one-sided state space at an interior cut is generated by the
    # cosets of |010 002 000...) (order 4) and |002 000...) (order 2)
    from groupcodes import residues
    from groupcodes.codes import restricted_subcode
    c = rate13.code
    k = 6
    future = c.layout.subset(range(k, 12))
    rest = restriction(c, future)
    sub = restricted_subcode(c, future)
    width = rest.layout.total_dim
    gen4 = [0, 1, 0, 0, 0, 2] + [0] * (width - 6)
    gen2 = [0, 0, 2] + [0] * (width - 3)
    # orders in the quotient: 4*gen4 lands in the subcode but 2*gen4 does not
    assert rest.contains(gen4) and rest.contains(gen2)
    assert not sub.contains(gen4)
    assert not sub.contains([2 * x for x in gen4])
    assert sub.contains([4 * x for x in gen4])
    assert not sub.contains(gen2)
    assert sub.contains([2 * x for x in gen2])
    assert residues.quotient_invariants(rest.carrier, sub.carrier) == (2, 4)


def test_chain_granule_consistency_random():
    rng = random.Random(41)
    for _ in range(10):
        c = random_code(rng, rng.choice([2, 4]), 4)
        for k in range(4):
            assert verify.chain_granule_consistency(c, k, 3) is None


def test_state_size_factorization_random():
    rng = random.Random(43)
    for _ in range(10):
        c = random_code(rng, rng.choice([2, 3]), rng.randint(2, 5))
        for k in range(1, c.layout.axis_len):
            assert verify.state_size_factorization(c, k) is None


# --- module structure -------------------------------------------------------------

# Public functions of dynamics that only verify and tests call.  They stay
# because perfbench/spans.py looks them up by name: its TARGETS trace the
# interval tests and the granule functions, and its CACHES report the hit
# ratios of the two memoized codes.
PERFBENCH_PINNED = {
    "controllability_tests", "observability_tests", "controller_granule",
    "observer_granule", "controller_granule_on", "end_around_controller_granule",
    "end_around_observer_granule", "controllable_subcode", "observable_supercode",
}


def test_dynamics_holds_only_library_routes():
    """Every public function of dynamics is reached from cli, machines or
    convolutional, directly or through other dynamics code, or is pinned by
    the benchmark; and dynamics imports nothing from verify, which holds the
    theorems and their definitional routes."""
    package = pathlib.Path(dyn.__file__).parent
    tree = ast.parse((package / "dynamics.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached = set(PERFBENCH_PINNED)
    for user in ("cli", "machines", "convolutional"):
        reached |= {node.attr for node in ast.walk(ast.parse((package / f"{user}.py").read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "dynamics"}
    frontier = list(reached & defs.keys())
    while frontier:
        used = {node.id for node in ast.walk(defs[frontier.pop()]) if isinstance(node, ast.Name)}
        fresh = used & defs.keys() - reached
        reached |= fresh
        frontier += fresh
    public = {name for name, node in defs.items()
              if isinstance(node, ast.FunctionDef) and not name.startswith("_")}
    assert sorted(public - reached) == []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            assert not any("verify" in m for m in modules), ast.unparse(node)
