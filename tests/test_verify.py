"""The randomized theorem harness itself."""

import dataclasses
import functools
import json
import random

import pytest

from groupcodes import codes
from groupcodes import dynamics as dyn
from groupcodes import machines as mc
from groupcodes import residues as R
from groupcodes import snf, verify
from groupcodes.cli import main
from groupcodes.residues import Subgroup
from groupcodes.spaces import Interval


def test_harness_is_deterministic():
    a = verify.run_trials(seed=5, trials=4)
    b = verify.run_trials(seed=5, trials=4)
    assert a.to_dict() == b.to_dict()
    assert a.ok


def test_harness_counts_every_check():
    s = verify.run_trials(seed=9, trials=3)
    assert set(s.checks_run) == set(verify.ALL_CHECKS)
    assert all(v == 3 for v in s.checks_run.values())


def test_composite_moduli_hold():
    # beyond the acceptance alphabet: non-prime-power and odd moduli
    s = verify.run_trials(seed=77, trials=15, moduli=(5, 6, 8, 9),
                          max_axis=5, max_width=2)
    assert s.ok, s.to_dict()


def test_wide_symbols_hold():
    s = verify.run_trials(seed=78, trials=10, moduli=(2, 3, 4, 6),
                          max_axis=4, max_width=3)
    assert s.ok, s.to_dict()


@pytest.mark.parametrize("modulus", [2**31 - 1, 2**40, 2**64 + 13, 2**70])
def test_battery_holds_at_large_moduli(modulus):
    # products of residues leave int64 from M ~ 2^31, and residues themselves
    # past 2^63; every check, machine roundtrip included, must stay exact
    s = verify.run_trials(seed=5, trials=6, moduli=(modulus,), max_axis=5,
                          max_width=2)
    assert s.ok, s.to_dict()


def test_subgroup_laws_at_large_modulus():
    rng = random.Random(7)
    M = (1 << 40) - 87
    for trial in range(10):
        n = rng.randint(1, 3)
        rows = [[rng.randrange(M) for _ in range(n)]
                for _ in range(rng.randint(0, n + 1))]
        h = Subgroup.span(M, rows, n)
        o = R.orthogonal(h)
        assert R.orthogonal(o) == h
        assert h.order() * o.order() == M ** n
        h2 = Subgroup.span(M, [[rng.randrange(M) for _ in range(n)]], n)
        assert R.orthogonal(R.add(h, h2)) == R.intersect(o, R.orthogonal(h2))
        a = R.add(h, h2)
        assert R.quotient_invariants(a, h) == \
            R.quotient_invariants(R.orthogonal(h), R.orthogonal(a))


def _rotated(code, times):
    n = code.layout.axis_len
    return frozenset((t + 1) % n for t in times)


def _planted_faults():
    """(module, route, off-by-one replacement, check that must catch it) for
    every library route and every definitional route the battery compares."""
    ss, routes, ctrl, obs, sup, ctests, otests, win, phi_on = (
        verify.state_space, verify.state_space_routes, dyn.controllable_on,
        dyn.observable_on, dyn.observable_supercode, dyn.controllability_tests,
        dyn.observability_tests, verify.window_supercode, dyn.observer_granule_on)
    step_table, state_at, chain_pass, chains = (
        mc._step_table, dyn.state_at, dyn._chain_pass, dyn.output_chains)
    insert, lift = R.IncrementalHowell.insert, codes.lift_restriction

    def table(name, fault):  # the Trellis table ``name``, as ``fault`` reads it
        build = getattr(dyn.Trellis, name).func
        prop = functools.cached_property(lambda trellis: fault(build(trellis)))
        prop.__set_name__(dyn.Trellis, name)
        return prop

    def bad_routes(code, times):  # reciprocal state space at the next cut
        out = routes(code, times)
        out["reciprocal"] = routes(code, _rotated(code, times))["reciprocal"]
        return out

    def bad_puncture(code, m, n):  # puncture product one time too late
        out = ctests(code, m, n)
        out["puncture_product"] = ctests(
            code, m, min(n + 1, code.layout.axis_len))["puncture_product"]
        return out

    def bad_window_lift(code, m, n):  # window lift one time too early
        out = otests(code, m, n)
        out["window_lift"] = otests(code, max(m - 1, 0), n)["window_lift"]
        return out

    def late_profile(profile):  # every row keyed one time late
        return tuple(((),) + by_end[:-2] + (by_end[-2] + by_end[-1],)
                     for by_end in profile)

    def short_phi(code, interval):  # Phi of the interval without its first time
        if len(interval.times(code.layout)) < 3:
            return phi_on(code, interval)
        lo = (interval.lo + 1) % code.layout.axis_len
        return phi_on(code, Interval(lo, interval.hi, wraparound=lo > interval.hi))

    def past_and_future(code, stop, k):  # rows that span C_{:[0,stop)} + C_{:[k,N)}
        carrier = code.carrier
        past = [row for ending in dyn.trellis(code).profile[0][:stop] for _, _, row in ending]
        return past + [row for (c, _), row in zip(carrier.pivots, carrier.basis)
                       if c >= code.layout.starts[k]]

    def reducer(code, stop, k):  # the Howell rows of C_{:[0,stop)} + C_{:[k,N)}
        lay = code.layout
        return list(Subgroup.span(lay.modulus, past_and_future(code, stop, k),
                                  lay.total_dim).tails)

    def short_past(code, lo, k, denom):  # past rows one time short: C_{:[0,k-1)} at cut k
        return step_table(code, lo, k, reducer(code, max(k - 1, 0), k))

    def short_state_past(code, k):  # the state's past rows: those that end before k-1
        return dyn.StateSpaceReport(snf.lattice_quotient_invariants(
            code.layout.modulus, code.carrier.howell, past_and_future(code, k - 1, k)))

    def long_intervals(orders):  # |C_{:[k,n)}| read as |C_{:[k,n+1)}|
        return tuple(row[1:] + row[-1:] for row in orders)

    def short_windows(orders):  # |C_{|[m,n)}| read as |C_{|[m,n-1)}|
        return tuple(row[:1] + row[:-1] for row in orders)

    def late_start(table):  # the rows at [a][b] read as those at [a+1][b]
        return table[1:] + table[-1:]

    def pivot_growth(self, row, start=0):  # growth read off the pivot count,
        before = len(self.pivots())        # so a merge that only lowers a
        insert(self, row, start)           # pivot entry counts as none
        return len(self.pivots()) > before

    def short_ending(code, k, order, cap):  # each level without the order's first time
        if len(order) < 2:
            return chain_pass(code, k, order, cap)
        out = chain_pass(code, k, order[1:], cap - 1)
        return out[:1] + out

    def long_reducers(code, lo, k, denom):  # each label reducer's past one time
        # long: D_k + D_{k+1} = C_{:[0,k+1)} + C_{:[k,N)}
        return step_table(code, lo, k, reducer(code, min(k + 1, code.layout.axis_len), k))

    def short_table(code, lo, k, denom):  # each step table's window one time short
        return step_table(code, min(lo + 1, k), k, denom)

    def long_overlap(code, m, n):  # the summands' overlap one time too long
        N, table = code.layout.axis_len, dyn.trellis(code).interval_orders
        return code.order() * table[m][min(n + 1, N)] == table[0][n] * table[m][N]

    def phi0_off_input(code, k, max_level=None):  # Phi_{[k,k]} as G_k / F_k
        report = chains(code, k, max_level)
        # a cached property: the frozen report keeps it in its __dict__
        vars(report)["observer_granules"] = (report.syndrome_group,
                                             *report.observer_granules[1:])
        return report

    def short_first(code, k, max_level=None):  # F_{j,k} read one level short
        report = chains(code, k, max_level)
        first = report.first_output
        return dataclasses.replace(report, first_output=first[:1] + first[:-1])

    def short_future(code, k, order, cap):  # the L^ window pass one time short
        return chain_pass(code, k, order[:-1] if order and order[0] > k else order, cap)

    def half_denominator(code, interval):  # Gamma modulo one one-short subcode only
        times = interval.times(code.layout)
        den = ([] if len(times) == 1
               else codes.shorten(code, times - {interval.hi}).carrier.basis)
        return snf.lattice_quotient_invariants(
            code.layout.modulus, codes.shorten(code, times).carrier.howell, den)

    def short_smith(modulus, a, b_rows):  # last relation row dropped
        width, rels = snf.quotient_relations(modulus, a, b_rows)
        return snf.smith_invariants(modulus, rels[:-1], width)

    return [
        (verify, "state_space", lambda code, times: ss(code, _rotated(code, times)),
         "state-space-four-way"),
        (dyn, "controllable_on",
         lambda code, m, n: ctrl(code, m, min(n + 1, code.layout.axis_len)),
         "interval-test-equivalence"),
        (dyn, "observable_on", lambda code, m, n: obs(code, max(m - 1, 0), n),
         "interval-test-equivalence"),
        (dyn, "observable_supercode", lambda code, j: sup(code, j + 1),
         "granule-factorization"),
        (verify, "state_space_routes", bad_routes, "state-space-four-way"),
        (dyn, "controllability_tests", bad_puncture, "interval-test-equivalence"),
        (dyn, "observability_tests", bad_window_lift, "interval-test-equivalence"),
        (verify, "window_supercode", lambda code, j: win(code, j + 1), "granule-duality"),
        (verify, "lift_restriction",  # the last window's check left out
         lambda code, *windows: lift(code, *windows[:-1]), "granule-duality"),
        (dyn, "controller_granule_on", half_denominator, "end-around"),
        (dyn.Trellis, "profile", table("profile", late_profile), "granule-factorization"),
        (dyn, "observer_granule_on", short_phi, "end-around"),
        (dyn.Trellis, "profile", table("profile", late_start), "granule-factorization"),
        (dyn.Trellis, "windows", table("windows", late_start), "granule-factorization"),
        (dyn, "controllable_on", long_overlap, "interval-test-equivalence"),
        (mc, "_step_table", short_past, "machine-roundtrip"),
        (dyn.Trellis, "interval_orders", table("interval_orders", long_intervals),
         "interval-test-equivalence"),
        (dyn.Trellis, "window_orders", table("window_orders", short_windows),
         "interval-test-equivalence"),
        (R.IncrementalHowell, "insert", pivot_growth, "machine-roundtrip"),
        (dyn, "_chain_pass", short_ending, "end-around"),
        (dyn, "state_at",  # the cut read one time late
         lambda code, k: state_at(code, min(k + 1, code.layout.axis_len - 1)),
         "state-size-factorization"),
        (dyn, "state_at", short_state_past, "state-size-factorization"),
        (dyn, "output_chains", short_first, "chain-granule-consistency"),
        (dyn, "_chain_pass", short_future, "chain-granule-consistency"),
        (dyn, "output_chains", phi0_off_input, "chain-granule-consistency"),
        (mc, "_step_table", long_reducers, "machine-roundtrip"),
        (mc, "_step_table", short_table, "machine-roundtrip"),
        (R, "lattice_quotient_invariants", short_smith, "granule-factorization"),
    ]


def _clear_memos():
    for mod in (dyn, codes):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_battery_catches_planted_route_faults(monkeypatch):
    # every check must compare two independent routes: an off-by-one fault in
    # either the library route or the definitional one has to show up.  The
    # memos are emptied before each run, or results cached by an earlier run
    # would stand in for a faulty route.
    faults = _planted_faults()
    checks = {check: verify.ALL_CHECKS[check] for _, _, _, check in faults}
    trials = dict(seed=1, trials=60, moduli=(2, 3, 4, 6, 8, 9))
    _clear_memos()
    assert verify.run_trials(**trials, checks=checks).ok
    for owner, route, fault, check in faults:
        _clear_memos()
        monkeypatch.setattr(owner, route, fault)
        s = verify.run_trials(**trials, checks={check: checks[check]})
        monkeypatch.undo()
        assert any(f.theorem == check for f in s.failures), route
    _clear_memos()


def test_raising_check_is_a_theorem_failure(monkeypatch, capsys):
    """A route that raises fails the theorem whose check called it: the run
    goes on, prints its JSON and exits 4, and each failure names the exception
    and carries the code."""
    chain_pass = dyn._chain_pass

    def whole_group(code, k, order, cap):  # Y(S) is every symbol for |S| > 2
        full = Subgroup.full(code.layout.modulus, code.layout.widths[k])
        return tuple(full if min(j, len(order)) > 1 else level
                     for j, level in enumerate(chain_pass(code, k, order, cap)))

    _clear_memos()
    monkeypatch.setattr(dyn, "_chain_pass", whole_group)
    assert main(["verify-duality", "--trials", "5", "--json"]) == 4
    monkeypatch.undo()
    _clear_memos()
    raised = [f for f in json.loads(capsys.readouterr().out)["failures"]
              if "exception" in f["detail"]]
    assert raised
    for f in raised:
        assert f["theorem"] in verify.ALL_CHECKS
        assert f["detail"]["exception"] == "ValueError" and f["detail"]["message"]
        assert f["detail"]["code"]["basis"] is not None
