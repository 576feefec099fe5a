"""Randomized verification of every in-scope duality theorem.

Each theorem of the battery is written once, as ``theorem(code, *params)``:
it computes one quantity by two independent routes and returns None when
they agree, or a detail dict naming the parameters (and the values that
differ) when they do not.  The library routes come from ``codes``,
``dynamics`` and ``machines``; the definitional routes that only the
theorems compare against them live here (``state_space``,
``state_space_routes``, ``window_supercode`` and the bodies of the
theorems).  ``window_supercode`` shares nothing with the library's
``observable_supercode``: it checks every window at once, in one
``lift_restriction`` pass, where the library takes the dual of a
controllable subcode of the dual.  Ordinary granules come off the library's
granule tables and end-around ones off their own passes, so ``end-around``
compares the two routes.

``ALL_CHECKS`` pairs each theorem's name with its parameter draw, as one
``(rng, code)`` callable.  One seeded trial draws a random layout and code
and runs every check on it.  Any mismatch is reported with a reproducible
artifact: the seed, trial index, theorem name, and the raw generators
involved.  A check that raises fails its theorem the same way, naming the
exception.

The same runner backs the ``verify-duality`` CLI command and the acceptance
suite, so the command-line surface and the tests cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from random import Random
from typing import Callable

from . import dynamics, machines, residues, snf
from .codes import (GroupCode, code_equal, conditioned, cut_product, dual,
                    lift_restriction, restricted_subcode, restriction, shorten)
from .residues import Subgroup, quotient_invariants
from .spaces import Interval, SymbolLayout, TimeSubset


@dataclass
class TrialFailure:
    theorem: str
    seed: int
    trial: int
    detail: dict

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "seed": self.seed,
                "trial": self.trial, "detail": self.detail}


@dataclass
class VerifySummary:
    seed: int
    trials: int
    checks_run: dict[str, int] = field(default_factory=dict)
    failures: list[TrialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials,
                "checks": dict(sorted(self.checks_run.items())),
                "failures": [f.to_dict() for f in self.failures],
                "ok": self.ok}


def _random_rows(rng: Random, layout: SymbolLayout) -> list[list[int]]:
    """Up to ``total_dim`` uniformly random rows on the layout."""
    n = layout.total_dim
    return [[rng.randrange(layout.modulus) for _ in range(n)]
            for _ in range(rng.randint(0, n))]


def random_code(rng: Random, moduli: tuple[int, ...], max_axis: int,
                max_width: int) -> GroupCode:
    modulus = rng.choice(list(moduli))
    axis = rng.randint(2, max_axis)
    widths = tuple(rng.randint(1, max_width) for _ in range(axis))
    return _random_code(rng, SymbolLayout(modulus, widths))


def _random_code(rng: Random, layout: SymbolLayout) -> GroupCode:
    return GroupCode.from_generators(layout, _random_rows(rng, layout))


def _code_artifact(code: GroupCode) -> dict:
    return {"modulus": code.layout.modulus,
            "widths": list(code.layout.widths),
            "basis": [list(row) for row in code.carrier.basis]}


# ---------------------------------------------------------------------------
# definitional routes


def state_space(code: GroupCode, times: TimeSubset) -> dynamics.Invariants:
    """The state space across any cut {J, I-J}: C / (C_{:J} + C_{:I-J})."""
    ts = code.layout.subset(times)
    comp = code.layout.complement(ts)
    if not ts or not comp:
        raise ValueError("state space needs a proper nonempty cut")
    # the two shortenings' basis rows generate the denominator, as snf takes it
    return snf.lattice_quotient_invariants(
        code.layout.modulus, code.carrier.howell,
        [*shorten(code, ts).carrier.basis, *shorten(code, comp).carrier.basis])


def state_space_routes(code: GroupCode,
                       times: TimeSubset) -> dict[str, dynamics.Invariants]:
    """The four state-space definitions at one cut, which the theorems equate.

    ``two_sided`` is ``state_space``'s; the one-sided ones are C_{|J} / C_{|:J}
    and C_{|I-J} / C_{|:I-J}, and ``reciprocal`` is (C_{|J} x C_{|I-J}) / C.
    """
    two_sided = state_space(code, times)  # rejects improper cuts
    ts = code.layout.subset(times)
    comp = code.layout.complement(ts)
    return {
        "two_sided": two_sided,
        "one_sided_past": quotient_invariants(
            restriction(code, ts).carrier, restricted_subcode(code, ts).carrier),
        "one_sided_future": quotient_invariants(
            restriction(code, comp).carrier, restricted_subcode(code, comp).carrier),
        "reciprocal": quotient_invariants(cut_product(code, ts).carrier, code.carrier),
    }


def window_supercode(code: GroupCode, level: int) -> GroupCode:
    """C^j by definition: the words whose part on every length-(j+1) window W
    lies in C_{|W}, one ``lift_restriction`` pass over all the windows."""
    if level < 0:
        raise ValueError("level must be >= 0")
    layout = code.layout
    j = min(level, layout.axis_len - 1)
    return lift_restriction(code, *(layout.interval(k, k + j)
                                    for k in range(0, layout.axis_len - j)))


# ---------------------------------------------------------------------------
# theorems: each returns None when it holds, else a detail dict


def dual_involution(code: GroupCode) -> dict | None:
    """(C^perp)^perp = C."""
    return None if code_equal(dual(dual(code)), code) else {}


def order_duality(code: GroupCode) -> dict | None:
    """|C| |C^perp| = M^n."""
    m, n = code.layout.modulus, code.layout.total_dim
    if code.order() * dual(code).order() != m ** n:
        return {"order": code.order(), "dual_order": dual(code).order()}
    return None


def projection_subcode_duality(code: GroupCode, times: TimeSubset) -> dict | None:
    """(C_{|J})^perp = (C^perp)_{|:J}."""
    lhs = residues.orthogonal(restriction(code, times).carrier)
    rhs = restricted_subcode(dual(code), times).carrier
    return None if lhs == rhs else {"times": sorted(times)}


def restricted_product_duality(code: GroupCode, times: TimeSubset) -> dict | None:
    """(C_{|J} x C_{|I-J})^perp = (C^perp)_{:J} + (C^perp)_{:I-J}."""
    comp = code.layout.complement(times)
    lhs = residues.orthogonal(cut_product(code, times).carrier)
    rhs = residues.add(shorten(dual(code), times).carrier,
                       shorten(dual(code), comp).carrier)
    return None if lhs == rhs else {"times": sorted(times)}


def sum_intersection_duality(code: GroupCode, rows: list[list[int]]) -> dict | None:
    """(H1 + H2)^perp = H1^perp & H2^perp, for H1 the code and H2 the span of
    ``rows``; the intersection is a Zassenhaus pass."""
    layout = code.layout
    h1, h2 = code.carrier, Subgroup.span(layout.modulus, rows, layout.total_dim)
    lhs = residues.orthogonal(residues.add(h1, h2))
    rhs = residues.intersect(residues.orthogonal(h1), residues.orthogonal(h2))
    return None if lhs == rhs else {"h2": [list(row) for row in h2.basis]}


def conditioned_code_duality(code: GroupCode, times: TimeSubset,
                             d: GroupCode) -> dict | None:
    """((C | D)_{|J})^perp = (C^perp | D^perp)_{|J}, for D a code on I-J."""
    lhs = residues.orthogonal(restriction(conditioned(code, d, times), times).carrier)
    rhs = restriction(conditioned(dual(code), dual(d), times), times).carrier
    return None if lhs == rhs else {"times": sorted(times), "d": _code_artifact(d)}


def dual_state_space(code: GroupCode, times: TimeSubset) -> dict | None:
    """State spaces of dual codes are character groups of each other, hence
    isomorphic in the finite abelian case."""
    if state_space(code, times) != state_space(dual(code), times):
        return {"times": sorted(times)}
    return None


def state_space_four_way(code: GroupCode, times: TimeSubset) -> dict | None:
    """The two-sided, both one-sided and the reciprocal state spaces agree."""
    routes = state_space_routes(code, times)
    if len(set(routes.values())) > 1:
        return {"times": sorted(times), **routes}
    return None


def subcode_supercode_duality(code: GroupCode, level: int) -> dict | None:
    """(C^perp)^j = (C_j)^perp, with (C^perp)^j by its definition."""
    if not code_equal(window_supercode(dual(code), level),
                      dual(dynamics.controllable_subcode(code, level))):
        return {"level": level}
    return None


def granule_duality(code: GroupCode, k: int, level: int) -> dict | None:
    """Phi_{[k,k+j]}(C) acts as the character group of Gamma_{[k,k+j]}(C^perp):
    as finite abelian groups they share invariant factors.  Phi is taken here
    by its supercode definition, C^{j-1}_{|W} / C^j_{|W} on the window
    W = [k, k+j], with each C^j from ``window_supercode``."""
    gamma = dynamics.controller_granule(dual(code), k, level)  # rejects bad intervals
    window = code.layout.interval(k, k + level)
    num = (restriction(window_supercode(code, level - 1), window).carrier if level
           else Subgroup.full(code.layout.modulus, code.layout.widths[k]))
    den = restriction(window_supercode(code, level), window).carrier
    if quotient_invariants(num, den) != gamma:
        return {"k": k, "level": level}
    return None


def end_around(code: GroupCode, m: int, n: int) -> dict | None:
    """Gamma over the end-around interval [n, m] matches Phi over [m, n], and
    end-around Phi matches ordinary Gamma."""
    wrap = Interval(n, m, wraparound=True)
    if (dynamics.end_around_controller_granule(code, wrap)
            != dynamics.observer_granule(code, m, n - m)):
        return {"m": m, "n": n, "direction": "controller"}
    if (dynamics.end_around_observer_granule(code, wrap)
            != dynamics.controller_granule(code, m, n - m)):
        return {"m": m, "n": n, "direction": "observer"}
    return None


def interval_test_equivalence(code: GroupCode, m: int, n: int) -> dict | None:
    """Both characterizations of [m, n)-controllability of C and both of
    [m, n)-observability of C^perp give one verdict, and so the controller
    memory of C is the observer memory of C^perp at every margin."""
    ctrl = dynamics.controllability_tests(code, m, n)
    obs_dual = dynamics.observability_tests(dual(code), m, n)
    if len({*ctrl.values(), *obs_dual.values()}) > 1:
        return {"m": m, "n": n, "ctrl": ctrl, "obs_dual": obs_dual}
    for margin in range(code.layout.axis_len // 2 + 1):
        memories = (dynamics.controllability_index(code, margin),
                    dynamics.observability_index(dual(code), margin))
        if memories[0] != memories[1]:
            return {"margin": margin, "controller_memory": memories[0],
                    "dual_observer_memory": memories[1]}
    return None


def l_finite_l_controllable(code: GroupCode, level: int) -> dict | None:
    """L-finite (generated by its length-(L+1) interval words) exactly when
    L-controllable (every length-L interval [m, m+L) passes; for L = 0, every
    cut)."""
    n = code.layout.axis_len
    finite = code_equal(dynamics.controllable_subcode(code, level), code)
    controllable = all(dynamics.controllable_on(code, m, m + level)
                       for m in range(0, n - level + 1))
    if finite != controllable:
        return {"L": level, "finite": finite, "controllable": controllable}
    return None


def chain_granule_consistency(code: GroupCode, k: int, level: int) -> dict | None:
    """Chain quotients equal their granules wherever the intervals fit.  The
    last-output chain and ``controller_granule`` are read off the same span
    profile rows, so its quotients meet the shorten route of
    ``controller_granule_on``."""
    report = dynamics.output_chains(code, k, level)
    ok = True
    for j in range(0, level + 1):
        if k + j <= code.layout.axis_len - 1:
            ok &= report.first_quotients[j] == dynamics.controller_granule(code, k, j)
            ok &= report.observer_granules[j] == dynamics.observer_granule(code, k, j)
        if k - j >= 0:
            ok &= (report.last_quotients[j]
                   == dynamics.controller_granule_on(code, Interval(k - j, k)))
            if j >= 1:
                ok &= (report.dual_first_quotients[j - 1]
                       == dynamics.observer_granule(code, k - j, j))
    return None if ok else {"k": k, "level": level}


def state_size_factorization(code: GroupCode, k: int) -> dict | None:
    """|Sigma_k| is the product of the orders of the controller granules
    active at cut k (every in-range interval straddling the boundary between
    k-1 and k), and that of the observer granules."""
    straddling = [(a, b - a) for a in range(0, k) for b in range(k, code.layout.axis_len)]
    order = dynamics.state_at(code, k).order
    via_gamma = prod(residues.group_order(dynamics.controller_granule(code, a, j))
                     for a, j in straddling)
    via_phi = prod(residues.group_order(dynamics.observer_granule(code, a, j))
                   for a, j in straddling)
    if not order == via_gamma == via_phi:
        return {"k": k, "order": order, "gamma": via_gamma, "phi": via_phi}
    return None


def granule_factorization(code: GroupCode, level: int) -> dict | None:
    """prod_k |Gamma_{[k,k+j]}| = |C_j| / |C_{j-1}|, dually with Phi and C^j."""
    below = dynamics.controllable_subcode(code, level - 1).order() if level else 1
    gamma_prod = 1
    phi_prod = 1
    for k in range(0, code.layout.axis_len - level):
        gamma_prod *= residues.group_order(dynamics.controller_granule(code, k, level))
        phi_prod *= residues.group_order(dynamics.observer_granule(code, k, level))
    if dynamics.controllable_subcode(code, level).order() != below * gamma_prod:
        return {"level": level, "side": "controller", "granule_product": gamma_prod}
    above = (dynamics.observable_supercode(code, level - 1).order() if level
             else GroupCode.full(code.layout).order())
    if above != dynamics.observable_supercode(code, level).order() * phi_prod:
        return {"level": level, "side": "observer", "granule_product": phi_prod}
    return None


def machine_roundtrip(code: GroupCode, rng: Random, trials: int = 2) -> dict | None:
    """Encoder, observer, and syndrome-former agree on random traffic.

    The syndrome-former's memory is the encoder's; the observer's state count
    at every cut matches the orders of the two shortenings; encoded words have
    all-zero syndromes and per-time states matching the full-word observer;
    perturbations by non-codewords are flagged; and the input groups account
    for the code exactly.
    """
    enc = machines.ObserverEncoder(code)
    sf = machines.SyndromeFormer(code)
    if sf.memory != enc.memory:
        return {}
    layout = code.layout
    M, N, L = layout.modulus, layout.axis_len, enc.memory
    # C_{|[k-L,k]} -> C_{|[k-L,k)} is onto with kernel 0 x Y([k-L, k]), and
    # F_k <= Y([k-L, k]): equal orders are the identity Y([k-L, k]) = F_k
    # that lets the encoder read its base symbol off the state label
    for k in range(N):
        lo = max(0, k - L)
        window = restriction(code, layout.subset(range(lo, k))).order() if k > lo else 1
        if (enc.input_groups[k].order() * window
                != restriction(code, layout.interval(lo, k)).order()):
            return {}
    # |C_{:[0,k)} + C_{:[k,N)}| is the product of the two orders: they meet trivially
    for k in range(N + 1):
        past = shorten(code, layout.subset(range(0, k))).order()
        future = shorten(code, layout.subset(range(k, N))).order()
        if enc.observer.state_count(k) != code.order() // (past * future):
            return {}
    if prod(machines.input_group_orders(code)) != code.order():
        return {}
    for _ in range(trials):
        word, trace = enc.encode(enc.random_inputs(rng))
        if not sf.is_member(word):
            return {}
        for k, step in enumerate(trace.steps):
            if enc.observer.observe_codeword(word, k) != step.state:
                return {}
    if code.order() == M ** layout.total_dim:
        return None  # full space: no perturbation outside the code exists
    for _ in range(trials):
        coeffs = [rng.randrange(M) for _ in range(code.carrier.num_generators)]
        c = [0] * layout.total_dim
        for q, row in zip(coeffs, code.carrier.basis):
            c = [(a + q * b) % M for a, b in zip(c, row)]
        while True:
            e = [rng.randrange(M) for _ in range(layout.total_dim)]
            if not code.contains(e):
                break
        if sf.is_member([(a + b) % M for a, b in zip(c, e)]):
            return {}
    return None


# ---------------------------------------------------------------------------
# parameter draws and the battery


def _proper_subset(rng: Random, code: GroupCode) -> frozenset[int]:
    n = code.layout.axis_len
    while True:
        s = frozenset(t for t in range(n) if rng.random() < 0.5)
        if s and len(s) < n:
            return s


def _time(rng: Random, code: GroupCode) -> int:
    return rng.randint(0, code.layout.axis_len - 1)


def _span(rng: Random, top: int) -> tuple[int, int]:
    """0 <= m < n <= top."""
    m = rng.randint(0, top - 1)
    return m, rng.randint(m + 1, top)


def _start_and_level(rng: Random, code: GroupCode) -> tuple[int, int]:
    """A level j, then a start k with [k, k+j] inside the axis."""
    level = _time(rng, code)
    return rng.randint(0, code.layout.axis_len - 1 - level), level


Check = Callable[[Random, GroupCode], dict | None]

ALL_CHECKS: dict[str, Check] = {
    "dual-involution": lambda rng, c: dual_involution(c),
    "order-duality": lambda rng, c: order_duality(c),
    "projection-subcode-duality":
        lambda rng, c: projection_subcode_duality(c, _proper_subset(rng, c)),
    "restricted-product-duality":
        lambda rng, c: restricted_product_duality(c, _proper_subset(rng, c)),
    "sum-intersection-duality":
        lambda rng, c: sum_intersection_duality(c, _random_rows(rng, c.layout)),
    "conditioned-code-duality": lambda rng, c: conditioned_code_duality(
        c, ts := _proper_subset(rng, c),
        _random_code(rng, c.layout.restricted(c.layout.complement(ts)))),
    "dual-state-space": lambda rng, c: dual_state_space(c, _proper_subset(rng, c)),
    "state-space-four-way": lambda rng, c: state_space_four_way(c, _proper_subset(rng, c)),
    "subcode-supercode-duality":
        lambda rng, c: subcode_supercode_duality(c, _time(rng, c)),
    "granule-duality": lambda rng, c: granule_duality(c, *_start_and_level(rng, c)),
    "end-around": lambda rng, c: end_around(c, *_span(rng, c.layout.axis_len - 1)),
    "interval-test-equivalence":
        lambda rng, c: interval_test_equivalence(c, *_span(rng, c.layout.axis_len)),
    "l-finite-l-controllable": lambda rng, c: l_finite_l_controllable(c, _time(rng, c)),
    "chain-granule-consistency":
        lambda rng, c: chain_granule_consistency(c, _time(rng, c), _time(rng, c)),
    "state-size-factorization":
        lambda rng, c: state_size_factorization(c, rng.randint(1, c.layout.axis_len - 1)),
    "granule-factorization": lambda rng, c: granule_factorization(c, _time(rng, c)),
    "machine-roundtrip": lambda rng, c: machine_roundtrip(c, rng),
}


def run_trials(seed: int = 1, trials: int = 200,
               moduli: tuple[int, ...] = (2, 3, 4),
               max_axis: int = 6, max_width: int = 2,
               checks: dict[str, Check] | None = None) -> VerifySummary:
    """Run every theorem check on ``trials`` random codes."""
    checks = ALL_CHECKS if checks is None else checks
    summary = VerifySummary(seed=seed, trials=trials)
    for i in range(trials):
        rng = Random(f"{seed}:{i}")
        code = random_code(rng, tuple(moduli), max_axis, max_width)
        for name, check in checks.items():
            try:
                detail = check(rng, code)
            except Exception as e:  # a route that raises fails its theorem
                detail = {"exception": type(e).__name__, "message": str(e)}
            summary.checks_run[name] = summary.checks_run.get(name, 0) + 1
            if detail is not None:
                detail = {**detail, "code": _code_artifact(code)}
                summary.failures.append(TrialFailure(name, seed, i, detail))
    return summary
