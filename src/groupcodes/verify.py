"""Randomized verification of every in-scope duality theorem.

One seeded trial draws a random layout and code (plus auxiliary subsets,
intervals, and conditioning codes) and runs the full battery of theorem
checks on it.  Any mismatch is reported with a reproducible artifact: the
seed, trial index, theorem name, and the raw generators involved.  A check
that raises fails its theorem the same way, naming the exception.

The same runner backs the ``verify-duality`` CLI command and the acceptance
suite, so the command-line surface and the tests cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import dynamics, machines, residues
from .codes import (GroupCode, code_equal, conditioned, cut_product, dual,
                    restricted_subcode, restriction, shorten)
from .residues import Subgroup
from .spaces import SymbolLayout


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


def random_code(rng: Random, moduli: tuple[int, ...], max_axis: int,
                max_width: int) -> GroupCode:
    modulus = rng.choice(list(moduli))
    axis = rng.randint(2, max_axis)
    widths = tuple(rng.randint(1, max_width) for _ in range(axis))
    layout = SymbolLayout(modulus, widths)
    r = rng.randint(0, layout.total_dim)
    rows = [[rng.randrange(modulus) for _ in range(layout.total_dim)]
            for _ in range(r)]
    return GroupCode.from_generators(layout, rows)


def _proper_subset(rng: Random, n: int) -> frozenset[int]:
    while True:
        s = frozenset(t for t in range(n) if rng.random() < 0.5)
        if s and len(s) < n:
            return s


def _code_artifact(code: GroupCode) -> dict:
    return {"modulus": code.layout.modulus,
            "widths": list(code.layout.widths),
            "basis": code.carrier.basis.tolist()}


Check = Callable[[Random, GroupCode], dict | None]


def _check_dual_involution(rng: Random, c: GroupCode) -> dict | None:
    if not code_equal(dual(dual(c)), c):
        return {}
    return None


def _check_order_duality(rng: Random, c: GroupCode) -> dict | None:
    m, n = c.layout.modulus, c.layout.total_dim
    if c.order() * dual(c).order() != m ** n:
        return {"order": c.order(), "dual_order": dual(c).order()}
    return None


def _check_projection_subcode(rng: Random, c: GroupCode) -> dict | None:
    ts = _proper_subset(rng, c.layout.axis_len)
    lhs = residues.orthogonal(restriction(c, ts).carrier)
    rhs = restricted_subcode(dual(c), ts).carrier
    if lhs != rhs:
        return {"times": sorted(ts)}
    return None


def _check_restricted_product(rng: Random, c: GroupCode) -> dict | None:
    # orthogonal of C_{|J} x C_{|I-J} is (C*)_{:J} + (C*)_{:I-J}
    ts = _proper_subset(rng, c.layout.axis_len)
    comp = c.layout.complement(ts)
    lhs = residues.orthogonal(cut_product(c, ts).carrier)
    rhs = residues.add(shorten(dual(c), ts).carrier,
                       shorten(dual(c), comp).carrier)
    if lhs != rhs:
        return {"times": sorted(ts)}
    return None


def _check_sum_intersection(rng: Random, c: GroupCode) -> dict | None:
    layout = c.layout
    h2 = Subgroup.span(layout.modulus,
                       [[rng.randrange(layout.modulus) for _ in range(layout.total_dim)]
                        for _ in range(rng.randint(0, layout.total_dim))],
                       layout.total_dim)
    h1 = c.carrier
    lhs = residues.orthogonal(residues.add(h1, h2))
    rhs = residues.intersect(residues.orthogonal(h1), residues.orthogonal(h2))
    if lhs != rhs:
        return {"h2": h2.basis.tolist()}
    return None


def _check_conditioned(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    ts = _proper_subset(rng, n)
    comp = c.layout.complement(ts)
    d_layout = c.layout.restricted(comp)
    d = GroupCode.from_generators(
        d_layout, [[rng.randrange(c.layout.modulus) for _ in range(d_layout.total_dim)]
                   for _ in range(rng.randint(0, d_layout.total_dim))])
    lhs = residues.orthogonal(restriction(conditioned(c, d, ts), ts).carrier)
    rhs = restriction(conditioned(dual(c), dual(d), ts), ts).carrier
    if lhs != rhs:
        return {"times": sorted(ts), "d": _code_artifact(d)}
    return None


def _check_dual_state_space(rng: Random, c: GroupCode) -> dict | None:
    ts = _proper_subset(rng, c.layout.axis_len)
    if not dynamics.dual_state_space_check(c, ts):
        return {"times": sorted(ts)}
    return None


def _check_four_way_state(rng: Random, c: GroupCode) -> dict | None:
    ts = _proper_subset(rng, c.layout.axis_len)
    routes = dynamics.state_space_routes(c, ts)
    if len(set(routes.values())) > 1:
        return {"times": sorted(ts), **routes}
    return None


def _check_subcode_supercode(rng: Random, c: GroupCode) -> dict | None:
    j = rng.randint(0, c.layout.axis_len - 1)
    if not dynamics.subcode_supercode_duality_check(c, j):
        return {"level": j}
    return None


def _check_granule_duality(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    j = rng.randint(0, n - 1)
    k = rng.randint(0, n - 1 - j)
    if not dynamics.granule_duality_check(c, k, j):
        return {"k": k, "level": j}
    return None


def _check_end_around(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    m = rng.randint(0, n - 2)
    nn = rng.randint(m + 1, n - 1)
    if not dynamics.end_around_check(c, m, nn):
        return {"m": m, "n": nn, "direction": "controller"}
    if not dynamics.end_around_dual_check(c, m, nn):
        return {"m": m, "n": nn, "direction": "observer"}
    return None


def _check_interval_tests(rng: Random, c: GroupCode) -> dict | None:
    # both characterizations of [m, n)-controllability of C and both of
    # [m, n)-observability of C^perp must give one verdict
    n = c.layout.axis_len
    m = rng.randint(0, n - 1)
    nn = rng.randint(m + 1, n)
    ctrl = dynamics.controllability_tests(c, m, nn)
    obs_dual = dynamics.observability_tests(dual(c), m, nn)
    if len({*ctrl.values(), *obs_dual.values()}) > 1:
        return {"m": m, "n": nn, "ctrl": ctrl, "obs_dual": obs_dual}
    return None


def _check_l_finite(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    L = rng.randint(0, n - 1)
    finite = dynamics.l_finite_check(c, L)
    if L == 0:
        controllable = all(dynamics.memoryless_at(c, m) for m in range(0, n + 1))
    else:
        controllable = all(dynamics.controllable_on(c, m, m + L)
                           for m in range(0, n - L + 1))
    if finite != controllable:
        return {"L": L, "finite": finite, "controllable": controllable}
    return None


def _check_chain_granules(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    k = rng.randint(0, n - 1)
    level = rng.randint(0, n - 1)
    if not dynamics.chain_granule_consistency_check(c, k, level):
        return {"k": k, "level": level}
    return None


def _check_state_factorization(rng: Random, c: GroupCode) -> dict | None:
    n = c.layout.axis_len
    k = rng.randint(1, n - 1)
    order = dynamics.state_at(c, k).order
    via_gamma = dynamics.state_order_from_controller_granules(c, k)
    via_phi = dynamics.state_order_from_observer_granules(c, k)
    if not order == via_gamma == via_phi:
        return {"k": k, "order": order, "gamma": via_gamma, "phi": via_phi}
    return None


def _check_granule_factorization(rng: Random, c: GroupCode) -> dict | None:
    """prod_k |Gamma_{[k,k+j]}| = |C_j| / |C_{j-1}|, dually with Phi and C^j."""
    n = c.layout.axis_len
    j = rng.randint(0, n - 1)
    below = (dynamics.controllable_subcode(c, j - 1).order() if j
             else 1)
    gamma_prod = 1
    phi_prod = 1
    for k in range(0, n - j):
        gamma_prod *= residues.group_order(dynamics.controller_granule(c, k, j))
        phi_prod *= residues.group_order(dynamics.observer_granule(c, k, j))
    if dynamics.controllable_subcode(c, j).order() != below * gamma_prod:
        return {"level": j, "side": "controller", "granule_product": gamma_prod}
    above = (dynamics.observable_supercode(c, j - 1).order() if j
             else GroupCode.full(c.layout).order())
    if above != dynamics.observable_supercode(c, j).order() * phi_prod:
        return {"level": j, "side": "observer", "granule_product": phi_prod}
    return None


def _check_machine_roundtrip(rng: Random, c: GroupCode) -> dict | None:
    if not machines.roundtrip_check(c, trials=2, rng=rng):
        return {}
    return None


ALL_CHECKS: dict[str, Check] = {
    "dual-involution": _check_dual_involution,
    "order-duality": _check_order_duality,
    "projection-subcode-duality": _check_projection_subcode,
    "restricted-product-duality": _check_restricted_product,
    "sum-intersection-duality": _check_sum_intersection,
    "conditioned-code-duality": _check_conditioned,
    "dual-state-space": _check_dual_state_space,
    "state-space-four-way": _check_four_way_state,
    "subcode-supercode-duality": _check_subcode_supercode,
    "granule-duality": _check_granule_duality,
    "end-around": _check_end_around,
    "interval-test-equivalence": _check_interval_tests,
    "l-finite-l-controllable": _check_l_finite,
    "chain-granule-consistency": _check_chain_granules,
    "state-size-factorization": _check_state_factorization,
    "granule-factorization": _check_granule_factorization,
    "machine-roundtrip": _check_machine_roundtrip,
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
