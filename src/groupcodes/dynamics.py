"""State spaces, granules, and memory tests for group codes on finite axes.

All quantities are quotients of subgroups built from shortening and
restriction, evaluated exactly:

* the state space at a cut, C / (C_{:J} + C_{:I-J});
* j-controllable subcodes and j-observable supercodes;
* controller granules Gamma and observer granules Phi, including end-around
  granules on intervals that wrap past the ends of the axis;
* the interval controllability/observability tests, their indices, and the
  first/last-output chains with their syndrome groups.

Each number has one route, its cheapest exact one; the observable supercode,
for one, is read off the dual as ((C^perp)_j)^perp.  The definitions that the
theorems equate with those routes are kept for the theorem battery:
``state_space_routes`` (all four state spaces), ``controllability_tests`` and
``observability_tests`` (both characterizations of each interval test) and
``window_supercode`` (C^j as an intersection of window lifts).  Only the
``*_check`` helpers, ``verify`` and tests call them.

Finite-axis policy: intervals [k, k+j] are only formed when fully inside the
axis, index searches take an ``interior_margin`` so windowed convolutional
codes reproduce their infinite-axis numbers away from the boundary, and the
degenerate whole-axis interval never counts as evidence of strong
controllability or observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from . import residues
from .codes import (GroupCode, code_equal, code_intersect, code_sum,
                    cut_product, dual, lift_restriction, restricted_subcode,
                    restriction, shorten)
from .residues import Subgroup, quotient_invariants
from .spaces import Interval, TimeSubset


class InternalInconsistency(Exception):
    """A machine's own consistency check failed; indicates a bug."""


Invariants = tuple[int, ...]


# ---------------------------------------------------------------------------
# state spaces


@dataclass(frozen=True)
class StateSpaceReport:
    """The minimal state space at one cut, as invariant factors."""

    cut_times: TimeSubset
    invariants: Invariants

    @property
    def order(self) -> int:
        return residues.group_order(self.invariants)


def state_space(code: GroupCode, times: TimeSubset) -> StateSpaceReport:
    """Minimal state space across the cut {J, I-J}: C / (C_{:J} + C_{:I-J})."""
    ts = code.layout.subset(times)
    comp = code.layout.complement(ts)
    if not ts or not comp:
        raise ValueError("state space needs a proper nonempty cut")
    return StateSpaceReport(ts, quotient_invariants(
        code.carrier, residues.add(shorten(code, ts).carrier,
                                   shorten(code, comp).carrier)))


def state_space_routes(code: GroupCode, times: TimeSubset) -> dict[str, Invariants]:
    """The four state-space definitions at one cut, which the theorems equate.

    ``two_sided`` is ``state_space``'s; the one-sided ones are C_{|J} / C_{|:J}
    and C_{|I-J} / C_{|:I-J}, and ``reciprocal`` is (C_{|J} x C_{|I-J}) / C.
    """
    two_sided = state_space(code, times).invariants  # rejects improper cuts
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


def state_at(code: GroupCode, k: int) -> StateSpaceReport:
    """State space at the cut between times k-1 and k (past = [0, k))."""
    if not 1 <= k <= code.layout.axis_len - 1:
        raise ValueError(f"cut {k} must satisfy 1 <= k <= N-1")
    return state_space(code, code.layout.subset(range(0, k)))


def dual_state_space_check(code: GroupCode, times: TimeSubset) -> bool:
    """State spaces of dual codes are character groups of each other, hence
    isomorphic in the finite abelian case."""
    return (state_space(code, times).invariants
            == state_space(dual(code), times).invariants)


# ---------------------------------------------------------------------------
# controllable subcodes / observable supercodes


@lru_cache(maxsize=4096)
def controllable_subcode(code: GroupCode, level: int) -> GroupCode:
    """C_j: the subcode generated by words supported on length-(j+1) intervals.

    One pass over the stacked bases of every interval shortening.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    layout = code.layout
    n = layout.axis_len
    j = min(level, n - 1)
    rows = np.vstack([shorten(code, layout.interval(k, k + j)).carrier.basis
                      for k in range(0, n - j)])
    return GroupCode(layout, Subgroup(layout.modulus, rows, layout.total_dim))


@lru_cache(maxsize=4096)
def observable_supercode(code: GroupCode, level: int) -> GroupCode:
    """C^j: all words that look like codewords through every length-(j+1) window.

    Read off the dual as ((C^perp)_j)^perp; ``window_supercode`` is the
    definition.
    """
    return dual(controllable_subcode(dual(code), level))


def window_supercode(code: GroupCode, level: int) -> GroupCode:
    """C^j by definition: the intersection of the lifts of every window."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n = code.layout.axis_len
    j = min(level, n - 1)
    acc = GroupCode.full(code.layout)
    for k in range(0, n - j):
        acc = code_intersect(acc, lift_restriction(code, code.layout.interval(k, k + j)))
    return acc


def subcode_supercode_duality_check(code: GroupCode, level: int) -> bool:
    """(C^perp)^j == (C_j)^perp, with (C^perp)^j by its definition."""
    return code_equal(window_supercode(dual(code), level),
                      dual(controllable_subcode(code, level)))


# ---------------------------------------------------------------------------
# granules


def controller_granule_on(code: GroupCode, interval: Interval) -> Invariants:
    """Gamma over an interval (ordinary or end-around):
    the quotient of the interval subcode by the two one-short subcodes."""
    times = interval.times(code.layout)
    num = shorten(code, times)
    if len(times) == 1:
        den = Subgroup.trivial(code.layout.modulus, code.layout.total_dim)
    else:
        den = residues.add(shorten(code, times - {interval.hi}).carrier,
                           shorten(code, times - {interval.lo}).carrier)
    return quotient_invariants(num.carrier, den)


def controller_granule(code: GroupCode, k: int, level: int) -> Invariants:
    """Gamma_{[k, k+level]}; level 0 is the parallel-transition subgroup at k."""
    _check_interval(code, k, level)
    return controller_granule_on(code, Interval(k, k + level))


def end_around_controller_granule(code: GroupCode, interval: Interval) -> Invariants:
    return controller_granule_on(code, interval)


def observer_granule(code: GroupCode, k: int, level: int) -> Invariants:
    """Phi_{[k, k+level]}: supercode restrictions quotient on the window;
    level 0 is the symbol group modulo the code's output group at k."""
    return _supercode_granule(code, k, level, observable_supercode)


def _supercode_granule(code: GroupCode, k: int, level: int, supercode) -> Invariants:
    """C^{j-1}_{|W} / C^j_{|W} on the window W = [k, k+j], with C^j = supercode(code, j)."""
    _check_interval(code, k, level)
    window = code.layout.interval(k, k + level)
    if level == 0:
        num = Subgroup.full(code.layout.modulus, code.layout.widths[k])
    else:
        num = restriction(supercode(code, level - 1), window).carrier
    den = restriction(supercode(code, level), window).carrier
    return quotient_invariants(num, den)


def end_around_observer_granule(code: GroupCode, interval: Interval) -> Invariants:
    """Phi over an end-around interval, via the two one-short window checks."""
    times = interval.times(code.layout)
    if len(times) < 2:
        raise ValueError("end-around observer granule needs at least two times")
    checks = code_intersect(lift_restriction(code, times - {interval.hi}),
                            lift_restriction(code, times - {interval.lo}))
    num = restriction(checks, times).carrier
    den = restriction(code, times).carrier
    return quotient_invariants(num, den)


def _check_interval(code: GroupCode, k: int, level: int) -> None:
    if level < 0:
        raise ValueError("granule level must be >= 0")
    if k < 0 or k + level > code.layout.axis_len - 1:
        raise ValueError(
            f"interval [{k}, {k + level}] not inside axis of length {code.layout.axis_len}")


def granule_duality_check(code: GroupCode, k: int, level: int) -> bool:
    """Phi_{[k,k+j]}(C) acts as the character group of Gamma_{[k,k+j]}(C^perp):
    as finite abelian groups they share invariant factors.  Phi is taken
    from the window-lift definition of C^j."""
    return (_supercode_granule(code, k, level, window_supercode)
            == controller_granule(dual(code), k, level))


def end_around_check(code: GroupCode, m: int, n: int) -> bool:
    """Gamma over the end-around interval [n, m] matches Phi over [m, n]."""
    if not 0 <= m < n <= code.layout.axis_len - 1:
        raise ValueError("end-around check needs 0 <= m < n <= N-1")
    gamma = end_around_controller_granule(code, Interval(n, m, wraparound=True))
    return gamma == observer_granule(code, m, n - m)


def end_around_dual_check(code: GroupCode, m: int, n: int) -> bool:
    """The mirrored statement: end-around Phi matches ordinary Gamma."""
    if not 0 <= m < n <= code.layout.axis_len - 1:
        raise ValueError("end-around check needs 0 <= m < n <= N-1")
    phi = end_around_observer_granule(code, Interval(n, m, wraparound=True))
    return phi == controller_granule(code, m, n - m)


@dataclass(frozen=True)
class GranuleTable:
    """Invariant factors of Gamma and Phi per (time, level), with optional
    end-around entries keyed by their wraparound interval."""

    controller: dict[tuple[int, int], Invariants]
    observer: dict[tuple[int, int], Invariants]
    end_around_controller: dict[Interval, Invariants] = field(default_factory=dict)
    end_around_observer: dict[Interval, Invariants] = field(default_factory=dict)


def granule_table(code: GroupCode, times=None, max_level: int | None = None,
                  end_around: tuple[Interval, ...] = ()) -> GranuleTable:
    n = code.layout.axis_len
    ks = list(code.layout.times()) if times is None else sorted(code.layout.subset(times))
    cap = n - 1 if max_level is None else min(max_level, n - 1)
    gamma: dict[tuple[int, int], Invariants] = {}
    phi: dict[tuple[int, int], Invariants] = {}
    for k in ks:
        for j in range(0, cap + 1):
            if k + j <= n - 1:
                gamma[(k, j)] = controller_granule(code, k, j)
                phi[(k, j)] = observer_granule(code, k, j)
    ea_gamma = {iv: end_around_controller_granule(code, iv) for iv in end_around}
    ea_phi = {iv: end_around_observer_granule(code, iv) for iv in end_around}
    return GranuleTable(gamma, phi, ea_gamma, ea_phi)


def state_order_from_controller_granules(code: GroupCode, k: int) -> int:
    """Product of the orders of the controller granules active at cut k:
    all in-range intervals straddling the boundary between k-1 and k."""
    return prod(residues.group_order(controller_granule(code, a, b - a))
                for a in range(0, k) for b in range(k, code.layout.axis_len))


def state_order_from_observer_granules(code: GroupCode, k: int) -> int:
    return prod(residues.group_order(observer_granule(code, a, b - a))
                for a in range(0, k) for b in range(k, code.layout.axis_len))


# ---------------------------------------------------------------------------
# interval controllability / observability


def _shortened_sum(code: GroupCode, m: int, n: int) -> bool:
    """C == C_{:[0,n)} + C_{:[m,N)}."""
    layout = code.layout
    return code_equal(code, code_sum(shorten(code, layout.subset(range(0, n))),
                                     shorten(code, layout.subset(range(m, layout.axis_len)))))


def controllable_on(code: GroupCode, m: int, n: int) -> bool:
    """[m, n)-controllability: any past before m links to any future from n.

    The code is generated by its before-n and after-m subcodes.
    """
    if not 0 <= m < n <= code.layout.axis_len:
        raise ValueError("need 0 <= m < n <= N")
    return _shortened_sum(code, m, n)


def controllability_tests(code: GroupCode, m: int, n: int) -> dict[str, bool]:
    """Both [m, n)-controllability characterizations, separately.

    ``puncture_product`` (the definition): the restriction off [m, n) splits
    as past x future.  ``shortened_sum`` is ``controllable_on``'s.
    """
    shortened_sum = controllable_on(code, m, n)
    past = code.layout.subset(range(0, m))
    rest = past | code.layout.subset(range(n, code.layout.axis_len))
    if rest:
        lhs = restriction(code, rest)
        puncture_product = code_equal(lhs, cut_product(lhs, range(len(past))))
    else:
        puncture_product = True
    return {"puncture_product": puncture_product, "shortened_sum": shortened_sum}


def observable_on(code: GroupCode, m: int, n: int) -> bool:
    """[m, n)-observability: a length-(n-m) window pins the state down.

    The off-window subcode splits as past x future.
    """
    if not 0 <= m < n <= code.layout.axis_len:
        raise ValueError("need 0 <= m < n <= N")
    layout = code.layout
    outside = layout.complement(layout.subset(range(m, n)))
    return code_equal(
        shorten(code, outside),
        code_sum(shorten(code, layout.subset(range(0, m))),
                 shorten(code, layout.subset(range(n, layout.axis_len)))))


def observability_tests(code: GroupCode, m: int, n: int) -> dict[str, bool]:
    """Both [m, n)-observability characterizations, separately.

    ``window_lift`` (the definition): words that look like code before n and
    after m are code.  ``shortened_product`` is ``observable_on``'s.
    """
    shortened_product = observable_on(code, m, n)
    window_lift = code_equal(code, code_intersect(
        lift_restriction(code, code.layout.subset(range(0, n))),
        lift_restriction(code, code.layout.subset(range(m, code.layout.axis_len)))))
    return {"window_lift": window_lift, "shortened_product": shortened_product}


def memoryless_at(code: GroupCode, m: int) -> bool:
    """Zero-memory cut test at m: C == C_{:m-} + C_{:m+}."""
    if not 0 <= m <= code.layout.axis_len:
        raise ValueError("cut out of range")
    return _shortened_sum(code, m, m)


def _index_search(code: GroupCode, interior_margin: int, interval_test) -> int | None:
    """Least L whose every interior length-L interval passes, or None.

    The degenerate whole-axis interval is excluded: on a finite axis every
    code passes it vacuously, so it never certifies strength.
    """
    if interior_margin < 0:
        raise ValueError("margin must be >= 0")
    N = code.layout.axis_len
    cap = N - 2 * interior_margin
    if cap < 0:
        return None
    for L in range(0, cap + 1):
        if L == 0:
            ok = all(memoryless_at(code, m)
                     for m in range(interior_margin, N - interior_margin + 1))
        else:
            starts = [m for m in range(interior_margin, N - interior_margin - L + 1)
                      if not (m == 0 and L == N)]
            if not starts:
                continue
            ok = all(interval_test(code, m, m + L) for m in starts)
        if ok:
            return L
    return None


def controllability_index(code: GroupCode, interior_margin: int = 0) -> int | None:
    """Controller memory: least L making all interior length-L intervals pass."""
    return _index_search(code, interior_margin, controllable_on)


def observability_index(code: GroupCode, interior_margin: int = 0) -> int | None:
    """Observer memory: least L making all interior length-L intervals pass."""
    return _index_search(code, interior_margin, observable_on)


def l_finite_check(code: GroupCode, level: int) -> bool:
    """L-finiteness: the code is generated by its length-(L+1) interval words."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return code_equal(controllable_subcode(code, level), code)


# ---------------------------------------------------------------------------
# output chains


@dataclass(frozen=True)
class ChainReport:
    """First/last-output chains at one time, their dual chains, and the
    syndrome group, with successive quotients (which match granules)."""

    time: int
    first_output: tuple[Subgroup, ...]       # F_{j,k}, j = 0..L
    last_output: tuple[Subgroup, ...]        # L_{j,k}
    dual_first: tuple[Subgroup, ...]         # F^{j,k}, j = 0..L
    dual_last: tuple[Subgroup, ...]          # L^{j,k}
    first_quotients: tuple[Invariants, ...]  # F_j/F_{j-1} ~ Gamma_{[k,k+j]}
    last_quotients: tuple[Invariants, ...]   # L_j/L_{j-1} ~ Gamma_{[k-j,k]}
    dual_first_quotients: tuple[Invariants, ...]  # F^{j-1}/F^j ~ Phi_{[k-j,k]}
    dual_last_quotients: tuple[Invariants, ...]   # L^{j-1}/L^j ~ Phi_{[k,k+j]}
    first_output_group: Subgroup             # F_k
    last_output_group: Subgroup              # L_k
    syndrome_group: Invariants               # G_k / F_k

    @property
    def levels(self) -> int:
        return len(self.first_output) - 1


def _chain_block(code: GroupCode, support: TimeSubset, k: int) -> Subgroup:
    """(C_{:support})_{|{k}} as a subgroup of the time-k symbol block."""
    return restriction(shorten(code, support), frozenset({k})).carrier


def first_output_group(code: GroupCode, k: int) -> Subgroup:
    N = code.layout.axis_len
    return _chain_block(code, code.layout.subset(range(k, N)), k)


def last_output_group(code: GroupCode, k: int) -> Subgroup:
    return _chain_block(code, code.layout.subset(range(0, k + 1)), k)


def syndrome_group(code: GroupCode, k: int) -> Invariants:
    full = Subgroup.full(code.layout.modulus, code.layout.widths[k])
    return quotient_invariants(full, first_output_group(code, k))


def output_chains(code: GroupCode, k: int, max_level: int | None = None) -> ChainReport:
    layout = code.layout
    N = layout.axis_len
    if not 0 <= k < N:
        raise ValueError("time out of range")
    cap = N - 1 if max_level is None else min(max_level, N - 1)
    trivial = Subgroup.trivial(layout.modulus, layout.widths[k])

    first, last, dual_first, dual_last = [], [], [], []
    for j in range(0, cap + 1):
        fwd = layout.interval(k, min(k + j, N - 1))
        back = layout.interval(max(k - j, 0), k)
        first.append(_chain_block(code, fwd, k))
        last.append(_chain_block(code, back, k))
        dual_first.append(_chain_block(code, layout.complement(back - {k}), k))
        dual_last.append(_chain_block(code, layout.complement(fwd - {k}), k))

    fq = tuple(quotient_invariants(first[j], first[j - 1] if j else trivial)
               for j in range(0, cap + 1))
    lq = tuple(quotient_invariants(last[j], last[j - 1] if j else trivial)
               for j in range(0, cap + 1))
    dfq = tuple(quotient_invariants(dual_first[j - 1], dual_first[j])
                for j in range(1, cap + 1))
    dlq = tuple(quotient_invariants(dual_last[j - 1], dual_last[j])
                for j in range(1, cap + 1))
    return ChainReport(
        time=k,
        first_output=tuple(first), last_output=tuple(last),
        dual_first=tuple(dual_first), dual_last=tuple(dual_last),
        first_quotients=fq, last_quotients=lq,
        dual_first_quotients=dfq, dual_last_quotients=dlq,
        first_output_group=first_output_group(code, k),
        last_output_group=last_output_group(code, k),
        syndrome_group=syndrome_group(code, k))


def chain_granule_consistency_check(code: GroupCode, k: int, level: int) -> bool:
    """Chain quotients equal their granules wherever the intervals fit."""
    report = output_chains(code, k, level)
    ok = True
    for j in range(0, level + 1):
        if k + j <= code.layout.axis_len - 1:
            ok &= report.first_quotients[j] == controller_granule(code, k, j)
            if j >= 1:
                ok &= report.dual_last_quotients[j - 1] == observer_granule(code, k, j)
        if k - j >= 0:
            ok &= report.last_quotients[j] == controller_granule(code, k - j, j)
            if j >= 1:
                ok &= report.dual_first_quotients[j - 1] == observer_granule(code, k - j, j)
    return ok
