"""State spaces, granules, and memory tests for group codes on finite axes.

All quantities are quotients of subgroups built from shortening and
restriction, evaluated exactly:

* the state space at a cut, C / (C_{:J} + C_{:I-J});
* j-controllable subcodes and j-observable supercodes;
* controller granules Gamma and observer granules Phi, including end-around
  granules on intervals that wrap past the ends of the axis;
* the interval controllability/observability tests, their indices, and the
  first/last-output chains with their syndrome groups.

Each number has one route, its cheapest exact one, and each pass over the
code's basis is one ``codes.pivot_rows`` pass with the times in a chosen
order.  Every prefix and suffix subcode C_{:[0,k)} and C_{:[k,N)} comes from
two Howell forms (``cut_rows``): the code's own basis and one pass with the
times reversed; their sum, the kernel of the state map, is one small pass more
(``cut_sum``).  Each interval test compares orders: a sum of two shortenings
inside a third group is all of it exactly when the orders say so, because the
two meet in a shortening too, and only the interior term (C_{:[m,n)}, or for
observability one pass over the window, whose order is |C_{|[m,n)}|) is a pass
of its own.  Phi, ordinary or end-around, comes from two passes over the
interval (``ending_symbols``), with no dual.  F_k is read off the code's
basis, and the four output chains off two passes, one per direction, each
nesting all its levels; their successive quotients are the granules
Gamma_{[k,k+j]} and Phi_{[k,k+j]} that reports read (``ChainReport``).  The
routes that the theorems equate with those are kept for the theorem battery:
the one-interval granule functions, ``state_space_routes``,
``controllability_tests`` and ``observability_tests``,
``controllable_subcode`` (spans of ``span_profile`` rows),
``observable_supercode`` (((C^perp)_j)^perp), ``window_supercode`` (C^j as an
intersection of window lifts) and Phi as C^{j-1}_{|W} / C^j_{|W} in
``granule_duality_check``.  Only the ``*_check`` helpers, ``verify`` and tests
call them.

Finite-axis policy: intervals [k, k+j] are only formed when fully inside the
axis, index searches take an ``interior_margin`` so windowed convolutional
codes reproduce their infinite-axis numbers away from the boundary, and the
degenerate whole-axis interval never counts as evidence of strong
controllability or observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from math import prod
from typing import NamedTuple

from . import residues
from .codes import (GroupCode, code_equal, code_intersect, cut_product, dual,
                    lift_restriction, pivot_rows, restricted_subcode,
                    restriction, shorten)
from .residues import Row, Subgroup, quotient_invariants
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
    """State space at the cut before time k: C / ``cut_sum(code, k)``."""
    if not 1 <= k <= code.layout.axis_len - 1:
        raise ValueError(f"cut {k} must satisfy 1 <= k <= N-1")
    return StateSpaceReport(code.layout.subset(range(0, k)),
                            quotient_invariants(code.carrier, cut_sum(code, k)))


def dual_state_space_check(code: GroupCode, times: TimeSubset) -> bool:
    """State spaces of dual codes are character groups of each other, hence
    isomorphic in the finite abelian case."""
    return (state_space(code, times).invariants
            == state_space(dual(code), times).invariants)


# ---------------------------------------------------------------------------
# controllable subcodes / observable supercodes


def _trellis_rows(code: GroupCode, k: int) -> list[tuple[int, int, Row]]:
    """(last time, pivot entry, full-length row) of the Howell rows of C_{:[k,N)}.

    One ``pivot_rows`` pass with the times before k in front and the later
    times in reverse puts each pivot at its row's last time; by the Howell
    property the rows that end by time b span exactly C_{:[k,b]}.
    """
    order = [*range(k), *reversed(range(k, code.layout.axis_len))]
    return [(order[i], d, row)
            for i, _, d, row in pivot_rows(code.layout, code.carrier.basis, order)
            if i >= k]


@lru_cache(maxsize=1024)
def span_profile(code: GroupCode) -> tuple[tuple[tuple[Row, ...], ...], ...]:
    """Trellis-oriented rows of the code, by start time and last time.

    ``span_profile(code)[k][b]`` holds the rows, as full-length int tuples,
    that vanish before time k and end at time b (empty for b < k): one
    ``_trellis_rows`` pass per start k.  The rows of start k that end by time
    b span exactly the interval subcode C_{:[k,b]}.
    """
    N = code.layout.axis_len
    profile = []
    for k in range(N):
        by_end: list[list[Row]] = [[] for _ in range(N)]
        for b, _, row in _trellis_rows(code, k):
            by_end[b].append(row)
        profile.append(tuple(map(tuple, by_end)))
    return tuple(profile)


class Cut(NamedTuple):
    """Howell rows of the prefix subcode, and the orders of the prefix and
    suffix subcodes, at one cut k."""

    past: tuple[Row, ...]    # spans C_{:[0,k)}
    past_order: int
    future_order: int


@lru_cache(maxsize=1024)
def cut_rows(code: GroupCode) -> tuple[Cut, ...]:
    """The prefix and suffix subcodes at every cut k = 0..N, from two Howell forms.

    By the Howell property the rows of the code's basis that pivot at or after
    time k span C_{:[k,N)}, and in the start-0 pass of ``span_profile`` (the
    times reversed) the rows that end before time k span C_{:[0,k)}.  Each set
    is a Howell form of its span, so its order is the product of M/pivot over
    its rows.
    """
    layout, carrier = code.layout, code.carrier
    M, N = layout.modulus, layout.axis_len
    time_of = [t for t in range(N) for _ in layout.block(t)]
    fwd = [(time_of[c], d) for c, d in carrier.pivots]
    back = _trellis_rows(code, 0)
    return tuple(Cut(tuple(row for t, _, row in back if t < k),
                     prod(M // d for t, d, _ in back if t < k),
                     prod(M // d for t, d in fwd if t >= k))
                 for k in range(N + 1))


def cut_sum(code: GroupCode, k: int) -> Subgroup:
    """C_{:[0,k)} + C_{:[k,N)}: the summands have disjoint supports and the
    future rows are the tail of the code's Howell basis, so the Howell form
    of the past rows on the coordinates before block k, stacked over them, is
    the sum's Howell form."""
    layout, carrier, past = code.layout, code.carrier, cut_rows(code)[k].past
    M, n, s = layout.modulus, layout.total_dim, layout.starts[k]
    pad = (0,) * (n - s)
    head = [(c, d, row + pad) for c, d, row in
            residues.howell_pass(M, [row[:s] for row in past], s)] if past else []
    return Subgroup(M, n, head + [(c, d, row) for (c, d), row in
                                  zip(carrier.pivots, carrier.basis) if c >= s])


@lru_cache(maxsize=4096)
def controllable_subcode(code: GroupCode, level: int) -> GroupCode:
    """C_j: the subcode generated by words supported on length-(j+1) intervals.

    One span of the profile rows that end at most j times past their start.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    layout = code.layout
    profile = span_profile(code)
    rows = list(dict.fromkeys(row for k, by_end in enumerate(profile)
                              for ending in by_end[k:k + level + 1] for row in ending))
    return GroupCode(layout, Subgroup.span(layout.modulus, rows, layout.total_dim))


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


def observer_granule_on(code: GroupCode, interval: Interval) -> Invariants:
    """Phi over an interval T (ordinary or end-around) with first time lo and
    last time h, in the symbol group at h.

    Phi_T is the group of words on T that pass both one-short window checks
    (on T-{h} and on T-{lo} they are restrictions of codewords) modulo C_{|T}.
    Let Y(S) be the symbols at h that end a word of C_{|S} vanishing on
    S-{h}.  A passing word agrees off h with a word of C_{|T}, so the passing
    words are C_{|T} plus the passing words supported at h, whose symbols at
    h make up Y(T-{lo}); those in C_{|T} have their symbols in Y(T).  By the
    second isomorphism theorem Phi_T ~ Y(T-{lo}) / Y(T), where Y(T-{lo}) is
    the whole symbol group if T = {h}.
    """
    times, h = interval.times(code.layout), interval.hi
    num = (ending_symbols(code, times - {interval.lo}, h) if len(times) > 1
           else Subgroup.full(code.layout.modulus, code.layout.widths[h]))
    return quotient_invariants(num, ending_symbols(code, times, h))


def ending_symbols(code: GroupCode, times: TimeSubset, h: int) -> Subgroup:
    """Y(S): the symbols at time h in S that end a word of C_{|S} vanishing on
    S-{h}.

    One ``pivot_rows`` pass over the times of S with h last: by the Howell
    property the rows that pivot at h span exactly those words.
    """
    block, rest = code.layout.block(h), sorted(times - {h})
    rows = [(col - block.start, d, row[block.start:block.stop]) for i, col, d, row in
            pivot_rows(code.layout, code.carrier.basis, rest + [h]) if i == len(rest)]
    return Subgroup(code.layout.modulus, len(block), rows)


def observer_granule(code: GroupCode, k: int, level: int) -> Invariants:
    """Phi_{[k, k+level]}; level 0 is the symbol group modulo the code's output
    group at k."""
    _check_interval(code, k, level)
    return observer_granule_on(code, Interval(k, k + level))


def end_around_observer_granule(code: GroupCode, interval: Interval) -> Invariants:
    return observer_granule_on(code, interval)


def _check_interval(code: GroupCode, k: int, level: int) -> None:
    if level < 0:
        raise ValueError("granule level must be >= 0")
    if k < 0 or k + level > code.layout.axis_len - 1:
        raise ValueError(
            f"interval [{k}, {k + level}] not inside axis of length {code.layout.axis_len}")


def granule_duality_check(code: GroupCode, k: int, level: int) -> bool:
    """Phi_{[k,k+j]}(C) acts as the character group of Gamma_{[k,k+j]}(C^perp):
    as finite abelian groups they share invariant factors.  Phi is taken here
    by its supercode definition, C^{j-1}_{|W} / C^j_{|W} on the window
    W = [k, k+j], with each C^j an intersection of window lifts."""
    gamma = controller_granule(dual(code), k, level)  # rejects bad intervals
    window = code.layout.interval(k, k + level)
    num = (restriction(window_supercode(code, level - 1), window).carrier if level
           else Subgroup.full(code.layout.modulus, code.layout.widths[k]))
    den = restriction(window_supercode(code, level), window).carrier
    return quotient_invariants(num, den) == gamma


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


def _shortened_order(code: GroupCode, lo: int, hi: int) -> int:
    """|C_{:[lo,hi)}|."""
    return shorten(code, code.layout.subset(range(lo, hi))).order()


def _shortened_sum(code: GroupCode, m: int, n: int) -> bool:
    """C == C_{:[0,n)} + C_{:[m,N)}, by orders.

    The sum lies in C, and the two summands meet in C_{:[m,n)}, so the sum is
    all of C exactly when |C| * |C_{:[m,n)}| == |C_{:[0,n)}| * |C_{:[m,N)}|.
    The two one-sided orders come from ``cut_rows``.
    """
    cuts = cut_rows(code)
    return (code.order() * _shortened_order(code, m, n)
            == cuts[n].past_order * cuts[m].future_order)


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

    The off-window subcode splits as past x future: the two lie in it and
    meet trivially, so it is their sum exactly when its order is the product
    of theirs.
    """
    if not 0 <= m < n <= code.layout.axis_len:
        raise ValueError("need 0 <= m < n <= N")
    # C / C_{:off-window} ~ C_{|[m,n)}, so the off-window subcode has order
    # |C| / |C_{|[m,n)}|, and the order of a Howell form is the product of
    # M/pivot over its rows
    M, cuts = code.layout.modulus, cut_rows(code)
    window = prod(M // d for _, _, d, _ in
                  pivot_rows(code.layout, code.carrier.basis, range(m, n)))
    return code.order() == window * cuts[m].past_order * cuts[n].future_order


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
    """First/last-output chains at one time and their dual chains.  The
    successive quotients (which match granules) and the syndrome group are
    computed on first read."""

    code: GroupCode = field(repr=False, compare=False)
    time: int
    first_output: tuple[Subgroup, ...]       # F_{j,k}, j = 0..L
    last_output: tuple[Subgroup, ...]        # L_{j,k}
    dual_first: tuple[Subgroup, ...]         # F^{j,k}, j = 0..L
    dual_last: tuple[Subgroup, ...]          # L^{j,k}

    @property
    def levels(self) -> int:
        return len(self.first_output) - 1

    @cached_property
    def first_quotients(self) -> tuple[Invariants, ...]:  # F_j/F_{j-1} ~ Gamma_{[k,k+j]}
        return _successive_quotients(self.first_output)

    @cached_property
    def last_quotients(self) -> tuple[Invariants, ...]:  # L_j/L_{j-1} ~ Gamma_{[k-j,k]}
        return _successive_quotients(self.last_output)

    @cached_property
    def dual_first_quotients(self) -> tuple[Invariants, ...]:  # F^{j-1}/F^j ~ Phi_{[k-j,k]}
        return tuple(map(quotient_invariants, self.dual_first, self.dual_first[1:]))

    @cached_property
    def dual_last_quotients(self) -> tuple[Invariants, ...]:  # L^{j-1}/L^j ~ Phi_{[k,k+j]}
        return tuple(map(quotient_invariants, self.dual_last, self.dual_last[1:]))

    @cached_property
    def observer_granules(self) -> tuple[Invariants, ...]:  # Phi_{[k,k+j]}, j = 0..L
        # Phi_{[k,k]} is the symbol group modulo L^{0,k} = C_{|{k}}
        top = self.dual_last[0]
        return (quotient_invariants(Subgroup.full(top.modulus, top.ambient), top),
                *self.dual_last_quotients)

    @cached_property
    def first_output_group(self) -> Subgroup:  # F_k
        return first_output_group(self.code, self.time)

    @cached_property
    def syndrome_group(self) -> Invariants:  # G_k / F_k
        return syndrome_group(self.code, self.time)


def _successive_quotients(chain: tuple[Subgroup, ...]) -> tuple[Invariants, ...]:
    """G_j/G_{j-1} for j = 0..L, with G_{-1} trivial."""
    top = chain[0]
    return tuple(map(quotient_invariants, chain,
                     (Subgroup.trivial(top.modulus, top.ambient), *chain)))


def _chain_pass(code: GroupCode, k: int, order: list[int]):
    """q -> (C_{:S})_{|{k}}, S the times past the first q of ``order``, from
    one ``pivot_rows`` pass with k last: the Howell form of the block-k parts
    of the rows that pivot past those q times, which span C_{:S}."""
    block, M = code.layout.block(k), code.layout.modulus
    rows = pivot_rows(code.layout, code.carrier.basis, [*order, k])
    return cache(lambda q: Subgroup(M, len(block), residues.howell_pass(
        M, [row[block.start:block.stop] for i, _, _, row in rows if i >= q], len(block))))


def _chain_skips(before: int, after: int, j: int) -> tuple[int, int, int, int]:
    """How many leading times of its pass each level-j chain group vanishes on.

    Pass A takes the times before k, then those after k, each in reverse:
    F_{j,k} vanishes off [k, k+j] and F^{j,k} on [k-j, k).  Pass B takes the
    times after k, then those before k: L_{j,k} vanishes off [k-j, k] and
    L^{j,k} on (k, k+j].
    """
    return (before + max(after - j, 0), min(j, before),
            after + max(before - j, 0), min(j, after))


def first_output_group(code: GroupCode, k: int) -> Subgroup:
    """F_k = (C_{:[k,N)})_{|{k}}: the block-k parts of the basis rows that
    pivot in block k, a Howell form, since the later rows vanish there and
    all of them span C_{:[k,N)} (``cut_rows``)."""
    carrier, block = code.carrier, code.layout.block(k)
    return Subgroup(carrier.modulus, len(block),
                    [(c - block.start, d, row[block.start:block.stop])
                     for (c, d), row in zip(carrier.pivots, carrier.basis) if c in block])


def syndrome_group(code: GroupCode, k: int) -> Invariants:
    full = Subgroup.full(code.layout.modulus, code.layout.widths[k])
    return quotient_invariants(full, first_output_group(code, k))


def output_chains(code: GroupCode, k: int, max_level: int | None = None) -> ChainReport:
    """The four chains at time k, off two passes (``_chain_skips``)."""
    N = code.layout.axis_len
    if not 0 <= k < N:
        raise ValueError("time out of range")
    cap = N - 1 if max_level is None else min(max_level, N - 1)
    a = _chain_pass(code, k, [*reversed(range(k)), *reversed(range(k + 1, N))])
    b = _chain_pass(code, k, [*range(k + 1, N), *range(k)])
    first, dual_first, last, dual_last = zip(*(
        (a(f), a(df), b(la), b(dl))
        for f, df, la, dl in (_chain_skips(k, N - 1 - k, j) for j in range(cap + 1))))
    return ChainReport(code=code, time=k, first_output=first, last_output=last,
                       dual_first=dual_first, dual_last=dual_last)


def chain_granule_consistency_check(code: GroupCode, k: int, level: int) -> bool:
    """Chain quotients equal their granules wherever the intervals fit."""
    report = output_chains(code, k, level)
    ok = True
    for j in range(0, level + 1):
        if k + j <= code.layout.axis_len - 1:
            ok &= report.first_quotients[j] == controller_granule(code, k, j)
            ok &= report.observer_granules[j] == observer_granule(code, k, j)
        if k - j >= 0:
            ok &= report.last_quotients[j] == controller_granule(code, k - j, j)
            if j >= 1:
                ok &= report.dual_first_quotients[j - 1] == observer_granule(code, k - j, j)
    return ok
