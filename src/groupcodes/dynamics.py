"""State spaces, granules, and memory tests for group codes on finite axes.

All quantities are quotients of subgroups built from shortening and
restriction, evaluated exactly:

* the state space at a cut, C / (C_{:J} + C_{:I-J});
* j-controllable subcodes and j-observable supercodes;
* controller granules Gamma and observer granules Phi, including end-around
  granules on intervals that wrap past the ends of the axis;
* the interval controllability/observability tests, their indices, and the
  first/last-output chains with their syndrome groups.

Each number has one route, its cheapest exact one.  A pass over the code's
basis is one ``codes.pivot_rows`` pass with the times in a chosen order, and
each nested family of subcodes or windows is one sweep of
``residues.IncrementalHowell`` inserts, cached per code, rather than one pass
per member:

* ``_trellis_sweep`` grows the trellis-oriented (minimal-span) rows of
  C_{:[k,N)} for k = N-1 down to 0, with the times reversed.  It gives
  ``span_profile`` and ``interval_orders``, |C_{:[k,n)}| for every k <= n.
* ``window_orders`` drops one block at a time from the code's own basis and
  inserts the rows that pivoted in it again, giving |C_{|[m,n)}| for every
  m < n.
* ``_cut_heads`` inserts the start-0 profile rows by their last time, giving
  the Howell rows of every prefix subcode C_{:[0,k)}; stacked over the code's
  basis rows from block k on, they are the kernel of the state map
  (``cut_sum``).

Each interval test compares orders: a sum of two shortenings inside a third
group is all of it exactly when the orders say so, because the two meet in a
shortening too; for observability the interior term is the window's order
|C_{|[m,n)}|.  So the tests, the index searches and the machines' memory read
their orders off those tables and make no pass.  Phi, ordinary or end-around,
comes from two passes over the interval (``ending_symbols``), with no dual.
F_k is read off the code's basis, and the four output chains off two passes,
one per direction, each nesting all its levels, which one run of inserts per
pass reads off from the last level up; their successive quotients are the
granules Gamma_{[k,k+j]} and Phi_{[k,k+j]} that reports read
(``ChainReport``).  The routes that the theorems equate with those are kept
for the theorem battery:
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
from functools import cached_property, lru_cache
from itertools import accumulate
from math import prod
from operator import mul

from . import residues
from .codes import (GroupCode, code_equal, code_intersect, cut_product, dual,
                    lift_restriction, pivot_rows, restricted_subcode,
                    restriction, shorten)
from .residues import Row, Subgroup, quotient_invariants
from .spaces import Interval, SymbolLayout, TimeSubset


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


def _reversed_order(layout: SymbolLayout) -> tuple[list[int], list[int]]:
    """The column and the time at each position of the order that takes the
    blocks from time N-1 down to 0, each block in its own order."""
    times = [t for t in reversed(layout.times()) for _ in layout.block(t)]
    return [c for t in reversed(layout.times()) for c in layout.block(t)], times


def _trellis_sweep(code: GroupCode):
    """Grow the trellis-oriented rows of C_{:[k,N)} for k = N-1 down to 0.

    Yields each k with ``form`` holding the Howell form of C_{:[k,N)} in the
    columns of ``_reversed_order``.  A word of C_{:[k,N)} vanishes before
    time k, so one column order serves every k: step k inserts the code's
    basis rows that pivot in block k, which together with C_{:[k+1,N)} span
    C_{:[k,N)}.  Each row pivots at its last time, and by the Howell property
    the rows that end by time b span C_{:[k,b]}.
    """
    layout, carrier = code.layout, code.carrier
    n, starts = layout.total_dim, layout.starts
    perm, _ = _reversed_order(layout)
    form = residues.IncrementalHowell(layout.modulus, n)
    i = len(carrier.basis)
    for k in reversed(layout.times()):
        cols = perm[:n - starts[k]]
        while i and carrier.pivots[i - 1][0] >= starts[k]:
            i -= 1
            row = carrier.basis[i]
            form.insert([row[c] for c in cols])
        yield k, form


@lru_cache(maxsize=1024)
def span_profile(code: GroupCode) -> tuple[tuple[tuple[Row, ...], ...], ...]:
    """Trellis-oriented rows of the code, by start time and last time.

    ``span_profile(code)[k][b]`` holds the rows, as full-length int tuples,
    that vanish before time k and end at time b (empty for b < k): the
    Howell rows of C_{:[k,N)} at step k of ``_trellis_sweep``.  The rows of
    start k that end by time b span exactly the interval subcode C_{:[k,b]}.
    """
    layout = code.layout
    N, n = layout.axis_len, layout.total_dim
    perm, time_at = _reversed_order(layout)
    written: dict[int, tuple] = {}  # position -> (tail, its full-length row)
    profile: list = [()] * N
    for k, form in _trellis_sweep(code):
        by_end: list[list[Row]] = [[] for _ in range(N)]
        for p, _, tail in form.rows():
            last = written.get(p)
            if last is None or last[0] is not tail:
                full = [0] * n
                for c, x in zip(perm[p:], tail):
                    full[c] = x
                last = written[p] = (tail, tuple(full))
            by_end[time_at[p]].append(last[1])
        profile[k] = tuple(map(tuple, by_end))
    return tuple(profile)


@lru_cache(maxsize=1024)
def interval_orders(code: GroupCode) -> tuple[tuple[int, ...], ...]:
    """``interval_orders(code)[k][n]`` is |C_{:[k,n)}| for 0 <= k <= n <= N
    (1 for n <= k): the product of M/pivot over the rows of step k of
    ``_trellis_sweep`` that end before time n."""
    N = code.layout.axis_len
    _, time_at = _reversed_order(code.layout)
    table = [(1,) * (N + 1)] * (N + 1)
    for k, form in _trellis_sweep(code):
        table[k] = _orders_before(form, time_at, N, k)
    return tuple(table)


@lru_cache(maxsize=1024)
def window_orders(code: GroupCode) -> tuple[tuple[int, ...], ...]:
    """``window_orders(code)[m][n]`` is |C_{|[m,n)}| for m < n <= N.

    One forward sweep: the Howell form of C_{|[m,N)} (held on the full
    coordinates, zero before block m) is that of C_{|[m-1,N)} with its rows
    that pivot in block m-1 cut down to the later blocks and inserted again.
    By the Howell property its rows that pivot from block n on span the
    words of C_{|[m,N)} that vanish on [m, n), the kernel of the projection
    onto the window, so |C_{|[m,n)}| is the product of M/pivot over the rows
    that pivot before block n.
    """
    layout = code.layout
    N, starts = layout.axis_len, layout.starts
    time_of = [t for t in layout.times() for _ in layout.block(t)]
    form = residues.IncrementalHowell(layout.modulus, layout.total_dim, code.carrier.tails)
    table = []
    for m in range(N):
        for c, tail in form.drop(starts[m]):
            form.insert(tail[starts[m] - c:], starts[m])
        table.append(_orders_before(form, time_of, N, m))
    return tuple(table)


def _orders_before(form: residues.IncrementalHowell, time_of: list[int], N: int,
                   lo: int) -> tuple[int, ...]:
    """Entry n, for n = 0..N: the product of M/pivot over the rows of ``form``
    whose pivot column is at a time (``time_of``) before n; every row's is at
    ``lo`` or later."""
    at_time = [1] * N
    for c, d in form.pivots():
        at_time[time_of[c]] *= form.modulus // d
    return (1,) * lo + tuple(accumulate(at_time[lo:], mul, initial=1))


@lru_cache(maxsize=1024)
def _cut_heads(code: GroupCode) -> tuple[tuple[tuple[int, int, Row], ...], ...]:
    """``_cut_heads(code)[k]``, k = 0..N: the Howell rows of C_{:[0,k)} as
    ``IncrementalHowell.rows`` gives them, (pivot column, pivot entry, tail).

    One forward sweep: cut k+1 inserts the start-0 rows of ``span_profile``
    that end at time k into the rows of cut k.
    """
    layout = code.layout
    form = residues.IncrementalHowell(layout.modulus, layout.total_dim)
    heads = [()]
    for rows in span_profile(code)[0]:
        for row in rows:
            form.insert(row)
        heads.append(tuple(form.rows()))
    return tuple(heads)


def cut_sum(code: GroupCode, k: int) -> Subgroup:
    """C_{:[0,k)} + C_{:[k,N)}: the summands have disjoint supports and the
    future rows are the tail of the code's Howell basis, so the rows of
    ``_cut_heads`` at cut k, stacked over them, are the sum's Howell form."""
    carrier, n, s = code.carrier, code.layout.total_dim, code.layout.starts[k]
    head = residues.written_out(_cut_heads(code)[k], n)
    return Subgroup(carrier.modulus, n, head + [(c, d, row) for (c, d), row in
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


def _shortened_sum(code: GroupCode, m: int, n: int) -> bool:
    """C == C_{:[0,n)} + C_{:[m,N)}, by orders.

    The sum lies in C, and the two summands meet in C_{:[m,n)}, so the sum is
    all of C exactly when |C| * |C_{:[m,n)}| == |C_{:[0,n)}| * |C_{:[m,N)}|.
    All three orders come from ``interval_orders``.
    """
    orders = interval_orders(code)
    return (code.order() * orders[m][n]
            == orders[0][n] * orders[m][code.layout.axis_len])


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
    # |C| / |C_{|[m,n)}|
    orders = interval_orders(code)
    return (code.order() == window_orders(code)[m][n]
            * orders[0][m] * orders[n][code.layout.axis_len])


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


def _chain_pass(code: GroupCode, k: int, order: list[int],
                skips: set[int]) -> dict[int, Subgroup]:
    """q -> (C_{:S})_{|{k}} for each q in ``skips``, S the times past the
    first q of ``order``, from one ``pivot_rows`` pass with k last: the block-k
    parts of the rows that pivot past those q times span it, and the levels
    nest, so one run of inserts from the last row up gives every level."""
    block, M = code.layout.block(k), code.layout.modulus
    rows = pivot_rows(code.layout, code.carrier.basis, [*order, k])
    form = residues.IncrementalHowell(M, len(block))
    levels = {}
    for q in sorted(skips, reverse=True):
        while rows and rows[-1][0] >= q:
            form.insert(rows.pop()[3][block.start:block.stop])
        levels[q] = Subgroup(M, len(block), residues.written_out(form.rows(), len(block)))
    return levels


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
    pivot in block k, a Howell form, since the later rows vanish there and,
    by the Howell property, all of them span C_{:[k,N)}."""
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
    skips = [_chain_skips(k, N - 1 - k, j) for j in range(cap + 1)]
    a = _chain_pass(code, k, [*reversed(range(k)), *reversed(range(k + 1, N))],
                    {q for f, df, _, _ in skips for q in (f, df)})
    b = _chain_pass(code, k, [*range(k + 1, N), *range(k)],
                    {q for _, _, la, dl in skips for q in (la, dl)})
    first, dual_first, last, dual_last = zip(*((a[f], a[df], b[la], b[dl])
                                               for f, df, la, dl in skips))
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
