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
basis that hands on whole rows is one ``codes.pivot_rows`` pass with the
times in a chosen order, and each nested family of subcodes or windows is
one sweep of ``residues.IncrementalHowell`` inserts, cached per code, rather
than one pass per member:

* ``span_profile`` grows the trellis-oriented (minimal-span) rows of
  C_{:[k,N)} for k = N-1 down to 0, with the times reversed, keeping each
  row's pivot column and pivot entry; ``interval_orders``, |C_{:[k,n)}| for
  every k <= n, is a running product of M/pivot over their end times.
* ``_window_sweep`` drops one block at a time from the code's own basis and
  inserts the rows that pivoted in it again, giving the Howell form of
  C_{|[m,N)} for each m; ``window_orders``, |C_{|[m,n)}| for every m <= n,
  reads its pivots.
* The granule tables hold one subgroup of one symbol block per entry:
  ``subcode_ends`` (the block-b symbols that end a word of C_{:[a,b]}) is
  the block-b parts of the profile rows of start a that end at b, and
  ``window_ends`` (Y([a,b]), the block-b symbols of the words of C_{|[a,b]}
  that vanish on [a,b)) is the block-b parts of the rows of C_{|[a,N)} that
  pivot in block b.
* The kernel of the state map at cut k is D_k = C_{:[0,k)} + C_{:[k,N)}.
  The state at one cut (``state_at``) reads rows that generate it: the
  start-0 profile rows that end before time k, and the code's basis rows
  from block k on.  The machines want every cut, each as a Howell form:
  ``_cut_heads`` inserts the start-0 profile rows by their last time, giving
  the Howell rows of every prefix subcode C_{:[0,k)}, and ``cut_rows``
  stacks them over those basis rows, as tails.

Each interval test compares orders: a sum of two shortenings inside a third
group is all of it exactly when the orders say so, because the two meet in a
shortening too; for observability the interior term is the window's order
|C_{|[m,n)}|.  Both tests take an empty interval [m, m), where each is the
zero-memory test at cut m, so an index search has one test shape for every
length.  The tests, the index searches and the machines' memory read their
orders off those tables and make no pass.  Each ordinary granule is a
quotient of two entries of a granule table: Gamma_{[k,k+j]} is
``subcode_ends``' [k][k+j] modulo its [k+1][k+j], and Phi_{[k,k+j]} is
Y([k+1,k+j]) / Y([k,k+j]), with no dual and no pass of its own.  No sweep
covers a set that wraps past the ends of the axis, so end-around granules
keep their own routes (``controller_granule_on``, ``observer_granule_on``
and its two passes, ``ending_symbols``).  F_k is read off the code's basis.
Of the four output chains at time k, the first- and last-output chains are
read off ``span_profile``, and the two dual chains off one window pass each,
over the times on one side of k up to the chain's top level and no further;
each pass nests all its levels, and its rows, read unreduced, since only
their block-k parts are wanted, give every level in one run of inserts from
the last level up.  The chains' successive quotients are the granules
Gamma_{[k,k+j]} and Phi_{[k,k+j]} that reports read (``ChainReport``), which
builds the last-output chain and the dual first-output chain only when read.

The definitional routes that the theorems equate with these live in
``verify``, each in the theorem that compares it: the state space at any cut
and its four definitions, C^j as the words that pass every window's check
(one ``lift_restriction`` pass over all the windows), and Phi as
C^{j-1}_{|W} / C^j_{|W}.  Only ``verify`` and tests call the few
routes below, which stay here because ``perfbench/spans.py`` traces them by
name: the granule functions, ``controllability_tests`` and
``observability_tests`` (each characterization on its own), and the memoized
``controllable_subcode`` (spans of ``span_profile`` rows) and
``observable_supercode`` (((C^perp)_j)^perp).

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
from operator import mul
from typing import Iterable, Iterator

from . import residues, snf
from .codes import (GroupCode, code_equal, cut_product, dual, lift_restriction,
                    pivot_rows, restriction, shorten)
from .residues import Pivoted, Row, Subgroup, quotient_invariants
from .spaces import Interval, SymbolLayout, TimeSubset


class InternalInconsistency(Exception):
    """A machine's own consistency check failed; indicates a bug."""


Invariants = tuple[int, ...]


# ---------------------------------------------------------------------------
# state spaces


@dataclass(frozen=True)
class StateSpaceReport:
    """The minimal state space at one cut, as invariant factors."""

    invariants: Invariants

    @property
    def order(self) -> int:
        return residues.group_order(self.invariants)


def state_at(code: GroupCode, k: int) -> StateSpaceReport:
    """State space at the cut before time k: C / (C_{:[0,k)} + C_{:[k,N)}).

    ``snf`` needs the denominator only as rows that generate it inside C.
    The start-0 ``span_profile`` rows that end before time k span
    C_{:[0,k)}, and the code's basis rows that pivot from block k on span
    C_{:[k,N)}; those are rows of C's Howell form, so each drops out of the
    Smith step with its generator.
    """
    N = code.layout.axis_len
    if not 1 <= k <= N - 1:
        raise ValueError(f"cut {k} must satisfy 1 <= k <= N-1, with N = {N}")
    carrier, s = code.carrier, code.layout.starts[k]
    past = [row for ending in span_profile(code)[0][:k] for _, _, row in ending]
    future = [row for (c, _), row in zip(carrier.pivots, carrier.basis) if c >= s]
    return StateSpaceReport(snf.lattice_quotient_invariants(
        code.layout.modulus, carrier.howell, past + future))


# ---------------------------------------------------------------------------
# controllable subcodes / observable supercodes


def _reversed_order(layout: SymbolLayout) -> tuple[list[int], list[int]]:
    """The column and the time at each position of the order that takes the
    blocks from time N-1 down to 0, each block in its own order."""
    times = [t for t in reversed(layout.times()) for _ in layout.block(t)]
    return [c for t in reversed(layout.times()) for c in layout.block(t)], times


@lru_cache(maxsize=1024)
def span_profile(code: GroupCode) -> tuple[tuple[tuple[Pivoted, ...], ...], ...]:
    """Trellis-oriented rows of the code, by start time and last time.

    ``span_profile(code)[k][b]`` holds the rows that vanish before time k and
    end at time b (empty for b < k), each as (pivot column, pivot entry,
    full-length int tuple); the pivot is the row's first nonzero entry in
    block b.  The rows of start k that end by time b span exactly the
    interval subcode C_{:[k,b]}.

    One sweep of inserts for k = N-1 down to 0, in the columns of
    ``_reversed_order``: a word of C_{:[k,N)} vanishes before time k, so one
    column order serves every k, and step k inserts the code's basis rows
    that pivot in block k, which together with C_{:[k+1,N)} span C_{:[k,N)}.
    Each row pivots at its last time, and by the Howell property the rows
    that end by time b span C_{:[k,b]}.  A row is written out only when its
    tail changed since the last step.
    """
    layout, carrier = code.layout, code.carrier
    N, n, starts = layout.axis_len, layout.total_dim, layout.starts
    perm, time_at = _reversed_order(layout)
    form = residues.IncrementalHowell(layout.modulus, n)
    written: dict[int, tuple] = {}  # position -> (tail, the row written out)
    profile: list = [()] * N
    i = len(carrier.basis)
    for k in reversed(layout.times()):
        cols = perm[:n - starts[k]]
        while i and carrier.pivots[i - 1][0] >= starts[k]:
            i -= 1
            row = carrier.basis[i]
            form.insert([row[c] for c in cols])
        rows = form.rows()
        fresh = [(p, d, tail) for p, d, tail in rows
                 if p not in written or written[p][0] is not tail]
        for (p, _, tail), out in zip(fresh, residues.written_out(fresh, n, perm)):
            written[p] = (tail, out)
        by_end: list[list[Pivoted]] = [[] for _ in range(N)]
        for p, _, _ in rows:
            by_end[time_at[p]].append(written[p][1])
        profile[k] = tuple(map(tuple, by_end))
    return tuple(profile)


@lru_cache(maxsize=1024)
def interval_orders(code: GroupCode) -> tuple[tuple[int, ...], ...]:
    """``interval_orders(code)[k][n]`` is |C_{:[k,n)}| for 0 <= k, n <= N
    (1 for n <= k): the product of M/pivot over the ``span_profile`` rows of
    start k that end before time n, one running product per start."""
    M, N = code.layout.modulus, code.layout.axis_len
    table = []
    for k, by_end in enumerate(span_profile(code)):
        row, order = [1] * (k + 1), 1
        for ending in by_end[k:]:
            for _, d, _ in ending:
                order *= M // d
            row.append(order)
        table.append(tuple(row))
    table.append((1,) * (N + 1))
    return tuple(table)


def _window_sweep(code: GroupCode) -> Iterator[residues.IncrementalHowell]:
    """Yield the ``IncrementalHowell`` form of C_{|[m,N)} for m = 0..N-1, one
    form updated in place, held on the full coordinates (zero before block m).

    The form at m is the one at m-1 with its rows that pivot in block m-1
    cut down to the later blocks and inserted again.  By the Howell property
    its rows that pivot from block n on span the words of C_{|[m,N)} that
    vanish on [m, n).
    """
    starts = code.layout.starts
    form = residues.IncrementalHowell(code.layout.modulus, code.layout.total_dim,
                                      code.carrier.tails)
    for m in code.layout.times():
        for c, tail in form.drop(starts[m]):
            form.insert(tail[starts[m] - c:], starts[m])
        yield form


@lru_cache(maxsize=1024)
def window_orders(code: GroupCode) -> tuple[tuple[int, ...], ...]:
    """``window_orders(code)[m][n]`` is |C_{|[m,n)}| for 0 <= m, n <= N (1 for
    n <= m, the empty window).

    Read off the pivots of ``_window_sweep``: the rows of C_{|[m,N)} that
    pivot from block n on span the kernel of the projection onto the window,
    so |C_{|[m,n)}| is the product of M/pivot over the rows that pivot before
    block n.
    """
    layout = code.layout
    M, N = layout.modulus, layout.axis_len
    time_of = [t for t in layout.times() for _ in layout.block(t)]
    table = []
    for m, form in enumerate(_window_sweep(code)):
        at_time = [1] * N
        for c, d in form.pivots():
            at_time[time_of[c]] *= M // d
        table.append((1,) * m + tuple(accumulate(at_time[m:], mul, initial=1)))
    table.append((1,) * (N + 1))
    return tuple(table)


def _block_group(layout: SymbolLayout, t: int,
                 rows: Iterable[tuple[int, int, Row]]) -> Subgroup:
    """The group of time-t symbols spanned by the block-t parts of Howell rows
    that pivot in block t, each (pivot column, pivot entry, tail from the
    pivot on).  Those parts are the Howell form of the projection onto block
    t of the span of these rows and the rows that pivot after block t."""
    s, e = layout.starts[t], layout.starts[t + 1]
    return Subgroup(layout.modulus, e - s, residues.written_out(
        [(c - s, d, tail[:e - c]) for c, d, tail in rows], e - s))


@lru_cache(maxsize=1024)
def subcode_ends(code: GroupCode) -> tuple[tuple[Subgroup, ...], ...]:
    """``subcode_ends(code)[a][b]``, for 0 <= a <= N and 0 <= b < N, is the
    group of time-b symbols that end a word of C_{:[a,b]} (trivial for
    b < a): the block-b parts of the ``span_profile`` rows of start a that
    end at b, since the rows that end before b vanish there."""
    layout = code.layout
    table = [tuple(_block_group(layout, b, [(c, d, row[c:]) for c, d, row in ending])
                   for b, ending in enumerate(by_end))
             for by_end in span_profile(code)]
    table.append(tuple(Subgroup.trivial(layout.modulus, w) for w in layout.widths))
    return tuple(table)


@lru_cache(maxsize=1024)
def window_ends(code: GroupCode) -> tuple[tuple[Subgroup, ...], ...]:
    """``window_ends(code)[a][b]``, for 0 <= a <= N and 0 <= b < N, is
    Y([a, b]), the group of time-b symbols of the words of C_{|[a,b]} that
    vanish on [a, b) (the whole symbol group for b < a): the block-b parts of
    the rows of C_{|[a,N)} in ``_window_sweep`` that pivot in block b."""
    layout = code.layout
    full = tuple(Subgroup.full(layout.modulus, w) for w in layout.widths)
    time_of = [t for t in layout.times() for _ in layout.block(t)]
    table = []
    for a, form in enumerate(_window_sweep(code)):
        by_time = [[] for _ in layout.times()]
        for row in form.rows():
            by_time[time_of[row[0]]].append(row)
        table.append(full[:a] + tuple(_block_group(layout, b, by_time[b])
                                      for b in range(a, layout.axis_len)))
    table.append(full)
    return tuple(table)


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
    for ending in span_profile(code)[0]:
        for _, _, row in ending:
            form.insert(row)
        heads.append(tuple(form.rows()))
    return tuple(heads)


def cut_rows(code: GroupCode, k: int) -> list[tuple[int, int, Row]]:
    """The Howell rows of C_{:[0,k)} + C_{:[k,N)}, (pivot column, pivot entry,
    tail) per row, top row first: the summands have disjoint supports and
    the future rows are the tail of the code's Howell basis, so the rows of
    ``_cut_heads`` at cut k, stacked over those, are the sum's Howell form."""
    N = code.layout.axis_len
    if not 0 <= k <= N:
        raise ValueError(f"cut {k} outside 0..{N}")
    s = code.layout.starts[k]
    return [*_cut_heads(code)[k], *(t for t in code.carrier.tails if t[0] >= s)]


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
                              for ending in by_end[k:k + level + 1] for _, _, row in ending))
    return GroupCode(layout, Subgroup.span(layout.modulus, rows, layout.total_dim))


@lru_cache(maxsize=4096)
def observable_supercode(code: GroupCode, level: int) -> GroupCode:
    """C^j: all words that look like codewords through every length-(j+1) window.

    Read off the dual as ((C^perp)_j)^perp; ``verify.window_supercode`` is
    the definition.
    """
    return dual(controllable_subcode(dual(code), level))


# ---------------------------------------------------------------------------
# granules


def controller_granule_on(code: GroupCode, interval: Interval) -> Invariants:
    """Gamma over an interval (ordinary or end-around):
    the quotient of the interval subcode by the two one-short subcodes, whose
    basis rows together generate the denominator, as ``snf`` takes it."""
    times = interval.times(code.layout)
    den = [] if len(times) == 1 else [
        *shorten(code, times - {interval.hi}).carrier.basis,
        *shorten(code, times - {interval.lo}).carrier.basis]
    return snf.lattice_quotient_invariants(
        code.layout.modulus, shorten(code, times).carrier.howell, den)


def controller_granule(code: GroupCode, k: int, level: int) -> Invariants:
    """Gamma_{[k, k+level]}; level 0 is the parallel-transition subgroup at k.

    Projected onto block k+j, the interval subcode C_{:[k,k+j]} has kernel
    C_{:[k,k+j-1]}, which lies in the two one-short subcodes, so Gamma is
    ``subcode_ends``' [k][k+j] modulo its [k+1][k+j].
    """
    _check_interval(code, k, level)
    ends = subcode_ends(code)
    return quotient_invariants(ends[k][k + level], ends[k + 1][k + level])


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
    if h not in times:
        raise ValueError(f"time {h} is not in the subset {sorted(times)}")
    rest = sorted(times - {h})
    return _block_group(code.layout, h, [
        (col, d, row[col:]) for _, col, d, row in
        pivot_rows(code.layout, code.carrier.basis, rest + [h], len(rest))])


def observer_granule(code: GroupCode, k: int, level: int) -> Invariants:
    """Phi_{[k, k+level]}; level 0 is the symbol group modulo the code's output
    group at k.  Y([k+1, k+j]) / Y([k, k+j]), as in ``observer_granule_on``,
    read off ``window_ends``."""
    _check_interval(code, k, level)
    ends = window_ends(code)
    return quotient_invariants(ends[k + 1][k + level], ends[k][k + level])


def end_around_observer_granule(code: GroupCode, interval: Interval) -> Invariants:
    return observer_granule_on(code, interval)


def _check_interval(code: GroupCode, k: int, level: int) -> None:
    if level < 0:
        raise ValueError("granule level must be >= 0")
    if k < 0 or k + level > code.layout.axis_len - 1:
        raise ValueError(
            f"interval [{k}, {k + level}] not inside axis of length {code.layout.axis_len}")


# ---------------------------------------------------------------------------
# interval controllability / observability


def controllable_on(code: GroupCode, m: int, n: int) -> bool:
    """[m, n)-controllability: any past before m links to any future from n;
    for m = n, the zero-memory test at the cut m.

    The code is generated by its before-n and after-m subcodes.  The sum lies
    in C, and the two summands meet in C_{:[m,n)}, so the sum is all of C
    exactly when |C| * |C_{:[m,n)}| == |C_{:[0,n)}| * |C_{:[m,N)}|.  All three
    orders come from ``interval_orders``.
    """
    N = code.layout.axis_len
    if not 0 <= m <= n <= N:
        raise ValueError("need 0 <= m <= n <= N")
    orders = interval_orders(code)
    return code.order() * orders[m][n] == orders[0][n] * orders[m][N]


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
    """[m, n)-observability: a length-(n-m) window pins the state down; for
    m = n it is the same test as ``controllable_on``'s, the zero-memory cut.

    The off-window subcode splits as past x future: the two lie in it and
    meet trivially, so it is their sum exactly when its order is the product
    of theirs.
    """
    if not 0 <= m <= n <= code.layout.axis_len:
        raise ValueError("need 0 <= m <= n <= N")
    # C / C_{:off-window} ~ C_{|[m,n)}, so the off-window subcode has order
    # |C| / |C_{|[m,n)}|
    orders = interval_orders(code)
    return (code.order() == window_orders(code)[m][n]
            * orders[0][m] * orders[n][code.layout.axis_len])


def observability_tests(code: GroupCode, m: int, n: int) -> dict[str, bool]:
    """Both [m, n)-observability characterizations, separately.

    ``window_lift`` (the definition): words that look like code before n and
    after m are code, one ``lift_restriction`` pass over the two windows.
    ``shortened_product`` is ``observable_on``'s.
    """
    shortened_product = observable_on(code, m, n)
    layout = code.layout
    window_lift = code_equal(code, lift_restriction(
        code, layout.subset(range(0, n)), layout.subset(range(m, layout.axis_len))))
    return {"window_lift": window_lift, "shortened_product": shortened_product}


def _index_search(code: GroupCode, interior_margin: int, interval_test) -> int | None:
    """Least L whose every interior length-L interval [m, m+L) passes, or
    None; for L = 0 these are the interior cuts.

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
        starts = [m for m in range(interior_margin, N - interior_margin - L + 1)
                  if not (m == 0 and L == N)]
        if starts and all(interval_test(code, m, m + L) for m in starts):
            return L
    return None


def controllability_index(code: GroupCode, interior_margin: int = 0) -> int | None:
    """Controller memory: least L making all interior length-L intervals pass."""
    return _index_search(code, interior_margin, controllable_on)


def observability_index(code: GroupCode, interior_margin: int = 0) -> int | None:
    """Observer memory: least L making all interior length-L intervals pass."""
    return _index_search(code, interior_margin, observable_on)


# ---------------------------------------------------------------------------
# output chains


@dataclass(frozen=True)
class ChainReport:
    """First/last-output chains at one time and their dual chains.  The
    first-output chain F and the dual last-output chain L^, which the
    controller and observer granules read, are built with the report; the
    last-output chain L, the dual first-output chain F^, the successive
    quotients (which match granules) and the syndrome group are computed on
    first read."""

    code: GroupCode = field(repr=False, compare=False)
    time: int
    first_output: tuple[Subgroup, ...]       # F_{j,k}, j = 0..L
    dual_last: tuple[Subgroup, ...]          # L^{j,k}

    @property
    def levels(self) -> int:
        return len(self.first_output) - 1

    @cached_property
    def last_output(self) -> tuple[Subgroup, ...]:  # L_{j,k}
        # the block-k parts of the profile rows of start max(k-j, 0) that end at k
        k, profile = self.time, span_profile(self.code)
        return tuple(_block_group(self.code.layout, k, [(c, d, row[c:]) for c, d, row in
                                                        profile[max(k - j, 0)][k]])
                     for j in range(self.levels + 1))

    @cached_property
    def dual_first(self) -> tuple[Subgroup, ...]:  # F^{j,k}, j = 0..L
        # Y([k-j, k]): one window pass over the times k-1 down to k-L
        k, cap = self.time, self.levels
        return _chain_pass(self.code, k, [*range(k - 1, max(k - cap, 0) - 1, -1)], cap)

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
                cap: int) -> tuple[Subgroup, ...]:
    """Levels j = 0..cap: the block-k symbols of the codewords that vanish on
    the first min(j, len(order)) times of ``order``, with len(order) <= cap.

    One ``IncrementalHowell`` pass over the code's basis rows cut down to the
    columns of the times of ``order`` and then k.  The Howell property holds
    after every insert, so the pass's rows that pivot past the first q times
    span the words that vanish on them, and their block-k parts span level q;
    ``drop`` hands the rows over as they stand, neither back-reduced nor
    written out.  The levels nest, so one run of inserts of those parts into
    a form of block k's width, from the last row up and read after each
    level, makes every level canonical.
    """
    starts, M, w = code.layout.starts, code.layout.modulus, code.layout.widths[k]
    cols, stops = [], [0]  # stops[q]: the pass's columns of the first q times
    for t in order:
        cols += range(starts[t], starts[t + 1])
        stops.append(len(cols))
    head = len(cols)  # block k's first column in the pass
    cols += range(starts[k], starts[k + 1])
    sweep = residues.IncrementalHowell(M, len(cols))
    for row in code.carrier.basis:
        sweep.insert([row[c] for c in cols])
    rows = sweep.drop(len(cols))
    form = residues.IncrementalHowell(M, w)
    levels = []
    for stop in reversed(stops):
        while rows and rows[-1][0] >= stop:
            p, tail = rows.pop()
            form.insert(tail[max(head - p, 0):], max(p - head, 0))
        levels.append(Subgroup(M, w, residues.written_out(form.rows(), w)))
    return tuple(levels[-1 - min(j, len(order))] for j in range(cap + 1))


def first_output_group(code: GroupCode, k: int) -> Subgroup:
    """F_k = (C_{:[k,N)})_{|{k}}: the block-k parts of the basis rows that
    pivot in block k, a Howell form, since the later rows vanish there and,
    by the Howell property, all of them span C_{:[k,N)}."""
    block = code.layout.block(k)
    return _block_group(code.layout, k, [t for t in code.carrier.tails if t[0] in block])


def syndrome_group(code: GroupCode, k: int) -> Invariants:
    full = Subgroup.full(code.layout.modulus, code.layout.widths[k])
    return quotient_invariants(full, first_output_group(code, k))


def output_chains(code: GroupCode, k: int, max_level: int | None = None) -> ChainReport:
    """The four chains at time k, up to level cap = min(max_level, N-1).

    F_{j,k} = (C_{:[k,k+j]})_{|{k}} is spanned by the block-k parts of the
    ``span_profile`` rows of start k that end by time k+j, one insert each
    into a form of block k's width, read after each level.  L_{j,k} is
    (C_{:[k-j,k]})_{|{k}}, the block-k parts of the profile rows of start
    max(k-j, 0) that end at k.  F^{j,k}, the block-k symbols of the codewords
    that vanish on [k-j, k), is Y([k-j, k]), which depends only on
    C_{|[k-cap,k]}: one ``_chain_pass`` over the times k-1 down to k-cap.
    L^{j,k} is its mirror, one pass over the times k+1 up to k+cap.  L and
    F^ are built on first read (``ChainReport``).
    """
    layout = code.layout
    N, M = layout.axis_len, layout.modulus
    if not 0 <= k < N:
        raise ValueError("time out of range")
    if max_level is not None and max_level < 0:
        raise ValueError("max_level must be >= 0")
    cap = N - 1 if max_level is None else min(max_level, N - 1)
    block, profile = layout.block(k), span_profile(code)
    form = residues.IncrementalHowell(M, len(block))
    first = []
    for j in range(cap + 1):
        if k + j == N:  # every later level is F_{N-1-k,k} = F_k
            first += first[-1:] * (cap + 1 - j)
            break
        for _, _, row in profile[k][k + j]:
            form.insert(row[block.start:block.stop])
        first.append(Subgroup(M, len(block), residues.written_out(form.rows(), len(block))))
    return ChainReport(
        code=code, time=k, first_output=tuple(first),
        dual_last=_chain_pass(code, k, [*range(k + 1, min(k + cap, N - 1) + 1)], cap))
