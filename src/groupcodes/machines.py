"""Executable machines attached to a finite-axis group code.

Three sliding-window devices, generic over any code on a finite axis:

* ``StateObserver`` maps the last L output symbols of a codeword to the
  canonical label of its minimal state at the current cut;
* ``ObserverEncoder`` turns one free input per time, drawn from the
  first-output group F_k, into a codeword, keeping only an L-symbol window;
* ``SyndromeFormer`` pairs an arbitrary word against checks of the dual code
  that generate its controller granules, emitting each check at the last time
  its support touches; the kernel of the map is exactly the code, distinct
  cosets give distinct syndrome sequences, and its memory (the longest
  check's last time minus its first) equals the observer memory of the code
  for every M.

The window length L is the observer memory measured with no interior margin,
so windowed operation agrees with full-prefix operation on every axis; codes
that are not strongly observable simply get L close to the axis length.

State labels are canonical coset representatives (Howell reduction), so they
compare bit-exactly; isomorphism-level reporting stays in ``dynamics``.

Everything a step needs is built with the machine, and the observer keeps
only its step tables, built in cut order.  The table at cut k is a
``residues.IncrementalHowell`` form started from the Howell rows of the
label reducer D_k = C_{:[0,k)} + C_{:[k,N)}, taken as tails, into which each
basis row of the code that touches the window W = [k-L, k) is inserted as
its W part followed by the whole row.  The two summands of D_k have disjoint
supports, so its Howell rows are those of C_{:[0,k)} over the code's Howell
basis rows from block k on; one form that takes the start-0
``dynamics.Trellis.profile`` rows by end time holds those of C_{:[0,k)} at
each cut in turn, and each table keeps its D_k.  The form's rows that pivot
in W lift a window to a codeword already reduced by D_k, which the table
negates.  An observer or encoder step is then one ``residues.reduce_ints``
call on the window followed by zeros, and what is left past W is the
canonical label on the columns that are not unit pivots of D_k.  Two
identities make that one call enough.  By L-observability every codeword
that vanishes on W lies in D_k, so the label does not depend on the lift.
The symbols that can follow the window are c_k + Y([k-L, k]) for any
codeword c through it, and Y([k-L, k]) = F_k, so the encoder's base symbol
is the label's own block k.  The full-word reference
``StateObserver.observe_codeword`` reduces a whole codeword by the table's
D_k.  The memory L is read off ``dynamics``' cached order tables, with no
Howell pass.  The syndrome former keeps each check of the dual's span
profile that grows the Howell form of the checks kept so far, one
``residues.IncrementalHowell`` insert per candidate, and sorts its checks by
the times they cover; a syndrome step adds each covering check's dot product
with the new symbol to a running sum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import prod
from operator import mul
from random import Random
from typing import NamedTuple, Sequence

from . import dynamics, residues
from .codes import GroupCode, dual


class WindowNotInRestriction(Exception):
    """The supplied window is not a restriction of any codeword."""


class InputNotInInputGroup(Exception):
    """An encoder input fell outside the first-output group of its time."""


Vec = tuple[int, ...]


@dataclass
class TraceStep:
    time: int
    state: Vec                  # canonical state label at the cut before `time`
    symbol: Vec                 # symbol consumed or emitted at `time`
    inp: Vec | None = None      # encoder input, when applicable
    syndrome: Vec | None = None  # syndrome component, when applicable


@dataclass
class MachineTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def states(self) -> list[Vec]:
        return [s.state for s in self.steps]

    def symbols(self) -> list[Vec]:
        return [s.symbol for s in self.steps]

    def syndromes(self) -> list[Vec]:
        return [s.syndrome for s in self.steps if s.syndrome is not None]

    def to_dict(self) -> dict:
        return {"steps": [{"time": s.time, "state": list(s.state),
                           "symbol": list(s.symbol),
                           **({"input": list(s.inp)} if s.inp is not None else {}),
                           **({"syndrome": list(s.syndrome)} if s.syndrome is not None else {})}
                          for s in self.steps]}


class _StepTable(NamedTuple):
    """The observer's step at cut k: one ``residues.reduce_ints`` call on the
    window W = [lo, k) followed by zeros.

    ``denom`` holds the Howell rows of D_k = C_{:[0,k)} + C_{:[k,N)}, as
    tails, which ``StateObserver.state_count`` and ``observe_codeword`` read
    too.  A canonical representative modulo D_k is zero on the unit pivot
    columns of D_k, and so is every other row of D_k's Howell basis; the
    remaining columns are the label's.
    ``rows`` first holds the lift rows: their W parts, from the pivot on,
    are the Howell basis of C_{|W}, and each is followed by the negation of
    its lift codeword reduced by D_k, on the label's columns.  Then come
    D_k's rows whose pivot entry is not 1, on the label's columns.  The
    reduction leaves zeros on W exactly when the window is in C_{|W}.  The
    rest is then the canonical label of a codeword through the window: by
    L-observability every codeword that vanishes on W lies in D_k, so the
    label does not depend on the lift.
    """

    lo: int                     # the window W = [lo, k)
    width: int                  # coordinates in W
    rows: list[tuple[int, int, list[int]]]
    zeros: list[int]            # one per label column
    places: tuple[int, ...]     # per coordinate of the label, its place in the
                                # reduced list, or -1 (a unit pivot column of D_k)
    denom: residues.Tails       # D_k's Howell rows


def _step_table(code: GroupCode, lo: int, k: int,
                denom: residues.Tails) -> _StepTable:
    """The step table at cut k for the window [lo, k), given ``denom``, the
    Howell rows of D_k as tails.

    One Howell form of rows [x_{|W} | x], started from D_k's rows as
    [0 | D_k], into which each basis row x of the code that touches W is
    inserted.  The others vanish on W, so they lie in D_k and add nothing.
    The form's rows that pivot in W are the lift rows, reduced by D_k, and
    the table negates their second parts.  Every element of the span that
    vanishes on W is in [0 | D_k], so no other row is added.
    """
    layout = code.layout
    M, n, starts = layout.modulus, layout.total_dim, layout.starts
    a, b = starts[lo], starts[k]  # W is [a, b)
    w = b - a
    form = residues.IncrementalHowell(M, w + n, [(w + c, d, t) for c, d, t in denom])
    for row in code.carrier.basis:
        if any(row[a:b]):
            form.insert(row[a:b] + row)
    unit = {c for c, d, _ in denom if d == 1}
    cols = [c for c in range(n) if c not in unit]  # the label's columns
    place = [-1] * n  # where a step leaves each coordinate of the label
    for j, c in enumerate(cols, w):
        place[c] = j
    rows = []
    for p, d, t in form.rows():
        if p < w or d != 1:
            end = len(t)  # each row is kept up to its last nonzero entry
            while not t[end - 1]:
                end -= 1
            if p < w:  # its W part, then its lift's second part, negated
                rows.append((p, d, [*t[:w - p], *[-t[w - p + c] % M for c in
                                                 cols[:bisect_left(cols, end - w + p)]]]))
            else:
                c0 = p - w
                rows.append((place[c0], d, [t[c - c0] for c in
                                            cols[place[c0] - w:bisect_left(cols, c0 + end)]]))
    return _StepTable(lo, w, rows, [0] * len(cols), tuple(place), denom)


def machine_memory(code: GroupCode) -> int:
    """Observer memory with no interior margin; always defined on a finite axis."""
    L = dynamics.observability_index(code, 0)
    if L is None:  # unreachable: the axis-filling window always passes
        raise dynamics.InternalInconsistency("no window length observes the code")
    return L


def _check_cut(code: GroupCode, k: int) -> int:
    N = code.layout.axis_len
    if not 0 <= k <= N:
        raise ValueError(f"cut {k} outside 0..{N}")
    return k


class StateObserver:
    """Sliding-window map from recent output symbols to minimal-state labels."""

    def __init__(self, code: GroupCode):
        self.code = code
        self.memory = machine_memory(code)
        layout, tails = code.layout, code.carrier.tails
        past = residues.IncrementalHowell(layout.modulus, layout.total_dim)  # C_{:[0,k)}
        self._tables = []
        for k, ending in enumerate(((), *dynamics.trellis(code).profile[0])):
            for _, _, row in ending:  # the start-0 profile rows that end at time k-1
                past.insert(row)
            denom = [*past.rows(), *(t for t in tails if t[0] >= layout.starts[k])]
            self._tables.append(_step_table(code, max(0, k - self.memory), k, denom))

    def window_times(self, k: int) -> list[int]:
        return list(range(max(0, _check_cut(self.code, k) - self.memory), k))

    def state_count(self, k: int) -> int:
        """|C| / |D_k|, the order of the state space at cut k."""
        M = self.code.layout.modulus
        return self.code.order() // prod(
            M // d for _, d, _ in self._tables[_check_cut(self.code, k)].denom)

    def observe_codeword(self, word: Sequence[int], k: int) -> Vec:
        """Label of the state of a full codeword at cut k: the word reduced
        by the step table's D_k.  It is the full-word reference that the
        window steps must match."""
        denom = self._tables[_check_cut(self.code, k)].denom
        if not self.code.contains(word):
            raise WindowNotInRestriction("word is not a codeword")
        M, n = self.code.layout.modulus, self.code.layout.total_dim
        return tuple(residues.reduce_ints(M, denom, residues.as_residue_vector(M, word, n)))

    def observe(self, window: Sequence[int], k: int) -> Vec:
        """Label computed from the last ``memory`` symbols before cut k."""
        table = self._tables[_check_cut(self.code, k)]
        M = self.code.layout.modulus
        return self._label(table, residues.as_residue_vector(M, window, table.width), k)

    def _label(self, table: _StepTable, r: list[int], k: int) -> Vec:
        """The label at cut k of the window ``r``, residues in [0, M), from
        one reduction by the cut's step table; ``r`` is consumed."""
        r += table.zeros
        residues.reduce_ints(self.code.layout.modulus, table.rows, r)
        if any(r[:table.width]):
            raise WindowNotInRestriction(
                f"window is not in the code's restriction to times {list(range(table.lo, k))}")
        r.append(0)  # the zero that place -1 reads
        return tuple(map(r.__getitem__, table.places))


class ObserverEncoder:
    """Minimal observer-form encoder: free inputs from F_k, window memory L.

    The symbols that can follow a window W = [k-L, k) are c_k + Y([k-L, k])
    for any codeword c through it, and Y([k-L, k]) = F_k by L-observability.
    The block-k part of the label at cut k is c_k reduced by F_k (the rows of
    D_k that pivot in block k are F_k's Howell basis, and no other row of
    D_k reduces it), so it is the canonical base symbol, and the emitted
    symbol is that plus the input.
    """

    def __init__(self, code: GroupCode):
        self.code = code
        self.observer = StateObserver(code)
        self.memory = self.observer.memory
        n = code.layout.axis_len
        self.input_groups = [dynamics.first_output_group(code, k) for k in range(n)]

    def random_inputs(self, rng: Random) -> list[Vec]:
        out = []
        for g in self.input_groups:
            M = g.modulus
            coeffs = [rng.randrange(M) for _ in range(g.num_generators)]
            v = [0] * g.ambient
            for c, row in zip(coeffs, g.basis):
                v = [(a + c * b) % M for a, b in zip(v, row)]
            out.append(tuple(v))
        return out

    def encode(self, inputs: Sequence[Sequence[int]]) -> tuple[list[int], MachineTrace]:
        layout = self.code.layout
        n = layout.axis_len
        if len(inputs) != n:
            raise ValueError(f"need one input per time ({n})")
        M, starts = layout.modulus, layout.starts
        observer, tables = self.observer, self.observer._tables
        word: list[int] = []
        trace = MachineTrace()
        for k in range(n):
            try:
                inp = residues.as_residue_vector(M, inputs[k], layout.widths[k])
            except ValueError as e:
                raise InputNotInInputGroup(f"input at time {k}: {e}") from None
            if any(residues.reduce_ints(M, self.input_groups[k].tails, inp[:])):
                raise InputNotInInputGroup(
                    f"input {tuple(inp)} at time {k} is outside F_{k}")
            table = tables[k]
            state = observer._label(table, word[starts[table.lo]:], k)
            symbol = tuple((a + b) % M for a, b in zip(state[starts[k]:starts[k + 1]], inp))
            word += symbol
            trace.steps.append(TraceStep(time=k, state=state, symbol=symbol, inp=tuple(inp)))
        if not self.code.contains(word):
            raise dynamics.InternalInconsistency(
                "encoder produced a word outside the code")
        return word, trace


def _granule_checks(dual_code: GroupCode) -> list[tuple[int, int, residues.Row]]:
    """Checks (lo, hi, row) of a dual code, shortest span first.

    The rows of the dual's ``Trellis.profile`` with start k that end by time
    b span exactly the interval subcode of the dual on [k, b].  Intervals are
    taken shortest first, and a row is kept only when the rows kept so far do
    not span it.  Those already span every shorter interval subcode, so each kept
    row touches both ends of its interval and the rows of span j generate the
    granules Gamma_[k, k+j] of the dual.  The longest span is then the dual's
    controller memory, which equals the observer memory of the code.
    """
    layout = dual_code.layout
    profile = dynamics.trellis(dual_code).profile
    target = dual_code.order()
    kept = residues.IncrementalHowell(layout.modulus, layout.total_dim)
    checks: list[tuple[int, int, residues.Row]] = []
    for j in range(layout.axis_len):
        for k in range(layout.axis_len - j):
            for _, _, row in profile[k][k + j]:
                if kept.insert(row):
                    checks.append((k, k + j, row))
                    if kept.order == target:
                        return checks
    return checks


class SyndromeFormer:
    """Homomorphic sliding-window map whose kernel is exactly the code."""

    def __init__(self, code: GroupCode):
        self.code = code
        layout = code.layout
        self.dual_code = dual(code)
        self._spans = _granule_checks(self.dual_code)
        self.memory = max((hi - lo for lo, hi, _ in self._spans), default=0)
        # per time k: (check, its entries on block k) for every check whose
        # span covers k, and which of those end at k or stay active across
        # cut k+1 (lo <= k < hi), in check order
        N, starts = layout.axis_len, layout.starts
        self._blocks: list[list[tuple[int, residues.Row]]] = [[] for _ in range(N)]
        self._ending: list[list[int]] = [[] for _ in range(N)]
        self._active: list[list[int]] = [[] for _ in range(N)]
        for i, (lo, hi, row) in enumerate(self._spans):
            for k in range(lo, hi + 1):
                self._blocks[k].append((i, row[starts[k]:starts[k + 1]]))
                (self._ending if k == hi else self._active)[k].append(i)

    def syndrome_width(self, k: int) -> int:
        self.code.layout.block(k)  # a time off the axis raises ValueError
        return len(self._ending[k])

    def form(self, word: Sequence[int]) -> tuple[list[Vec], MachineTrace]:
        layout = self.code.layout
        M, starts = layout.modulus, layout.starts
        w = residues.as_residue_vector(M, word, layout.total_dim)
        trace = MachineTrace()
        syndromes: list[Vec] = []
        acc = [0] * len(self._spans)  # each check's sum over the times so far
        for k in layout.times():
            symbol = w[starts[k]:starts[k + 1]]
            for i, seg in self._blocks[k]:
                acc[i] += sum(map(mul, seg, symbol))
            comp = tuple(acc[i] % M for i in self._ending[k])
            partials = tuple(acc[i] % M for i in self._active[k])
            trace.steps.append(TraceStep(time=k, state=partials,
                                         symbol=tuple(symbol), syndrome=comp))
            syndromes.append(comp)
        return syndromes, trace

    def is_member(self, word: Sequence[int]) -> bool:
        syndromes, _ = self.form(word)
        return all(not any(c) for c in syndromes)


def input_group_orders(code: GroupCode) -> list[int]:
    return [dynamics.first_output_group(code, k).order()
            for k in code.layout.times()]
