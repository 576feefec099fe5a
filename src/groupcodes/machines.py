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

Everything a step needs is built with the machine: at each cut, the
observer's section (one ``codes.pivot_rows`` pass giving the lift rows of the
window and the zero extension Y([k-L, k]), which the encoder reads off it)
and its label reducer ``dynamics.cut_sum``, read off one sweep of inserts for
the whole code.  The memory L is read off ``dynamics``' cached order tables,
with no Howell pass.  The syndrome former keeps each check of the dual's span
profile that grows the Howell form of the checks kept so far, one
``residues.IncrementalHowell`` insert per candidate, and sorts its checks by
the times they cover.  A step then runs on plain int lists:
each reduction is one call of ``residues.reduce_ints`` on a Howell form's
rows, and a syndrome step adds each covering check's dot product with the
new symbol to a running sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from random import Random
from typing import NamedTuple, Sequence

from . import dynamics, residues
from .codes import GroupCode, dual, pivot_rows
from .residues import Subgroup


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


class _Section(NamedTuple):
    """The observer's data at cut k, from one ``pivot_rows`` pass over the
    code's basis with the times in the order W = [k-L, k), k, the rest.

    The rows that pivot in W restrict to a Howell basis of C_{|W}.  Each is
    kept, for ``residues.reduce_ints``, as its W part from the pivot on
    followed by the negated full-length codeword it came from, so reducing a
    window followed by n zeros leaves the window's residual followed by a
    codeword through the window.  The rows that pivot in block k vanish on W,
    so their block-k parts span Y([k-L, k]), the symbols that can follow the
    zero window; as the leading part of a Howell form they are its Howell
    basis, the one ``dynamics.ending_symbols`` returns.
    """

    window: int                             # coordinates in W
    lifts: list[tuple[int, int, list[int]]]
    ending: Subgroup | None                 # Y([k-L, k]); None at k = N


def _section(code: GroupCode, lo: int, k: int) -> _Section:
    layout = code.layout
    M, N, starts = layout.modulus, layout.axis_len, layout.starts
    a, b, c = starts[lo], starts[k], starts[min(k + 1, N)]  # block k is [b, c)
    # basis rows that pivot from c on vanish on W and block k: they add
    # nothing to either restriction, and any lift is as good as another
    top = sum(1 for col, _ in code.carrier.pivots if col < c)
    order = [*range(lo, min(k + 1, N)), *range(lo), *range(k + 1, N)]
    lifts, ending = [], []
    for i, col, d, row in pivot_rows(layout, code.carrier.basis[:top], order):
        if i < k - lo:
            lifts.append((col - a, d, [*row[col:b], *(-x % M for x in row)]))
        elif i == k - lo:
            ending.append((col - b, d, row[b:c]))
    return _Section(b - a, lifts, Subgroup(M, c - b, ending) if k < N else None)


def machine_memory(code: GroupCode) -> int:
    """Observer memory with no interior margin; always defined on a finite axis."""
    L = dynamics.observability_index(code, 0)
    if L is None:  # unreachable: the axis-filling window always passes
        raise dynamics.InternalInconsistency("no window length observes the code")
    return L


class StateObserver:
    """Sliding-window map from recent output symbols to minimal-state labels."""

    def __init__(self, code: GroupCode):
        self.code = code
        self.memory = machine_memory(code)
        N = code.layout.axis_len
        # label reducers C_{:[0,k)} + C_{:[k,N)} and sections, at each cut k
        self._denoms = [dynamics.cut_sum(code, k) for k in range(N + 1)]
        self._sections = [_section(code, max(0, k - self.memory), k)
                          for k in range(N + 1)]

    def window_times(self, k: int) -> list[int]:
        return list(range(max(0, k - self.memory), k))

    def state_count(self, k: int) -> int:
        return self.code.order() // self._denoms[k].order()

    def observe_codeword(self, word: Sequence[int], k: int) -> Vec:
        """Label of the state of a full codeword at cut k."""
        if not self.code.contains(word):
            raise WindowNotInRestriction("word is not a codeword")
        return tuple(self._denoms[k].reduce(word))

    def observe(self, window: Sequence[int], k: int) -> Vec:
        """Label computed from the last ``memory`` symbols before cut k."""
        return self._observe(window, k)[0]

    def _observe(self, window: Sequence[int], k: int) -> tuple[Vec, list[int]]:
        """The label, and a codeword whose restriction is the window."""
        M = self.code.layout.modulus
        section = self._sections[k]
        w = section.window
        r = residues.as_residue_vector(M, window, w) + [0] * self.code.layout.total_dim
        residues.reduce_ints(M, section.lifts, r)
        if any(r[:w]):
            raise WindowNotInRestriction(
                f"window is not in the code's restriction to times {self.window_times(k)}")
        lifted = r[w:]
        return tuple(residues.reduce_ints(M, self._denoms[k].tails, lifted[:])), lifted


class ObserverEncoder:
    """Minimal observer-form encoder: free inputs from F_k, window memory L."""

    def __init__(self, code: GroupCode):
        self.code = code
        self.observer = StateObserver(code)
        self.memory = self.observer.memory
        n = code.layout.axis_len
        self.input_groups = [dynamics.first_output_group(code, k) for k in range(n)]
        # the symbols that extend the zero window at each time: Y([k-L, k])
        self._zero_extension = [s.ending for s in self.observer._sections[:n]]

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
        emitted: list[list[int]] = []
        trace = MachineTrace()
        for k in range(n):
            try:
                inp = residues.as_residue_vector(M, inputs[k], layout.widths[k])
            except ValueError as e:
                raise InputNotInInputGroup(f"input at time {k}: {e}") from None
            if not self.input_groups[k].contains(inp):
                raise InputNotInInputGroup(
                    f"input {tuple(inp)} at time {k} is outside F_{k}")
            # the symbols that follow the window are c_k + _zero_extension[k]
            # for any codeword c through it; the base is their canonical one
            state, c = self.observer._observe(self._current_window(emitted, k), k)
            base = residues.reduce_ints(M, self._zero_extension[k].tails,
                                        c[starts[k]:starts[k + 1]])
            symbol = [(a + b) % M for a, b in zip(base, inp)]
            emitted.append(symbol)
            trace.steps.append(TraceStep(time=k, state=state, symbol=tuple(symbol),
                                         inp=tuple(inp)))
        word = [x for symbol in emitted for x in symbol]
        if not self.code.contains(word):
            raise dynamics.InternalInconsistency(
                "encoder produced a word outside the code")
        return word, trace

    def _current_window(self, emitted: list[list[int]], k: int) -> list[int]:
        return [x for symbol in emitted[max(0, k - self.memory):k] for x in symbol]


def _granule_checks(dual_code: GroupCode) -> list[tuple[int, int, dynamics.Row]]:
    """Checks (lo, hi, row) of a dual code, shortest span first.

    The rows of ``dynamics.span_profile`` with start k that end by time b span
    exactly the interval subcode of the dual on [k, b].  Intervals are taken
    shortest first, and a row is kept only when the rows kept so far do not
    span it.  Those already span every shorter interval subcode, so each kept
    row touches both ends of its interval and the rows of span j generate the
    granules Gamma_[k, k+j] of the dual.  The longest span is then the dual's
    controller memory, which equals the observer memory of the code.
    """
    layout = dual_code.layout
    profile = dynamics.span_profile(dual_code)
    target = dual_code.order()
    kept = residues.IncrementalHowell(layout.modulus, layout.total_dim)
    checks: list[tuple[int, int, dynamics.Row]] = []
    for j in range(layout.axis_len):
        for k in range(layout.axis_len - j):
            for row in profile[k][k + j]:
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
        self._blocks: list[list[tuple[int, dynamics.Row]]] = [[] for _ in range(N)]
        self._ending: list[list[int]] = [[] for _ in range(N)]
        self._active: list[list[int]] = [[] for _ in range(N)]
        for i, (lo, hi, row) in enumerate(self._spans):
            for k in range(lo, hi + 1):
                self._blocks[k].append((i, row[starts[k]:starts[k + 1]]))
                (self._ending if k == hi else self._active)[k].append(i)

    def syndrome_width(self, k: int) -> int:
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
