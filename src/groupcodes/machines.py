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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from operator import mul
from random import Random
from typing import Sequence

import numpy as np

from . import dynamics, residues
from .codes import GroupCode, dual, restriction, shorten
from .residues import Subgroup, howell_form


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


class _Section:
    """Lifts restricted words back through a subgroup.

    Howell-reduces the carrier with the selected coordinates permuted to the
    front; rows whose pivot lands inside the selection restrict to a Howell
    basis of the restriction, and each carries its full-length preimage.
    """

    def __init__(self, carrier: Subgroup, idx: list[int]):
        self.modulus = carrier.modulus
        self.ambient = carrier.ambient
        self.idx = idx
        rest = [j for j in range(carrier.ambient) if j not in set(idx)]
        perm = idx + rest
        self.perm = perm
        h = howell_form(carrier.modulus, carrier.basis[:, perm])
        k = len(idx)
        # int rows: each front row as its tail from its pivot, with its lift
        self.front_rows: list[list[int]] = []
        self.front_pivots: list[tuple[int, int]] = []
        self.lifts: list[list[int]] = []
        for row in h.tolist():
            p = next(c for c, x in enumerate(row) if x)
            if p < k:
                self.front_rows.append(row[p:k])
                self.front_pivots.append((p, row[p]))
                full = [0] * carrier.ambient
                for c, x in zip(perm, row):
                    full[c] = x
                self.lifts.append(full)

    def lift(self, target: Sequence[int]) -> list[int] | None:
        """A full-length element of the subgroup restricting to ``target``."""
        M = self.modulus
        r = residues.as_residue_vector(M, target, len(self.idx))
        out = [0] * self.ambient
        for row, (col, d), full in zip(self.front_rows, self.front_pivots, self.lifts):
            q = r[col] // d
            if q:
                r[col:] = [(a - q * b) % M for a, b in zip(r[col:], row)]
                out = [(a + q * b) % M for a, b in zip(out, full)]
        return None if any(r) else out


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
        layout = code.layout
        n = layout.axis_len
        # label reducers: the two-sided shortened subgroup at each cut
        self._denoms = [
            residues.add(shorten(code, layout.subset(range(0, k))).carrier,
                         shorten(code, layout.subset(range(k, n))).carrier)
            for k in range(n + 1)]
        self._sections: dict[int, _Section] = {}

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
        times = self.window_times(k)
        if k not in self._sections:
            self._sections[k] = _Section(self.code.carrier,
                                         self.code.layout.coords(times))
        lifted = self._sections[k].lift(window)
        if lifted is None:
            raise WindowNotInRestriction(
                f"window is not in the code's restriction to times {times}")
        return tuple(self._denoms[k].reduce(lifted))


class ObserverEncoder:
    """Minimal observer-form encoder: free inputs from F_k, window memory L."""

    def __init__(self, code: GroupCode):
        self.code = code
        self.observer = StateObserver(code)
        self.memory = self.observer.memory
        layout = code.layout
        n = layout.axis_len
        self.input_groups = [dynamics.first_output_group(code, k) for k in range(n)]
        self._zero_extension: list[Subgroup] = []
        self._prefix_sections: list[_Section | None] = []
        for k in range(n):
            times = list(range(max(0, k - self.memory), k + 1))
            wcode = restriction(code, layout.subset(times))
            wl = wcode.layout
            last = wl.axis_len - 1
            self._zero_extension.append(
                restriction(shorten(wcode, frozenset({last})),
                            frozenset({last})).carrier)
            if last:
                self._prefix_sections.append(
                    _Section(wcode.carrier, wl.coords(range(0, last))))
            else:
                self._prefix_sections.append(None)

    def random_inputs(self, rng: Random) -> list[Vec]:
        out = []
        for g in self.input_groups:
            M = g.modulus
            coeffs = [rng.randrange(M) for _ in range(g.num_generators)]
            v = [0] * g.ambient
            for c, row in zip(coeffs, g.basis.tolist()):
                v = [(a + c * b) % M for a, b in zip(v, row)]
            out.append(tuple(v))
        return out

    def encode(self, inputs: Sequence[Sequence[int]]) -> tuple[np.ndarray, MachineTrace]:
        layout = self.code.layout
        n = layout.axis_len
        if len(inputs) != n:
            raise ValueError(f"need one input per time ({n})")
        M = layout.modulus
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
            window = self._current_window(emitted, k)
            state = self.observer.observe(window, k)
            base = self._base_symbol(window, k)
            symbol = [(a + b) % M for a, b in zip(base, inp)]
            emitted.append(symbol)
            trace.steps.append(TraceStep(time=k, state=state, symbol=tuple(symbol),
                                         inp=tuple(inp)))
        word = np.array([x for symbol in emitted for x in symbol], dtype=object)
        if not self.code.contains(word):
            raise dynamics.InternalInconsistency(
                "encoder produced a word outside the code")
        return word, trace

    def _current_window(self, emitted: list[list[int]], k: int) -> list[int]:
        return [x for symbol in emitted[max(0, k - self.memory):k] for x in symbol]

    def _base_symbol(self, window: list[int], k: int) -> Sequence[int]:
        """Canonical representative of {g : (window, g) in C_{|window+k}}."""
        layout = self.code.layout
        section = self._prefix_sections[k]
        if section is None:
            return [0] * layout.widths[k]
        lifted = section.lift(window)
        if lifted is None:
            raise dynamics.InternalInconsistency(
                "encoder window left the code's restriction")
        g0 = lifted[-layout.widths[k]:]
        return self._zero_extension[k].reduce(g0)


def _granule_checks(dual_code: GroupCode) -> list[tuple[int, int, list[int]]]:
    """Checks (lo, hi, row) of a dual code, shortest span first.

    One Howell pass per start k, with the columns of the times before k in
    front and the later times in reverse, puts each pivot at its row's last
    time; by the Howell property the rows that end by time b span exactly the
    interval subcode of the dual on [k, b].  Intervals are taken shortest
    first, and a row is kept only when the rows kept so far do not span it.
    Those already span every shorter interval subcode, so each kept row
    touches both ends of its interval and the rows of span j generate the
    granules Gamma_[k, k+j] of the dual.  The longest span is then the dual's
    controller memory, which equals the observer memory of the code.
    """
    layout, carrier = dual_code.layout, dual_code.carrier
    M, n, N = layout.modulus, layout.total_dim, layout.axis_len
    basis = carrier.basis
    ends: list[dict[int, list[list[int]]]] = []  # per start: rows by last time
    for k in range(N):
        lead = layout.coords(range(k))
        tail = [c for t in reversed(range(k, N)) for c in layout.block(t)]
        tail_time = [t for t in reversed(range(k, N)) for _ in layout.block(t)]
        by_end: dict[int, list[list[int]]] = {}
        for row in residues.zero_block_span(M, basis[:, lead + tail], len(lead)).tolist():
            full = [0] * n
            for c, x in zip(tail, row):
                full[c] = x
            pivot = next(i for i, x in enumerate(row) if x)
            by_end.setdefault(tail_time[pivot], []).append(full)
        ends.append(by_end)
    kept = Subgroup.trivial(M, n)
    checks: list[tuple[int, int, list[int]]] = []
    for j in range(N):
        for k in range(N - j):
            for row in ends[k].get(k + j, ()):
                if not kept.contains(row):
                    kept = Subgroup.span(M, kept.basis.tolist() + [row], n)
                    checks.append((k, k + j, row))
                    if kept == carrier:
                        return checks
    return checks


class SyndromeFormer:
    """Homomorphic sliding-window map whose kernel is exactly the code."""

    def __init__(self, code: GroupCode):
        self.code = code
        layout = code.layout
        self.dual_code = dual(code)
        self._spans = _granule_checks(self.dual_code)
        self._rows_by_end: dict[int, list[list[int]]] = {k: [] for k in layout.times()}
        for _, hi, row in self._spans:
            self._rows_by_end[hi].append(row)
        self.memory = max((hi - lo for lo, hi, _ in self._spans), default=0)

    def syndrome_width(self, k: int) -> int:
        return len(self._rows_by_end[k])

    def form(self, word: Sequence[int]) -> tuple[list[Vec], MachineTrace]:
        layout = self.code.layout
        M = layout.modulus
        w = residues.as_residue_vector(M, word, layout.total_dim)
        trace = MachineTrace()
        syndromes: list[Vec] = []
        for k in layout.times():
            start, upto = layout.starts[k], layout.starts[k + 1]
            comp = tuple(sum(map(mul, row, w)) % M for row in self._rows_by_end[k])
            partials = tuple(sum(map(mul, row[:upto], w)) % M
                             for a, b, row in self._spans if a <= k < b)
            trace.steps.append(TraceStep(time=k, state=partials,
                                         symbol=tuple(w[start:upto]), syndrome=comp))
            syndromes.append(comp)
        return syndromes, trace

    def is_member(self, word: Sequence[int]) -> bool:
        syndromes, _ = self.form(word)
        return all(not any(c) for c in syndromes)


def input_group_orders(code: GroupCode) -> list[int]:
    return [dynamics.first_output_group(code, k).order()
            for k in code.layout.times()]


def roundtrip_check(code: GroupCode, trials: int = 25,
                    rng: Random | None = None) -> bool:
    """Encoder, observer, and syndrome-former agree on random traffic.

    The syndrome-former's memory is the encoder's; encoded words have
    all-zero syndromes and per-time states matching the full-word observer;
    perturbations by non-codewords are flagged; and the input groups account
    for the code exactly.
    """
    rng = rng or Random(0)
    enc = ObserverEncoder(code)
    sf = SyndromeFormer(code)
    if sf.memory != enc.memory:
        return False
    layout = code.layout
    M = layout.modulus
    if prod(input_group_orders(code)) != code.order():
        return False
    for _ in range(trials):
        word, trace = enc.encode(enc.random_inputs(rng))
        if not sf.is_member(word):
            return False
        for k, step in enumerate(trace.steps):
            if enc.observer.observe_codeword(word, k) != step.state:
                return False
    if code.order() == M ** layout.total_dim:
        return True  # full space: no perturbation outside the code exists
    for _ in range(trials):
        coeffs = [rng.randrange(M) for _ in range(code.carrier.num_generators)]
        c = [0] * layout.total_dim
        for q, row in zip(coeffs, code.carrier.basis.tolist()):
            c = [(a + q * b) % M for a, b in zip(c, row)]
        while True:
            e = [rng.randrange(M) for _ in range(layout.total_dim)]
            if not code.contains(e):
                break
        if sf.is_member([(a + b) % M for a, b in zip(c, e)]):
            return False
    return True
