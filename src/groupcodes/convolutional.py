"""Finite-axis windows of time-invariant codes given by shift generators.

A ``ConvSpec`` describes a width-n code over Z_M through two kinds of
generators:

* finite-support tap families, closed under time shifts (every shift whose
  support fits inside the axis is included), and
* full-axis periodic patterns, tiled once across the axis and not shifted.

The split is load-bearing: autonomous codes (repetition-style behaviors) have
no finite-support generators at all, so they cannot be windowed from shifts.

``interior_report`` extracts the boundary-free numbers of a windowed code
(state, memories, and the chains at the central time, whose successive
quotients give its granules); by interior shift
invariance these are independent of the axis length once the margin clears
the generator span, which is what makes them comparable across window sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import dynamics, residues
from .codes import GroupCode, restriction
from .spaces import SymbolLayout

Invariants = tuple[int, ...]


def _normalize_taps(modulus: int, width: int, taps) -> tuple[tuple[int, ...], ...]:
    out = []
    for sym in taps:
        sym = tuple(int(x) % modulus for x in sym)
        if len(sym) != width:
            raise ValueError(f"tap symbol {sym} does not have width {width}")
        out.append(sym)
    return tuple(out)


@dataclass(frozen=True)
class ConvSpec:
    """Shift-generator description of a time-invariant code over Z_M."""

    modulus: int
    width: int
    generators: tuple[tuple[tuple[int, ...], ...], ...] = ()
    patterns: tuple[tuple[tuple[int, ...], ...], ...] = ()
    name: str = ""

    def __post_init__(self):
        residues.check_modulus(self.modulus)
        if self.width < 1:
            raise ValueError("symbol width must be >= 1")
        gens = tuple(_normalize_taps(self.modulus, self.width, g)
                     for g in self.generators)
        pats = tuple(_normalize_taps(self.modulus, self.width, p)
                     for p in self.patterns)
        for g in gens:
            if not any(any(s) for s in g):
                raise ValueError("every tap family needs a nonzero tap")
        for p in pats:
            if len(p) < 1:
                raise ValueError("a periodic pattern needs at least one symbol")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "patterns", pats)

    def degree(self, gen: tuple[tuple[int, ...], ...]) -> int:
        nz = [d for d, sym in enumerate(gen) if any(sym)]
        return nz[-1]

    @property
    def max_degree(self) -> int:
        return max((self.degree(g) for g in self.generators), default=0)

    @property
    def max_period(self) -> int:
        return max((len(p) for p in self.patterns), default=0)

    @property
    def default_margin(self) -> int:
        return max(self.max_degree + 1, self.max_period, 2)


@dataclass(frozen=True)
class WindowedCode:
    spec: ConvSpec
    axis_len: int
    code: GroupCode
    margin: int


def window(spec: ConvSpec, axis_len: int, margin: int | None = None) -> WindowedCode:
    """The code generated on [0, N) by all fully-inside shifts plus the tiled
    patterns."""
    if axis_len <= spec.max_degree:
        raise ValueError(
            f"axis of length {axis_len} cannot hold a generator of degree {spec.max_degree}")
    layout = SymbolLayout.uniform(spec.modulus, axis_len, spec.width)
    rows = []
    for g in spec.generators:
        deg = spec.degree(g)
        taps = [x for sym in g[:deg + 1] for x in sym]
        for start in range(0, (axis_len - deg) * spec.width, spec.width):
            row = [0] * layout.total_dim
            row[start:start + len(taps)] = taps
            rows.append(row)
    for p in spec.patterns:
        rows.append([x for k in range(axis_len) for x in p[k % len(p)]])
    code = GroupCode.from_generators(layout, rows)
    return WindowedCode(spec, axis_len,
                        code, spec.default_margin if margin is None else margin)


@dataclass(frozen=True)
class InteriorReport:
    """Boundary-free summary of a code: everything is taken at the central
    time/cut, with index searches confined to the interior margin.  Two
    windows of the same spec at different lengths must produce equal reports.
    """

    state: Invariants
    controller_memory: int | None
    observer_memory: int | None
    controller_granules: tuple[Invariants, ...]   # level 0..margin at center
    observer_granules: tuple[Invariants, ...]
    input_group_order: int                        # |F_k| at center
    output_group_order: int                       # |C_{|{k}}| at center
    syndrome_group: Invariants
    last_quotients: tuple[Invariants, ...]
    dual_first_quotients: tuple[Invariants, ...]
    dual_last_quotients: tuple[Invariants, ...]


def interior_report(code: GroupCode, margin: int) -> InteriorReport:
    """The report at the central time, with granules and chains at levels
    0..margin; an axis of length at least 2 * margin + 2 holds them."""
    n = code.layout.axis_len
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if n < 2 * margin + 2:
        raise ValueError("axis too short for the requested interior margin")
    center = n // 2
    chains = dynamics.output_chains(code, center, margin)
    return InteriorReport(
        state=dynamics.state_at(code, center).invariants,
        controller_memory=dynamics.controllability_index(code, margin),
        observer_memory=dynamics.observability_index(code, margin),
        controller_granules=chains.first_quotients,
        observer_granules=chains.observer_granules,
        input_group_order=chains.first_output_group.order(),
        output_group_order=chains.dual_last[0].order(),
        syndrome_group=chains.syndrome_group,
        last_quotients=chains.last_quotients,
        dual_first_quotients=chains.dual_first_quotients,
        dual_last_quotients=chains.dual_last_quotients)


def central_report(spec: ConvSpec, axis_len: int,
                   margin: int | None = None) -> InteriorReport:
    wc = window(spec, axis_len, margin)
    if axis_len < 2 * wc.margin + 2:
        raise ValueError("axis too short to expose an interior")
    return interior_report(wc.code, wc.margin)


def interior_shift_invariance_check(wc: WindowedCode, width: int = 1) -> bool:
    """Restrictions to congruent interior intervals agree after translation."""
    n, m = wc.axis_len, wc.margin
    firsts = range(m, n - m - width + 1)
    carriers = [restriction(wc.code, wc.code.layout.interval(a, a + width - 1)).carrier
                for a in firsts]
    return all(c == carriers[0] for c in carriers)


def orthogonality_check(spec: ConvSpec, dual_taps: Sequence[Sequence[Sequence[int]]]) -> bool:
    """True iff every primal tap family is orthogonal to every shift of every
    dual tap family under the Z_M inner product.  A periodic pattern is tiled
    across all times, a tap family vanishes outside its taps."""
    M = spec.modulus
    duals = tuple(_normalize_taps(M, spec.width, t) for t in dual_taps)
    families = ([(g, False) for g in spec.generators]
                + [(p, True) for p in spec.patterns])
    for g, periodic in families:
        glen = len(g)
        for h in duals:
            for rel in range(-len(h), glen + 1):
                total = 0
                for d, sym in enumerate(h):
                    t = rel + d
                    gsym = None
                    if periodic:
                        gsym = g[t % glen]
                    elif 0 <= t < glen:
                        gsym = g[t]
                    if gsym is not None:
                        total += sum(a * b for a, b in zip(sym, gsym))
                if total % M:
                    return False
    return True
