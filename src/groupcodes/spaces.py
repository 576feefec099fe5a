"""Finite time axes and per-time symbol blocks.

A ``SymbolLayout`` pins down the sequence space (Z_M)^{n_0} x ... x
(Z_M)^{n_{N-1}} as one flat coordinate space of dimension sum(n_k), with the
blocks contiguous and ordered by time.  Time-subset operations (restriction,
zero-embedding, end-around intervals) then become plain column bookkeeping.

Time subsets are arbitrary sets of times, not just intervals; intervals
(including end-around ones that wrap past the ends of the axis) are a
convenience layer that resolves to a set immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import FrozenSet, Iterable, Sequence

import numpy as np

from . import residues
from .residues import Subgroup

TimeSubset = FrozenSet[int]


@dataclass(frozen=True)
class SymbolLayout:
    """Time axis of length N with width n_k at time k, all over one modulus."""

    modulus: int
    widths: tuple[int, ...]
    # starts[k] is the first coordinate of block k; starts[N] is total_dim
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        residues.check_modulus(self.modulus)
        if len(self.widths) < 1:
            raise ValueError("axis must have at least one time")
        if any(w < 1 for w in self.widths):
            raise ValueError("every symbol width must be >= 1")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "starts", tuple(accumulate(self.widths, initial=0)))

    @classmethod
    def uniform(cls, modulus: int, axis_len: int, width: int = 1) -> "SymbolLayout":
        return cls(modulus, (width,) * axis_len)

    @property
    def axis_len(self) -> int:
        return len(self.widths)

    @property
    def total_dim(self) -> int:
        return self.starts[-1]

    def block_start(self, k: int) -> int:
        return self.starts[k]

    def block(self, k: int) -> range:
        if not 0 <= k < self.axis_len:
            raise ValueError(f"time {k} outside axis of length {self.axis_len}")
        return range(self.starts[k], self.starts[k + 1])

    def times(self) -> range:
        return range(self.axis_len)

    def full_subset(self) -> TimeSubset:
        return frozenset(self.times())

    def subset(self, times: Iterable[int]) -> TimeSubset:
        ts = times if isinstance(times, frozenset) else frozenset(int(t) for t in times)
        if ts and (min(ts) < 0 or max(ts) >= self.axis_len):
            bad = sorted(t for t in ts if not 0 <= t < self.axis_len)
            raise ValueError(f"times {bad} outside axis of length {self.axis_len}")
        return ts

    def complement(self, times: Iterable[int]) -> TimeSubset:
        return self.full_subset() - self.subset(times)

    def interval(self, lo: int, hi: int) -> TimeSubset:
        """Closed interval [lo, hi] as a time subset."""
        return self.subset(range(lo, hi + 1))

    def coords(self, times: Iterable[int]) -> list[int]:
        """Sorted coordinate indices covering exactly the blocks of ``times``."""
        starts = self.starts
        out: list[int] = []
        for t in sorted(self.subset(times)):
            out.extend(range(starts[t], starts[t + 1]))
        return out

    def restricted(self, times: Iterable[int]) -> "SymbolLayout":
        ts = sorted(self.subset(times))
        if not ts:
            raise ValueError("cannot restrict a layout to an empty time set")
        return SymbolLayout(self.modulus, tuple(self.widths[t] for t in ts))

    def split_symbols(self, word: Sequence[int] | np.ndarray) -> list[tuple[int, ...]]:
        w = residues.as_residue_vector(self.modulus, word, self.total_dim)
        return [tuple(w[self.starts[k]:self.starts[k + 1]]) for k in self.times()]


@dataclass(frozen=True)
class Interval:
    """[lo, hi] when lo <= hi; with wraparound set, {lo..N-1} + {0..hi}."""

    lo: int
    hi: int
    wraparound: bool = False

    def __post_init__(self):
        if self.wraparound:
            if self.lo <= self.hi:
                raise ValueError("an end-around interval needs lo > hi")
        elif self.lo > self.hi:
            raise ValueError("interval is empty; use wraparound for end-around sets")

    def times(self, layout: SymbolLayout) -> TimeSubset:
        n = layout.axis_len
        if not (0 <= self.lo < n and 0 <= self.hi < n):
            raise ValueError(f"interval {self} outside axis of length {n}")
        if not self.wraparound:
            return layout.interval(self.lo, self.hi)
        return layout.subset(range(self.lo, n)) | layout.subset(range(0, self.hi + 1))


def restrict_columns(h: Subgroup, layout: SymbolLayout,
                     times: Iterable[int]) -> Subgroup:
    """Howell form of the column-selected basis: the restriction H_{|J}."""
    if h.ambient != layout.total_dim:
        raise ValueError("subgroup ambient does not match layout")
    idx = layout.coords(times)
    if not idx:
        raise ValueError("cannot restrict to an empty time set")
    return Subgroup(h.modulus, h.basis[:, idx], len(idx))


def embed_zero(layout: SymbolLayout, times: Iterable[int],
               v: Sequence[int] | np.ndarray) -> np.ndarray:
    """Place a restricted vector in its blocks, zeros elsewhere."""
    idx = layout.coords(times)
    out = np.zeros(layout.total_dim, dtype=object)
    out[idx] = residues.as_residue_vector(layout.modulus, v, len(idx))
    return out
