"""Group codes on finite axes and their set-level duality operations.

A group code is a subgroup of the sequence space described by a SymbolLayout.
On a finite axis every subgroup is closed, so the whole theory is exact set
algebra: duals, restrictions (puncturing), subcodes (shortening), and
conditioned codes.

Each operation is one Howell projection of one matrix.  Restrictions, sums
(``lift_restriction`` = C + W_{I-J}, ``cut_product``) and the dual are one
``Subgroup`` pass each; shortening and conditioning take the rows of one
Howell form that vanish on a leading column block
(``residues.zero_block_span``), and intersections are one Zassenhaus pass.

Conventions that matter elsewhere:

* ``shorten`` keeps the full layout (outside-zero coordinates retained);
  ``restricted_subcode`` is the explicitly restricted variant.  Both versions
  appear in granule formulas, so they stay distinct.
* The dual code lives on the same layout: the character group of Z_M is
  identified with Z_M through the pairing h*g mod M, and no time reversal is
  applied on a finite axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import residues, spaces
from .residues import Subgroup
from .spaces import SymbolLayout, TimeSubset


@dataclass(frozen=True)
class GroupCode:
    """A Howell-canonical subgroup of the sequence space of ``layout``."""

    layout: SymbolLayout
    carrier: Subgroup

    def __post_init__(self):
        if self.carrier.ambient != self.layout.total_dim:
            raise ValueError("carrier ambient does not match layout dimension")
        if self.carrier.modulus != self.layout.modulus:
            raise ValueError("carrier modulus does not match layout")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, layout: SymbolLayout,
                        rows: Iterable[Sequence[int]] | np.ndarray) -> "GroupCode":
        return cls(layout, Subgroup.span(layout.modulus, rows, layout.total_dim))

    @classmethod
    def trivial(cls, layout: SymbolLayout) -> "GroupCode":
        return cls(layout, Subgroup.trivial(layout.modulus, layout.total_dim))

    @classmethod
    def full(cls, layout: SymbolLayout) -> "GroupCode":
        return cls(layout, Subgroup.full(layout.modulus, layout.total_dim))

    # -- plumbing -------------------------------------------------------------

    def order(self) -> int:
        return self.carrier.order()

    def contains(self, w: Sequence[int] | np.ndarray) -> bool:
        return self.carrier.contains(w)

    def invariants(self) -> tuple[int, ...]:
        return residues.invariants(self.carrier)

    def subset(self, times: Iterable[int]) -> TimeSubset:
        return self.layout.subset(times)

    def __repr__(self) -> str:
        return (f"GroupCode(mod {self.layout.modulus}, widths {self.layout.widths}, "
                f"order {self.order()})")


def code_sum(c1: GroupCode, c2: GroupCode) -> GroupCode:
    _check_layout(c1, c2)
    return GroupCode(c1.layout, residues.add(c1.carrier, c2.carrier))


def code_intersect(c1: GroupCode, c2: GroupCode) -> GroupCode:
    _check_layout(c1, c2)
    return GroupCode(c1.layout, residues.intersect(c1.carrier, c2.carrier))


def code_equal(c1: GroupCode, c2: GroupCode) -> bool:
    _check_layout(c1, c2)
    return c1.carrier == c2.carrier


def _check_layout(c1: GroupCode, c2: GroupCode) -> None:
    if c1.layout != c2.layout:
        raise ValueError("codes live on different layouts")


@lru_cache(maxsize=1024)
def dual(c: GroupCode) -> GroupCode:
    """The orthogonal code under the componentwise Z_M pairing; an involution."""
    return GroupCode(c.layout, residues.orthogonal(c.carrier))


def restriction(c: GroupCode, times: TimeSubset) -> GroupCode:
    """Puncture: keep only the blocks of ``times`` (code on the restricted layout)."""
    ts = c.layout.subset(times)
    if not ts:
        raise ValueError("restriction to an empty time set")
    return GroupCode(c.layout.restricted(ts),
                     spaces.restrict_columns(c.carrier, c.layout, ts))


@lru_cache(maxsize=16384)
def shorten(c: GroupCode, support: TimeSubset) -> GroupCode:
    """Subcode of words supported inside ``support``, on the full layout.

    One pass over the basis with the columns outside ``support`` in front.
    """
    ts = c.layout.subset(support)
    if not ts:
        return GroupCode.trivial(c.layout)
    if ts == c.layout.full_subset():
        return c
    inside = c.layout.coords(ts)
    outside = c.layout.coords(c.layout.complement(ts))
    rows = residues.zero_block_span(
        c.layout.modulus, c.carrier.basis[:, outside + inside], len(outside))
    # ``inside`` is sorted, so putting back the zero columns keeps the form canonical
    full = np.zeros((len(rows), c.layout.total_dim), dtype=object)
    full[:, inside] = rows
    return GroupCode(c.layout, Subgroup(c.layout.modulus, full, c.layout.total_dim,
                                        _canonical=True))


def restricted_subcode(c: GroupCode, support: TimeSubset) -> GroupCode:
    """C_{|:K}: the shortened code with the outside-zero coordinates dropped."""
    ts = c.layout.subset(support)
    if not ts:
        raise ValueError("restricted subcode needs a nonempty support")
    return restriction(shorten(c, ts), ts)


def lift_restriction(c: GroupCode, times: TimeSubset) -> GroupCode:
    """{w in W : w_{|J} in C_{|J}} = C + W_{I-J}, on the full layout."""
    n = c.layout.total_dim
    outside = c.layout.coords(c.layout.complement(times))
    free = np.eye(n, dtype=object)[outside]
    return GroupCode(c.layout, Subgroup(c.layout.modulus,
                                        np.vstack([c.carrier.basis, free]), n))


def cut_product(c: GroupCode, times: TimeSubset) -> GroupCode:
    """C_{|J} x C_{|I-J}, embedded on the full layout.  Contains C.

    Spanned by the basis rows masked to J together with the same rows
    masked to I-J.
    """
    ts = c.layout.subset(times)
    if not ts or ts == c.layout.full_subset():
        return c
    on_j = np.zeros(c.layout.total_dim, dtype=bool)
    on_j[c.layout.coords(ts)] = True
    b = c.carrier.basis
    rows = np.vstack([np.where(on_j, b, 0), np.where(on_j, 0, b)])
    return GroupCode(c.layout, Subgroup(c.layout.modulus, rows, c.layout.total_dim))


def conditioned(c: GroupCode, d: GroupCode, times: TimeSubset) -> GroupCode:
    """(C|D) = {w in C : w_{|I-J} in D}, with D a code on the I-J layout.

    D = full restriction gives back C; D = trivial gives the subcode C_{:J}.
    One pass over [[B_{|I-J}, B], [D, 0]] for a basis B of C: the first block
    vanishes exactly on the words of C whose I-J part lies in D.
    """
    ts = c.layout.subset(times)
    comp = c.layout.complement(ts)
    if not comp:
        return c
    if d.layout != c.layout.restricted(comp):
        raise ValueError("conditioning code must live on the complement's layout")
    b, db = c.carrier.basis, d.carrier.basis
    lead = b[:, c.layout.coords(comp)]
    mat = np.vstack([np.hstack([lead, b]),
                     np.hstack([db, np.zeros((len(db), b.shape[1]), dtype=object)])])
    return GroupCode(c.layout, Subgroup(
        c.layout.modulus, residues.zero_block_span(c.layout.modulus, mat, lead.shape[1]),
        c.layout.total_dim, _canonical=True))
