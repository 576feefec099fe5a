"""Group codes on finite axes and their set-level duality operations.

A group code is a subgroup of the sequence space described by a SymbolLayout.
On a finite axis every subgroup is closed, so the whole theory is exact set
algebra: duals, restrictions (puncturing), subcodes (shortening), and
conditioned codes.

Each operation is one Howell projection of one matrix.  A code's basis is a
tuple of int tuples, and ``residues.howell_pass`` gives each Howell row with
its pivot.  Restrictions, sums (``lift_restriction`` = C + W_{I-J},
``cut_product``) and the dual are one pass each.  ``pivot_rows`` is the one
Howell pass over a code's basis with its times in a chosen order; ``shorten``
and the nested shortenings of ``dynamics`` and ``machines`` are read off it.
Conditioning keeps the rows of one pass that pivot past a leading column
block, and intersections are one Zassenhaus pass.

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

from . import residues
from .residues import Row, Subgroup
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
                        rows: Iterable[Sequence[int]]) -> "GroupCode":
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

    def contains(self, w: Sequence[int]) -> bool:
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


def _howell_code(layout: SymbolLayout, rows: Sequence[Sequence[int]]) -> GroupCode:
    """The code on ``layout`` spanned by int rows in [0, M), in one pass."""
    M, n = layout.modulus, layout.total_dim
    return GroupCode(layout, Subgroup(M, n, residues.howell_pass(M, rows, n)))


def restriction(c: GroupCode, times: TimeSubset) -> GroupCode:
    """Puncture: keep only the blocks of ``times`` (code on the restricted layout)."""
    ts = c.layout.subset(times)
    if not ts:
        raise ValueError("restriction to an empty time set")
    idx = c.layout.coords(ts)
    return _howell_code(c.layout.restricted(ts),
                        [[row[i] for i in idx] for row in c.carrier.basis])


def pivot_rows(layout: SymbolLayout, rows: Sequence[Row], order: Sequence[int],
               skip: int = 0) -> list[tuple[int, int, int, Row]]:
    """One Howell pass over ``rows`` with the blocks of the times in ``order``
    in that order, the other times dropped: (index in ``order`` of the pivot's
    time, pivot column, pivot entry, row) per Howell row, column and row in
    the layout's coordinates.  By the Howell property the rows that pivot past
    the first q times of ``order`` span the words of the pass's span that
    vanish on those q times.  Only the rows that pivot past the first
    ``skip`` times are finished and returned."""
    starts, cols, rank = layout.starts, [], [0] * layout.total_dim
    keep = sum(layout.widths[t] for t in order[:skip])
    for i, t in enumerate(order):
        cols += range(starts[t], starts[t + 1])
        rank[starts[t]:starts[t + 1]] = [i] * layout.widths[t]
    return [(rank[c], c, d, row) for c, d, row in
            residues.howell_pass(layout.modulus, rows, layout.total_dim, cols, keep)]


@lru_cache(maxsize=16384)
def shorten(c: GroupCode, support: TimeSubset) -> GroupCode:
    """Subcode of words supported inside ``support``, on the full layout.

    One ``pivot_rows`` pass with the times outside ``support`` in front; the
    rows that pivot inside it are a Howell form, ``support`` being sorted.
    """
    ts = c.layout.subset(support)
    if not ts:
        return GroupCode.trivial(c.layout)
    if ts == c.layout.full_subset():
        return c
    outside = sorted(c.layout.complement(ts))
    rows = [(col, d, row) for _, col, d, row in
            pivot_rows(c.layout, c.carrier.basis, outside + sorted(ts), len(outside))]
    return GroupCode(c.layout, Subgroup(c.layout.modulus, c.layout.total_dim, rows))


def restricted_subcode(c: GroupCode, support: TimeSubset) -> GroupCode:
    """C_{|:K}: the shortened code with the outside-zero coordinates dropped."""
    ts = c.layout.subset(support)
    if not ts:
        raise ValueError("restricted subcode needs a nonempty support")
    return restriction(shorten(c, ts), ts)


def lift_restriction(c: GroupCode, times: TimeSubset) -> GroupCode:
    """{w in W : w_{|J} in C_{|J}} = C + W_{I-J}, on the full layout."""
    n = c.layout.total_dim
    free = [[int(i == j) for j in range(n)]
            for i in c.layout.coords(c.layout.complement(times))]
    return _howell_code(c.layout, [*c.carrier.basis, *free])


def cut_product(c: GroupCode, times: TimeSubset) -> GroupCode:
    """C_{|J} x C_{|I-J}, embedded on the full layout.  Contains C.

    Spanned by the basis rows masked to J together with the same rows
    masked to I-J.
    """
    ts = c.layout.subset(times)
    if not ts or ts == c.layout.full_subset():
        return c
    on_j = set(c.layout.coords(ts))
    b = c.carrier.basis
    return _howell_code(c.layout,
                        [[x if i in on_j else 0 for i, x in enumerate(row)] for row in b]
                        + [[0 if i in on_j else x for i, x in enumerate(row)] for row in b])


def conditioned(c: GroupCode, d: GroupCode, times: TimeSubset) -> GroupCode:
    """(C|D) = {w in C : w_{|I-J} in D}, with D a code on the I-J layout.

    D = full restriction gives back C; D = trivial gives the subcode C_{:J}.
    One pass over [[B_{|I-J}, B], [D, 0]] for a basis B of C: the first block
    vanishes exactly on the words of C whose I-J part lies in D, and the rows
    that pivot past it span them.
    """
    ts = c.layout.subset(times)
    comp = c.layout.complement(ts)
    if not comp:
        return c
    if d.layout != c.layout.restricted(comp):
        raise ValueError("conditioning code must live on the complement's layout")
    M, n = c.layout.modulus, c.layout.total_dim
    lead = c.layout.coords(comp)
    w = len(lead)
    zeros = (0,) * n
    rows = ([(*(b[i] for i in lead), *b) for b in c.carrier.basis]
            + [db + zeros for db in d.carrier.basis])
    return GroupCode(c.layout, Subgroup(M, n, [
        (p - w, e, row[w:]) for p, e, row in residues.howell_pass(M, rows, w + n, keep=w)]))
