"""Group codes on finite axes and their set-level duality operations.

A group code is a subgroup of the sequence space described by a SymbolLayout.
On a finite axis every subgroup is closed, so the whole theory is exact set
algebra: duals, restrictions (puncturing), subcodes (shortening), and
conditioned codes.

Each operation is one Howell projection of one matrix.  A code's basis is a
tuple of int tuples, and ``residues.howell_pass`` gives each Howell row with
its pivot.  Restrictions, sums (``cut_product``) and the dual are one pass
each.  ``pivot_rows`` is the one Howell pass over a code's basis with its
times in a chosen order; ``shorten`` and the nested shortenings of
``dynamics`` and ``machines`` are read off it.  Conditioning keeps the rows
of one pass that pivot past a leading column block, and so does
``lift_restriction``, the words that pass the checks of any number of
windows (C + W_{I-J} for one window), with one leading block per window;
intersections are one Zassenhaus pass.

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


def lift_restriction(c: GroupCode, *windows: TimeSubset) -> GroupCode:
    """{w in W : w_{|J} in C_{|J} for every window J}, on the full layout:
    C + W_{I-J} for one window J, the whole space W for none.

    One pass of width lead + n, where the leading columns hold one block per
    window, a copy of that window's coordinates.  Block i takes the basis
    rows of C restricted to J_i (its check rows, inserted first: their form
    is block-diagonal), and each coordinate e gets the row with a 1 at e's
    place in every block whose window holds e and a 1 at column lead + e.
    The span holds (sum_i (w_{|J_i} - c_i), w) for words w and codewords
    c_i, so its leading part vanishes exactly when every w_{|J_i} lies in
    C_{|J_i}, and the rows that pivot past it span the answer.
    """
    layout, basis = c.layout, c.carrier.basis
    M, n = layout.modulus, layout.total_dim
    places: list[list[int]] = [[] for _ in range(n)]  # e -> its leading columns
    checks, lead = [], 0
    for times in windows:
        idx = layout.coords(layout.subset(times))
        checks += [(lead, [b[e] for e in idx]) for b in basis]
        for j, e in enumerate(idx):
            places[e].append(lead + j)
        lead += len(idx)
    form = residues.IncrementalHowell(M, lead + n)
    for start, row in checks:
        form.insert(row, start)
    for e, cols in enumerate(places):
        start = cols[0] if cols else lead + e
        row = [0] * (lead + e + 1 - start)
        for j in cols:
            row[j - start] = 1
        row[-1] = 1
        form.insert(row, start)
    form.drop(lead)
    return GroupCode(layout, Subgroup(M, n, residues.written_out(
        [(p - lead, d, tail) for p, d, tail in form.rows()], n)))


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
