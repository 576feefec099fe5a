"""Exact linear algebra over Z_M for arbitrary M >= 2.

The whole package reduces to row-span arithmetic in (Z_M)^n.  Because M need
not be prime, reduced row echelon form does not exist; the canonical form for
row spans over Z_M is the Howell form, which restores the two properties we
need everywhere:

* span equality is basis identity, and
* greedy reduction against the basis yields a canonical coset representative.

A ``Subgroup`` is an immutable row span held in Howell form, its basis a tuple
of int tuples.  Everything else is built on top of it, and each operation is
one projection of one Howell pass (``howell_pass``), which returns every
Howell row with its pivot column and pivot entry: by the Howell property, the
rows that pivot past a leading column block span exactly the elements of the
span that vanish there.  Annihilators, intersections (Zassenhaus) and, in
``codes``, shortenings and conditioned codes are each one such pass; sums are
one pass over stacked bases; quotient invariants come from ``snf``.

Every residue is a plain Python int, which never overflows, so every M
takes the same path and every answer is exact.  Rows and vectors from outside
enter through ``Subgroup.span`` and ``as_residue_vector``, which pass each
entry through ``int``, so integer scalars of any type are taken.  There are
two elimination routines, both on int lists touching only the tail of each
row from its leading column on: ``IncrementalHowell``, which grows a Howell
form one row at a time, and the one reduction loop ``reduce_ints`` (behind
``Subgroup.reduce`` and ``contains``, and called directly by the machines).
Every pass is a run of inserts into one fresh form; a nested family of spans
(the interval subcodes and windows of a code, or a growing set of checks)
costs one sweep of inserts rather than one pass per member.  No library path
builds an array: ``howell_form`` is an adapter for array callers and imports
numpy when called.
"""

from __future__ import annotations

import operator
from math import prod
from typing import Iterable, Sequence

from .snf import _gcdex, _unit_lifting, lattice_quotient_invariants

Row = tuple[int, ...]
Pivoted = tuple[int, int, Row]  # (pivot column, pivot entry, row)


def check_modulus(modulus: int) -> int:
    try:
        M = operator.index(modulus)
    except TypeError:
        M = 0
    if M < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
    return M


def as_residue_vector(modulus: int, v: Sequence[int], length: int) -> list[int]:
    """Normalize one vector of ``length`` entries into Python ints in [0, M).

    ``int`` also takes integer scalars of any type, and rejects an entry
    that is itself an array.
    """
    try:
        a = [int(x) % modulus for x in v]
    except TypeError:
        raise ValueError(f"expected a vector of {length} integers") from None
    if len(a) != length:
        raise ValueError(f"expected a vector of length {length}, got {len(a)} entries")
    return a


Tails = Sequence[tuple[int, int, Sequence[int]]]


def reduce_ints(modulus: int, tails: Tails, r: list[int]) -> list[int]:
    """Greedy reduction of the int list ``r`` in place, and return it.

    ``tails`` holds (pivot column, pivot entry, row from the pivot on) for
    each row of a Howell form, top row first (``Subgroup.tails``); a tail
    may stop short of the end of ``r``, and is zero past its end.  Against a
    Howell basis the result is the canonical representative of the coset of
    ``r``.
    """
    M = modulus
    for col, d, tail in tails:
        q = r[col] // d
        if q:
            end = col + len(tail)
            r[col:end] = [(a - q * b) % M for a, b in zip(r[col:end], tail)]
    return r


class IncrementalHowell:
    """A Howell form of (Z_M)^width grown one row at a time.

    Each row sits at its pivot column as (pivot entry, tail from the pivot
    on), a tail being zero past its end.  ``insert`` reduces a row down the
    form; at an occupied pivot whose entry does not divide the row's it
    merges the two with ``_gcdex`` and sends the residual on, at a free
    column it unit-lifts the row and places it, and either way it enters the
    new pivot row's closure row (M/d)*row, so the Howell property holds after
    every insert and membership, pivots and ``order`` are exact throughout.
    Entries above the pivots are reduced only when ``rows`` reads the form,
    and then only for the rows at or above one that changed since the last
    read.  A list that ``rows`` or ``drop`` has handed out is never changed:
    ``insert`` never writes into a placed tail (nor into the caller's row),
    and ``rows`` copies a tail before it reduces it in place.  Howell forms
    are canonical: ``rows`` after any sequence of inserts is the Howell form
    of the rows inserted.
    """

    __slots__ = ("modulus", "order", "_at", "_changed")

    def __init__(self, modulus: int, width: int, howell: Tails = ()):
        """Start from the Howell form ``howell``, (pivot column, pivot entry,
        tail) per row; by default, from the trivial group."""
        self.modulus = modulus
        self._at: list[tuple[int, Sequence[int]] | None] = [None] * width
        self.order = 1
        for c, d, tail in howell:
            self._at[c] = (d, tail)
            self.order *= modulus // d
        self._changed: set[int] = set()

    def insert(self, row: Sequence[int], start: int = 0) -> bool:
        """Add the row whose entries from column ``start`` on are the
        residues ``row``, in [0, M); return whether the span grew."""
        M, at, changed = self.modulus, self._at, self._changed
        grew = False
        col, r, owned = start, row, False  # the caller's row is never changed
        work = None  # merge residuals and closure rows still to insert
        while True:
            i, end = 0, len(r)
            while end and not r[end - 1]:
                end -= 1
            while i < end:
                x = r[i]
                if not x:
                    i += 1
                    continue
                c = col + i
                placed = at[c]
                if placed is None:
                    d, u = _unit_lifting(x, M)
                    tail = list(r[i:end]) if u == 1 else [u * a % M for a in r[i:end]]
                    at[c] = (d, tail)
                    self.order *= M // d
                elif x % placed[0]:
                    # gcd(d, x) divides d, which divides M: it is the new pivot
                    d0, head = placed
                    d, s, t, u, v = _gcdex(d0, x)
                    below = r[i:end]
                    if len(head) < len(below):
                        head = [*head, *[0] * (len(below) - len(head))]
                    elif len(below) < len(head):
                        below = [*below, *[0] * (len(head) - len(below))]
                    tail = [(s * a + t * b) % M for a, b in zip(head, below)]
                    work = work or []
                    work.append((c + 1, [(u * a + v * b) % M for a, b in zip(head[1:], below[1:])]))
                    at[c] = (d, tail)
                    self.order = self.order // (M // d0) * (M // d)
                else:
                    # reduce in place by the row placed here, which clears r[i]
                    q, tail = x // placed[0], placed[1]
                    stop = i + len(tail)
                    if not owned:
                        r, owned = list(r), True
                    if stop > len(r):
                        r += [0] * (stop - len(r))
                    r[i:stop] = [(a - q * b) % M for a, b in zip(r[i:stop], tail)]
                    end = max(end, stop)
                    while end and not r[end - 1]:
                        end -= 1
                    i += 1
                    continue
                if d != 1:
                    work = work or []
                    work.append((c + 1, [(M // d) * a % M for a in tail[1:]]))
                changed.add(c)
                grew = True
                break
            if not work:
                return grew
            col, r = work.pop()
            owned = True

    def pivots(self) -> list[tuple[int, int]]:
        """(pivot column, pivot entry) of each row, top row first."""
        return [(c, p[0]) for c, p in enumerate(self._at) if p is not None]

    def drop(self, stop: int) -> list[tuple[int, Sequence[int]]]:
        """Remove the rows that pivot before column ``stop`` and return each as
        (pivot column, tail).  The rest is the Howell form of the elements of
        the span that vanish before ``stop``."""
        out = []
        for c in range(stop):
            placed = self._at[c]
            if placed is not None:
                self._at[c] = None
                self.order //= self.modulus // placed[0]
                out.append((c, placed[1]))
        self._changed.difference_update(range(stop))
        return out

    def rows(self) -> list[tuple[int, int, Sequence[int]]]:
        """The Howell form, (pivot column, pivot entry, tail) per row, top row
        first, with the entries above each pivot reduced modulo it."""
        M, changed = self.modulus, self._changed
        placed = [(c, p[0], p[1]) for c, p in enumerate(self._at) if p is not None]
        # a row unchanged since the last read needs checking only against the
        # rows below it from the first one that changed (or that this pass
        # changed) on
        first = len(placed)
        for i in range(len(placed) - 1, -1, -1):
            c0, d0, row = placed[i]
            touched = c0 in changed
            copied = False
            for c, d, below in placed[i + 1 if touched else first:]:
                j = c - c0
                if j >= len(row):  # this row and every later one pivot past its end
                    break
                q = row[j] // d
                if q:
                    if not copied:  # a tail handed out is never changed
                        row, copied = list(row), True
                    stop = j + len(below)
                    if stop > len(row):
                        row += [0] * (stop - len(row))
                    row[j:stop] = [(a - q * b) % M for a, b in zip(row[j:stop], below)]
                    touched = True
            if touched:
                placed[i] = (c0, d0, row)
                self._at[c0] = (d0, row)
                first = i
        changed.clear()
        return placed


def written_out(rows: Tails, width: int,
                cols: Sequence[int] | None = None) -> list[Pivoted]:
    """(pivot column, pivot entry, tail) rows, as ``IncrementalHowell.rows``
    gives them, with each tail written out as a row of ``width`` entries.

    Given ``cols``, the form's column j is column ``cols[j]`` of the rows'
    own coordinates; pivot columns and rows are given in those, zero off
    ``cols``.
    """
    if cols is None:
        return [(c, d, (0,) * c + (*tail,) + (0,) * (width - c - len(tail)))
                for c, d, tail in rows]
    out = []
    for p, d, tail in rows:
        full = [0] * width
        for c, x in zip(cols[p:], tail):
            full[c] = x
        out.append((cols[p], d, tuple(full)))
    return out


def howell_pass(modulus: int, rows: Iterable[Sequence[int]], ambient: int,
                cols: Sequence[int] | None = None, keep: int = 0) -> list[Pivoted]:
    """The Howell form of residue rows (entries in [0, M)) of length
    ``ambient``: (pivot column, pivot entry, row) per Howell row, top row
    first, from one ``IncrementalHowell`` fed every row.

    Given ``cols``, the pass takes those columns in that order and drops the
    others; pivot columns and rows stay in the rows' own coordinates, zero
    off ``cols``.  Given ``keep``, only the rows that pivot at or past the
    pass's column ``keep`` are back-reduced and returned: the Howell form of
    the elements of the span that vanish on the columns before it.
    """
    form = IncrementalHowell(modulus, ambient if cols is None else len(cols))
    for r in rows:
        form.insert(r if cols is None else [r[c] for c in cols])
    form.drop(keep)
    return written_out(form.rows(), ambient, cols)


def howell_form(modulus: int, rows):
    """The Howell form of the row span of the integer array ``rows`` over
    Z_M, as an array of dtype ``object``.

    The result is the unique matrix with the following properties whose rows
    span the same subgroup of (Z_M)^n:

    * rows are nonzero with strictly increasing pivot columns;
    * every pivot entry divides M;
    * entries above a pivot are reduced modulo that pivot;
    * for each row with pivot p, the row (M/p)*row lies in the span of the
      later rows (the Howell property, which makes greedy coset reduction
      canonical).

    An array-in, array-out adapter over ``howell_pass``, which the package
    calls directly; it is kept for array callers (the benchmark's tracer
    looks this name up, and the numpy reference test calls it), and imports
    numpy when called; numpy is no dependency of the package, since a caller
    with arrays has it already.
    """
    import numpy as np

    M = check_modulus(modulus)
    n = rows.shape[1]
    h = howell_pass(M, [[int(x) % M for x in r] for r in rows.tolist()], n)
    return np.array([row for _, _, row in h], dtype=object).reshape(len(h), n)


class Subgroup:
    """A subgroup of (Z_M)^n, held as the Howell basis of its row span.

    Instances are immutable and canonical: two Subgroups are equal iff they
    are the same subgroup.  The constructor takes a Howell form as
    ``howell_pass`` returns it; ``span`` takes rows in any form.
    """

    __slots__ = ("modulus", "ambient", "howell", "basis", "pivots", "_tails", "_hash")

    def __init__(self, modulus: int, ambient: int, howell: Iterable[Pivoted]):
        self.modulus = check_modulus(modulus)
        self.ambient = ambient
        # (pivot column, pivot entry, row) of each basis row, top row first,
        # as ``howell_pass`` gives them; ``snf`` takes A in this form
        howell = tuple(howell)
        self.howell: tuple[Pivoted, ...] = howell
        self.basis: tuple[Row, ...] = tuple(row for _, _, row in howell)
        # (column, entry) of each basis row's pivot, top row first
        self.pivots: tuple[tuple[int, int], ...] = tuple((c, d) for c, d, _ in howell)
        self._tails: Tails | None = None
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def span(cls, modulus: int, rows: Iterable[Sequence[int]],
             ambient: int) -> "Subgroup":
        M = check_modulus(modulus)
        rows = [as_residue_vector(M, r, ambient) for r in rows]
        return cls(M, ambient, howell_pass(M, rows, ambient))

    @classmethod
    def trivial(cls, modulus: int, ambient: int) -> "Subgroup":
        return cls(modulus, ambient, ())

    @classmethod
    def full(cls, modulus: int, ambient: int) -> "Subgroup":
        return cls(modulus, ambient,
                   [(i, 1, tuple(int(i == j) for j in range(ambient)))
                    for i in range(ambient)])

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.modulus == other.modulus
                and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.modulus, self.ambient, self.basis))
        return self._hash

    def __repr__(self) -> str:
        return (f"Subgroup(mod {self.modulus}, ambient {self.ambient}, "
                f"basis {[list(row) for row in self.basis]})")

    @property
    def tails(self) -> Tails:
        """(column, entry, row from the pivot on) of each basis row, top row
        first: the rows ``reduce_ints`` takes.  Built on first use."""
        if self._tails is None:
            self._tails = tuple((c, d, row[c:])
                                for (c, d), row in zip(self.pivots, self.basis))
        return self._tails

    @property
    def num_generators(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis

    # -- core operations ---------------------------------------------------

    def reduce(self, v: Sequence[int]) -> list[int]:
        """Canonical representative of the coset ``self + v``.

        Greedy reduction against the Howell basis: two vectors reduce to the
        same representative iff they differ by an element of the subgroup.
        """
        M = self.modulus
        return reduce_ints(M, self.tails, as_residue_vector(M, v, self.ambient))

    def contains(self, v: Sequence[int]) -> bool:
        M = self.modulus
        return not any(reduce_ints(M, self.tails, as_residue_vector(M, v, self.ambient)))

    def order(self) -> int:
        """Exact number of elements of the subgroup."""
        return prod(self.modulus // d for _, d in self.pivots)

    def _check_compatible(self, other: "Subgroup") -> None:
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")


def add(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Sum of subgroups: span of the stacked bases."""
    h1._check_compatible(h2)
    M, n = h1.modulus, h1.ambient
    return Subgroup(M, n, howell_pass(M, h1.basis + h2.basis, n))


def orthogonal(h: Subgroup) -> Subgroup:
    """Annihilator {x : b . x = 0 (mod M) for every basis row b}.

    The left kernel of the transposed basis: the rows of the Howell form of
    [basis^T | I] that pivot in the identity block, with the first block
    dropped.  Satisfies orthogonal(orthogonal(h)) == h and
    order(h) * order(orthogonal(h)) == M ** ambient.
    """
    M, n, r = h.modulus, h.ambient, h.num_generators
    aug = [[b[i] for b in h.basis] + [int(i == j) for j in range(n)] for i in range(n)]
    return Subgroup(M, n, [(c - r, d, row[r:])
                           for c, d, row in howell_pass(M, aug, r + n, keep=r)])


def intersect(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Exact intersection, in one Zassenhaus pass over [[A, A], [B, 0]].

    The span holds (a + b, a) for a in A, b in B; the first block vanishes
    exactly when a = -b, so the rows that pivot in the second block span
    A & B there.
    """
    h1._check_compatible(h2)
    M, n = h1.modulus, h1.ambient
    zeros = (0,) * n
    rows = [a + a for a in h1.basis] + [b + zeros for b in h2.basis]
    return Subgroup(M, n, [(c - n, d, row[n:])
                           for c, d, row in howell_pass(M, rows, 2 * n, keep=n)])


def quotient_invariants(a: Subgroup, b: Subgroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the finite abelian group a/b.

    Requires b <= a: a row of b outside a raises ``ValueError``.  ``snf``
    presents a/b on generators, one per Howell row of a, with relations read
    off both Howell forms by greedy reduction, and runs one Smith step over
    Z_M on them, which sidesteps the zero divisors of Z_M without leaving
    it.  Unit factors are dropped, so the trivial group is ().
    """
    a._check_compatible(b)
    return lattice_quotient_invariants(a.modulus, a.howell, b.basis)


def invariants(h: Subgroup) -> tuple[int, ...]:
    """Invariant factors of the subgroup itself (quotient by the trivial group)."""
    return quotient_invariants(h, Subgroup.trivial(h.modulus, h.ambient))


def group_order(factors: Sequence[int]) -> int:
    return prod(factors) if factors else 1


def format_group(factors: Sequence[int]) -> str:
    """Render an invariant-factor list as 'Z2 x Z4', or 'trivial'."""
    if not factors:
        return "trivial"
    return " x ".join(f"Z{d}" for d in factors)
