"""Exact linear algebra over Z_M for arbitrary M >= 2.

The whole package reduces to row-span arithmetic in (Z_M)^n.  Because M need
not be prime, reduced row echelon form does not exist; the canonical form for
row spans over Z_M is the Howell form, which restores the two properties we
need everywhere:

* span equality is basis identity, and
* greedy reduction against the basis yields a canonical coset representative.

A ``Subgroup`` is an immutable row span held in Howell form.  Everything else
is built on top of it, and each operation is one projection of one Howell
form: by the Howell property, the rows of a Howell form that vanish on a
leading column block span exactly the elements of the span that vanish there
(``zero_block_span``).  Annihilators, intersections (Zassenhaus) and, in
``codes``, shortenings and conditioned codes are each one such pass; sums are
one pass over stacked bases; quotient invariants come from ``snf``.

Every residue is a plain Python int, which never overflows, so every M
takes the same path and every answer is exact.  Rows from outside enter
through ``as_residue_matrix`` or ``as_residue_vector``, which pass each entry
through ``int``.  The elimination kernels, ``howell_form`` and the one
reduction loop ``reduce_ints`` (behind ``Subgroup.reduce`` and ``contains``,
and called directly by the machines), run on int lists and touch only the
tail of each row from its leading column on; numpy only holds
``Subgroup.basis`` and the arrays that functions return, always of dtype
``object``.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterable, Sequence

import numpy as np

from .snf import _xgcd, lattice_quotient_invariants


def check_modulus(modulus: int) -> int:
    if not isinstance(modulus, (int, np.integer)) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
    return int(modulus)


def as_residue_matrix(modulus: int, rows: Iterable[Sequence[int]] | np.ndarray,
                      ambient: int | None = None) -> np.ndarray:
    """Normalize ``rows`` into an (r, n) array of Python ints in [0, M)."""
    M = check_modulus(modulus)
    a = np.array(rows if isinstance(rows, np.ndarray) else list(rows), dtype=object)
    if a.size == 0:
        n = ambient if ambient is not None else (a.shape[1] if a.ndim == 2 else 0)
        return np.zeros((0, n), dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of residues")
    if ambient is not None and a.shape[1] != ambient:
        raise ValueError(f"expected {ambient} columns, got {a.shape[1]}")
    # int() also turns numpy scalars, which an object array keeps, into ints
    return np.array([[int(x) % M for x in r] for r in a.tolist()], dtype=object)


def as_residue_vector(modulus: int, v: Sequence[int] | np.ndarray,
                      length: int) -> list[int]:
    """Normalize one vector of ``length`` entries into Python ints in [0, M)."""
    if isinstance(v, np.ndarray) and v.ndim != 1:
        raise ValueError(f"expected a vector of length {length}, got shape {v.shape}")
    a = v.tolist() if isinstance(v, np.ndarray) else list(v)
    if len(a) != length:
        raise ValueError(f"expected a vector of length {length}, got {len(a)} entries")
    try:
        return [int(x) % modulus for x in a]
    except TypeError:
        raise ValueError(f"expected a vector of {length} integers") from None


Tails = Sequence[tuple[int, int, Sequence[int]]]


def pivot_tails(rows: Iterable[list[int]]) -> list[tuple[int, int, list[int]]]:
    """(pivot column, pivot entry, row from the pivot on) of each nonzero row."""
    out = []
    for row in rows:
        c = next(i for i, x in enumerate(row) if x)
        out.append((c, row[c], row[c:]))
    return out


def reduce_ints(modulus: int, tails: Tails, r: list[int]) -> list[int]:
    """Greedy reduction of the int list ``r`` in place, and return it.

    ``tails`` holds (pivot column, pivot entry, row from the pivot on) for
    each row of a Howell form, top row first (``Subgroup.tails``); each tail
    runs to the end of ``r``.  Against a Howell basis the result is the
    canonical representative of the coset of ``r``.
    """
    M = modulus
    for col, d, tail in tails:
        q = r[col] // d
        if q:
            r[col:] = [(a - q * b) % M for a, b in zip(r[col:], tail)]
    return r


def _gcdex(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Return (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0, s*v - t*u = 1.

    The 2x2 matrix [[s, t], [u, v]] has determinant 1 over the integers, so it
    is invertible over Z_M for every M; applying it as a row operation
    preserves row spans.  Needs a or b nonzero.
    """
    g, s, t = _xgcd(a, b)
    return g, s, t, -(b // g), a // g


def _unit_lifting(a: int, M: int) -> tuple[int, int]:
    """Return (d, u) with d = gcd(a, M) and u a unit of Z_M, u*a = d (mod M).

    gcd(a/d, M/d) = 1, so an inverse of a/d exists mod M/d; it is then nudged
    along the progression u0 + t*(M/d) until it is coprime to M itself.
    """
    a %= M
    d = gcd(a, M)
    if d == M:  # a == 0
        return M, 1
    u = pow(a // d, -1, M // d)
    step = M // d
    while gcd(u, M) != 1:
        u += step
    return d, u % M


def howell_form(modulus: int, rows: np.ndarray) -> np.ndarray:
    """Compute the Howell form of the row span of ``rows`` over Z_M.

    The result is the unique matrix with the following properties whose rows
    span the same subgroup of (Z_M)^n:

    * rows are nonzero with strictly increasing pivot columns;
    * every pivot entry divides M;
    * entries above a pivot are reduced modulo that pivot;
    * for each row with pivot p, the row (M/p)*row lies in the span of the
      later rows (the Howell property, which makes greedy coset reduction
      canonical).
    """
    M = check_modulus(modulus)
    n = rows.shape[1]
    # A row in play is zero left of its leading column, so it is kept as its
    # tail from there, queued at that column.  Rows join the queues in the
    # order they come into play, which is the order a scan of every row in
    # play would meet them column by column.
    queues: list[list[list[int]]] = [[] for _ in range(n)]

    def enter(tail: list[int], start: int) -> None:
        for i, x in enumerate(tail):
            if x:
                queues[start + i].append(tail[i:])
                return

    for r in rows.tolist():
        enter([x % M for x in r], 0)
    result: list[tuple[int, int, list[int]]] = []  # (column, divisor, tail)
    for col in range(n):
        hits = queues[col]
        if not hits:
            continue
        pivot_row = hits[0]
        for r in hits[1:]:
            g, s, t, u, v = _gcdex(pivot_row[0], r[0])
            residual = [(u * a + v * b) % M for a, b in zip(pivot_row, r)]
            # when one leading entry divides the other, (s, t) picks a row
            if (s, t) == (0, 1):
                pivot_row = r
            elif (s, t) != (1, 0):
                pivot_row = [(s * a + t * b) % M for a, b in zip(pivot_row, r)]
            enter(residual, col)
        d, unit = _unit_lifting(pivot_row[0], M)
        if unit != 1:
            pivot_row = [unit * a % M for a in pivot_row]
        # Howell closure: (M/d)*row drops out of this column but may carry
        # information further right; keep it in play.
        if d != 1:
            enter([(M // d) * a % M for a in pivot_row], col)
        result.append((col, d, pivot_row))
    # Reduce entries above each pivot modulo the pivot.
    for i in range(len(result) - 2, -1, -1):
        start, _, row = result[i]
        for col, d, below in result[i + 1:]:
            q = row[col - start] // d
            if q:
                row[col - start:] = [(a - q * b) % M
                                     for a, b in zip(row[col - start:], below)]
    return np.array([[0] * col + row for col, _, row in result],
                    dtype=object).reshape(len(result), n)


class Subgroup:
    """A subgroup of (Z_M)^n, held as the Howell basis of its row span.

    Instances are immutable and canonical: two Subgroups are equal iff they
    are the same subgroup.  The constructor takes an (r, ambient) integer
    array; ``span`` takes rows in any form.
    """

    __slots__ = ("modulus", "ambient", "basis", "_pivots", "_tails", "_hash")

    def __init__(self, modulus: int, basis: np.ndarray, ambient: int,
                 _canonical: bool = False):
        self.modulus = check_modulus(modulus)
        if basis.ndim != 2 or basis.shape[1] != ambient:
            raise ValueError(f"expected an (r, {ambient}) array, got shape {basis.shape}")
        mat = basis if _canonical else howell_form(self.modulus, basis)
        mat.setflags(write=False)
        self.ambient = ambient
        self.basis = mat
        self._pivots = tuple(next((c, x) for c, x in enumerate(row) if x)
                             for row in mat.tolist())
        self._tails: Tails | None = None
        self._hash: int | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def span(cls, modulus: int, rows: Iterable[Sequence[int]] | np.ndarray,
             ambient: int) -> "Subgroup":
        return cls(modulus, as_residue_matrix(modulus, rows, ambient), ambient)

    @classmethod
    def trivial(cls, modulus: int, ambient: int) -> "Subgroup":
        return cls(modulus, np.zeros((0, ambient), dtype=object),
                   ambient, _canonical=True)

    @classmethod
    def full(cls, modulus: int, ambient: int) -> "Subgroup":
        return cls(modulus, np.eye(ambient, dtype=object), ambient,
                   _canonical=True)

    @classmethod
    def from_howell(cls, modulus: int, rows: Sequence[Sequence[int]],
                    ambient: int) -> "Subgroup":
        """The subgroup whose Howell basis is ``rows``, int rows that already
        form a Howell form."""
        return cls(modulus, np.array(rows, dtype=object).reshape(len(rows), ambient),
                   ambient, _canonical=True)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.modulus == other.modulus
                and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.modulus, self.ambient, self.basis.shape,
                               tuple(self.basis.flat)))
        return self._hash

    def __repr__(self) -> str:
        return (f"Subgroup(mod {self.modulus}, ambient {self.ambient}, "
                f"basis {self.basis.tolist()})")

    @property
    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(column, entry) of each basis row's pivot, top row first."""
        return self._pivots

    @property
    def tails(self) -> Tails:
        """(column, entry, row from the pivot on) of each basis row, top row
        first: the rows ``reduce_ints`` takes.  Built on first use."""
        if self._tails is None:
            self._tails = tuple(pivot_tails(self.basis.tolist()))
        return self._tails

    @property
    def num_generators(self) -> int:
        return self.basis.shape[0]

    def is_trivial(self) -> bool:
        return self.basis.shape[0] == 0

    # -- core operations ---------------------------------------------------

    def reduce(self, v: Sequence[int] | np.ndarray) -> np.ndarray:
        """Canonical representative of the coset ``self + v``.

        Greedy reduction against the Howell basis: two vectors reduce to the
        same representative iff they differ by an element of the subgroup.
        """
        M = self.modulus
        r = reduce_ints(M, self.tails, as_residue_vector(M, v, self.ambient))
        return np.array(r, dtype=object)

    def contains(self, v: Sequence[int] | np.ndarray) -> bool:
        M = self.modulus
        return not any(reduce_ints(M, self.tails, as_residue_vector(M, v, self.ambient)))

    def contains_subgroup(self, other: "Subgroup") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.basis)

    def order(self) -> int:
        """Exact number of elements of the subgroup."""
        return prod(self.modulus // d for _, d in self._pivots)

    def _check_compatible(self, other: "Subgroup") -> None:
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")


def howell_rows(modulus: int, rows: Sequence[Sequence[int]],
                ambient: int) -> list[list[int]]:
    """``howell_form`` of int rows in [0, M), as int rows."""
    return howell_form(modulus, np.array(rows, dtype=object).reshape(
        len(rows), ambient)).tolist()


def add(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Sum of subgroups: span of the stacked bases."""
    h1._check_compatible(h2)
    return Subgroup(h1.modulus, np.vstack([h1.basis, h2.basis]), h1.ambient)


def zero_block_span(modulus: int, mat: np.ndarray, lead: int) -> np.ndarray:
    """Howell rows of ``mat`` that vanish on its first ``lead`` columns,
    with those columns dropped.

    By the Howell property these rows span exactly the elements of the row
    span that vanish on the leading block.  Pivots increase down the form, so
    they are its trailing rows, and they are already a Howell form.
    """
    h = howell_form(modulus, mat)
    top = np.count_nonzero(h[:, :lead].any(axis=1))
    return h[top:, lead:]


def orthogonal(h: Subgroup) -> Subgroup:
    """Annihilator {x : b . x = 0 (mod M) for every basis row b}.

    The left kernel of the transposed basis, read off [basis^T | I] in one
    pass.  Satisfies orthogonal(orthogonal(h)) == h and
    order(h) * order(orthogonal(h)) == M ** ambient.
    """
    M, n = h.modulus, h.ambient
    aug = np.hstack([h.basis.T, np.eye(n, dtype=object)])
    return Subgroup(M, zero_block_span(M, aug, h.num_generators), n,
                    _canonical=True)


def intersect(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Exact intersection, in one Zassenhaus pass over [[A, A], [B, 0]].

    The span holds (a + b, a) for a in A, b in B; the first block vanishes
    exactly when a = -b, so the second block then runs over A & B.
    """
    h1._check_compatible(h2)
    M, n = h1.modulus, h1.ambient
    a, b = h1.basis, h2.basis
    mat = np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])])
    return Subgroup(M, zero_block_span(M, mat, n), n, _canonical=True)


def quotient_invariants(a: Subgroup, b: Subgroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the finite abelian group a/b.

    Requires b <= a: the lattice solve in ``snf`` raises ``ValueError`` for
    a row of b outside a.  Both groups are identified with integer lattices
    between M*Z^n and Z^n; the quotient's elementary divisors come from an
    integer Smith normal form, which sidesteps the zero divisors of Z_M.  Unit
    factors are dropped, so the trivial group is ().
    """
    a._check_compatible(b)
    return lattice_quotient_invariants(a.modulus, a.ambient,
                                       a.basis.tolist(), b.basis.tolist())


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
