"""Smith normal forms over Z_M for the quotient invariants of subgroups of (Z_M)^n.

Used to classify finite abelian quotients A/B of subgroups of (Z_M)^n, with
A given by its Howell form, each row with its pivot column and pivot entry,
and B by any rows that generate it inside A.  Let a_1..a_r be A's Howell
rows, with pivot entries p_i.  Then A ~ Z_M^r / K, where K is spanned by one
row rho_i = (M/p_i)*e_i - x_i for each i with p_i != 1, x_i being the
coefficients of (M/p_i)*a_i over the later rows, which greedy reduction
finds exactly by the Howell property.  These rows span K: in a relation sum
c_i*a_i = 0 the first nonzero c_i is the only term at a_i's pivot column, so
M/p_i divides it, and subtracting that multiple of rho_i leaves a shorter
relation.  Hence A/B ~ Z_M^r / (K + the coefficients of B's rows), and one
Smith step over Z_M on that relation matrix gives the invariants.  Greedy
reduction needs only A's Howell form, so B's rows need not be a Howell form:
any generating set will do.  A row of A that is also a row of B drops its
generator and its column.

Everything here runs on plain Python ints, and every entry of the Smith step
stays in [0, M), so no entry grows.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Sequence

Matrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _gcdex(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Return (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0, s*v - t*u = 1.

    The 2x2 matrix [[s, t], [u, v]] has determinant 1 over the integers, so it
    is invertible over Z_M for every M; applying it as a row operation
    preserves row spans.  Needs a or b nonzero.
    """
    g, s, t = _xgcd(a, b)
    return g, s, t, -(b // g), a // g


@lru_cache(maxsize=4096)
def _unit_lifting(a: int, M: int) -> tuple[int, int]:
    """Return (d, u) with d = gcd(a, M) and u a unit of Z_M, u*a = d (mod M).

    gcd(a/d, M/d) = 1, so an inverse of a/d exists mod M/d; it is then nudged
    along the progression u0 + t*(M/d) until it is coprime to M itself.
    Cached: the elimination kernel asks for the same few (entry, M) pairs
    again and again.
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


Howell = Sequence[tuple[int, int, Sequence[int]]]


def coefficients(modulus: int, howell: Howell, row: Sequence[int]) -> list[int]:
    """Coefficients x in [0, M) with sum x_i * howell[i] == row (mod M).

    ``howell`` holds (pivot column, pivot entry, row) per row of a Howell
    form, top row first; greedy reduction against it reaches zero exactly
    when ``row`` lies in its span, and a row outside it raises ``ValueError``.
    """
    M = modulus
    r = list(row)
    x = []
    for c, d, h in howell:
        q = r[c] // d
        x.append(q)
        if q:
            r[c:] = [(a - q * b) % M for a, b in zip(r[c:], h[c:])]
    if any(r):
        raise ValueError("row is not in the span: a quotient a/b requires b "
                         "to be a subgroup of a")
    return x


def quotient_relations(modulus: int, a: Howell,
                       b_rows: Sequence[Sequence[int]]) -> tuple[int, Matrix]:
    """(r, relations) with A/B ~ Z_M^r / span(relations), for the Howell form
    ``a`` of A, (pivot column, pivot entry, row) per row, top row first, and
    rows ``b_rows`` (entries in [0, M)) that generate B <= A, in any order,
    repeats and zero rows allowed: the coefficients of B's rows over A's,
    then the rows rho_i of K, with the generator and the column of each row
    of A that is also a row of B dropped (such a row makes e_i a relation)."""
    M = modulus
    index = {tuple(row): i for i, (_, _, row) in enumerate(a)}
    shared, rels = set(), []
    for row in b_rows:
        i = index.get(tuple(row))
        if i is None:
            rels.append(coefficients(M, a, row))
        else:
            shared.add(i)
    for i, (c, d, row) in enumerate(a):
        if d != 1:
            q = M // d
            x = coefficients(M, a[i + 1:], [q * v % M for v in row])
            rels.append([0] * i + [q] + [-v % M for v in x])
    if shared:
        keep = [i for i in range(len(a)) if i not in shared]
        rels = [[rel[i] for i in keep] for rel in rels]
    return len(a) - len(shared), rels


def smith_invariants(modulus: int, rels: Sequence[Sequence[int]],
                     width: int) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (all > 1) of Z_M^width / span(rels).

    Smith over Z_M: each step takes an entry with the least gcd with M as its
    pivot, scales its row by a unit to that gcd, and clears the pivot's row
    and column, with a determinant-1 ``_gcdex`` step wherever the pivot does
    not divide an entry; every entry stays in [0, M).  A diagonal entry d
    gives the cyclic factor Z_d (d divides M), each column left without a
    pivot gives Z_M, and a gcd/lcm pass turns those factors into invariant
    factors.
    """
    M = modulus
    a = [row for row in ([x % M for x in r] for r in rels) if any(row)]
    cols = width
    orders = []
    while a:
        best, pi, pj = M, 0, 0
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if x:
                    g = gcd(x, M)
                    if g < best:
                        best, pi, pj = g, i, j
            if best == 1:
                break
        a[0], a[pi] = a[pi], a[0]
        d, u = _unit_lifting(a[0][pj], M)
        top = a[0] = [u * x % M for x in a[0]] if u != 1 else a[0]
        while True:
            # clear the pivot's column with row operations
            for i in range(1, len(a)):
                y = a[i][pj]
                if not y:
                    continue
                if y % d:
                    d, s, t, u, v = _gcdex(d, y)
                    row = a[i]
                    top, a[i] = ([(s * x + t * z) % M for x, z in zip(top, row)],
                                 [(u * x + v * z) % M for x, z in zip(top, row)])
                    a[0] = top
                else:
                    q = y // d
                    a[i] = [(z - q * x) % M for x, z in zip(top, a[i])]
            # then its row with column operations, which may refill the column
            dirty = False
            for j in range(cols):
                y = top[j]
                if j == pj or not y:
                    continue
                if y % d:
                    d, s, t, u, v = _gcdex(d, y)
                    for row in a:
                        x, z = row[pj], row[j]
                        row[pj], row[j] = (s * x + t * z) % M, (u * x + v * z) % M
                    dirty = True
                elif dirty:
                    q = y // d
                    for row in a:
                        row[j] = (row[j] - q * row[pj]) % M
                else:  # the pivot is alone in its column
                    top[j] = 0
            if not dirty or not any(row[pj] for row in a[1:]):
                break
        orders.append(d)
        cols -= 1
        a = [row[:pj] + row[pj + 1:] for row in a[1:]]
        a = [row for row in a if any(row)]
    orders += [M] * cols
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            x, y = orders[i], orders[j]
            g = gcd(x, y)
            orders[i], orders[j] = g, x // g * y
    return tuple(d for d in orders if d > 1)


def lattice_quotient_invariants(modulus: int, a: Howell,
                                b_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of A/B, for the Howell form ``a`` of A, (pivot
    column, pivot entry, row) per row as ``Subgroup.howell`` holds it, and
    any rows ``b_rows`` that generate B <= A (a Howell form of B or not): one
    Smith step over Z_M on the relations of ``quotient_relations``.  A row of
    ``b_rows`` outside A raises ``ValueError``."""
    width, rels = quotient_relations(modulus, a, b_rows)
    return smith_invariants(modulus, rels, width)
