"""Smith normal forms for the quotient invariants of subgroups of (Z_M)^n.

Used to classify finite abelian quotients A/B of subgroups of (Z_M)^n.  Both
subgroups are lifted to integer lattices sandwiched between M*Z^n and Z^n;
the invariant factors of the quotient are the nontrivial elementary divisors
of the change-of-basis matrix between the two lattices.  The Hermite basis of
each lattice is its Howell form lifted to Z, so only the Smith step runs over
Z, and it runs only on the rows where the two lifted bases differ: every
shared row contributes a factor 1.

Everything here runs on plain Python ints: intermediate entries in a Smith
reduction can overflow fixed-width words even for small inputs.
"""

from __future__ import annotations

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


def lifted_howell_basis(modulus: int, ambient: int,
                        rows: Sequence[Sequence[int]]) -> Matrix:
    """Hermite basis of span_Z(rows) + M*Z^ambient, for a Howell form ``rows``.

    Each Howell row, lifted to Z with entries in [0, M), is the basis row of
    its pivot column, and M*e_c is the row of each column c without a pivot.
    The result is upper triangular with every entry above the diagonal
    reduced modulo the diagonal entry below it, so it is the Hermite normal
    form itself; the Howell property puts M*e_c into its span at the pivot
    columns too.
    """
    by_pivot = {next(c for c, x in enumerate(row) if x): list(row) for row in rows}
    return [by_pivot.get(c) or [modulus if i == c else 0 for i in range(ambient)]
            for c in range(ambient)]


def solve_upper_triangular(basis: Matrix, target: Sequence[int]) -> list[int]:
    """Solve x @ basis == target exactly over Z (basis upper triangular).

    Forward substitution that subtracts each found multiple of a basis row
    from the rest of the target, so zero coefficients cost nothing.
    """
    n = len(basis)
    x = [0] * n
    rest = list(target)
    for j in range(n):
        if rest[j]:
            q, r = divmod(rest[j], basis[j][j])
            if r:
                raise ValueError("target is not in the lattice: a quotient a/b "
                                 "requires b to be a subgroup of a")
            x[j] = q
            rest[j:] = [a - q * b for a, b in zip(rest[j:], basis[j][j:])]
    return x


def smith_diagonal(mat: Matrix) -> list[int]:
    """Diagonal of the Smith normal form of a square integer matrix.

    Classic pivoting algorithm: move a smallest nonzero entry to the corner,
    clear its row and column, restore the divisibility chain, recurse.
    """
    a = [row[:] for row in mat]
    n = len(a)
    diag: list[int] = []
    top = 0
    while top < n:
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(top, n):
            for j in range(top, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            diag.extend(0 for _ in range(n - top))
            break
        i, j = best
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        dirty = False
        for i in range(top + 1, n):
            q = a[i][top] // a[top][top]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = a[top][j] // a[top][top]
            if q:
                for row in a:
                    row[j] -= q * row[top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry; if not, fold the offending
        # row into the pivot row and redo this corner
        p = a[top][top]
        offender = None
        for i in range(top + 1, n):
            for j in range(top + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def lattice_quotient_invariants(modulus: int, ambient: int,
                                a_rows: Sequence[Sequence[int]],
                                b_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of L_A / L_B, where L_X = span_Z(X) + M*Z^ambient.

    Both row sets must be Howell forms over Z_M (see ``lifted_howell_basis``).
    Requires span(b) <= span(a) over Z_M, which makes L_B <= L_A: a row of
    b outside it fails the lattice solve with ``ValueError``.

    Row c of the change of basis H_B H_A^{-1} is the unit vector e_c wherever
    the two lifted bases share row c; row operations with it clear column c
    from every other row, so it splits off a factor 1 with that column, and
    only the block on the rows where the bases differ goes to Smith.
    """
    ha = lifted_howell_basis(modulus, ambient, a_rows)
    hb = lifted_howell_basis(modulus, ambient, b_rows)
    differ = [c for c in range(ambient) if ha[c] != hb[c]]
    block = [[x[c] for c in differ]
             for x in (solve_upper_triangular(ha, hb[r]) for r in differ)]
    factors = [d for d in smith_diagonal(block) if d > 1]
    for small, big in zip(factors, factors[1:]):
        if big % small:
            raise AssertionError(f"broken divisor chain {factors}")
    return tuple(factors)
