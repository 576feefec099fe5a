"""The coefficient step and the Smith step over Z_M behind quotient invariants."""

import random
from math import prod

import pytest

from groupcodes import residues, snf


def test_coefficients_roundtrip():
    # greedy reduction against a Howell basis finds the coefficients of every
    # element of its span, and rejects every row outside it
    rng = random.Random(5)
    outside = 0
    for M in (2, 4, 6, 9, 12, 36, 2**64 + 13):
        for _ in range(12):
            n = rng.randint(1, 4)
            rows = [[rng.randrange(M) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 1))]
            h = residues.Subgroup.span(M, rows, n)
            howell = h.howell
            for _ in range(4):
                c = [rng.randrange(M) for _ in h.basis]
                combo = [sum(ci * row[j] for ci, row in zip(c, h.basis)) % M
                         for j in range(n)]
                x = snf.coefficients(M, howell, combo)
                assert all(0 <= xi < M for xi in x)
                back = [sum(xi * row[j] for xi, row in zip(x, h.basis)) % M
                        for j in range(n)]
                assert back == combo
            row = [rng.randrange(M) for _ in range(n)]
            if not h.contains(row):
                outside += 1
                with pytest.raises(ValueError):
                    snf.coefficients(M, howell, row)
    assert outside


def test_smith_diagonal_known_values():
    S = snf.smith_invariants
    assert S(6, [[2, 0], [0, 3]], 2) == (6,)  # Z_2 x Z_3, not local
    assert S(4, [[2, 0], [0, 0]], 2) == (2, 4)
    assert S(4, [[1, 0], [0, 1]], 2) == ()
    assert S(4, [], 2) == (4, 4)
    assert S(12, [[2, 4], [4, 2]], 2) == (2, 6)  # diag(2, 6) over Z, 6 | 12
    assert S(8, [[4, 2]], 2) == (2, 8)
    assert S(36, [[6, 4], [9, 0]], 2) == (36,)  # determinant 36, entries coprime


def test_smith_divisor_chain_random():
    # Z_M^n / span(R) is Z^n / (span(R) + M Z^n): sympy's Smith form of R
    # stacked on M*I over Z gives its invariants
    try:
        import sympy
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        sympy = None
    rng = random.Random(11)
    for _ in range(80):
        M = rng.choice((2, 4, 6, 8, 9, 12, 30, 36, 2**64 + 13))
        n = rng.randint(1, 4)
        rels = [[rng.choice((0, rng.randrange(M), rng.randrange(1, 7)))
                 for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        got = snf.smith_invariants(M, rels, n)
        for a, b in zip(got, got[1:]):
            assert b % a == 0
        assert prod(got) == M ** n // residues.Subgroup.span(M, rels, n).order()
        if sympy is None:
            continue
        stacked = sympy.Matrix(rels + [[M * (i == j) for j in range(n)]
                                       for i in range(n)])
        smith = smith_normal_form(stacked, domain=sympy.ZZ)
        expected = tuple(sorted(abs(int(smith[i, i])) for i in range(n)
                                if abs(smith[i, i]) > 1))
        assert got == expected


def test_lattice_quotient_invariants():
    # (Z4)^2 / <(2,0),(0,2)> = Z2 x Z2
    # A is given as (pivot column, pivot entry, row) per Howell row
    assert snf.lattice_quotient_invariants(
        4, [(0, 1, (1, 0)), (1, 1, (0, 1))], [[2, 0], [0, 2]]) == (2, 2)
    # trivial quotient
    assert snf.lattice_quotient_invariants(4, [(0, 2, (2,))], [[2]]) == ()


def test_quotient_invariants_take_any_generating_set_of_b():
    # B may be given by any rows that generate it inside A: repeats, zero
    # rows and rows of A's own Howell form, in any order, give the invariants
    # that B's Howell form gives; a row outside A still raises
    rng = random.Random(17)
    shared = outside = 0
    for M in (2, 4, 6, 9, 12, 36, 2**64 + 13):
        for _ in range(12):
            n = rng.randint(1, 5)
            a = residues.Subgroup.span(M, [[rng.randrange(M) for _ in range(n)]
                                           for _ in range(rng.randint(1, n + 1))], n)
            combos = []
            for _ in range(rng.randint(0, 3)):
                c = [rng.randrange(M) for _ in a.basis]
                combos.append(tuple(sum(ci * row[j] for ci, row in zip(c, a.basis)) % M
                                    for j in range(n)))
            own = [row for row in a.basis if rng.random() < 0.4]
            shared += len(own)
            gens = combos + own + rng.choices(combos + own, k=2 * bool(combos + own))
            gens += [(0,) * n] * 2
            rng.shuffle(gens)
            b = residues.Subgroup.span(M, gens, n)
            got = snf.lattice_quotient_invariants(M, a.howell, gens)
            assert got == snf.lattice_quotient_invariants(M, a.howell, b.basis)
            assert prod(got) == a.order() // b.order()
            row = tuple(rng.randrange(M) for _ in range(n))
            if not a.contains(row):
                outside += 1
                with pytest.raises(ValueError):
                    snf.lattice_quotient_invariants(M, a.howell, gens + [row])
    assert shared and outside


def _lifted(M, n, rows):
    """Hermite basis of span_Z(rows) + M*Z^n, for a Howell form ``rows``:
    each Howell row at its pivot column, M*e_c at every other column."""
    by_pivot = {next(c for c, x in enumerate(row) if x): list(row) for row in rows}
    return [by_pivot.get(c) or [M * (i == c) for i in range(n)] for c in range(n)]


@pytest.mark.parametrize("modulus", [4, 12, 2**64 + 13, 2**70])
def test_quotient_invariants_match_sympy_smith(modulus):
    # B is spanned by whole-row multiples of A's Howell rows, so many rows are
    # shared and drop out of the Smith step; sympy takes the full change of
    # basis H_B H_A^{-1} of the lifted lattices, inverted exactly over Q
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(modulus)
    M = modulus
    shared = differing = 0
    for _ in range(25):
        n = rng.randint(1, 7)
        a = residues.Subgroup.span(M, [[rng.randrange(M) for _ in range(n)]
                                       for _ in range(rng.randint(1, n + 1))], n)
        scales = [rng.choice((1, 1, 0, rng.randrange(M))) for _ in a.basis]
        b = residues.Subgroup.span(M, [[c * x for x in row]
                                       for c, row in zip(scales, a.basis)], n)
        ha, hb = _lifted(M, n, a.basis), _lifted(M, n, b.basis)
        same = sum(ra == rb for ra, rb in zip(ha, hb))
        shared += same
        differing += n - same
        change = sympy.Matrix(hb) * sympy.Matrix(ha).inv()
        assert all(x.is_integer for x in change)
        smith = smith_normal_form(change, domain=sympy.ZZ)
        expected = tuple(sorted(abs(int(smith[i, i])) for i in range(n)
                                if abs(smith[i, i]) > 1))
        got = snf.lattice_quotient_invariants(M, a.howell, b.basis)
        assert got == expected
        assert prod(got) == a.order() // b.order()
    assert shared and differing
