"""Integer normal forms behind the quotient-invariant computation."""

import random
from math import prod

import pytest

from groupcodes import residues, snf


def test_hermite_solve_roundtrip():
    # the Howell form lifted to Z is the Hermite basis of span_Z + M*Z^n
    rng = random.Random(5)
    for M in (2, 4, 6, 9, 12, 36, 2**64 + 13):
        for _ in range(12):
            n = rng.randint(1, 4)
            rows = [[rng.randrange(M) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 1))]
            h = residues.Subgroup.span(M, rows, n)
            howell = [list(map(int, r)) for r in h.basis]
            basis = snf.lifted_howell_basis(M, n, howell)
            assert all(basis[i][j] == 0 for i in range(n) for j in range(i))
            assert prod(basis[i][i] for i in range(n)) == M ** n // h.order()
            m_block = [[M if i == j else 0 for j in range(n)] for i in range(n)]
            for row in howell + m_block:
                x = snf.solve_upper_triangular(basis, row)
                back = [sum(x[i] * basis[i][j] for i in range(n)) for j in range(n)]
                assert back == row


def test_smith_diagonal_known_values():
    assert snf.smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf.smith_diagonal([[4, 0], [0, 2]]) == [2, 4]
    assert snf.smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    # 2x2 with nontrivial mixing: [[2, 4], [4, 2]] ~ diag(2, 6)
    assert snf.smith_diagonal([[2, 4], [4, 2]]) == [2, 6]


def test_smith_divisor_chain_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag = snf.smith_diagonal(mat)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # determinant preserved up to sign
        det = _det(mat)
        prodd = 1
        for d in diag:
            prodd *= d
        assert abs(det) == prodd


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_lattice_quotient_invariants():
    # (Z4)^2 / <(2,0),(0,2)> = Z2 x Z2
    assert snf.lattice_quotient_invariants(
        4, 2, [[1, 0], [0, 1]], [[2, 0], [0, 2]]) == (2, 2)
    # trivial quotient
    assert snf.lattice_quotient_invariants(4, 1, [[2]], [[2]]) == ()


@pytest.mark.parametrize("modulus", [4, 12, 2**64 + 13, 2**70])
def test_quotient_invariants_match_sympy_smith(modulus):
    # B is spanned by whole-row multiples of A's Howell rows, so most lifted
    # rows are shared and only the differing ones reach the Smith step; sympy
    # takes the full change of basis H_B H_A^{-1}, inverted exactly over Q
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
        ha = snf.lifted_howell_basis(M, n, a.basis)
        hb = snf.lifted_howell_basis(M, n, b.basis)
        same = sum(ra == rb for ra, rb in zip(ha, hb))
        shared += same
        differing += n - same
        change = sympy.Matrix(hb) * sympy.Matrix(ha).inv()
        assert all(x.is_integer for x in change)
        smith = smith_normal_form(change, domain=sympy.ZZ)
        expected = tuple(sorted(abs(int(smith[i, i])) for i in range(n)
                                if abs(smith[i, i]) > 1))
        got = snf.lattice_quotient_invariants(M, n, a.basis, b.basis)
        assert got == expected
        assert prod(got) == a.order() // b.order()
    assert shared and differing
