"""Computations made outside the groupcodes package, used to check its outputs.

Nothing here imports groupcodes.  Generator rows of a windowed code are built
from the taps directly, group orders and invariants come from sympy's Smith
normal form, and membership is decided with plain Python-int dot products.
sympy is imported on first use, after the measuring ends, so that it does not
count in the run's peak memory.
"""

from __future__ import annotations

from math import gcd, prod
from random import Random


def window_rows(modulus: int, width: int, taps_list, axis: int) -> list[list[int]]:
    """Every fully-inside shift of every tap family, as full-length rows."""
    n = width * axis
    rows = []
    for taps in taps_list:
        for shift in range(axis - len(taps) + 1):
            row = [0] * n
            for d, sym in enumerate(taps):
                start = (shift + d) * width
                row[start:start + width] = [x % modulus for x in sym]
            rows.append(row)
    return rows


def invariants(modulus: int, rows: list[list[int]]) -> list[int]:
    """Invariant factors of the span of ``rows`` in (Z_M)^n, ascending.

    The span is L/(M Z^n) with L = rowspan(G) + M Z^n.  If the Smith form of
    G over Z has diagonal d_1 | d_2 | ..., a unimodular column change turns
    L into rowspan(diag(d_i)) + M Z^n, so the span is the sum of the cyclic
    groups Z_{M/gcd(d_i, M)}.  This equals the Smith form of G stacked over
    M*I (the test checks the two agree), which sympy cannot finish in minutes
    once n reaches about 40.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return []
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [int(snf[i, i]) for i in range(min(snf.shape))]
    orders = (modulus // gcd(d, modulus) for d in diag)
    return sorted(q for q in orders if q > 1)


def order(modulus: int, rows: list[list[int]]) -> int:
    return prod(invariants(modulus, rows))


def dot(a, b, modulus: int) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, b)) % modulus


def is_member(word, dual_rows, modulus: int) -> bool:
    """A word is in C = (C-perp)-perp iff it pairs to zero with every dual row."""
    return all(dot(row, word, modulus) == 0 for row in dual_rows)


def trial_stratum(trial_seed: int, moduli, max_axis: int,
                  max_width: int) -> tuple[int, int, int, int]:
    """The (modulus, axis, total width, rank) that ``verify.random_code``
    draws in trial 0."""
    rng = Random(f"{trial_seed}:0")
    modulus = rng.choice(list(moduli))
    axis = rng.randint(2, max_axis)
    total = sum(rng.randint(1, max_width) for _ in range(axis))
    return modulus, axis, total, rng.randint(0, total)


def random_code_rows(trial_seed: int, moduli, max_axis: int, max_width: int):
    """Replay the draws of ``verify.random_code`` in trial 0: (modulus, rows)."""
    rng = Random(f"{trial_seed}:0")
    modulus = rng.choice(list(moduli))
    axis = rng.randint(2, max_axis)
    total = sum(rng.randint(1, max_width) for _ in range(axis))
    r = rng.randint(0, total)
    rows = [[rng.randrange(modulus) for _ in range(total)] for _ in range(r)]
    return modulus, rows
