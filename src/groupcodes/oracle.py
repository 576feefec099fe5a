"""Brute-force ground truth by exhaustive enumeration.

Every quantity the fast path computes through Howell/Smith algebra is
recomputed here definitionally, on explicit element sets: duals by testing
all pairings, quotients by counting cosets, invariant factors from element
orders.  Deliberately naive; the only guardrails are explicit caps, and
exceeding a cap is an error, never silent truncation.
"""

from __future__ import annotations

from math import prod
from typing import Iterable

from .codes import GroupCode
from .residues import Subgroup
from .spaces import SymbolLayout

DEFAULT_ELEMENT_CAP = 1 << 20
DEFAULT_AMBIENT_CAP = 1 << 24


class CapExceeded(Exception):
    """An enumeration would exceed its declared cap."""


Vec = tuple[int, ...]


def subgroup_elements(h: Subgroup, cap: int = DEFAULT_ELEMENT_CAP) -> set[Vec]:
    """Closure of the basis rows under addition, as a set of tuples."""
    M = h.modulus
    elems: set[Vec] = {tuple([0] * h.ambient)}
    for gen in h.basis:
        new = set(elems)
        frontier = set(elems)
        while frontier:
            frontier = {_vadd(e, gen, M) for e in frontier} - new
            new |= frontier
            if len(new) > cap:
                raise CapExceeded(f"subgroup enumeration exceeded cap {cap}")
        elems = new
    return elems


def _vadd(a: Vec, b: Vec, M: int) -> Vec:
    return tuple((x + y) % M for x, y in zip(a, b))


def code_elements(c: GroupCode, cap: int = DEFAULT_ELEMENT_CAP) -> set[Vec]:
    return subgroup_elements(c.carrier, cap)


def dual_elements(c: GroupCode, cap: int = DEFAULT_AMBIENT_CAP) -> set[Vec]:
    """All ambient words orthogonal to every basis row, by scanning the space
    in bounded ``int64`` chunks; numpy is imported for this scan alone."""
    import numpy as np

    M = c.layout.modulus
    n = c.layout.total_dim
    total = M ** n
    if total > cap:
        raise CapExceeded(f"ambient order {total} exceeds cap {cap}")
    basis = np.asarray(c.carrier.basis, dtype=np.int64)
    out: set[Vec] = set()
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = np.empty((len(idx), n), dtype=np.int64)
        rest = idx.copy()
        for j in range(n - 1, -1, -1):
            words[:, j] = rest % M
            rest //= M
        if basis.shape[0]:
            ok = np.all((words @ basis.T) % M == 0, axis=1)
        else:
            ok = np.ones(len(idx), dtype=bool)
        out.update(tuple(int(x) for x in w) for w in words[ok])
    return out


def quotient_order(a: set[Vec], b: set[Vec]) -> int:
    if not b <= a:
        raise ValueError("b is not a subset of a")
    if len(a) % len(b):
        raise AssertionError("subgroup order does not divide group order")
    return len(a) // len(b)


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def quotient_invariants_by_orders(num: set[Vec], den: set[Vec],
                                  modulus: int) -> tuple[int, ...]:
    """Invariant factors of num/den, reconstructed from element orders.

    For G = prod Z_{d_i}, the count of x with d*x = 0 equals prod gcd(d, d_i);
    counting coset representatives killed by each divisor of M pins down the
    p-exponent multisets, which reassemble into the divisor chain.  This is an
    independent route from the Smith normal form used by the fast path.
    """
    if not den <= num:
        raise ValueError("denominator is not a subset of the numerator")
    q = quotient_order(num, den)
    if q == 1:
        return ()

    def killed_by(d: int) -> int:
        cnt = sum(1 for x in num if tuple((d * xi) % modulus for xi in x) in den)
        return cnt // len(den)

    exponents: dict[int, list[int]] = {}
    for p in _prime_factors(q):
        pe = 0
        while modulus % (p ** (pe + 1)) == 0:
            pe += 1
        # Lambda_j = log_p #{x : p^j x = 0}; Lambda_j - Lambda_{j-1} counts the
        # cyclic factors with p-exponent >= j.
        Lam = [_ilog(p, killed_by(p ** j)) for j in range(pe + 1)]
        at_least = [Lam[j] - Lam[j - 1] for j in range(1, pe + 1)] + [0]
        exps: list[int] = []
        for j in range(1, pe + 1):
            exps.extend([j] * (at_least[j - 1] - at_least[j]))
        exponents[p] = sorted(exps, reverse=True)
    width = max(len(v) for v in exponents.values())
    chain = []
    for i in range(width):
        d = 1
        for p, exps in exponents.items():
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    chain.sort()
    if prod(chain) != q:
        raise AssertionError("element-order reconstruction does not match order")
    return tuple(chain)


def _ilog(p: int, x: int) -> int:
    e = 0
    while x % p == 0 and x > 1:
        x //= p
        e += 1
    if x != 1:
        raise AssertionError("count is not a prime power")
    return e


def supported_inside(elems: Iterable[Vec], layout: SymbolLayout,
                     times: frozenset[int]) -> set[Vec]:
    outside = layout.coords(layout.complement(times))
    return {e for e in elems if all(e[i] == 0 for i in outside)}


def state_count(c: GroupCode, cut: int, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """|C| / (|C_{:past}| * |C_{:future}|) by explicit element filtering."""
    elems = code_elements(c, cap)
    past = c.layout.subset(range(0, cut))
    future = c.layout.subset(range(cut, c.layout.axis_len))
    past_sub = supported_inside(elems, c.layout, past)
    future_sub = supported_inside(elems, c.layout, future)
    return len(elems) // (len(past_sub) * len(future_sub))


def sum_sets(a: set[Vec], b: set[Vec], M: int) -> set[Vec]:
    return {_vadd(x, y, M) for x in a for y in b}


def controller_granule(c: GroupCode, elems: set[Vec],
                       times: list[int], first: int, last: int) -> tuple[int, ...]:
    """Gamma over the (possibly end-around) interval given as a time list."""
    M = c.layout.modulus
    ts = frozenset(times)
    num = supported_inside(elems, c.layout, ts)
    if len(times) == 1:
        den: set[Vec] = {tuple([0] * c.layout.total_dim)}
    else:
        den = sum_sets(
            supported_inside(elems, c.layout, ts - {last}),
            supported_inside(elems, c.layout, ts - {first}), M)
    return quotient_invariants_by_orders(num, den, M)


def observer_granule(c: GroupCode, elems: set[Vec],
                     times: list[int], first: int, last: int) -> tuple[int, ...]:
    """Phi over the interval: window words passing both one-short checks, mod
    window words extending to full codewords."""
    M = c.layout.modulus
    layout = c.layout
    ts = sorted(times)
    idx = layout.coords(ts)
    # positions of each time's block inside the restricted word
    offs = {}
    off = 0
    for t in ts:
        offs[t] = (off, off + layout.widths[t])
        off += layout.widths[t]
    restricted = {tuple(e[i] for i in idx) for e in elems}
    if len(ts) == 1:
        num = {tuple(w) for w in _all_words(M, len(idx))}
        return quotient_invariants_by_orders(num, restricted, M)

    def drop(word: Vec, t: int) -> Vec:
        a, b = offs[t]
        return word[:a] + word[b:]

    short_first = {tuple(e[i] for i in layout.coords([t for t in ts if t != first]))
                   for e in elems}
    short_last = {tuple(e[i] for i in layout.coords([t for t in ts if t != last]))
                  for e in elems}
    num = {w for w in _all_words(M, len(idx))
           if drop(w, last) in short_last and drop(w, first) in short_first}
    return quotient_invariants_by_orders(num, restricted, M)


def _all_words(M: int, n: int):
    total = M ** n
    if total > DEFAULT_ELEMENT_CAP:
        raise CapExceeded("window enumeration too large")
    for idx in range(total):
        w = []
        rest = idx
        for _ in range(n):
            w.append(rest % M)
            rest //= M
        yield tuple(reversed(w))
