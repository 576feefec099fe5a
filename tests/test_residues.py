"""Howell-form subgroup algebra over Z_M."""

import json
import os
import random
import subprocess
import sys
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import codes, dynamics, machines, oracle, spaces
from groupcodes import residues as R
from groupcodes.cli import main
from groupcodes.residues import Subgroup


def S(modulus, rows, ambient=None):
    if ambient is None:
        ambient = len(rows[0]) if rows else 0
    return Subgroup.span(modulus, rows, ambient)


# --- strategies --------------------------------------------------------------

small_groups = st.integers(2, 6).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
            min_size=0, max_size=n + 1,
        ).map(lambda rows: Subgroup.span(m, rows, n))))


# --- howell canonical form ---------------------------------------------------

def test_howell_spec_examples():
    h = S(4, [(2, 2), (0, 2)])
    assert h.basis == ((2, 0), (0, 2))

    assert Subgroup.span(4, [], 2) == Subgroup.trivial(4, 2)

    pairs = S(4, [(1, 1), (0, 2)])
    assert pairs.order() == 8
    assert oracle.subgroup_elements(pairs) == {(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3), (2, 0), (3, 1)}


@settings(max_examples=150, deadline=None)
@given(small_groups, st.randoms(use_true_random=False))
def test_howell_is_canonical_under_row_operations(h, rng):
    """The output depends on the span only, not on its presentation."""
    rows = [list(map(int, r)) for r in h.basis]
    if not rows:
        rows = [[0] * h.ambient]
    # random invertible-ish presentation: shuffles, row sums, scalings kept in span
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1 and i != j:
            rows[i] = [(a + b) % h.modulus for a, b in zip(rows[i], rows[j])]
        else:
            scale = rng.randrange(h.modulus)
            rows.append([(a * scale) % h.modulus for a in rows[i]])
    assert Subgroup.span(h.modulus, rows, h.ambient) == h


@settings(max_examples=100, deadline=None)
@given(small_groups)
def test_howell_pivots_divide_modulus(h):
    for row in h.basis:
        p = next(x for x in row if x)
        assert h.modulus % p == 0


@settings(max_examples=60, deadline=None)
@given(small_groups, st.randoms(use_true_random=False))
def test_howell_from_independent_generating_set(h, rng):
    """Random elements of the span that together regenerate it give the same
    basis (stronger than row operations on one presentation)."""
    if h.modulus ** h.ambient > 2048:
        return
    elems = sorted(oracle.subgroup_elements(h))
    gens = [elems[rng.randrange(len(elems))] for _ in range(len(elems))]
    regenerated = Subgroup.span(h.modulus, gens, h.ambient)
    if regenerated.order() == h.order():
        assert regenerated == h
    else:
        assert R.add(h, regenerated) == h


# --- membership / reduction --------------------------------------------------

def test_membership_spec_examples():
    h = S(4, [(2, 0), (0, 2)])
    assert h.contains((2, 2))
    assert not h.contains((1, 0))
    assert S(4, [(1, 1), (0, 2)]).contains((3, 1))


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        S(4, [(1, 1)]).contains((1, 0, 0))


def test_coset_reduce_spec_examples():
    h = S(4, [(2, 0), (0, 2)])
    assert tuple(h.reduce((3, 1))) == (1, 1)
    assert h.contains(np.array([3, 1]) - np.array([1, 1]))
    assert not any(h.reduce((2, 2)))
    t = Subgroup.trivial(4, 2)
    assert tuple(t.reduce((3, 1))) == (3, 1)


@settings(max_examples=100, deadline=None)
@given(small_groups, st.data())
def test_coset_reduce_is_constant_on_cosets(h, data):
    v = data.draw(st.lists(st.integers(0, h.modulus - 1),
                           min_size=h.ambient, max_size=h.ambient))
    shift = data.draw(st.sampled_from(sorted(oracle.subgroup_elements(h)))
                      if h.num_generators else st.just(np.zeros(h.ambient, int)))
    assert tuple(h.reduce(v)) == tuple(h.reduce((np.array(v) + shift) % h.modulus))


@settings(max_examples=60, deadline=None)
@given(small_groups)
def test_coset_reduce_partitions_ambient(h):
    """Exactly M^n / order(H) distinct labels over the whole ambient space."""
    M, n = h.modulus, h.ambient
    if M ** n > 2048:
        return
    labels = {tuple(h.reduce(w)) for w in oracle._all_words(M, n)}
    assert len(labels) == M ** n // h.order()


# --- sum / orthogonal / intersection ------------------------------------------

def test_sum_spec_examples():
    assert R.add(S(4, [(2, 0)]), S(4, [(0, 2)])) == S(4, [(2, 0), (0, 2)])
    h = S(4, [(1, 2)])
    assert R.add(h, Subgroup.trivial(4, 2)) == h
    assert R.add(S(4, [(1, 1)]), S(4, [(0, 2)])) == S(4, [(1, 1), (0, 2)])


def test_orthogonal_spec_examples():
    assert R.orthogonal(S(4, [(1, 1)])) == S(4, [(1, 3)])
    assert R.orthogonal(Subgroup.full(4, 2)) == Subgroup.trivial(4, 2)
    assert R.orthogonal(Subgroup.trivial(4, 2)) == Subgroup.full(4, 2)


def test_orthogonal_brute_force():
    h = S(4, [(1, 1)])
    brute = {w for w in oracle._all_words(4, 2) if sum(w) % 4 == 0}
    assert oracle.subgroup_elements(R.orthogonal(h)) == brute


@settings(max_examples=120, deadline=None)
@given(small_groups)
def test_orthogonal_involution_and_order_duality(h):
    o = R.orthogonal(h)
    assert R.orthogonal(o) == h
    assert h.order() * o.order() == h.modulus ** h.ambient


@settings(max_examples=80, deadline=None)
@given(small_groups, small_groups)
def test_sum_intersection_duality(h1, h2):
    if h1.modulus != h2.modulus or h1.ambient != h2.ambient:
        return
    lhs = R.orthogonal(R.add(h1, h2))
    rhs = R.intersect(R.orthogonal(h1), R.orthogonal(h2))
    assert lhs == rhs


def test_intersect_spec_examples():
    assert R.intersect(S(4, [(1, 0)]), S(4, [(0, 1)])) == Subgroup.trivial(4, 2)
    h = S(4, [(1, 1), (0, 2)])
    assert R.intersect(h, h) == h
    assert R.intersect(h, S(4, [(1, 3)])) == S(4, [(1, 3)])


def test_intersect_matches_element_sets():
    pairs = [(S(6, [(2, 3), (0, 3)]), S(6, [(1, 4)]))]
    rng = random.Random(5)
    for m in (2, 4, 6, 9):
        for _ in range(10):
            pairs.append(tuple(
                S(m, [[rng.randrange(m) for _ in range(3)]
                      for _ in range(rng.randint(0, 3))], 3)
                for _ in range(2)))
    for h1, h2 in pairs:
        got = oracle.subgroup_elements(R.intersect(h1, h2))
        want = oracle.subgroup_elements(h1) & oracle.subgroup_elements(h2)
        assert got == want, (h1, h2)


# --- order ---------------------------------------------------------------------

def test_order_spec_examples():
    assert Subgroup.trivial(4, 2).order() == 1
    assert Subgroup.full(4, 3).order() == 64
    assert S(4, [(1, 0, 0), (0, 1, 0), (0, 0, 2)]).order() == 32


@settings(max_examples=100, deadline=None)
@given(small_groups)
def test_order_matches_enumeration(h):
    assert len(oracle.subgroup_elements(h)) == h.order()


# --- quotient invariants --------------------------------------------------------

def test_quotient_invariants_spec_examples():
    full = Subgroup.full(4, 2)
    assert R.quotient_invariants(full, S(4, [(2, 0), (0, 2)])) == (2, 2)
    h = S(4, [(1, 1), (0, 2)])
    assert R.quotient_invariants(h, h) == ()
    assert R.quotient_invariants(h, Subgroup.trivial(4, 2)) == (2, 4)


def test_quotient_requires_containment():
    with pytest.raises(ValueError):
        R.quotient_invariants(S(4, [(2, 0)]), S(4, [(0, 1)]))


@settings(max_examples=80, deadline=None)
@given(small_groups, small_groups)
def test_quotient_duality(h1, h2):
    """invariants(A/B) == invariants(orth(B)/orth(A)) whenever B <= A."""
    if h1.modulus != h2.modulus or h1.ambient != h2.ambient:
        return
    a = R.add(h1, h2)  # force containment: B = h1 <= A
    left = R.quotient_invariants(a, h1)
    right = R.quotient_invariants(R.orthogonal(h1), R.orthogonal(a))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(small_groups, small_groups)
def test_quotient_invariants_match_element_orders(h1, h2):
    if h1.modulus != h2.modulus or h1.ambient != h2.ambient:
        return
    if h1.modulus ** h1.ambient > 4096:
        return
    a = R.add(h1, h2)
    fast = R.quotient_invariants(a, h1)
    brute = oracle.quotient_invariants_by_orders(
        oracle.subgroup_elements(a), oracle.subgroup_elements(h1), h1.modulus)
    assert fast == brute
    assert a.order() // h1.order() == R.group_order(fast)


def test_format_group():
    assert R.format_group(()) == "trivial"
    assert R.format_group((2, 4)) == "Z2 x Z4"


def test_large_modulus_stays_exact(tmp_path, capsys):
    # entries are exact Python ints at every modulus, past the int64 product
    # range too, and numpy integer scalars are turned into ints on the way in
    M = 1 << 40
    h = S(M, [(1 << 13, 3)])
    o = R.orthogonal(h)
    assert h.order() * o.order() == M ** 2
    assert R.orthogonal(o) == h
    assert R.quotient_invariants(Subgroup.full(M, 1),
                                 S(M, [(1 << 20,)])) == (1 << 20,)
    rows = [[M - 1, 3], [5, M - 7]]
    assert (Subgroup.span(M, [[np.int64(x) for x in r] for r in rows], 2)
            == Subgroup.span(M, rows, 2))
    # a basis is a tuple of int tuples at every modulus, whatever the input
    # rows were, and the layers above residues hold no arrays at all
    M = 2**64 + 13
    h = Subgroup.span(M, [[M - 1, np.int64(3), 2**63], [6, 0, M + 4]], 3)
    assert type(h.basis) is tuple and h.basis
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in h.basis)
    for mod in (R, codes, spaces, dynamics, machines, oracle):
        assert not any(_numpy_name(v) for v in vars(mod).values()), mod.__name__
    # and the command line runs without loading numpy at all
    probe = "import sys, groupcodes.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(R.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
    # and every subcommand runs with numpy blocked, printing what it prints
    # in process
    spec = os.path.join(os.path.dirname(src), "codes", "pairs.code")
    assert main(["encode", spec, "--random", "3", "--json"]) == 0
    word = tmp_path / "word.json"
    word.write_text(json.dumps(json.loads(capsys.readouterr().out)["codeword"]))
    blocked = ("import sys; sys.modules['numpy'] = None; "
               "from groupcodes.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["analyze", spec, "--json"], ["dual", spec],
                 ["encode", spec, "--random", "3"], ["syndrome", spec, "--word", str(word)],
                 ["oracle", spec, "--quantity", "dual-order"],
                 ["oracle", spec, "--quantity", "observer-granule", "--at", "2",
                  "--level", "1"],
                 ["verify-duality", "--trials", "2"]):
        assert main(argv) == 0, argv
        out = subprocess.run([sys.executable, "-c", blocked, *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, (argv, out.stderr)
        assert out.stdout == capsys.readouterr().out, argv


def _numpy_name(value) -> bool:
    """Whether ``value`` is numpy or an object that numpy defines."""
    name = (value.__name__ if isinstance(value, ModuleType)
            else getattr(value, "__module__", None))
    return isinstance(name, str) and name.split(".")[0] == "numpy"


# --- the int-row kernel against the numpy reference ----------------------------

def _numpy_howell_form(modulus, rows):
    """The vectorised Howell kernel the int-row kernel replaced, kept as its
    reference: same elimination order, whole numpy rows."""
    M = modulus
    dtype = object
    n = rows.shape[1]
    work = [r.astype(dtype) % M for r in rows if (r % M).any()]
    pivots = []
    result = []
    for col in range(n):
        hits = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not hits:
            work = rest
            continue
        pivot_row = hits[0]
        for r in hits[1:]:
            g, s, t, u, v = R._gcdex(int(pivot_row[col]), int(r[col]))
            pivot_row, residual = ((s * pivot_row + t * r) % M,
                                   (u * pivot_row + v * r) % M)
            if residual.any():
                rest.append(residual)
        d, unit = R._unit_lifting(int(pivot_row[col]), M)
        pivot_row = (unit * pivot_row) % M
        extra = ((M // d) * pivot_row) % M
        if extra.any():
            rest.append(extra)
        result.append(pivot_row)
        pivots.append((col, d))
        work = rest
    for i in range(len(result) - 2, -1, -1):
        for j in range(i + 1, len(result)):
            col, d = pivots[j]
            q = int(result[i][col]) // d
            if q:
                result[i] = (result[i] - q * result[j]) % M
    if not result:
        return np.zeros((0, n), dtype=dtype)
    return np.array(result, dtype=dtype)


def _numpy_reduce(h, v):
    """Greedy coset reduction on whole numpy rows, as the reference."""
    M = h.modulus
    r = np.asarray(v, dtype=object) % M
    for row in (np.array(b, dtype=object) for b in h.basis):
        col = int(np.argmax(row != 0))
        q = int(r[col]) // int(row[col])
        if q:
            r = (r - q * row) % M
    return r


KERNEL_MODULI = (2, 3, 4, 6, 8, 9, 12, 36, 2**31 - 1, 2**31 + 11, 2**40,
                 2**64 + 13, 2**70)


def _biased_entry(rng, M, divisors):
    pick = rng.random()
    if pick < 0.35:
        return 0
    if pick < 0.5:
        return rng.choice((1, M - 1))
    if pick < 0.75:
        return rng.choice(divisors) * rng.choice((1, M - 1, rng.randrange(M)))
    return rng.randrange(-M, 2 * M)


def test_howell_kernel_matches_numpy_reference():
    rng = random.Random(20040)
    col_rng = random.Random(20041)  # column orders, apart from the matrices
    keep_rng = random.Random(20042)  # kept positions, apart from both
    for M in KERNEL_MODULI:
        divisors = [d for d in (2, 3, 4, 6, 8, 9, 12, 1 << 20, 1 << 35, 1 << 64)
                    if M % d == 0 and d < M] or [1]
        dtype = object
        for _ in range(80):
            r, n = rng.randint(0, 9), rng.randint(1, 12)
            mat = np.array([[_biased_entry(rng, M, divisors) for _ in range(n)]
                            for _ in range(r)], dtype=dtype).reshape(r, n)
            got = R.howell_form(M, mat)
            want = _numpy_howell_form(M, mat)
            assert got.dtype == want.dtype and got.shape == want.shape, (M, mat)
            assert got.tolist() == want.tolist(), (M, mat)
            h = Subgroup.span(M, mat, n)
            assert h.basis == tuple(map(tuple, want.tolist())), (M, mat)
            # the insert kernel: one row at a time, in order and reversed,
            # the reversed run reading its rows after each insert
            rows = [[x % M for x in r] for r in mat.tolist()]
            for ordered, read in ((rows, False), (rows[::-1], True)):
                form = R.IncrementalHowell(M, n)
                for r in ordered:
                    form.insert(r)
                    if read:
                        form.rows()
                assert [list(row) for _, _, row in R.written_out(form.rows(), n)] == want.tolist(), (M, mat)
                assert form.order == h.order(), (M, mat)
            # a pass over some columns in a random order is the reference form
            # of those columns, written back into the rows' own coordinates
            cols = col_rng.sample(range(n), col_rng.randint(1, n))
            taken = _numpy_howell_form(M, mat[:, cols])
            want_cols = np.zeros((len(taken), n), dtype=object)
            want_cols[:, cols] = taken
            got_cols = R.howell_pass(M, rows, n, cols)
            assert [list(row) for _, _, row in got_cols] == want_cols.tolist(), (M, mat, cols)
            assert all(row[c] == d and not any(row[j] for j in cols[:cols.index(c)])
                       for c, d, row in got_cols), (M, mat, cols)
            # given keep, the pass returns the reference rows that pivot at or
            # past position keep of cols
            keep = keep_rng.randint(0, len(cols))
            want_kept = [row for row, ref in zip(want_cols.tolist(), taken.tolist())
                         if next(j for j, x in enumerate(ref) if x) >= keep]
            got_kept = R.howell_pass(M, rows, n, cols, keep)
            assert [list(row) for _, _, row in got_kept] == want_kept, (M, mat, cols, keep)
            for _ in range(3):
                v = [_biased_entry(rng, M, divisors) for _ in range(n)]
                red = h.reduce(v)
                assert all(type(x) is int for x in red)
                assert red == _numpy_reduce(h, v).tolist(), (M, mat, v)
