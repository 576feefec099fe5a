"""State observer, observer-form encoder, syndrome-former."""

import itertools
import random
from math import prod

import numpy as np
import pytest

from groupcodes import dynamics as dyn
from groupcodes import machines as mc
from groupcodes import oracle
from groupcodes import verify
from groupcodes.codes import GroupCode, dual, restriction, shorten
from groupcodes.convolutional import ConvSpec, window
from groupcodes.residues import Subgroup
from groupcodes.spaces import SymbolLayout


def random_code(rng, modulus, axis, width=1):
    lay = SymbolLayout.uniform(modulus, axis, width)
    r = rng.randint(0, lay.total_dim)
    return GroupCode.from_generators(
        lay, [[rng.randrange(modulus) for _ in range(lay.total_dim)] for _ in range(r)])


# --- state observer -----------------------------------------------------------

def test_observer_repetition(repetition6):
    code = repetition6.code
    obs = mc.StateObserver(code)
    assert obs.memory == 1
    labels = set()
    for g in range(4):
        w = [g] * 6
        lab = obs.observe_codeword(w, 3)
        assert lab == obs.observe([w[2]], 3)
        labels.add(lab)
    assert len(labels) == 4 == obs.state_count(3)


def test_observer_zero_codeword(rate13):
    obs = mc.StateObserver(rate13.code)
    zero = [0] * rate13.code.layout.total_dim
    for k in range(0, 13):
        assert not any(obs.observe_codeword(zero, k))


def test_observer_label_counts(rate13):
    code = rate13.code
    obs = mc.StateObserver(code)
    assert obs.state_count(6) == 8
    rng = random.Random(2)
    labels = set()
    enc = mc.ObserverEncoder(code)
    for _ in range(200):
        w, _ = enc.encode(enc.random_inputs(rng))
        labels.add(obs.observe_codeword(w, 6))
    assert len(labels) == 8


def test_observer_window_matches_full_word(rate13):
    code = rate13.code
    obs = mc.StateObserver(code)
    enc = mc.ObserverEncoder(code)
    rng = random.Random(3)
    lay = code.layout
    for _ in range(20):
        w, _ = enc.encode(enc.random_inputs(rng))
        for k in range(lay.axis_len + 1):
            lo = max(0, k - obs.memory)
            window = [int(w[i]) for t in range(lo, k) for i in lay.block(t)]
            assert obs.observe(window, k) == obs.observe_codeword(w, k)


def test_observer_rejects_garbage(repetition6):
    obs = mc.StateObserver(repetition6.code)
    with pytest.raises(mc.WindowNotInRestriction):
        obs.observe_codeword([1, 2, 1, 1, 1, 1], 3)


def test_observer_labels_past_non_unit_pivots():
    # the step table ends with D_k's rows whose pivot entry is not 1: the
    # encoder's states and the window labels must match the full-word labels
    # at every cut, on codes where some D_k has such a pivot
    rng = random.Random(31)
    non_unit = 0
    for M in (4, 8, 9, 2**64 + 13):
        for _ in range(6):
            code = verify.random_code(rng, (M,), 6, 2)
            enc = mc.ObserverEncoder(code)
            obs, lay = enc.observer, code.layout
            non_unit += any(d != 1 for k in range(lay.axis_len + 1)
                            for _, d, _ in dyn.cut_rows(code, k))
            for _ in range(3):
                word, trace = enc.encode(enc.random_inputs(rng))
                for k in range(lay.axis_len + 1):
                    label = obs.observe_codeword(word, k)
                    window = word[lay.starts[max(0, k - obs.memory)]:lay.starts[k]]
                    assert obs.observe(window, k) == label
                    if k < lay.axis_len:
                        assert trace.steps[k].state == label
    assert non_unit


def test_machines_reject_cuts_off_the_axis():
    code = GroupCode.from_generators(SymbolLayout.uniform(4, 3), [[1, 1, 1]])
    obs, sf = mc.StateObserver(code), mc.SyndromeFormer(code)
    word = [2, 2, 2]
    for k in (-1, 4):
        for call in (lambda: obs.observe([2], k), lambda: obs.observe_codeword(word, k),
                     lambda: obs.state_count(k), lambda: obs.window_times(k)):
            with pytest.raises(ValueError, match=f"cut {k} outside 0..3"):
                call()
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"time {k} outside axis of length 3"):
            sf.syndrome_width(k)
    assert obs.state_count(3) == 1 and obs.observe_codeword(word, 3) == (0, 0, 0)
    assert obs.window_times(3) == [2] and sf.syndrome_width(2) == 1


# --- encoder -------------------------------------------------------------------

def test_encoder_zero_inputs_give_zero_codeword(rate13):
    enc = mc.ObserverEncoder(rate13.code)
    zeros = [tuple([0] * w) for w in rate13.code.layout.widths]
    word, trace = enc.encode(zeros)
    assert not any(word)
    assert all(not any(s.state) for s in trace.steps)


def test_encoder_bijective_onto_code(pairs8, repetition6):
    for wc in (pairs8, repetition6):
        code = wc.code
        enc = mc.ObserverEncoder(code)
        words = set()
        for combo in itertools.product(*[oracle.subgroup_elements(g)
                                         for g in enc.input_groups]):
            w, _ = enc.encode(combo)
            words.add(tuple(map(int, w)))
        assert len(words) == code.order()


def test_encoder_input_validation(rate13):
    enc = mc.ObserverEncoder(rate13.code)
    bad = [tuple([0, 0, 0])] * 12
    bad[5] = (0, 1, 0)  # not in F_5 = multiples of (1, 0, 0)
    with pytest.raises(mc.InputNotInInputGroup):
        enc.encode(bad)


def test_encoder_input_group_orders(rate13):
    # one free Z4 symbol per interior time; the product accounts for the code
    orders = mc.input_group_orders(rate13.code)
    assert orders == [4] * 10 + [1, 1]
    assert prod(orders) == rate13.code.order()


def test_pairs_encoder_is_autonomous(pairs8):
    enc = mc.ObserverEncoder(pairs8.code)
    orders = mc.input_group_orders(pairs8.code)
    assert orders == [4, 2, 1, 1, 1, 1, 1, 1]
    assert prod(orders) == 8


# --- syndrome former -------------------------------------------------------------

def test_syndrome_kernel_and_cosets(repetition6):
    code = repetition6.code
    sf = mc.SyndromeFormer(code)
    lay = code.layout
    # kernel is exactly the code, and cosets map to distinct syndromes
    seen = {}
    for w in itertools.product(range(4), repeat=6):
        syn = tuple(sf.form(list(w))[0][k] for k in range(6))
        label = tuple(map(int, code.carrier.reduce(list(w))))
        if label in seen:
            assert seen[label] == syn
        else:
            assert syn not in set(seen.values())
            seen[label] = syn
    zero = tuple(sf.form([0] * 6)[0][k] for k in range(6))
    members = [lbl for lbl, syn in seen.items() if syn == zero]
    assert members == [tuple([0] * 6)]


def test_syndrome_repetition_tracks_symbol_changes(repetition6):
    sf = mc.SyndromeFormer(repetition6.code)
    assert sf.is_member([3] * 6)
    assert not sf.is_member([1, 1, 1, 2, 1, 1])
    syn, trace = sf.form([2] * 6)
    assert all(not any(c) for c in syn)
    assert len(trace.steps) == 6


def test_syndrome_former_memory_matches_observer_memory(rate13, repetition6, pairs8):
    # every check row spans at most observer-memory + 1 time blocks, i.e. the
    # window memory of the former equals the observer memory of the code
    for wc, expect in ((rate13, 1), (repetition6, 1), (pairs8, 2)):
        sf = mc.SyndromeFormer(wc.code)
        assert sf.memory == expect == dyn.observability_index(wc.code, wc.margin)
    # and the same holds for interior-restricted windows
    code = rate13.code
    interior = code.layout.interval(3, 8)
    sf = mc.SyndromeFormer(restriction(code, interior))
    assert sf.memory <= dyn.observability_index(code, 3)
    syn_widths = [sf.syndrome_width(k) for k in range(6)]
    assert sum(syn_widths) == dual(restriction(code, interior)).carrier.num_generators
    # width-2 taps over prime powers, over M > 256 and over M > 2^63
    for M, taps, n in ((257, ((1, 1), (0, 1), (1, 0)), 10),
                       (8, ((1, 1), (0, 1), (0, 7)), 10),
                       (4, ((1, 3), (0, 3), (0, 1)), 10),
                       (2**64 + 13, ((1, 1), (0, 1), (1, 0)), 8)):
        code = window(ConvSpec(M, 2, generators=(taps,)), n).code
        assert mc.SyndromeFormer(code).memory == mc.machine_memory(code)


def test_syndrome_checks_span_interval_subcodes():
    # the checks inside each interval span the dual's shortening to it
    rng = random.Random(23)
    for M in (2, 4, 6, 9, 12, 2**64 + 13):
        for _ in range(5):
            code = verify.random_code(rng, (M,), 6, 2)
            lay, d = code.layout, dual(code)
            sf = mc.SyndromeFormer(code)
            for lo in lay.times():
                for hi in range(lo, lay.axis_len):
                    inside = [row for a, b, row in sf._spans if lo <= a and b <= hi]
                    assert (Subgroup.span(M, inside, lay.total_dim)
                            == shorten(d, lay.interval(lo, hi)).carrier)


def test_syndrome_former_flags_perturbations(rate13):
    code = rate13.code
    sf = mc.SyndromeFormer(code)
    rng = random.Random(9)
    enc = mc.ObserverEncoder(code)
    for _ in range(20):
        w, _ = enc.encode(enc.random_inputs(rng))
        assert sf.is_member(w)
        while True:
            e = [rng.randrange(4) for _ in range(code.layout.total_dim)]
            if not code.contains(e):
                break
        assert not sf.is_member((w + np.array(e)) % 4)


# --- roundtrip -----------------------------------------------------------------

def test_roundtrip_fixtures(rate13, repetition6, pairs8):
    for wc in (rate13, repetition6, pairs8):
        assert verify.machine_roundtrip(wc.code, random.Random(1), trials=10) is None


def test_roundtrip_random_codes():
    rng = random.Random(55)
    for _ in range(10):
        code = random_code(rng, rng.choice([2, 3, 4]), rng.randint(2, 6),
                           width=rng.choice([1, 2]))
        assert verify.machine_roundtrip(code, rng, trials=3) is None


def test_machines_past_int64():
    M = 2**64 + 13
    code = window(ConvSpec(M, 2, generators=(((1, 1), (0, 1), (1, 0)),)), 8).code
    assert dyn.observability_index(code) == 2
    assert dyn.controllability_index(code) == 2
    enc = mc.ObserverEncoder(code)
    word, trace = enc.encode(enc.random_inputs(random.Random(3)))
    assert code.contains(word)
    assert code.layout.split_symbols(word) == trace.symbols()
    assert mc.SyndromeFormer(code).is_member(word)
    assert verify.machine_roundtrip(code, random.Random(4), trials=3) is None
