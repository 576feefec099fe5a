"""Acceptance gate: every criterion, at its stated tolerance (all exact).

Each test prints one PASS line on success; a failure prints through pytest.
Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from math import prod

from groupcodes import catalog
from groupcodes import convolutional as conv
from groupcodes import dynamics as dyn
from groupcodes import machines as mc
from groupcodes import oracle, verify
from groupcodes.codes import dual, restriction


def _report(line):
    print(f"PASS {line}")


def test_criterion_01_central_state(rate13):
    code = rate13.code
    for c in (code, dual(code)):
        rpt = dyn.state_at(c, 6)
        assert rpt.invariants == (2, 4)
        assert rpt.order == 8
    _report("criterion 1: central state invariants [2,4] (order 8) for the "
            "width-3 fixture and its dual")


def test_criterion_02_memories(rate13):
    code = rate13.code
    assert dyn.controllability_index(code, 3) == 2
    assert dyn.observability_index(code, 3) == 1
    assert dyn.controllability_index(dual(code), 3) == 1
    assert dyn.observability_index(dual(code), 3) == 2
    _report("criterion 2: controller/observer memories 2/1 and dual 1/2")


def test_criterion_03_granules(rate13):
    code = rate13.code
    d = dual(code)
    # 001 is a nonzero coset representative of the level-0 granule
    assert not restriction(code, frozenset({6})).contains((0, 0, 1))
    for k in range(4, 8):
        assert dyn.observer_granule(code, k, 0) == (2,)
        assert dyn.observer_granule(code, k, 1) == (2, 4)
        assert dyn.controller_granule(code, k, 1) == (2,)
        assert dyn.controller_granule(code, k, 2) == (2,)
        assert dyn.observer_granule(d, k, 1) == (2,)
        assert dyn.observer_granule(d, k, 2) == (2,)
    for k in range(0, 12):
        for j in range(0, 12 - k):
            assert dyn.granule_duality_check(code, k, j)
    _report("criterion 3: granule table values and granule duality at every (k, j)")


def test_criterion_04_counting(rate13):
    code = rate13.code
    k = 6
    single = restriction(code, frozenset({k})).order()
    nxt = restriction(code, frozenset({k + 1})).order()
    pair = restriction(code, code.layout.interval(k, k + 1)).order()
    assert single * nxt == 32 * 32
    assert pair == 8 * 4 * 4
    _report("criterion 4: |C_k x C_{k+1}| = 32*32 and |C_[k,k+1]| = 8*4*4")


def test_criterion_05_pairs_fixture(pairs8):
    code = pairs8.code
    assert code.order() == 8
    assert code.invariants() == (2, 4)
    for k in range(2, 6):
        assert dyn.first_output_group(code, k).is_trivial()
        assert dyn.syndrome_group(code, k) == (4,)
        assert dyn.observer_granule(code, k, 1) == (2,)
        assert dyn.observer_granule(code, k, 2) == (2,)
    assert dyn.observability_index(code, 2) == 2
    _report("criterion 5: period-2 pair fixture: order 8 = Z2 x Z4, autonomous, "
            "observer memory 2, syndrome group Z4, Phi levels [2],[2]")


def test_criterion_06_repetition_fixture(repetition6):
    code = repetition6.code
    zs = dual(code)
    for k in range(2, 5):
        assert dyn.state_at(code, k).invariants == (4,)
        assert dyn.state_at(zs, k).invariants == (4,)
    for m in range(1, 5):
        for n in range(m + 1, 6):
            assert not dyn.controllable_on(code, m, n)
    assert dyn.observability_index(code, 2) == 1
    # syndrome former: kernel = C, distinct cosets -> distinct syndromes
    sf = mc.SyndromeFormer(code)
    seen = {}
    for w in oracle._all_words(4, 6):
        syn = tuple(sf.form(list(w))[0])
        lbl = tuple(map(int, code.carrier.reduce(list(w))))
        assert seen.setdefault(lbl, syn) == syn
    assert len(set(seen.values())) == len(seen) == 4 ** 6 // 4
    zero_syn = tuple(sf.form([0] * 6)[0])
    assert all(tuple(sf.form([g] * 6)[0]) == zero_syn for g in range(4))
    _report("criterion 6: repetition fixture: state Z4 both sides, "
            "uncontrollable, observer memory 1, former kernel/coset-injective")


def test_criterion_07_randomized_theorem_suite():
    summary = verify.run_trials(seed=1, trials=200, moduli=(2, 3, 4),
                                max_axis=6, max_width=2)
    assert summary.ok, summary.to_dict()
    assert all(count >= 200 for count in summary.checks_run.values())
    _report(f"criterion 7: randomized suite, {summary.trials} trials x "
            f"{len(summary.checks_run)} theorems, zero failures")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(808)
    instances = 0
    while instances < 50:
        code = verify.random_code(rng, (2, 3, 4), 4, 2)
        lay = code.layout
        if lay.modulus ** lay.total_dim > 4096:
            continue
        instances += 1
        elems = oracle.code_elements(code)
        assert len(elems) == code.order()
        assert oracle.dual_elements(code) == \
            oracle.subgroup_elements(dual(code).carrier)
        n = lay.axis_len
        k = rng.randint(1, n - 1)
        assert oracle.state_count(code, k) == dyn.state_at(code, k).order
        j = rng.randint(0, n - 1)
        kk = rng.randint(0, n - 1 - j)
        times = list(range(kk, kk + j + 1))
        assert oracle.controller_granule(code, elems, times, kk, kk + j) == \
            dyn.controller_granule(code, kk, j)
        assert oracle.observer_granule(code, elems, times, kk, kk + j) == \
            dyn.observer_granule(code, kk, j)
        sf = mc.SyndromeFormer(code)
        kernel = {w for w in oracle._all_words(lay.modulus, lay.total_dim)
                  if sf.is_member(list(w))}
        assert kernel == elems
    _report("criterion 8: 50 instances, fast path == enumeration oracle "
            "(dual, state count, granules, syndrome kernel)")


def test_criterion_09_machine_roundtrip(rate13, repetition6, pairs8):
    rng = random.Random(909)
    for wc in (rate13, repetition6, pairs8):
        code = wc.code
        lay = code.layout
        enc = mc.ObserverEncoder(code)
        obs = enc.observer
        sf = mc.SyndromeFormer(code)
        assert prod(mc.input_group_orders(code)) == code.order()
        for _ in range(100):
            word, trace = enc.encode(enc.random_inputs(rng))
            assert sf.is_member(word)
            for k, step in enumerate(trace.steps):
                assert obs.observe_codeword(word, k) == step.state
        for _ in range(100):
            coeffs = [rng.randrange(lay.modulus)
                      for _ in range(code.carrier.num_generators)]
            c = [0] * lay.total_dim
            for q, row in zip(coeffs, code.carrier.basis):
                c = [(a + q * b) % lay.modulus for a, b in zip(c, row)]
            while True:
                e = [rng.randrange(lay.modulus) for _ in range(lay.total_dim)]
                if not code.contains(e):
                    break
            assert not sf.is_member([(a + b) % lay.modulus for a, b in zip(c, e)])
    _report("criterion 9: 100 encode roundtrips and 100 flagged perturbations "
            "per fixture; input groups account for each code")


def test_criterion_10_boundary_stability():
    spec = catalog.rate_one_third_z4()
    assert conv.central_report(spec, 12, margin=3) == \
        conv.central_report(spec, 14, margin=3)
    _report("criterion 10: central report identical at N=12 and N=14")
