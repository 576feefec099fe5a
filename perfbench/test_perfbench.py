"""Every benchmark check accepts a correct output and rejects a planted wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import groupcodes  # noqa: E402
import groupcodes.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def pair(tmp_path):
    taps = W.random_taps(Random(3), 4, 2, 2)
    p = W.AnalyzePair(groupcodes, tmp_path / "p.code", 4, 2, 7, taps)
    for op in p.ops:
        op.run()
    assert p.check() == []
    return p


def test_reference_invariants_match_stacked_smith_form():
    rng = Random(5)
    for modulus in (4, 6, 8, 9, 12):
        for _ in range(10):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(modulus) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            stacked = rows + [[modulus * (i == j) for j in range(n)] for i in range(n)]
            snf = smith_normal_form(Matrix(stacked), domain=ZZ)
            lattice = [int(snf[i, i]) for i in range(n)]
            expect = sorted(modulus // d for d in lattice if modulus // d > 1)
            assert reference.invariants(modulus, rows) == expect
            code = groupcodes.span(modulus, rows, n)
            assert list(groupcodes.invariants(code)) == expect


PLANTS = {
    "state": lambda a, b: a["state"].append(2),
    "controller_memory": lambda a, b: a.update(controller_memory=a["controller_memory"] + 1),
    "observer_memory": lambda a, b: a.update(observer_memory=(a["observer_memory"] or 0) + 1),
    "controller_granules": lambda a, b: a["controller_granules"][
        next(iter(a["controller_granules"]))].append(2),
    "observer_granules": lambda a, b: a["observer_granules"][
        next(iter(a["observer_granules"]))].append(2),
    "code_order": lambda a, b: b.update(code_order=b["code_order"] * 2),
    "code_invariants": lambda a, b: a.update(code_invariants=a["code_invariants"][1:]),
}


@pytest.mark.parametrize("field", sorted(PLANTS))
def test_analyze_check_rejects(pair, field):
    a, b = (json.loads(op.text) for op in pair.ops)
    rows = reference.window_rows(pair.modulus, pair.width, (pair.taps,), pair.axis)
    n = pair.width * pair.axis
    assert W.analyze_failures(a, b, pair.modulus, n, rows) == []
    PLANTS[field](a, b)
    assert W.analyze_failures(a, b, pair.modulus, n, rows)


def test_analyze_check_rejects_a_failed_exit(pair):
    pair.ops[1].exit_code = 4
    assert pair.check()


@pytest.fixture
def trial():
    t = W.BatteryTrial(groupcodes, 12345)
    t.ops[0].run()
    assert t.check() == []
    return t


def _edit_summary(t, fn):
    doc = json.loads(t.ops[0].text)
    fn(doc)
    t.ops[0].text = json.dumps(doc)


@pytest.mark.parametrize("plant", [
    lambda d: d.update(ok=False),
    lambda d: d["failures"].append({"theorem": "granule-duality"}),
    lambda d: d["checks"].pop("end-around"),
    lambda d: d["checks"].update({"end-around": 2}),
])
def test_battery_check_rejects_summary(trial, plant):
    _edit_summary(trial, plant)
    assert trial.check()


def test_battery_check_rejects_wrong_order(trial):
    full = groupcodes.GroupCode.full(trial.code.layout)
    trial.code = (full if full.order() != trial.code.order()
                  else groupcodes.GroupCode.trivial(full.layout))
    assert trial.check()


def test_battery_check_rejects_a_failed_exit(trial):
    trial.ops[0].exit_code = 4
    assert trial.check()


def test_battery_rounds_cover_every_stratum_with_fresh_seeds(tmp_path):
    w = W.BatteryWorkload(groupcodes, tmp_path, 7)
    rounds = [w.draw(r) for r in range(2)]
    seeds = [s for r in rounds for s in r]
    assert len(set(seeds)) == len(seeds)
    for r in rounds:
        strata = [reference.trial_stratum(s, W.BATTERY_MODULI, W.MAX_AXIS, W.MAX_WIDTH)
                  for s in r]
        assert strata == list(W.BATTERY_STRATA)
        for s, (M, n, total, _) in zip(r, strata):
            code = W.BatteryTrial(groupcodes, s).code
            assert (code.layout.modulus, code.layout.axis_len,
                    code.layout.total_dim) == (M, n, total)


@pytest.fixture
def machine_op(tmp_path):
    perturb = [(t % 6, t % 2, 1 + t % 3) for t in range(W.WORDS_PER_OP)]
    op = W.MachinesOp(groupcodes, tmp_path / "m.code", 4, 2, 6, ((1, 0), (1, 1)),
                      11, perturb)
    op.run()
    assert op.check() == []
    return op


def test_machines_check_rejects_non_codeword(machine_op):
    word, trace = machine_op.encoded[0]
    bad = word.copy()
    bad[0] = (bad[0] + 1) % machine_op.modulus
    machine_op.encoded[0] = (bad, trace)
    assert machine_op.check()


def test_machines_check_rejects_wrong_state(machine_op):
    step = machine_op.encoded[0][1].steps[-1]
    step.state = tuple(x + 1 for x in step.state) or (1,)
    assert machine_op.check()


def test_machines_check_rejects_nonzero_codeword_syndrome(machine_op):
    syn = machine_op.syndromes[0]
    k = next(i for i, c in enumerate(syn) if c)
    syn[k] = (1,) + syn[k][1:]
    assert machine_op.check()


def test_machines_check_rejects_zero_syndrome_on_non_codeword(machine_op):
    n = len(machine_op.encoded)
    dual_rows = [[int(x) for x in r]
                 for r in groupcodes.dual(machine_op.code).carrier.basis]
    i = next(i for i, w in enumerate(machine_op.perturbed)
             if not reference.is_member(w, dual_rows, machine_op.modulus))
    machine_op.syndromes[n + i] = [tuple(0 for _ in c) for c in machine_op.syndromes[n + i]]
    assert machine_op.check()


def test_machines_check_rejects_wrong_input_groups(machine_op):
    g = machine_op.encoder.input_groups[0]
    machine_op.encoder.input_groups[0] = groupcodes.residues.Subgroup.trivial(
        g.modulus, g.ambient)
    assert machine_op.check()


def test_machines_check_rejects_wrong_code_order(machine_op):
    machine_op.code = groupcodes.GroupCode.full(machine_op.code.layout)
    assert machine_op.check()


def test_machines_check_rejects_too_small_dual(machine_op, monkeypatch):
    full_dual = groupcodes.codes.dual(machine_op.code)
    monkeypatch.setattr(groupcodes.codes, "dual",
                        lambda code: groupcodes.GroupCode.trivial(full_dual.layout))
    assert "dual order times the sympy order is not M^n" in machine_op.check()


def test_machines_check_rejects_memory_mismatch(machine_op):
    machine_op.former.memory += 1
    problems = machine_op.check()
    assert problems and all(p.startswith(W.MEMORY_FAULT) for p in problems)


def test_fixed_machines_specs_fail_only_on_memory(tmp_path):
    w = W.MachinesWorkload(groupcodes, tmp_path, 1)
    fixed = w.draw(0)[:len(W.MACHINES_FIXED)]
    for i, item in enumerate(fixed):
        op = w.prepare(item, f"f{i}")
        op.run()
        problems = op.check()
        assert problems and all(p.startswith(op.known_fault) for p in problems)
        assert op.memory_excess() > 0


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {"shorten": groupcodes.codes.shorten,
                 "howell_form": groupcodes.residues.howell_form}
    checks = dict(groupcodes.verify.ALL_CHECKS)
    caches = spans.CacheStats(groupcodes)
    tracer = spans.Tracer(groupcodes)
    tracer.install(groupcodes.verify.ALL_CHECKS)
    try:
        for mod in (groupcodes.dynamics, groupcodes.machines, groupcodes.verify):
            assert mod.shorten is not originals["shorten"]
        assert groupcodes.machines.howell_form is not originals["howell_form"]
        spec = groupcodes.ConvSpec(4, 2, generators=(((1, 0), (1, 1)),))
        code = groupcodes.window(spec, 6).code
        caches.clear()
        tracer.op = 0
        groupcodes.dynamics.observability_index(code, 1)
    finally:
        tracer.uninstall()
    assert groupcodes.dynamics.shorten is originals["shorten"]
    assert groupcodes.machines.howell_form is originals["howell_form"]
    assert groupcodes.verify.ALL_CHECKS == checks
    summary = tracer.summary()
    assert summary["dynamics.index_search"]["calls"] == 1
    assert summary["codes.shorten"]["calls"] > 0
    for s in summary.values():
        assert 0 <= s["self_s"] <= s["total_s"] + 1e-9 or s["calls"] == 0


def _traced_calls(workdir: Path) -> dict:
    workdir.mkdir()
    workload = W.AnalyzeWorkload(groupcodes, workdir, 3)
    caches = spans.CacheStats(groupcodes)
    tracer = spans.Tracer(groupcodes)
    tracer.install(groupcodes.verify.ALL_CHECKS)
    try:
        _, records, _ = run.measure(workload, 0, 1, caches, tracer)
    finally:
        tracer.uninstall()
    layers = run.per_layer(tracer, caches, records)
    return {k: v["value"] for k, v in layers.items()
            if not k.endswith(("self_ms", ".ms", "us_per_symbol"))}


def test_traced_call_counts_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(W, "ANALYZE_SHAPES", ((4, 2, 6, 2),))
    first = _traced_calls(tmp_path / "a")
    assert first["residues.howell_form.calls"] > 0
    assert first == _traced_calls(tmp_path / "b")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    class Op:
        symbols, stream_s = 8, 0.01

    records = [(0.1 + i / 100, None, Op()) for i in range(40)]
    for name in ("analyze", "machines"):
        e2e = run.end_to_end(name, [0.5, 0.6], records, 30.0)
        assert [(k, v["unit"]) for k, v in e2e.items()] == [
            (m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = run.per_layer(spans.Tracer(groupcodes), spans.CacheStats(groupcodes), [])
    assert sorted((k, v["unit"]) for k, v in layers.items()) == sorted(
        (m["name"], m["unit"]) for m in spec["per_layer"])
    assert tuple(sorted(groupcodes.verify.ALL_CHECKS)) == run.CHECK_NAMES
