"""The three workloads: their inputs, their ops, and the checks on each output.

A run goes round by round.  ``draw(r)`` makes the inputs of round r from the
run seed, with no call into the package (untimed).  ``prepare`` turns one
drawn input into a unit through the package: spec files, duals, codes (this
is the timed set-up).  Each op of a unit is then timed on its own, and
``check`` runs after the measuring ends and returns the reasons the unit's
ops failed.  No two ops of a run share an input, except the two fixed
machines specs that every round repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import gcd, prod
from pathlib import Path
from random import Random
from time import perf_counter

import reference


def random_taps(rng: Random, modulus: int, width: int, ntaps: int):
    """One tap family whose first and last taps each hold a unit of Z_M.

    Unit end taps keep the code's structure, and so the cost of an op, alike
    across seeds; the other entries, and the ends' other coordinates, may be
    zero divisors.
    """
    def has_unit(tap):
        return any(gcd(x, modulus) == 1 for x in tap)

    while True:
        taps = tuple(tuple(rng.randrange(modulus) for _ in range(width))
                     for _ in range(ntaps))
        if has_unit(taps[0]) and has_unit(taps[-1]):
            return taps


def run_cli(gc_cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gc_cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------
# analyze: one op is one `groupcodes analyze <spec> --json`

# (modulus, width, axis, tap count) of the spec pairs in one round.  The last
# three moduli lie above 2^31, where the package keeps residues as Python ints
# in object arrays; no other workload reaches that side of entry_dtype.
ANALYZE_SHAPES = (
    (4, 2, 8, 2),
    (6, 2, 8, 2),
    (8, 2, 8, 3),
    (9, 2, 10, 2),
    (4, 3, 8, 2),
    (6, 2, 12, 2),
    ((1 << 31) + 11, 2, 8, 2),
    (1 << 40, 2, 8, 2),
    ((1 << 61) - 1, 2, 8, 2),
)
MARGIN = 2


class CliOp:
    """One CLI command on a code of ``symbols`` time-axis symbols."""

    def __init__(self, gc_cli, argv: list[str], symbols: int):
        self.gc_cli = gc_cli
        self.argv = argv
        self.symbols = symbols
        self.exit_code = None
        self.text = ""

    def run(self) -> None:
        self.exit_code, self.text = run_cli(self.gc_cli, self.argv)


class AnalyzePair:
    """A spec, its dual written by `groupcodes dual`, and the check of both."""

    def __init__(self, gc, path: Path, modulus: int, width: int, axis: int, taps):
        self.modulus, self.width, self.axis, self.taps = modulus, width, axis, taps
        spec = gc.convolutional.ConvSpec(modulus, width, generators=(taps,))
        dual_path = path.with_suffix(".dual.code")
        path.write_text(gc.specfile.dumps_convolutional(spec, axis, MARGIN))
        code, _ = run_cli(gc.cli, ["dual", str(path), "--out", str(dual_path)])
        if code != 0:
            raise RuntimeError(f"groupcodes dual exited {code} on {path}")
        flags = ["--cut", str(axis // 2), "--margin", str(MARGIN), "--json"]
        self.ops = [CliOp(gc.cli, ["analyze", str(p)] + flags, axis)
                    for p in (path, dual_path)]

    def check(self) -> list[str]:
        a_op, b_op = self.ops
        if a_op.exit_code != 0 or b_op.exit_code != 0:
            return [f"exit codes {a_op.exit_code}, {b_op.exit_code}"]
        a, b = json.loads(a_op.text), json.loads(b_op.text)
        rows = reference.window_rows(self.modulus, self.width, (self.taps,), self.axis)
        return analyze_failures(a, b, self.modulus, self.width * self.axis, rows)


def analyze_failures(a: dict, b: dict, modulus: int, ambient: int,
                     rows: list[list[int]]) -> list[str]:
    """Duality of the reports of a code (a) and its dual (b)."""
    bad = []
    if a["state"] != b["state"]:
        bad.append(f"state {a['state']} vs dual {b['state']}")
    if a["controller_memory"] != b["observer_memory"]:
        bad.append("controller memory differs from the dual's observer memory")
    if a["observer_memory"] != b["controller_memory"]:
        bad.append("observer memory differs from the dual's controller memory")
    if a["controller_granules"] != b["observer_granules"]:
        bad.append("controller granules differ from the dual's observer granules")
    if a["observer_granules"] != b["controller_granules"]:
        bad.append("observer granules differ from the dual's controller granules")
    if a["code_order"] * b["code_order"] != modulus ** ambient:
        bad.append("code order times dual order is not M^n")
    if a["code_invariants"] != reference.invariants(modulus, rows):
        bad.append(f"code invariants {a['code_invariants']} disagree with sympy")
    return bad


class AnalyzeWorkload:
    trace_rounds = 1

    def __init__(self, gc, workdir: Path, seed: int):
        self.gc, self.workdir, self.seed = gc, workdir, seed

    def draw(self, r: int) -> list:
        rng = Random(f"{self.seed}:{r}")
        return [(M, w, n, random_taps(rng, M, w, k)) for M, w, n, k in ANALYZE_SHAPES]

    def prepare(self, item, tag: str) -> AnalyzePair:
        return AnalyzePair(self.gc, self.workdir / f"{tag}.code", *item)


# --------------------------------------------------------------------------
# battery: one op is one `groupcodes verify-duality --trials 1 --json`

BATTERY_MODULI = (2, 3, 4, 6, 8, 9)
MAX_AXIS, MAX_WIDTH = 6, 2  # the CLI's defaults


def battery_strata() -> tuple[tuple[int, int, int, int], ...]:
    """Two (modulus, axis, total width, rank) strata per (modulus, axis)
    pair that the trial code can draw: 60 trials a round.

    A trial's cost grows about tenfold from axis 2 to axis 6, and trials of
    the same modulus and axis still differ up to fivefold with their total
    width and rank; trials alike in all four differ by about 15%.  So every
    round holds one trial of each stratum, and the op mix is the same in
    every run.  Total width and rank are drawn once, from a fixed seed, the
    way ``verify.random_code`` draws them.  Two per pair, rather than one,
    leave no wide gap in cost near the median op, which would make
    ``op_p50_ms`` jump between the two trials on either side of it.
    """
    rng = Random("battery strata")
    out = []
    for M in BATTERY_MODULI:
        for n in range(2, MAX_AXIS + 1):
            for _ in range(2):
                total = sum(rng.randint(1, MAX_WIDTH) for _ in range(n))
                out.append((M, n, total, rng.randint(0, total)))
    return tuple(out)


BATTERY_STRATA = battery_strata()


class BatteryTrial:
    def __init__(self, gc, trial_seed: int):
        self.trial_seed = trial_seed
        self.code = gc.verify.random_code(Random(f"{trial_seed}:0"), BATTERY_MODULI,
                                          MAX_AXIS, MAX_WIDTH)
        self.check_names = sorted(gc.verify.ALL_CHECKS)
        self.ops = [CliOp(gc.cli, [
            "verify-duality", "--seed", str(trial_seed), "--trials", "1",
            "--modulus-set", ",".join(map(str, BATTERY_MODULI)), "--json"],
            self.code.layout.axis_len)]

    def check(self) -> list[str]:
        op = self.ops[0]
        if op.exit_code != 0:
            return [f"exit code {op.exit_code}"]
        bad = []
        summary = json.loads(op.text)
        if not summary["ok"] or summary["failures"]:
            bad.append(f"failures {summary['failures']}")
        if (sorted(summary["checks"]) != self.check_names
                or set(summary["checks"].values()) != {1}):
            bad.append(f"checks run {summary['checks']}")
        modulus, rows = reference.random_code_rows(
            self.trial_seed, BATTERY_MODULI, MAX_AXIS, MAX_WIDTH)
        if self.code.order() != reference.order(modulus, rows):
            bad.append(f"trial code order {self.code.order()} disagrees with sympy")
        return bad


class BatteryWorkload:
    trace_rounds = 1

    def __init__(self, gc, workdir: Path, seed: int):
        self.gc, self.seed = gc, seed
        self.used: set[int] = set()

    def draw(self, r: int) -> list[int]:
        """The round's trial seeds, one per stratum, each the first unused
        seed drawn whose trial code falls in that stratum."""
        rng = Random(f"{self.seed}:{r}")
        missing: dict[tuple, list[int]] = {}
        for i, stratum in enumerate(BATTERY_STRATA):
            missing.setdefault(stratum, []).append(i)
        seeds = [0] * len(BATTERY_STRATA)
        while missing:
            s = rng.randrange(1 << 40)
            stratum = reference.trial_stratum(s, BATTERY_MODULI, MAX_AXIS, MAX_WIDTH)
            if stratum in missing and s not in self.used:
                seeds[missing[stratum].pop()] = s
                self.used.add(s)
                if not missing[stratum]:
                    del missing[stratum]
        return seeds

    def prepare(self, item: int, tag: str) -> BatteryTrial:
        return BatteryTrial(self.gc, item)


# --------------------------------------------------------------------------
# machines: one op builds both machines for a spec, then streams words

# _span_reduce is greedy and misses the minimal-span dual basis here: the
# syndrome-former's memory is 8 and 3 against an observer memory of 2.
MACHINES_FIXED = (
    (8, 2, 10, ((1, 2), (0, 1), (2, 0))),
    (9, 2, 10, ((1, 3), (0, 1), (2, 0))),
)
# (modulus, width, axis, tap count) of the seed-drawn specs in one round.
# Width 1: random width-2 taps over prime powers hit the fault above on some
# seeds only, which would make the share of failed ops depend on the seed.
MACHINES_SHAPES = (
    (4, 1, 10, 3),
    (8, 1, 10, 2),
    (9, 1, 10, 3),
    (16, 1, 10, 2),
    (27, 1, 10, 3),
    (16, 1, 8, 3),
    (4, 1, 8, 2),
    (8, 1, 12, 3),
    (9, 1, 8, 2),
    (27, 1, 12, 2),
)
WORDS_PER_OP = 8
MEMORY_FAULT = "syndrome-former memory"


class MachinesOp:
    def __init__(self, gc, path: Path, modulus: int, width: int, axis: int, taps,
                 input_seed: int, perturb):
        self.gc = gc
        self.modulus, self.width, self.axis, self.taps = modulus, width, axis, taps
        self.input_seed, self.perturb = input_seed, perturb
        spec = gc.convolutional.ConvSpec(modulus, width, generators=(taps,))
        path.write_text(gc.specfile.dumps_convolutional(spec, axis))
        self.code = gc.specfile.load(path).code
        self.ops = [self]
        if (modulus, width, axis, taps) in MACHINES_FIXED:
            self.known_fault = MEMORY_FAULT

    def run(self) -> None:
        m = self.gc.machines
        t0 = perf_counter()
        self.encoder = m.ObserverEncoder(self.code)
        t1 = perf_counter()
        self.former = m.SyndromeFormer(self.code)
        t2 = perf_counter()
        rng = Random(self.input_seed)
        inputs = [self.encoder.random_inputs(rng) for _ in range(WORDS_PER_OP)]
        t3 = perf_counter()
        self.encoded = [self.encoder.encode(x) for x in inputs]
        t4 = perf_counter()
        self.perturbed = []
        for (word, _), (t, j, e) in zip(self.encoded, self.perturb):
            w = [int(x) for x in word]
            w[t * self.width + j] = (w[t * self.width + j] + e) % self.modulus
            self.perturbed.append(w)
        t5 = perf_counter()
        self.syndromes = [self.former.form(w)[0]
                          for w in [w for w, _ in self.encoded] + self.perturbed]
        t6 = perf_counter()
        self.build_s = (t1 - t0, t2 - t1)
        self.stream_s = (t4 - t3) + (t6 - t5)
        self.encode_symbols = WORDS_PER_OP * self.axis
        self.form_symbols = 2 * WORDS_PER_OP * self.axis
        self.symbols = self.encode_symbols + self.form_symbols

    def memory_excess(self) -> int:
        return max(0, self.former.memory - self.encoder.memory)

    def check(self) -> list[str]:
        bad = []
        code, M = self.code, self.modulus
        dual_code = self.gc.codes.dual(code)
        dual_rows = [[int(x) for x in row] for row in dual_code.carrier.basis]
        rows = reference.window_rows(M, self.width, (self.taps,), self.axis)
        ref_order = reference.order(M, rows)
        # the dual rows below decide membership, so the dual must be whole
        if dual_code.order() * ref_order != M ** (self.width * self.axis):
            bad.append("dual order times the sympy order is not M^n")
        if prod(g.order() for g in self.encoder.input_groups) != ref_order:
            bad.append("input-group orders do not multiply to the sympy order")
        if code.order() != ref_order:
            bad.append("code order disagrees with sympy")
        for word, trace in self.encoded:
            if not code.contains(word) or not reference.is_member(word, dual_rows, M):
                bad.append("encoded word is not a codeword")
                continue
            states = [self.encoder.observer.observe_codeword(word, k)
                      for k in range(self.axis)]
            if states != trace.states():
                bad.append("encoder states differ from the state observer's")
        n = len(self.encoded)
        for i, syn in enumerate(self.syndromes):
            word = self.encoded[i][0] if i < n else self.perturbed[i - n]
            expect_zero = reference.is_member(word, dual_rows, M)
            if i < n and not expect_zero:
                continue  # already reported above
            if expect_zero != all(not any(c) for c in syn):
                bad.append("syndromes disagree with membership")
        # ObserverEncoder takes its memory from machine_memory(code)
        if self.former.memory != self.encoder.memory:
            bad.append(f"{MEMORY_FAULT} {self.former.memory}, machine memory "
                       f"{self.encoder.memory}")
        return bad


class MachinesWorkload:
    trace_rounds = 2

    def __init__(self, gc, workdir: Path, seed: int):
        self.gc, self.workdir, self.seed = gc, workdir, seed

    def draw(self, r: int) -> list:
        rng = Random(f"{self.seed}:{r}")
        specs = list(MACHINES_FIXED)
        specs += [(M, w, n, random_taps(rng, M, w, k)) for M, w, n, k in MACHINES_SHAPES]
        out = []
        for M, w, n, taps in specs:
            # a perturbation per word: (time, coordinate, nonzero offset)
            perturb = [(rng.randrange(n), rng.randrange(w), rng.randrange(1, M))
                       for _ in range(WORDS_PER_OP)]
            out.append((M, w, n, taps, rng.randrange(1 << 30), perturb))
        return out

    def prepare(self, item, tag: str) -> MachinesOp:
        return MachinesOp(self.gc, self.workdir / f"{tag}.code", *item)


WORKLOADS = {
    "analyze": AnalyzeWorkload,
    "battery": BatteryWorkload,
    "machines": MachinesWorkload,
}
