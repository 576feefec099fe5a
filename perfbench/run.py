"""Duality-checked benchmark of groupcodes: analyze, verify-duality, machines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  A run goes round by
round: it draws the round's inputs from the seed, prepares them through the
package (the timed set-up), then times each op of the round on its own, after
an untimed ``gc.collect()`` and with the package's memo caches empty.  It
stops after whole rounds once ``--seconds`` have passed and at least
``MIN_OPS`` ops ran.  Every output is then checked against the duality
theorems or against sympy; an op whose check fails counts as failed.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run runs a fixed number of
rounds with the layers wrapped, and writes its spans under ``.perfbench_out``.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_OPS = 40  # op_tail_ms, the 75th percentile, needs ten ops beyond it
TAIL_PERCENTILE = 75

CHECK_NAMES = (
    "chain-granule-consistency", "conditioned-code-duality", "dual-involution",
    "dual-state-space", "end-around", "granule-duality", "granule-factorization",
    "interval-test-equivalence", "l-finite-l-controllable", "machine-roundtrip",
    "order-duality", "projection-subcode-duality", "restricted-product-duality",
    "state-size-factorization", "state-space-four-way", "subcode-supercode-duality",
    "sum-intersection-duality",
)
# span names whose calls and whose self time are reported
CALLS = ("residues.howell_form", "residues.intersect", "residues.orthogonal",
         "residues.reduce", "snf.lattice_quotient_invariants", "codes.shorten",
         "codes.restriction", "codes.lift_restriction", "dynamics.interval_tests",
         "dynamics.granules")
SELF_MS = ("residues.howell_form", "residues.reduce", "snf.lattice_quotient_invariants",
           "codes.shorten", "dynamics.index_search", "dynamics.granules",
           "specfile.load", "cli") + tuple(f"verify.check.{c}" for c in CHECK_NAMES)


def import_package():
    # one thread: numpy's OpenBLAS would otherwise start a pool thread for
    # each further CPU when it loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import groupcodes
        import groupcodes.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import groupcodes from {src}: {e}")
    if not Path(groupcodes.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: groupcodes was imported from "
                         f"{groupcodes.__file__}, not from {src}")
    return groupcodes


def measure(workload, seconds: float, rounds: int | None, caches, tracer=None):
    """Run whole rounds; return (set-up time of each unit, op records, peak
    RSS in MB).

    Each unit is prepared after an untimed ``gc.collect()`` and with the
    caches empty, and its set-up is timed on its own.

    An op record is (seconds, unit, op).  The caches' hits and misses are
    counted over the ops only, not over the set-up.  The peak RSS is read
    after the first round, so that it does not grow with the number of
    rounds whose outputs wait for their checks.
    """
    setup_s, records, peak_rss_mb = [], [], 0.0
    start = perf_counter()
    r = 0
    while True:
        items = workload.draw(r)
        if tracer is not None:
            tracer.op = -1  # the set-up is not traced
        units = []
        for i, item in enumerate(items):
            caches.clear(count=False)
            gc.collect()
            t0 = perf_counter()
            units.append(workload.prepare(item, f"r{r}u{i}"))
            setup_s.append(perf_counter() - t0)
        caches.clear(count=False)
        for unit in units:
            for op in unit.ops:
                gc.collect()
                if tracer is not None:
                    tracer.op = len(records)
                t0 = perf_counter()
                op.run()
                records.append((perf_counter() - t0, unit, op))
                caches.clear()
        if r == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        r += 1
        if rounds is not None:
            if r == rounds:
                break
        elif perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
    return setup_s, records, peak_rss_mb


def check(records) -> tuple[set[int], bool]:
    """Check every unit; return the indices of the failed ops (every op of a
    unit whose check fails) and whether all failures are known faults."""
    failed, known = set(), True
    units = {}
    for i, (_, unit, _) in enumerate(records):
        units.setdefault(id(unit), (unit, []))[1].append(i)
    for unit, idxs in units.values():
        try:
            problems = unit.check()
        except Exception as e:  # a check that cannot finish rejects its op
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failed.update(idxs)
            fault = getattr(unit, "known_fault", None)
            if fault is None or any(not p.startswith(fault) for p in problems):
                known = False
                print(f"perfbench: check failed: {'; '.join(problems)}",
                      file=sys.stderr)
    return failed, known


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, setup_s, records, peak_rss_mb: float) -> dict:
    times = [t for t, _, _ in records]
    symbols = sum(op.symbols for _, _, op in records)
    # machines: symbols through encode and form per second of streaming time;
    # the others: time-axis symbols of the codes taken in per second of op time
    stream_s = (sum(op.stream_s for _, _, op in records) if name == "machines"
                else sum(times))
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "op_tail_ms": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "stream_symbols_per_s": metric(symbols / stream_s, "1/s"),
    }


def per_layer(tracer, caches, records) -> dict:
    from spans import CACHES
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    get = lambda key: s.get(key, empty)  # noqa: E731
    out = {}
    for key in CALLS:
        out[f"{key}.calls"] = metric(get(key)["calls"], "count")
    out["residues.howell_form.rows"] = metric(tracer.howell_rows, "count")
    for key in SELF_MS:
        out[f"{key}.self_ms"] = metric(1e3 * get(key)["self_s"], "ms")
    for prefix, targets in CACHES.items():
        fns = [getattr(sys.modules[f"groupcodes.{mod}"], attr) for mod, attr in targets]
        out[f"{prefix}.hit_ratio"] = metric(caches.hit_ratio(fns), "ratio")
    for key in ("machines.encoder_build", "machines.syndrome_former_build"):
        d = get(key)["durations"]
        out[f"{key}.ms"] = metric(1e3 * statistics.median(d) if d else 0.0, "ms")
    machine_ops = [op for _, _, op in records if hasattr(op, "encode_symbols")]
    for key, attr in (("machines.encode", "encode_symbols"),
                      ("machines.form", "form_symbols")):
        n = sum(getattr(op, attr) for op in machine_ops)
        out[f"{key}.us_per_symbol"] = metric(
            1e6 * get(key)["total_s"] / n if n else 0.0, "us")
    out["machines.syndrome_former.memory_excess"] = metric(
        sum(op.memory_excess() for op in machine_ops), "count")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pkg = import_package()
    sys.path.insert(0, str(HERE))
    from spans import CacheStats, Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if tuple(sorted(pkg.verify.ALL_CHECKS)) != CHECK_NAMES:
        raise SystemExit(f"perfbench: the battery's checks are now "
                         f"{sorted(pkg.verify.ALL_CHECKS)}; update CHECK_NAMES")

    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](pkg, workdir, args.seed)
        caches = CacheStats(pkg)
        tracer = None
        if args.trace:
            tracer = Tracer(pkg)
            tracer.install(pkg.verify.ALL_CHECKS)
            try:
                setup_s, records, _ = measure(workload, args.seconds,
                                              workload.trace_rounds, caches, tracer)
            finally:
                tracer.uninstall()
        else:
            setup_s, records, peak_rss_mb = measure(workload, args.seconds, None, caches)
        failed, known = check(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for t, _, _ in records]
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops, {len(setup_s)} units set up, op p50 "
          f"{1e3 * statistics.median(times):.1f} ms, op total {sum(times):.3f} s",
          file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-s{args.seed}.json.gz")
        metrics = per_layer(tracer, caches, records)
    else:
        metrics = end_to_end(args.workload, setup_s, records, peak_rss_mb)
    print(json.dumps({"correct": known,
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
