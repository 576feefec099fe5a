"""Command-line front end.

Subcommands:

* ``analyze``   state space, memories, granule table, and output chains
* ``dual``      write the dual code as an explicit code-spec file
* ``encode``    drive the observer-form encoder and print the trace
* ``syndrome``  run the syndrome-former over a word and report membership
* ``verify-duality``  randomized check of every supported duality theorem
* ``oracle``    brute-force a quantity by enumeration, for cross-checking

Exit codes: 0 success; 2 parse or usage error; 3 enumeration cap exceeded;
4 internal inconsistency (a bug, never expected).

Output is deterministic: the same file, flags, and seed produce byte-identical
output, and ``--json`` documents re-parse into the same values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from . import dynamics, machines, oracle, specfile, verify
from .codes import dual as dual_code
from .residues import format_group, group_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _fmt(invariants) -> str:
    return f"{format_group(invariants)} (order {group_order(invariants)})"


def _analysis(loaded: specfile.LoadedCode, cut: int | None,
              margin: int | None) -> dict:
    code = loaded.code
    n = code.layout.axis_len
    k = n // 2 if cut is None else cut
    if n < 2:
        raise specfile.SpecFileError("an axis of one time has no interior cut")
    # a value from a flag names the flag; one from the spec file keeps the
    # spec file's terms
    if not 1 <= k <= n - 1:
        bound = f"1 <= cut <= {n - 1}"
        raise specfile.SpecFileError(f"cut must satisfy {bound}" if cut is None
                                     else f"--cut must satisfy {bound}, got {cut}")
    m = margin if margin is not None else (loaded.margin or 0)
    if n - 2 * m < 0:
        raise specfile.SpecFileError(
            "margin leaves no interior" if margin is None
            else f"--margin must be at most {n // 2} on an axis of {n}, got {margin}")
    levels = min(max(m, 1), n - 1)
    state = dynamics.state_at(code, k)
    # F_j/F_{j-1} ~ Gamma_{[t,t+j]} and the chain's Phi read give the granules
    at = {t: dynamics.output_chains(code, t, levels) for t in (k - 1, k)}
    keys = [(t, j) for t in at for j in range(min(levels, n - 1 - t) + 1)]
    chains = at[k]
    return {
        "format_version": specfile.FORMAT_VERSION,
        "name": loaded.name,
        "kind": loaded.kind,
        "modulus": code.layout.modulus,
        "axis": n,
        "widths": list(code.layout.widths),
        "margin": m,
        "code_order": code.order(),
        "code_invariants": list(code.invariants()),
        "cut": k,
        "state": list(state.invariants),
        "state_order": state.order,
        "controller_memory": dynamics.controllability_index(code, m),
        "observer_memory": dynamics.observability_index(code, m),
        "controller_granules": {f"{t},{j}": list(at[t].first_quotients[j])
                                for t, j in keys},
        "observer_granules": {f"{t},{j}": list(at[t].observer_granules[j])
                              for t, j in keys},
        "chains_at_cut": {
            "time": chains.time,
            "first_output_orders": [g.order() for g in chains.first_output],
            "last_output_orders": [g.order() for g in chains.last_output],
            "dual_first_orders": [g.order() for g in chains.dual_first],
            "dual_last_orders": [g.order() for g in chains.dual_last],
            "first_quotients": [list(q) for q in chains.first_quotients],
            "last_quotients": [list(q) for q in chains.last_quotients],
            "dual_first_quotients": [list(q) for q in chains.dual_first_quotients],
            "dual_last_quotients": [list(q) for q in chains.dual_last_quotients],
            "input_group_order": chains.first_output_group.order(),
            "syndrome_group": list(chains.syndrome_group),
        },
    }


def cmd_analyze(args) -> int:
    _at_least(args, margin=0)
    loaded = specfile.load(args.file)
    report = _analysis(loaded, args.cut, args.margin)
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(f"code: {report['name'] or args.file} ({report['kind']}), "
          f"modulus {report['modulus']}, axis {report['axis']}, "
          f"widths {report['widths']}")
    print(f"order: {report['code_order']} "
          f"({format_group(report['code_invariants'])})")
    print(f"state at cut {report['cut']}: {_fmt(report['state'])}")
    cm, om = report["controller_memory"], report["observer_memory"]
    print(f"controller memory (margin {report['margin']}): "
          f"{cm if cm is not None else 'none'}")
    print(f"observer memory   (margin {report['margin']}): "
          f"{om if om is not None else 'none'}")
    print("controller granules (time,level):")
    for key, v in report["controller_granules"].items():
        print(f"  [{key}] {format_group(v)}")
    print("observer granules (time,level):")
    for key, v in report["observer_granules"].items():
        print(f"  [{key}] {format_group(v)}")
    ch = report["chains_at_cut"]
    print(f"chains at time {ch['time']}:")
    print(f"  first-output orders  {ch['first_output_orders']}")
    print(f"  last-output orders   {ch['last_output_orders']}")
    print(f"  input group order    {ch['input_group_order']}")
    print(f"  syndrome group       {format_group(ch['syndrome_group'])}")
    return EXIT_OK


def cmd_dual(args) -> int:
    loaded = specfile.load(args.file)
    text = specfile.dumps_explicit(dual_code(loaded.code),
                                   name=f"dual of {loaded.name}" if loaded.name else "dual")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_encode(args) -> int:
    loaded = specfile.load(args.file)
    enc = machines.ObserverEncoder(loaded.code)
    if args.inputs:
        raw = specfile.parse_json(Path(args.inputs).read_text(), "inputs file")
        if not isinstance(raw, list):
            raise specfile.SpecFileError("inputs file must be a JSON list")
        inputs = [tuple(v) if isinstance(v, list) else (v,) for v in raw]
        if not all(specfile._is_int(x) for v in inputs for x in v):
            raise specfile.SpecFileError(
                "each input must be an int or a list of ints")
    else:
        inputs = enc.random_inputs(Random(args.random))
    word, trace = enc.encode(inputs)
    payload = {
        "format_version": specfile.FORMAT_VERSION,
        "codeword": word,
        "symbols": [list(s) for s in loaded.code.layout.split_symbols(word)],
        "trace": trace.to_dict(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("codeword:", " ".join(map(str, word)))
        for step in trace.steps:
            print(f"  t={step.time} state={step.state} input={step.inp} "
                  f"symbol={step.symbol}")
    return EXIT_OK


def cmd_syndrome(args) -> int:
    loaded = specfile.load(args.file)
    word = specfile.load_word(args.word, loaded.code.layout.total_dim,
                              loaded.code.layout.modulus)
    sf = machines.SyndromeFormer(loaded.code)
    syndromes, trace = sf.form(word)
    member = all(not any(c) for c in syndromes)
    if args.json:
        print(json.dumps({"format_version": specfile.FORMAT_VERSION,
                          "syndromes": [list(s) for s in syndromes],
                          "member": member,
                          "trace": trace.to_dict()}, indent=2))
    else:
        for k, s in enumerate(syndromes):
            print(f"  t={k} syndrome={s}")
        print("MEMBER" if member else "NOT A MEMBER")
    return EXIT_OK


def _at_least(args, **bounds: int) -> None:
    """Reject a count flag below its bound, naming the flag."""
    for name, low in bounds.items():
        value = getattr(args, name)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise specfile.SpecFileError(f"{flag} must be >= {low}, got {value}")


def cmd_verify_duality(args) -> int:
    _at_least(args, trials=0, max_axis=2, max_width=1)
    # a drawn code holds up to max_axis * max_width coordinates, so sizes
    # past an index are refused before anything is drawn
    for name in ("max_axis", "max_width"):
        if getattr(args, name) > sys.maxsize:
            raise specfile.SpecFileError(f"--{name.replace('_', '-')} must be at most "
                                         f"{sys.maxsize}, got {getattr(args, name)}")
    if args.max_axis * args.max_width > sys.maxsize:
        raise specfile.SpecFileError(f"--max-axis times --max-width must be at most "
                                     f"{sys.maxsize}, got {args.max_axis * args.max_width}")
    try:
        moduli = tuple(int(tok) for tok in args.modulus_set.split(","))
    except ValueError:
        moduli = ()
    if not moduli or min(moduli) < 2:
        raise specfile.SpecFileError("--modulus-set must be a comma-separated list "
                                     f"of ints >= 2, got {args.modulus_set!r}")
    summary = verify.run_trials(seed=args.seed, trials=args.trials,
                                moduli=moduli, max_axis=args.max_axis,
                                max_width=args.max_width)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(f"seed {summary.seed}, {summary.trials} trials")
        for name, count in sorted(summary.checks_run.items()):
            print(f"  {name}: {count} checks")
        if summary.ok:
            print("all theorems hold")
        else:
            print(f"{len(summary.failures)} FAILURES")
            for f in summary.failures:
                print(json.dumps(f.to_dict()))
    return EXIT_OK if summary.ok else EXIT_INTERNAL


def cmd_oracle(args) -> int:
    _at_least(args, at=0, level=0, cap=1)
    loaded = specfile.load(args.file)
    code = loaded.code
    q = args.quantity
    if q == "order":
        value = len(oracle.code_elements(code, args.cap))
    elif q == "dual-order":
        value = len(oracle.dual_elements(code, args.cap))
    elif q == "state-count":
        if args.cut is None:
            raise specfile.SpecFileError("state-count needs --cut")
        n = code.layout.axis_len
        if not 0 <= args.cut <= n:
            raise specfile.SpecFileError(f"--cut must satisfy 0 <= cut <= {n}, got {args.cut}")
        value = oracle.state_count(code, args.cut, args.cap)
    elif q in ("controller-granule", "observer-granule"):
        if args.at is None or args.level is None:
            raise specfile.SpecFileError(f"{q} needs --at and --level")
        last = args.at + args.level
        if last > code.layout.axis_len - 1:
            raise specfile.SpecFileError(
                f"--at + --level must be <= {code.layout.axis_len - 1}, got {last}")
        elems = oracle.code_elements(code, args.cap)
        times = list(range(args.at, last + 1))
        if q == "controller-granule":
            value = list(oracle.controller_granule(code, elems, times, args.at, last))
        else:
            value = list(oracle.observer_granule(code, elems, times, args.at, last,
                                                 args.cap))
    else:  # pragma: no cover - argparse restricts choices
        raise specfile.SpecFileError(f"unknown quantity {q}")
    print(json.dumps({"quantity": q, "value": value}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groupcodes",
        description="exact duality and dynamics analysis for group codes over Z_M")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="state space, memories, granules, chains")
    a.add_argument("file")
    a.add_argument("--cut", type=int, default=None, help="cut time (default: center)")
    a.add_argument("--margin", type=int, default=None,
                   help="interior margin for index searches")
    a.add_argument("--json", action="store_true")
    a.set_defaults(fn=cmd_analyze)

    d = sub.add_parser("dual", help="write the dual code as an explicit spec")
    d.add_argument("file")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_dual)

    e = sub.add_parser("encode", help="run the observer-form encoder")
    e.add_argument("file")
    e.add_argument("--inputs", default=None, help="JSON list of per-time inputs")
    e.add_argument("--random", type=int, default=0, help="seed for random inputs")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_encode)

    s = sub.add_parser("syndrome", help="syndrome-form a word and test membership")
    s.add_argument("file")
    s.add_argument("--word", required=True, help="file holding the word")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_syndrome)

    v = sub.add_parser("verify-duality", help="randomized duality theorem suite")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--modulus-set", default="2,3,4")
    v.add_argument("--max-axis", type=int, default=6)
    v.add_argument("--max-width", type=int, default=2)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify_duality)

    o = sub.add_parser("oracle", help="brute-force a quantity by enumeration")
    o.add_argument("file")
    o.add_argument("--quantity", required=True,
                   choices=["order", "dual-order", "state-count",
                            "controller-granule", "observer-granule"])
    o.add_argument("--cut", type=int, default=None)
    o.add_argument("--at", type=int, default=None)
    o.add_argument("--level", type=int, default=None)
    o.add_argument("--cap", type=int, default=oracle.DEFAULT_ELEMENT_CAP)
    o.set_defaults(fn=cmd_oracle)
    return p


# built once per process: parsing leaves it unchanged, and in-process callers
# run ``main`` many times
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (specfile.SpecFileError, OSError, ValueError,
            machines.InputNotInInputGroup,
            machines.WindowNotInRestriction) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except dynamics.InternalInconsistency as e:
        print(f"internal inconsistency (bug): {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
