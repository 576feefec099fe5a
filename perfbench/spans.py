"""Per-layer tracing of groupcodes from outside the package.

``Tracer.install`` wraps the public functions behind the per-layer metrics.
A name bound by ``from ... import`` is a separate binding in each module, so
every module of the package that binds the same function object gets the
wrapper.  Each call records a span (name, start, end, parent span, op id) in
flat arrays, while ``op`` is set to the index of the op being run;
``uninstall`` puts the original objects back.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes wrap a method
TARGETS = (
    ("residues", "howell_form", "residues.howell_form"),
    ("residues", "intersect", "residues.intersect"),
    ("residues", "orthogonal", "residues.orthogonal"),
    ("residues", "Subgroup.reduce", "residues.reduce"),
    ("snf", "lattice_quotient_invariants", "snf.lattice_quotient_invariants"),
    ("codes", "shorten", "codes.shorten"),
    ("codes", "restriction", "codes.restriction"),
    ("codes", "lift_restriction", "codes.lift_restriction"),
    ("dynamics", "controllability_tests", "dynamics.interval_tests"),
    ("dynamics", "observability_tests", "dynamics.interval_tests"),
    ("dynamics", "controllability_index", "dynamics.index_search"),
    ("dynamics", "observability_index", "dynamics.index_search"),
    ("dynamics", "controller_granule", "dynamics.granules"),
    ("dynamics", "observer_granule", "dynamics.granules"),
    ("dynamics", "controller_granule_on", "dynamics.granules"),
    ("dynamics", "end_around_controller_granule", "dynamics.granules"),
    ("dynamics", "end_around_observer_granule", "dynamics.granules"),
    ("machines", "ObserverEncoder.__init__", "machines.encoder_build"),
    ("machines", "SyndromeFormer.__init__", "machines.syndrome_former_build"),
    ("machines", "ObserverEncoder.encode", "machines.encode"),
    ("machines", "SyndromeFormer.form", "machines.form"),
    ("specfile", "load", "specfile.load"),
    ("cli", "main", "cli"),
)

# lru_cache'd functions whose hit ratios are reported, by metric prefix
CACHES = {
    "codes.shorten": (("codes", "shorten"),),
    "codes.dual": (("codes", "dual"),),
    "dynamics.memo": (("dynamics", "controllable_subcode"),
                      ("dynamics", "observable_supercode")),
}


def package_modules(pkg) -> list:
    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(prefix))]


def cached_functions(pkg) -> list:
    """Every lru_cache'd function defined in the package."""
    out, seen = [], set()
    for mod in package_modules(pkg):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and id(value) not in seen:
                seen.add(id(value))
                out.append(value)
    return out


class CacheStats:
    """Hit and miss totals that survive ``cache_clear`` between ops."""

    def __init__(self, pkg):
        self.functions = cached_functions(pkg)
        self.totals = {id(f): [0, 0] for f in self.functions}

    def clear(self, count: bool = True) -> None:
        """Empty every cache, adding its hits and misses to the totals if
        ``count``."""
        for f in self.functions:
            if count:
                info = f.cache_info()
                tot = self.totals[id(f)]
                tot[0] += info.hits
                tot[1] += info.misses
            f.cache_clear()

    def hit_ratio(self, functions) -> float:
        hits = sum(self.totals[id(f)][0] for f in functions)
        misses = sum(self.totals[id(f)][1] for f in functions)
        return hits / (hits + misses) if hits + misses else 0.0


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.howell_rows = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        tracer = self
        count_rows = name == "residues.howell_form"

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            if count_rows:
                tracer.howell_rows += args[1].shape[0]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, checks: dict) -> None:
        """Wrap every target, and each theorem check in ``checks`` in place."""
        mods = package_modules(self.pkg)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for mod_name, attr, name in TARGETS:
            owner = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for check_name, fn in list(checks.items()):
            wrapper = self._wrap(f"verify.check.{check_name}", fn)
            self._undo.append((checks, check_name, fn))
            checks[check_name] = wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time, self time, and each duration."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
               for name in self.names}
        for i in range(n):
            s = out[self.names[self.span_name[i]]]
            # a span nested in one of its own name is not a new entry to the layer
            p = self.span_parent[i]
            if p < 0 or self.span_name[p] != self.span_name[i]:
                s["calls"] += 1
                s["total_s"] += dur[i]
                s["durations"].append(dur[i])
            s["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "op"],
               "spans": [list(self.span_name), list(self.span_start),
                         list(self.span_end), list(self.span_parent),
                         list(self.span_op)]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
