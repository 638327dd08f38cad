"""Spans around the public functions of each `bdm` module, installed from
outside the package.

A span records name, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out once, when the run ends.  A
function is wrapped once and the wrapper is bound under every `bdm.*`
namespace that holds the original, because `solver`, `model`, `oracle` and
`cli` import names from the modules that define them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) -> counter fed from the result, if any
TARGETS = {
    ("algebra", "algebra_over"): None,
    ("algebra", "generated_subalgebra"): None,
    ("algebra", "find_isomorphism_over"): None,
    ("algebra", "compose_refinements"): None,
    ("terms", "eval_formula"): None,
    ("solver", "sigma_consistent_triples"): ("triples", len),
    ("solver", "witness_abstract"): None,
    ("solver", "triple_of_element"): None,
    ("solver", "witness_via_four_power"): None,
    ("solver", "realizations"): None,
    ("model", "ec_stage"): ("realizers", lambda stage: len(stage.realizers)),
    ("model", "find_matching_element"): None,
    ("model", "EcStage.realizer"): None,
    ("oracle", "find_realizer"): None,
    ("oracle", "oracle_witness_search"): None,
    ("textio", "format_stage"): ("bytes", lambda text: len(text.encode())),
    ("textio", "format_witness"): None,
    ("textio", "parse_algebra"): None,
    ("textio", "parse_triple"): None,
    ("textio", "parse_element"): None,
    ("cli", "main"): None,
}
CACHED = ("solver", "witness_abstract")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self._cached = None
        self._cache_base = (0, 0)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self.name_id(name)
        stack, perf = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_ids.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded `bdm` module that binds it.  A
        module that is not loaded has no callers to trace."""
        modules = [m for key, m in sys.modules.items() if key == "bdm" or key.startswith("bdm.")]
        self._cached = getattr(sys.modules[f"bdm.{CACHED[0]}"], CACHED[1])
        for (module, attr), counter in TARGETS.items():
            home = sys.modules.get(f"bdm.{module}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(span_name(module, attr), fn, counter))
                continue
            self._rebind(modules, getattr(home, attr),
                         self.wrap(span_name(module, attr), getattr(home, attr), counter))
        scan = sys.modules["bdm.oracle"].element_type_scan
        self._rebind(modules, scan, self._count_scan(scan))
        self._cache_base = self.cache_counts()

    def _rebind(self, modules, fn, wrapper):
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._restore.append((m, key, fn))
                    setattr(m, key, wrapper)

    def _count_scan(self, scan):
        """The element scan is a generator, so it gets a counter, not a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            for chunk in scan(*args, **kwargs):
                counts["oracle.elements_scanned"] += len(chunk[0])
                yield chunk

        return counted

    def uninstall(self):
        self.finish_cache()
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def cache_counts(self) -> tuple[int, int]:
        """Hits and misses of the witness cache, or zeros when the function
        carries no cache."""
        info = getattr(self._cached, "cache_info", None)
        if info is None:
            return 0, 0
        i = info()
        return i.hits, i.misses

    def finish_cache(self):
        hits, misses = self.cache_counts()
        self.counts["solver.witness_abstract.hits"] += hits - self._cache_base[0]
        self.counts["solver.witness_abstract.misses"] += misses - self._cache_base[1]
        self._cache_base = (hits, misses)

    # -- merging and output ------------------------------------------------

    def write(self, path):
        """One JSON header line, then the five span arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.start)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op_ids):
                arr.tofile(f)

    def merge(self, path, op: int):
        """Append the spans written by another process under op id op."""
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            n = header["spans"]
            arrays = []
            for code in "iddii":
                arr = array(code)
                arr.fromfile(f, n)
                arrays.append(arr)
        name, start, end, parent, _ = arrays
        offset = len(self.start)
        ids = [self.name_id(x) for x in header["names"]]
        self.name.extend(ids[k] for k in name)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.op_ids.extend([op] * n)
        for key, value in header["counts"].items():
            self.counts[key] += value

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name; self time is a span's duration
        minus the durations of its children, which nest inside it."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        for k in range(n):
            row = out[self.names[self.name[k]]]
            row["calls"] += 1
            row["self_s"] += self.end[k] - self.start[k] - child[k]
        return out
