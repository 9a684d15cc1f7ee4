"""Spans at resmatch's module boundaries, recorded from outside the package.

`Tracer.install()` replaces each boundary function with a timing wrapper in
every resmatch module that holds it (for example `resmatch.spectrum.nu` and
`resmatch.cli.spectrum`), so calls between modules and the calls a module
makes to its own public functions open a span.  Spans (name, start, end,
parent, op id) stay in memory until `write()`.  `uninstall()` restores the
original functions.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from collections import Counter

# module -> {function: span name}
BOUNDARIES = {
    "resmatch.graph": {
        "parse_graph_file": "graph.parse", "emit_graph_file": "graph.emit",
        "build_graph": "graph.build", "bipartition": "graph.bipartition",
        "is_connected": "graph.connected", "delete_edges": "graph.delete_edges",
        "degree_profile": "graph.degree_profile",
        "is_valid_bipartition": "graph.is_valid_bipartition",
    },
    "resmatch.matching": {
        "max_matching": "matching.max_matching", "nu": "matching.nu",
        "max_matching_bipartite": "matching.hk", "validate_matching": "matching.validate",
        "matching_from_pairs": "matching.from_pairs",
    },
    "resmatch.colorable": {
        "nu2_bipartite": "colorable.nu2", "upper_bound_L": "colorable.upper_bound_L",
    },
    "resmatch.spectrum": {
        "spectrum": "spectrum.spectrum", "decide_problem1": "spectrum.problem1",
        "approx_trial": "spectrum.approx_trial", "check_bounds": "spectrum.check_bounds",
        "enumerate_maximum_matchings": "spectrum.enumerate",
        "_iter_maximum_matchings": "spectrum.enum", "parse_tolerance": "spectrum.parse_tolerance",
    },
    "resmatch.reduction": {
        "parse_dimacs": "reduction.parse_dimacs", "build_artifact": "reduction.build",
        "verify_artifact": "reduction.verify", "encode_assignment": "reduction.encode",
        "decode_matching": "reduction.decode",
    },
    "resmatch.cli": {"main": "cli.main"},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._residual: dict[int, weakref.ref] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._residual.clear()

    # ----------------------------------------------------------- wrappers

    def _wrap(self, fn, span: str):
        tracer = self
        if span == "spectrum.enum":  # a generator: one span per resumption
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer.open(span)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(sid)
                        tracer.counters[span + ".yielded"] += 1
                        yield item
                finally:
                    gen.close()
        elif span == "matching.nu":
            enum_id = self._id("spectrum.enum")

            def wrapper(g, *args, **kwargs):
                ref = tracer._residual.get(id(g))
                if ref is not None and ref() is g:
                    kind = "residual"
                elif tracer.stack and tracer.name[tracer.stack[-1]] == enum_id:
                    kind = "bound"
                else:
                    kind = "other"
                sid = tracer.open(f"matching.nu.{kind}")
                try:
                    return fn(g, *args, **kwargs)
                finally:
                    tracer.close(sid)
        else:
            def wrapper(*args, **kwargs):
                sid = tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if span == "graph.delete_edges":
                    tracer._residual[id(result)] = weakref.ref(result)
                elif span == "matching.max_matching":
                    tracer.counters["matching.vertices"] += args[0].vertex_count
                    seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
                    tracer.counters["matching.seeded"] += seed != 0
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every boundary function in each resmatch module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "resmatch" or name.startswith("resmatch."))]
        for home, functions in BOUNDARIES.items():
            for fname, span in functions.items():
                fn = getattr(sys.modules[home], fname)
                wrapper = self._wrap(fn, span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------ results

    def summary(self, sid_from: int, sid_to: int) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds, op ids],
        over the spans with ids in [sid_from, sid_to)."""
        child = [0.0] * (sid_to - sid_from)
        for sid in range(sid_from, sid_to):
            p = self.parent[sid]
            if p >= sid_from:
                child[p - sid_from] += self.end[sid] - self.start[sid]
        out: dict[str, list] = {}
        for sid in range(sid_from, sid_to):
            dur = self.end[sid] - self.start[sid]
            row = out.setdefault(self.names[self.name[sid]], [0, 0.0, 0.0, set()])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid - sid_from]
            row[3].add(self.op[sid])
        return out

    def write(self, path: str):
        """Spans as CSV: id, name, start, end, parent, op (seconds on one clock)."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.names[self.name[sid]]},{self.start[sid]:.9f},"
                         f"{self.end[sid]:.9f},{self.parent[sid]},{self.op[sid]}\n")
