"""Run-time span tracer for orient2's layer boundaries.

`Tracer.installed()` rebinds each layer function listed in `LAYERS` in
every ``orient2`` module that holds it (the defining module and every
module that imported it by name), plus ``Graph.__init__``, and restores
the originals on exit.  Nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent) in compact
arrays kept until the tracer is dropped, and adds to per-name counters:
calls, inclusive seconds and self seconds (span time minus the time its
child spans cover).  A few boundaries also count what their return value
says: certificate hits, kernel search nodes, naive orientations, and the
moves and recipes of each construction trace.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Iterator

from orient2.graphs import Graph

# (span name, defining module, attribute, result hook name or None)
LAYERS: tuple[tuple[str, str, str, str | None], ...] = (
    ("graphs.complement", "orient2.graphs", "complement", None),
    ("graphs.components", "orient2.graphs", "components", None),
    ("graphs.diameter", "orient2.graphs", "diameter", None),
    ("codec.parse_graph", "orient2.codec", "parse_graph", None),
    ("codec.emit", "orient2.codec", "emit_orientation", None),
    ("codec.emit", "orient2.codec", "emit_graph6", None),
    ("certs.split_cert", "orient2.certs", "split_cert", "hit"),
    ("certs.combine", "orient2.certs", "combine", None),
    ("structure.find_reduction", "orient2.structure", "find_reduction", "hit"),
    ("structure.find_violating_triple", "orient2.structure", "find_violating_triple", "hit"),
    ("structure.classify_component", "orient2.structure", "classify_component", None),
    ("construct.orient_diameter_two", "orient2.construct", "orient_diameter_two", "trace"),
    ("construct.base_case", "orient2.construct", "_base_case_with_family", None),
    ("construct.contract", "orient2.construct", "_contract_reduction", None),
    ("construct.contract", "orient2.construct", "_contract_triple", None),
    ("construct.expand", "orient2.construct", "expand_reduction", None),
    ("construct.expand", "orient2.construct", "expand_triple_contraction", None),
    ("oracle.enumerate_blue", "orient2.oracle", "enumerate_blue", "generator"),
    ("oracle.canonical_form", "orient2.oracle", "canonical_form", None),
    ("kernel.solve", "orient2._backend", "solve_bounded_diameter", "nodes"),
    ("kernel.naive", "orient2._backend", "naive_min_diameter", "orientations"),
    ("cli.orient", "orient2.cli", "cmd_orient", None),
)
GRAPH_NEW = "graphs.Graph.new"


def tally_trace(entries: list[dict], counts: Counter) -> None:
    """Add one construction trace (its ``to_json()`` form) to ``counts``."""
    levels = 0
    for entry in entries:
        counts[f"construct.moves.{entry['kind']}"] += 1
        if entry["kind"] != "pad":
            levels += 1
        if entry["kind"] == "reduce":
            counts[f"construct.recipe.{entry['recipe']}"] += 1
    counts["construct.levels.sum"] += levels
    counts["construct.levels.max"] = max(counts["construct.levels.max"], levels)


class Tracer:
    """Spans and counters for one traced stretch of work."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, child seconds]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, start, 0.0])
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        _, start, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _on_result(self, hook: str | None, name: str, args: tuple, result: Any) -> None:
        if hook == "hit":
            if result is not None:
                self.counts[f"{name}.hits"] += 1
        elif hook == "nodes":
            self.counts["kernel.solve.nodes"] += result[2]
        elif hook == "orientations":
            self.counts["kernel.naive.orientations"] += 1 << len(args[1])
        elif hook == "trace":
            tally_trace(result[1].to_json(), self.counts)

    def wrap(self, name: str, fn: Callable, hook: str | None) -> Callable:
        nid = self._id(name)
        tracer = self
        if hook == "generator":
            # time spent inside next(), not in the consumer's loop body
            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[f"{name}.graphs"] += 1
                    yield item

            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._on_result(hook, name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        undo: list[tuple[object, str, object]] = []
        modules = [m for k, m in list(sys.modules.items()) if k == "orient2" or k.startswith("orient2.")]
        try:
            for name, home, attr, hook in LAYERS:
                original = getattr(sys.modules[home], attr)
                wrapper = self.wrap(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            undo.append((Graph, "__init__", Graph.__init__))
            Graph.__init__ = self.wrap(GRAPH_NEW, Graph.__init__, None)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def nested_calls(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that ran inside a span named ``ancestor``."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        found = 0
        for idx, nid in enumerate(self.span_name):
            if nid != cid:
                continue
            parent = self.span_parent[idx]
            while parent >= 0:
                if self.span_name[parent] == aid:
                    found += 1
                    break
                parent = self.span_parent[parent]
        return found

    def summary(self) -> Counter:
        """Flat per-name totals: ``<name>.calls``, ``.s``, ``.self_s`` plus counters."""
        out = Counter(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] += self.calls[nid]
            out[f"{name}.s"] += self.total_s[nid]
            out[f"{name}.self_s"] += self.self_s[nid]
        out["structure.find_reduction.certs"] += self.nested_calls(
            "certs.split_cert", "structure.find_reduction"
        )
        return out

