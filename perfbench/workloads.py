"""The four workloads: seeded inputs, the timed program calls, the checks.

A workload is split into passes.  ``make(rng, index)`` draws one pass's
inputs from the workload's seeded generator, ``run(inputs, clock)`` makes
the program calls of that pass and times each one with ``clock``, and
``check(inputs, out)``
verifies every result independently of the program and reduces it to a
digest of exact counts (orientations, trace tallies, kernel nodes,
instance counts) that must not change when the pass is traced.

Results are checked with the helpers at the top of this file, not with
the program's own verifiers, so a bug in ``orient2.graphs`` cannot hide
a wrong answer.
"""

from __future__ import annotations

import io
import json
import random
import sys
import zlib
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations

import bench_backends
import orient2
import orient2.cli
from orient2.graphs import Graph, is_bridgeless, is_connected

from tracer import tally_trace


@dataclass
class PassResult:
    """One pass: per-call latencies, item count, checks and exact digest.

    ``scale`` converts this pass's raw seconds to calibrated seconds.
    """

    latencies: list[float]
    items: int
    attempted: int = 0
    failed: int = 0
    digest: tuple = ()
    parts: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def calibrated_s(self) -> float:
        return self.seconds * self.scale


# ---------------------------------------------------------------------------
# independent checks and input generation


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_diameter2_orientation(g: Graph, arcs) -> bool:
    """``arcs`` orient every edge of ``g`` exactly once, with diameter <= 2."""
    n = g.n
    out = [0] * n
    covered = set()
    for u, v in arcs:
        key = (u, v) if u < v else (v, u)
        if u == v or not (0 <= u < n and 0 <= v < n) or not g.adj[u] >> v & 1 or key in covered:
            return False
        covered.add(key)
        out[u] |= 1 << v
    if len(covered) * 2 != sum(row.bit_count() for row in g.adj):
        return False
    full = (1 << n) - 1
    for u in range(n):
        reach = out[u] | 1 << u
        for v in _bits(out[u]):
            reach |= out[v]
        if reach != full:
            return False
    return True


def arcs_digest(arcs) -> int:
    return zlib.crc32(repr(sorted(map(tuple, arcs))).encode())


def threshold_instance(rng: random.Random, n: int, surplus: int = 0) -> Graph:
    """Complement of a uniform random blue graph with ``n - 5 - surplus`` edges."""
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    blue = [0] * n
    for u, v in rng.sample(pairs, n - 5 - surplus):
        blue[u] |= 1 << v
        blue[v] |= 1 << u
    return Graph(n, tuple(full & ~blue[u] & ~(1 << u) for u in range(n)))


def random_bridgeless(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if is_connected(g) and is_bridgeless(g):
            return g


def _timed(clock, fn, *args):
    start = clock()
    result = fn(*args)
    return result, clock() - start


# ---------------------------------------------------------------------------
# orient-scale


class OrientScale:
    """`orient_diameter_two` on one random threshold instance per order."""

    name = "orient-scale"
    orders = (20, 24, 28, 32)
    trace_passes = 10

    def make(self, rng: random.Random, index: int) -> list[Graph]:
        return [threshold_instance(rng, n) for n in self.orders]

    def run(self, graphs: list[Graph], clock) -> list:
        out = []
        for g in graphs:
            start = clock()
            try:
                result = orient2.orient_diameter_two(g)
            except Exception as exc:  # a crash is one failed operation
                result = exc
            out.append((result, clock() - start))
        return out

    def check(self, graphs: list[Graph], out: list) -> PassResult:
        res = PassResult([t for _, t in out], items=len(graphs), attempted=len(graphs))
        digest = []
        for g, (result, _) in zip(graphs, out):
            if isinstance(result, Exception):
                res.failed += 1
                digest.append((g.n, "error"))
                continue
            orientation, trace = result
            arcs = orientation.dir.arcs()
            if orientation.base != g or not is_diameter2_orientation(g, arcs):
                res.failed += 1
            counts: Counter = Counter()
            tally_trace(trace.to_json(), counts)
            digest.append((g.n, arcs_digest(arcs), tuple(sorted(counts.items()))))
        res.digest = tuple(digest)
        return res


# ---------------------------------------------------------------------------
# cli-batch


class CliBatch:
    """`orient2 orient --trace` through `cli.main` on seeded graph6 batches.

    A pass is two calls of 12 lines each on stdin, one with ``--json``
    output and one with the default digraph6 output, so both emitters run.
    """

    name = "cli-batch"
    lines = 12
    trace_passes = 10

    def make(self, rng: random.Random, index: int) -> list[tuple[bool, list[Graph], str]]:
        batches = []
        for as_json in (True, False):
            graphs = []
            for _ in range(self.lines):
                n = rng.randint(8, 30)
                surplus = rng.choice((0, 0, 0, 0, 1, 2))
                graphs.append(threshold_instance(rng, n, surplus))
            text = "".join(orient2.emit_graph6(g) + "\n" for g in graphs)
            batches.append((as_json, graphs, text))
        return batches

    def run(self, batches, clock) -> list:
        return [self._call(clock, as_json, text) for as_json, _, text in batches]

    @staticmethod
    def _call(clock, as_json: bool, text: str) -> tuple:
        argv = ["orient", "--trace"] + (["--json"] if as_json else [])
        captured = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        start = clock()
        try:
            with redirect_stdout(captured):
                code = orient2.cli.main(argv)
        except Exception as exc:  # a crash fails every line without output
            code = exc
        finally:
            elapsed = clock() - start
            sys.stdin = stdin
        return code, captured.getvalue(), elapsed

    def check(self, batches, out: list) -> PassResult:
        res = PassResult([elapsed for _, _, elapsed in out], items=0)
        digest = []
        for (as_json, graphs, _), (code, text, _) in zip(batches, out):
            records = _json_records(text) if as_json else _digraph6_records(text)
            failed = 0
            lines = []
            for i, g in enumerate(graphs):
                if i >= len(records):  # the CLI stops a batch at its first failure
                    failed += 1
                    continue
                arcs, entries = records[i]
                if arcs is None or not is_diameter2_orientation(g, arcs):
                    failed += 1
                    continue
                counts: Counter = Counter()
                tally_trace(entries, counts)
                lines.append((arcs_digest(arcs), tuple(sorted(counts.items()))))
            if code != 0 and failed == 0:
                failed = 1
            res.items += len(graphs)
            res.attempted += len(graphs)
            res.failed += failed
            digest.append((code if isinstance(code, int) else "error", tuple(lines)))
        res.digest = tuple(digest)
        return res


def _json_records(text: str) -> list:
    records = []
    for line in text.splitlines():
        try:
            payload = json.loads(line)
            records.append(([tuple(a) for a in payload["arcs"]], payload["trace"]))
        except (ValueError, KeyError, TypeError):
            records.append((None, []))
    return records


def _digraph6_arcs(line: str):
    """Arcs of a digraph6 line (``&`` + order byte + adjacency bits), or None."""
    if len(line) < 2 or line[0] != "&" or not 63 <= ord(line[1]) <= 125:
        return None
    n = ord(line[1]) - 63
    bits = []
    for ch in line[2:]:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            return None
        bits.extend(value >> (5 - k) & 1 for k in range(6))
    if len(bits) < n * n:
        return None
    return [(u, v) for u in range(n) for v in range(n) if bits[u * n + v]]


def _digraph6_records(text: str) -> list:
    records = []
    for line in text.splitlines():
        if line.startswith("# "):
            if not records:
                return [(None, [])]
            try:
                records[-1][1].append(json.loads(line[2:]))
            except ValueError:
                records[-1] = (None, [])
        else:
            records.append((_digraph6_arcs(line), []))
    return records


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """`verify_theorem` at n = 10 and 11: every threshold instance of each order.

    The sweep is exhaustive, so its inputs do not depend on the seed.
    """

    name = "sweep"
    expected = {10: 46, 11: 113}
    trace_passes = 1

    def make(self, rng: random.Random, index: int) -> tuple[int, ...]:
        return tuple(self.expected)

    def run(self, orders: tuple[int, ...], clock) -> list:
        return [_timed(clock, orient2.verify_theorem, n) for n in orders]

    def check(self, orders: tuple[int, ...], out: list) -> PassResult:
        res = PassResult([t for _, t in out], items=0)
        digest = []
        for n, (report, _) in zip(orders, out):
            res.items += report.instances_checked
            res.attempted += self.expected[n]
            bad = len(report.failures) + report.fallback_count
            bad += report.instances_checked != self.expected[n]
            res.failed += min(bad, self.expected[n])
            digest.append((n, report.instances_checked, len(report.failures), report.fallback_count))
        res.digest = tuple(digest)
        return res


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """The exact oracle and the naive cross-check on the kernel instances.

    Exact part: sharpness at n = 5..9 (the decision behind
    `verify_sharpness`, with its node count), Petersen, and one random
    bridgeless graph per order 12, 14, ..., 20.  Naive part: the fixed
    18-edge seven-vertex graph and one random seven-vertex graph per edge
    count 14..17, each cross-checked against the exact oracle.
    """

    name = "oracle"
    sharpness_orders = (5, 6, 7, 8, 9)
    exact_orders = (12, 14, 16, 18, 20)
    naive_sizes = (14, 15, 16, 17)
    trace_passes = 1

    def make(self, rng: random.Random, index: int) -> dict:
        pairs7 = list(combinations(range(7), 2))
        return {
            "sharpness": [bench_backends.extremal_graph(n) for n in self.sharpness_orders],
            "exact": [bench_backends.petersen()]
            + [random_bridgeless(rng, n, 0.3) for n in self.exact_orders],
            "naive": [bench_backends.dense_seven()]
            + [Graph.from_edges(7, rng.sample(pairs7, m)) for m in self.naive_sizes],
        }

    def run(self, inputs: dict, clock) -> dict:
        exact = orient2.exact_oriented_diameter
        return {
            "sharpness": [_timed(clock, orient2.exists_orientation_diameter2, g) for g in inputs["sharpness"]],
            "exact": [_timed(clock, exact, g) for g in inputs["exact"]],
            "naive": [
                (_timed(clock, orient2.naive_oriented_diameter, g), _timed(clock, exact, g))
                for g in inputs["naive"]
            ],
        }

    def check(self, inputs: dict, out: dict) -> PassResult:
        exact_s = sum(t for _, t in out["sharpness"]) + sum(t for _, t in out["exact"])
        exact_s += sum(t for _, (_, t) in out["naive"])
        naive_s = sum(t for (_, t), _ in out["naive"])
        res = PassResult([exact_s, naive_s], items=0, parts={"exact_s": exact_s, "naive_s": naive_s})
        outcomes = [o for o, _ in out["sharpness"]]
        exact = [d for d, _ in out["exact"]]
        naive = [(a, b) for (a, _), (b, _) in out["naive"]]
        checks = [o.status is orient2.SearchStatus.NO for o in outcomes]
        checks.append(exact[0] == 6)  # Petersen
        checks += [d is not None for d in exact[1:]]
        checks += [a == b for a, b in naive]
        res.items = res.attempted = len(checks)
        res.failed = checks.count(False)
        res.digest = (
            tuple((o.status.value, o.nodes) for o in outcomes),
            tuple(exact),
            tuple(naive),
        )
        return res


WORKLOADS = {w.name: w for w in (OrientScale(), CliBatch(), Sweep(), Oracle())}
