#!/usr/bin/env python3
"""orient2 benchmark runner.

    python3 perfbench/run.py --workload orient-scale --seed 1 --seconds 25 --trace 0

Runs one workload (see README.md next to this file) in a closed loop in
this one process, checks every result, and prints two JSON lines on
stdout: a full report (run metadata, fail ratio, the workload's named
metrics with sample counts), then the result line that BENCHMARK.json
describes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every pass twice, untraced then traced, and reports the per-layer
metrics and the tracing overhead.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the runner exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
WORKLOAD_NAMES = ("orient-scale", "cli-batch", "sweep", "oracle")
SETUP_REPEATS = 11
# prints the import time and the mean reference-loop time around it
SETUP_CHILD = """
import time, calibrate
calibrate.reference_loop(); calibrate.reference_loop()
refs = [calibrate.reference_seconds() for _ in range(3)]
t = time.perf_counter(); import orient2; orient2.backend_name(); t = time.perf_counter() - t
refs += [calibrate.reference_seconds() for _ in range(3)]
print(t, sum(refs) / len(refs))
"""

RECIPES = (
    "non-tree+forest",
    "two-non-trees",
    "two-non-trees+trees",
    "non-tree+tree4",
    "non-tree+small-forest",
    "non-tree+tree3",
)
MOVES = ("pad", "base-case", "reduce", "contract-triple", "fallback-oracle")
TIMED_LAYERS = (
    "graphs.Graph.new",
    "graphs.complement",
    "graphs.components",
    "graphs.diameter",
    "codec.parse_graph",
    "codec.emit",
    "certs.split_cert",
    "certs.combine",
    "structure.find_violating_triple",
    "structure.classify_component",
    "construct.orient_diameter_two",
    "oracle.canonical_form",
    "kernel.solve",
    "kernel.naive",
)


def prepare() -> bool:
    """Put the checkout's ``src`` and ``benchmarks`` on the import path."""
    if not (SRC / "orient2" / "__init__.py").is_file():
        return False
    if not (BENCHMARKS / "bench_backends.py").is_file():
        return False
    for path in (HERE, BENCHMARKS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return True


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Run:
    workload: str
    passes: list = field(default_factory=list)  # untraced PassResults
    traced: list = field(default_factory=list)  # traced PassResults, same inputs
    summaries: list = field(default_factory=list)  # tracer summaries, first passes
    setup: list = field(default_factory=list)  # (raw, calibrated) import seconds
    mismatches: int = 0
    measured_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes + self.traced)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes + self.traced) + self.mismatches


def warm_up() -> None:
    """Finish lazy imports and first-call work before anything is timed."""
    import bench_backends
    import orient2
    from workloads import threshold_instance

    orient2.orient_diameter_two(threshold_instance(random.Random(0), 12))
    orient2.exact_oriented_diameter(bench_backends.petersen())
    orient2.verify_theorem(7)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Closed loop: one pass at a time until the next would overrun ``seconds``.

    Untraced passes run under a `SpeedProbe`, which gives each its
    calibration scale.  An untraced run also times ``SETUP_REPEATS``
    fresh-interpreter imports, spread between passes across the run.
    """
    from calibrate import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    run = Run(workload)
    probe = SpeedProbe()
    warm_up()
    spacing = seconds / SETUP_REPEATS
    if not trace:
        run.setup.append(setup_seconds())
    start = perf_counter()
    index = 0
    while True:
        inputs = wl.make(rng, index)
        first = len(probe.samples)
        with probe:
            out = wl.run(inputs, probe.clock)
        plain = wl.check(inputs, out)
        plain.scale = probe.scale(first)
        run.passes.append(plain)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                out = wl.run(inputs, perf_counter)
            traced = wl.check(inputs, out)
            run.traced.append(traced)
            run.mismatches += traced.digest != plain.digest
            if len(run.summaries) < wl.trace_passes:
                run.summaries.append(tracer.summary())
        index += 1
        elapsed = perf_counter() - start
        while not trace and len(run.setup) < SETUP_REPEATS and elapsed >= len(run.setup) * spacing:
            run.setup.append(setup_seconds())
            elapsed = perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break
    run.measured_s = elapsed
    while not trace and len(run.setup) < SETUP_REPEATS:
        run.setup.append(setup_seconds())
    return run


def setup_seconds() -> tuple[float, float]:
    """Raw and calibrated time to import orient2 (backend selected) in a
    fresh interpreter."""
    from calibrate import REF_NOMINAL_S

    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    raw, ref = map(float, proc.stdout.split())
    return raw, raw * REF_NOMINAL_S / ref


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return f"p{p}", ordered[n * p // 100]
    return "max", ordered[-1]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Calibrated times (see calibrate.py); the report line adds raw ones."""
    seconds = [p.calibrated_s for p in run.passes]
    return {
        "setup_s": (statistics.median(c for _, c in run.setup), "s"),
        "pass_s": (statistics.median(seconds), "s"),
        "items_per_s": (sum(p.items for p in run.passes) / sum(seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def named_metrics(run: Run) -> dict:
    """The workload's own metrics, by the names the workload table uses,
    calibrated, plus the raw figures and the calibration scale."""
    seconds = [p.calibrated_s for p in run.passes]
    raw = [p.seconds for p in run.passes]
    out: dict = {
        "fail_ratio": run.failed / max(run.attempted, 1),
        "passes": len(run.passes),
        "calibration_scale_p50": statistics.median(p.scale for p in run.passes),
        "raw.pass_s": statistics.median(raw),
        "raw.items_per_s": sum(p.items for p in run.passes) / sum(raw),
    }
    if run.setup:
        out["raw.setup_s"] = statistics.median(r for r, _ in run.setup)
    if run.workload == "orient-scale":
        from workloads import OrientScale

        latencies = [t * p.scale * 1000 for p in run.passes for t in p.latencies]
        label, value = tail(latencies)
        out["orient.total_s"] = statistics.median(seconds)
        out["orient.latency_p50_ms"] = statistics.median(latencies)
        out["orient.latency_tail_ms"] = value
        out["orient.latency_tail_percentile"] = label
        out["orient.latency_samples"] = len(latencies)
        for i, n in enumerate(OrientScale.orders):
            out[f"orient.n{n}.latency_p50_ms"] = statistics.median(
                p.latencies[i] * p.scale * 1000 for p in run.passes
            )
    elif run.workload == "cli-batch":
        out["cli.lines_per_s"] = sum(p.items for p in run.passes) / sum(seconds)
    elif run.workload == "sweep":
        out["sweep.wall_s"] = statistics.median(seconds)
    elif run.workload == "oracle":
        out["oracle.exact_s"] = statistics.median(p.parts["exact_s"] * p.scale for p in run.passes)
        out["oracle.naive_s"] = statistics.median(p.parts["naive_s"] * p.scale for p in run.passes)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the first ``trace_passes`` traced passes."""
    m: Counter = Counter()
    for summary in run.summaries:
        m.update(summary)
    m["construct.levels.max"] = max((s["construct.levels.max"] for s in run.summaries), default=0)
    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = (m[f"{layer}.calls"], "count")
        out[f"{layer}.s"] = (m[f"{layer}.s"], "s")
    out["certs.split_cert.hit_ratio"] = (_ratio(m["certs.split_cert.hits"], m["certs.split_cert.calls"]), "ratio")
    fr = "structure.find_reduction"
    out[f"{fr}.calls"] = (m[f"{fr}.calls"], "count")
    out[f"{fr}.self_s"] = (m[f"{fr}.self_s"], "s")
    out[f"{fr}.hit_ratio"] = (_ratio(m[f"{fr}.hits"], m[f"{fr}.calls"]), "ratio")
    out[f"{fr}.certs_per_hit"] = (_ratio(m[f"{fr}.certs"], m[f"{fr}.hits"]), "count")
    fvt = "structure.find_violating_triple"
    out[f"{fvt}.hit_ratio"] = (_ratio(m[f"{fvt}.hits"], m[f"{fvt}.calls"]), "ratio")
    out["construct.orient_diameter_two.self_s"] = (m["construct.orient_diameter_two.self_s"], "s")
    for stage in ("base_case", "contract", "expand"):
        out[f"construct.{stage}.s"] = (m[f"construct.{stage}.s"], "s")
    out["construct.levels.sum"] = (m["construct.levels.sum"], "count")
    out["construct.levels.max"] = (m["construct.levels.max"], "count")
    for move in MOVES:
        out[f"construct.moves.{move}"] = (m[f"construct.moves.{move}"], "count")
    for recipe in RECIPES:
        out[f"construct.recipe.{recipe.replace('+', '_')}"] = (m[f"construct.recipe.{recipe}"], "count")
    out["oracle.enumerate_blue.s"] = (m["oracle.enumerate_blue.s"], "s")
    out["oracle.enumerate_blue.graphs"] = (m["oracle.enumerate_blue.graphs"], "count")
    out["oracle.fallback_count"] = (m["construct.moves.fallback-oracle"], "count")
    out["kernel.solve.nodes"] = (m["kernel.solve.nodes"], "count")
    out["kernel.solve.nodes_per_s"] = (_ratio(m["kernel.solve.nodes"], m["kernel.solve.s"]), "1/s")
    out["kernel.naive.orientations_per_s"] = (
        _ratio(m["kernel.naive.orientations"], m["kernel.naive.s"]),
        "1/s",
    )
    out["cli.orient.self_s"] = (m["cli.orient.self_s"], "s")
    plain = sum(p.seconds for p in run.passes)
    traced = sum(p.seconds for p in run.traced)
    out["trace.overhead_ratio"] = (_ratio(traced, plain), "ratio")
    return out


def metadata(seed: int) -> dict:
    import orient2

    return {
        "commit": commit(),
        "backend": orient2.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "ORIENT2_PURE": os.environ.get("ORIENT2_PURE"),
        "ORIENT2_BUDGET": os.environ.get("ORIENT2_BUDGET"),
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: {SRC / 'orient2'} or {BENCHMARKS / 'bench_backends.py'} is missing", file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": run.measured_s,
        "metadata": metadata(args.seed),
        "attempted": run.attempted,
        "failed": run.failed,
        "trace_mismatches": run.mismatches,
        "trace_passes": len(run.summaries),
        **named_metrics(run),
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
