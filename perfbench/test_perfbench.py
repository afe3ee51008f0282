"""Tracing must not change what the program computes.

Each workload runs twice with the same seed, once untraced and once
traced.  The per-pass digests (orientations, trace move and recipe
tallies, kernel node counts, sweep instance counts) must be identical,
and every per-layer metric must read nonzero calls on the workload that
is meant to move it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import run

SEED = 1
SECONDS = 1.0

# per-layer metrics that must read nonzero on the workload that should move them
SHOULD_MOVE = {
    "orient-scale": (
        "graphs.Graph.new.calls",
        "graphs.complement.calls",
        "graphs.components.calls",
        "graphs.diameter.calls",
        "certs.split_cert.calls",
        "certs.combine.calls",
        "structure.find_reduction.calls",
        "structure.find_reduction.certs_per_hit",
        "construct.orient_diameter_two.calls",
        "construct.base_case.s",
        "construct.contract.s",
        "construct.expand.s",
        "construct.levels.sum",
        "construct.moves.reduce",
    ),
    "cli-batch": (
        "graphs.Graph.new.calls",
        "graphs.complement.calls",
        "graphs.components.calls",
        "graphs.diameter.calls",
        "codec.parse_graph.calls",
        "codec.emit.calls",
        "certs.combine.calls",
        "structure.find_violating_triple.calls",
        "structure.classify_component.calls",
        "construct.orient_diameter_two.calls",
        "construct.moves.pad",
        "construct.moves.contract-triple",
        "cli.orient.self_s",
    ),
    "sweep": (
        "oracle.enumerate_blue.s",
        "oracle.enumerate_blue.graphs",
        "oracle.canonical_form.calls",
    ),
    "oracle": (
        "kernel.solve.calls",
        "kernel.solve.nodes",
        "kernel.solve.nodes_per_s",
        "kernel.naive.calls",
        "kernel.naive.orientations_per_s",
    ),
}
# layers a workload bypasses: their call counts must read zero there
KERNEL = ("kernel.solve.calls", "kernel.naive.calls")
BYPASSED = {
    "orient-scale": KERNEL + ("codec.parse_graph.calls", "codec.emit.calls", "oracle.canonical_form.calls"),
    "cli-batch": KERNEL + ("oracle.canonical_form.calls",),
    "sweep": KERNEL + ("codec.parse_graph.calls", "cli.orient.self_s"),
    "oracle": ("construct.orient_diameter_two.calls", "certs.split_cert.calls", "oracle.canonical_form.calls"),
}

assert run.prepare()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_keeps_exact_counts(workload: str) -> None:
    plain = run.measure(workload, SEED, SECONDS, trace=False)
    traced = run.measure(workload, SEED, SECONDS, trace=True)
    assert plain.failed == 0 and traced.failed == 0
    assert traced.mismatches == 0
    shared = min(len(plain.passes), len(traced.traced))
    assert shared >= 1
    assert [p.digest for p in plain.passes[:shared]] == [p.digest for p in traced.traced[:shared]]

    layer = {name: value for name, (value, _) in run.per_layer(traced).items()}
    for name in SHOULD_MOVE[workload]:
        assert layer[name] > 0, name
    for name in BYPASSED[workload]:
        assert layer[name] == 0, name
    assert layer["oracle.fallback_count"] == 0


def test_per_layer_names_match_benchmark_json() -> None:
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = run.per_layer(run.Run("orient-scale"))
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert [m["unit"] for m in declared["per_layer"]] == [unit for _, unit in metrics.values()]
