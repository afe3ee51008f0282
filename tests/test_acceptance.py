"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criterion 9 reports telemetry from criterion 1's sweep; a
nonzero fallback count warns but does not fail.
"""

import random
import warnings
from math import comb

import pytest

from conftest import blue_matchjoin_cert, complete_bipartite_cert, load_tool, petersen, random_connected
from orient2.certs import matchjoin_graph, verify_cert
from orient2.construct import _base_case_with_family
from orient2.graphs import INFINITE, Digraph, Graph, Orientation, complement, components, diameter, is_bridgeless
from orient2.oracle import (
    SearchStatus,
    exact_oriented_diameter,
    exists_orientation_diameter2,
    naive_oriented_diameter,
    verify_sharpness,
)
from orient2._basecase_table import TABLE
from orient2.codec import emit_digraph6


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {status} {name}{suffix}")


class TestAcceptance:
    def test_criterion_1_theorem_reproduction(self, theorem_reports):
        failures = []
        total = 0
        for n in range(5, 11):
            rep = theorem_reports[n]
            total += rep.instances_checked
            failures.extend(rep.failures)
        ok = not failures
        report(
            "criterion-1 theorem reproduction n=5..10",
            ok,
            f"{total} instances, {len(failures)} failures",
        )
        assert ok

    def test_criterion_2_sharpness(self):
        results = {n: verify_sharpness(n) for n in range(5, 10)}
        ok = all(results.values())
        report("criterion-2 sharpness n=5..9", ok, str(results))
        assert ok

    def test_criterion_3_window_construction_suite(self):
        checked = 0
        ok = True
        for a in range(2, 7):
            for b in range(a, min(comb(a, a // 2), 20) + 1):
                cert = complete_bipartite_cert(a, b)
                ok = ok and verify_cert(cert) and cert.nontrivial
                checked += 1
        trivial = complete_bipartite_cert(1, 1)
        ok = ok and verify_cert(trivial) and not trivial.nontrivial
        report("criterion-3 complete-bipartite certificates", ok, f"{checked}+1 certificates")
        assert ok

    def test_criterion_4_matchjoin_suite(self):
        checked = 0
        ok = True
        pairs = [(a, b) for a in range(3, 7) for b in range(a, 2 * a + 1)]
        for a, b in pairs:
            cert = blue_matchjoin_cert(a, b, matchjoin_graph(a, b - a))
            ok = ok and verify_cert(cert) and cert.nontrivial
            checked += 1
        rng = random.Random(20260810)
        subs = 0
        while subs < 50:
            a, b = pairs[rng.randrange(len(pairs))]
            full = matchjoin_graph(a, b - a)
            edges = full.edges()
            if not edges:
                continue
            keep = [e for e in edges if rng.random() < 0.55]
            if len(keep) == len(edges):
                keep = keep[: len(edges) - 1]
            cert = blue_matchjoin_cert(a, b, Graph.from_edges(b, keep))
            ok = ok and verify_cert(cert) and cert.nontrivial
            subs += 1
        report("criterion-4 clique-pair certificates", ok, f"{checked} full + {subs} subgraphs")
        assert ok

    def test_criterion_5_small_case_table(self):
        keys = [(5, 0, 0, 0), (4, 1, 0, 0), (3, 2, 0, 0), (4, 0, 1, 0), (4, 0, 0, 1)]
        ok = set(TABLE) == set(keys)
        tool = load_tool("gen_basecase_table")
        for key in keys:
            blue = tool.paths_blue(key)
            red = complement(blue)
            outcome = exists_orientation_diameter2(red)
            ok = ok and outcome.status is SearchStatus.YES
            ok = ok and emit_digraph6(outcome.orientation.dir) == TABLE[key]
            served = _base_case_with_family(blue, components(blue))
            ok = ok and served is not None
            rows, family = served
            ok = ok and family.startswith("table:") and diameter(Orientation(red, Digraph(red.n, rows)).dir) <= 2
        report("criterion-5 small-case table regeneration", ok, f"{len(keys)} patterns")
        assert ok

    def test_criterion_6_pruned_equals_naive(self):
        rng = random.Random(60046)
        ok = True
        for i in range(200):
            n = rng.randint(4, 7)
            g = random_connected(rng, n, rng.uniform(0.3, 0.85))
            pruned = exact_oriented_diameter(g)
            brute = naive_oriented_diameter(g)
            if pruned != brute:
                ok = False
                print(f"[acceptance] mismatch on {g.edges()}: pruned={pruned} naive={brute}")
        report("criterion-6 pruned search equals brute force", ok, "200 random connected graphs")
        assert ok

    def test_criterion_7_petersen_constant(self):
        value = exact_oriented_diameter(petersen())
        ok = value == 6
        report("criterion-7 Petersen oriented diameter", ok, f"value={value}")
        assert ok

    def test_criterion_8_strong_orientation_consistency(self):
        rng = random.Random(80088)
        ok = True
        for _ in range(100):
            n = rng.randint(3, 7)
            g = random_connected(rng, n, rng.uniform(0.3, 0.85))
            finite = exact_oriented_diameter(g) != INFINITE
            if finite != is_bridgeless(g):
                ok = False
        report("criterion-8 finite iff bridgeless", ok, "100 random connected graphs")
        assert ok

    def test_criterion_9_fallback_telemetry(self, theorem_reports):
        count = sum(rep.fallback_count for rep in theorem_reports.values())
        report("criterion-9 oracle-fallback telemetry", True, f"fallback steps: {count}, expected 0")
        if count:
            warnings.warn(
                f"exhaustive fallback fired {count} times during the theorem sweep; "
                "the constructive case analysis may have a gap",
                stacklevel=1,
            )
        # telemetry is surfaced, never a failure
        assert count >= 0
