#!/usr/bin/env python3
"""Compare the compiled and pure-Python search kernels on the hot workloads.

Usage: python3 benchmarks/bench_backends.py [--repeat N]

Workloads:
* sharpness: prove the one-below-threshold extremal graph of order 9
  (31 edges) has no diameter-2 orientation,
* petersen: exact oriented diameter of the Petersen graph (levels 2..6),
* bridgeless: `solve` at d = 2, 3, ... until YES on one seeded random
  connected bridgeless G(n, 0.3) per order n = 12..20, the exact part
  of perfbench's `oracle` workload,
* census: the one-below-threshold census at n = 11, the decision of
  `exists_orientation_diameter2` (`solve` at d = 2) on the complement of
  every 7-edge graph from `enumerate_blue(11, 7)`: 172 graphs, one NO,
* naive: brute-force enumeration of all 2^18 orientations of a fixed
  18-edge graph on 7 vertices (pure kernel only; there is no compiled
  naive kernel).
"""

from __future__ import annotations

import argparse
import random
import time

from orient2 import _pysearch
from orient2._backend import ordered_edges
from orient2.graphs import Graph, complement, is_bridgeless, is_connected, undirected_diameter
from orient2.oracle import enumerate_blue, extremal_graph

try:
    from orient2 import _speedups
except ImportError:
    _speedups = None


def petersen() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return Graph.from_edges(10, edges)


def dense_seven() -> Graph:
    rng = random.Random(18)
    while True:
        edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.9]
        if len(edges) == 18:
            return Graph.from_edges(7, edges)


def bridgeless_series() -> list[Graph]:
    rng = random.Random(30)
    graphs = []
    for n in range(12, 21):
        while True:
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
            if is_connected(g) and is_bridgeless(g):
                graphs.append(g)
                break
    return graphs


def census_series() -> list[Graph]:
    """The graphs on 11 vertices with one edge fewer than the threshold
    C(n,2) - n + 5, one per isomorphism class; each is connected,
    bridgeless and of undirected diameter at most 2, so
    `exists_orientation_diameter2` runs the kernel on every one."""
    graphs = [complement(b) for b in enumerate_blue(11, 7) if b.m == 7]
    assert all(is_connected(g) and is_bridgeless(g) and undirected_diameter(g) <= 2 for g in graphs)
    return graphs


def bench(label: str, fn, repeat: int) -> float:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    print(f"  {label:<24} {best * 1000:10.2f} ms   result={result}")
    return best


def workloads(impl):
    g9 = extremal_graph(9)
    e9 = ordered_edges(g9)
    pet = petersen()
    epet = ordered_edges(pet)

    def sharpness():
        status, _, nodes = impl.solve(g9.n, e9, 2, 10**8, None)
        return ("NO" if status == 0 else "?", nodes)

    def petersen_exact():
        for d in range(2, 10):
            status, _, _ = impl.solve(pet.n, epet, d, 10**8, None)
            if status == 1:
                return d
        return None

    series = [(g.n, ordered_edges(g)) for g in bridgeless_series()]

    def bridgeless_levels():
        found = []
        for n, edges in series:
            d = 2
            while impl.solve(n, edges, d, 10**8, None)[0] != 1:
                d += 1
            found.append(d)
        return found

    census = [(g.n, ordered_edges(g)) for g in census_series()]

    def census_n11():
        outcomes = [impl.solve(n, edges, 2, 10**8, None) for n, edges in census]
        return ([status for status, _, _ in outcomes].count(0), sum(nodes for _, _, nodes in outcomes))

    jobs = [
        ("sharpness n=9 (m=31)", sharpness),
        ("petersen exact", petersen_exact),
        ("bridgeless n=12..20", bridgeless_levels),
        ("census n=11 (172)", census_n11),
    ]
    if impl is _pysearch:  # there is no compiled naive kernel
        d7 = dense_seven()
        jobs.append(("naive 2^18", lambda: impl.naive_min_diameter(d7.n, d7.edges())))
    return jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    timings: dict[str, dict[str, float]] = {}
    for name, impl in [("python", _pysearch)] + ([("compiled", _speedups)] if _speedups else []):
        print(f"backend: {name}")
        timings[name] = {}
        for label, fn in workloads(impl):
            timings[name][label] = bench(label, fn, args.repeat)
        print()
    if "compiled" in timings:
        print("speedups (pure / compiled):")
        for label, t in timings["compiled"].items():
            ratio = timings["python"][label] / max(t, 1e-9)
            print(f"  {label:<24} {ratio:8.1f}x")
    else:
        print("compiled backend unavailable; only the pure kernel was timed")


if __name__ == "__main__":
    main()
