#!/usr/bin/env python3
"""Latency of `orient_diameter_two` on seeded threshold instances.

A threshold instance of order n is the complement of a uniformly random
blue graph with n - 5 edges, drawn from ``random.Random("construct-scale:n:seed")``.
For each order the tool prints the median and the largest time over the
seeds, how much the process's peak RSS grew while that order ran
(``resource.getrusage``; the peak never falls, so run orders ascending to
see each order's own growth), the tally of the construction moves and
reduction recipes, and a CRC-32 of every seed's orientation and trace (its
``to_json()`` form), so two checkouts that build the same orientations
print the same digest.

Exits with status 1 if some construction falls back to the exhaustive
oracle.

Usage: python3 tools/construct_scale.py [--seeds K] N [N ...]
       (seeds 1..K, default 3; orders default to 50 100 200)
"""

from __future__ import annotations

import argparse
import pathlib
import random
import resource
import statistics
import sys
import time
import zlib
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orient2.construct import ConstructionTrace, orient_diameter_two
from orient2.graphs import Graph, Orientation, bits, complement


def threshold_instance(n: int, seed: int) -> Graph:
    rng = random.Random(f"construct-scale:{n}:{seed}")
    blue: set[tuple[int, int]] = set()
    while len(blue) < n - 5:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            blue.add((min(u, v), max(u, v)))
    return complement(Graph.from_edges(n, sorted(blue)))


def fold_digest(digest: int, o: Orientation, trace: ConstructionTrace) -> int:
    """``digest`` continued by the CRC-32 of one construction's sorted arcs and trace.

    The text is ``repr((sorted(o.dir.arcs()), trace.to_json()))``, fed to
    the CRC one out-row at a time: a list of every arc would hold far more
    memory than the construction does."""
    digest = zlib.crc32(b"([", digest)
    sep = ""
    for u, row in enumerate(o.dir.out):
        if row:
            digest = zlib.crc32((sep + ", ".join([f"({u}, {v})" for v in bits(row)])).encode(), digest)
            sep = ", "
    return zlib.crc32(f"], {trace.to_json()!r})".encode(), digest)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def scale(n: int, seeds: int) -> bool:
    peak = peak_rss_mb()
    times = []
    moves: Counter = Counter()
    digest = 0
    for seed in range(1, seeds + 1):
        g = threshold_instance(n, seed)
        start = time.perf_counter()
        o, trace = orient_diameter_two(g)
        times.append(time.perf_counter() - start)
        digest = fold_digest(digest, o, trace)
        for step in trace.to_json():
            moves[step["kind"]] += 1
            if step["kind"] == "reduce":
                moves[f"reduce:{step['recipe']}"] += 1
    tally = " ".join(f"{name}={count}" for name, count in sorted(moves.items()))
    print(
        f"n={n} seeds={seeds} median={statistics.median(times):.3f}s max={max(times):.3f}s "
        f"rss_growth={peak_rss_mb() - peak:.1f}MB digest={digest:08x} {tally}",
        flush=True,
    )
    return not moves["fallback-oracle"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("orders", type=int, nargs="*", default=[50, 100, 200])
    args = parser.parse_args(argv)
    if args.seeds < 1 or any(n < 5 for n in args.orders):
        parser.error("need --seeds >= 1 and orders >= 5")
    results = [scale(n, args.seeds) for n in args.orders]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
