#!/usr/bin/env python3
"""Census of the threshold sweep: per-edge-count counts of
`enumerate_blue(n, n - 5)` and the times of it, of the connected-component
catalogue it lays out (`_connected_catalogue(n, n - 5)`, which the
enumeration time includes), and of `verify_theorem(n)`.

Exits with status 1 if a total differs from the known number of graphs on
n vertices with at most n - 5 edges (OEIS A000664 partial sums, less the
graphs that need more than n vertices), or if the sweep reports a failure
or an oracle fallback.

Usage: python3 tools/enum_census.py N [N ...]   (5 <= N <= 13; default 10 11 12 13)
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orient2.oracle import _connected_catalogue, enumerate_blue, verify_theorem

KNOWN_TOTALS = {5: 1, 6: 2, 7: 4, 8: 9, 9: 20, 10: 46, 11: 113, 12: 289, 13: 782}


def census(n: int) -> bool:
    start = time.perf_counter()
    _connected_catalogue(n, n - 5)
    catalogue_s = time.perf_counter() - start
    start = time.perf_counter()
    counts = [0] * (n - 4)
    for g in enumerate_blue(n, n - 5):
        counts[g.m] += 1
    enum_s = time.perf_counter() - start
    start = time.perf_counter()
    report = verify_theorem(n)
    sweep_s = time.perf_counter() - start
    total = sum(counts)
    ok = total == KNOWN_TOTALS[n] == report.instances_checked and report.ok and not report.fallback_count
    print(
        f"n={n} counts={counts} total={total} (known {KNOWN_TOTALS[n]}) "
        f"catalogue={catalogue_s:.3f}s enumerate_blue={enum_s:.3f}s verify_theorem={sweep_s:.3f}s "
        f"instances={report.instances_checked} failures={len(report.failures)} "
        f"fallbacks={report.fallback_count} {'ok' if ok else 'MISMATCH'}",
        flush=True,
    )
    return ok


def main(argv: list[str]) -> int:
    orders = [int(a) for a in argv] or [10, 11, 12, 13]
    bad = [n for n in orders if n not in KNOWN_TOTALS]
    if bad:
        print(f"orders must be in 5..13, got {bad}", file=sys.stderr)
        return 2
    results = [census(n) for n in orders]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
