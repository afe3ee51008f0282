#!/usr/bin/env python3
"""Regenerate the stored small-case orientation table.

For each stored five-path complement pattern (every pattern on fewer than
8 vertices, plus the 4-singletons + one-P4 pattern on 8), run the
exhaustive search on the complement of the canonical layout and store the
witness as a digraph6 string.  `construct._quadruple_search` builds none
of these patterns but (4, 1, 0, 0), which stays stored so that its pinned
orientation does not change.

Usage: python3 tools/gen_basecase_table.py  (rewrites src/orient2/_basecase_table.py)
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orient2.codec import emit_digraph6
from orient2.graphs import Graph, complement, diameter
from orient2.oracle import SearchStatus, exists_orientation_diameter2

KEYS = [
    (5, 0, 0, 0),  # 5 vertices
    (4, 1, 0, 0),  # 6 vertices
    (3, 2, 0, 0),  # 7 vertices
    (4, 0, 1, 0),  # 7 vertices
    (4, 0, 0, 1),  # 8 vertices
]

HEADER = '''"""Generated by tools/gen_basecase_table.py; do not edit by hand.

Keys count the 1-, 2-, 3- and 4-vertex path components of a five-path
complement pattern; values are digraph6 orientations of the complement of
the canonical layout (larger paths first, vertices consecutive), each
checked to have diameter two by exhaustive search.
"""

TABLE: dict[tuple[int, int, int, int], str] = {
'''


def paths_blue(key: tuple[int, int, int, int]) -> Graph:
    """The canonical layout of a pattern: its paths, larger first, each on consecutive vertices."""
    a, b, c, d = key
    sizes = [4] * d + [3] * c + [2] * b + [1] * a
    edges: list[tuple[int, int]] = []
    start = 0
    for size in sizes:
        edges.extend((v, v + 1) for v in range(start, start + size - 1))
        start += size
    return Graph.from_edges(sum(sizes), edges)


def main() -> None:
    lines = [HEADER]
    for key in KEYS:
        blue = paths_blue(key)
        red = complement(blue)
        outcome = exists_orientation_diameter2(red)
        assert outcome.status is SearchStatus.YES, key
        assert outcome.orientation is not None
        assert diameter(outcome.orientation.dir) <= 2
        encoded = emit_digraph6(outcome.orientation.dir)
        lines.append(f"    {key!r}: {encoded!r},\n")
        print(f"{key}: n={blue.n} -> {encoded}")
    lines.append("}\n")
    target = pathlib.Path(__file__).resolve().parent.parent / "src" / "orient2" / "_basecase_table.py"
    target.write_text("".join(lines))
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
