"""Kernel backend selection and the shared branching order.

The exact search runs on the compiled extension when it is importable
and n <= 62, and on the pure-Python kernel otherwise.  Both run the same
search and propagation tests on equal reach tables (the pure kernel
refreshes its table and logs overwritten rows, the compiled one rebuilds
it after each commit), and both skip the cut-arc search of a source that
reaches every vertex within d - 1 steps and another in-neighbour of the
arc's head no later than the head itself, since cutting the arc delays
such a source by at most one step.  Both propagate a search node to its
fixpoint in one cyclic pass over the edges, committing each forced edge
where they find it; a commit only removes potential arcs, so no scan
order can change the fixpoint, and the shared order keeps the node
counts equal too.  The choice of backend only affects speed.
The naive cross-check has only the pure, bitsliced kernel.
"""

from __future__ import annotations

from . import _pysearch
from ._pysearch import STATUS_BUDGET, STATUS_NO, STATUS_YES
from .graphs import Edge, Graph

try:
    from . import _speedups as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = _pysearch
    BACKEND = "python"


def backend_name() -> str:
    return BACKEND


def ordered_edges(g: Graph) -> list[Edge]:
    """Branching order: edges around low-degree vertices first.

    Vertices are ranked by (degree, label); each edge is stored with its
    lower-ranked endpoint first and edges are sorted by their endpoint
    ranks.  Both backends and the witness decoding rely on this order.
    """
    rank = {v: i for i, v in enumerate(sorted(range(g.n), key=lambda v: (g.degree(v), v)))}
    oriented = []
    for u, v in g.edges():
        p, q = (u, v) if rank[u] < rank[v] else (v, u)
        oriented.append((p, q))
    oriented.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
    return oriented


def solve_bounded_diameter(
    n: int,
    edges: list[Edge],
    d: int,
    max_nodes: int,
    time_limit: float | None = None,
) -> tuple[int, list[int] | None, int]:
    if n > 62 and BACKEND == "compiled":  # compiled rows are single machine words
        return _pysearch.solve(n, edges, d, max_nodes, time_limit)
    return _impl.solve(n, edges, d, max_nodes, time_limit)


def naive_min_diameter(n: int, edges: list[Edge]) -> int:
    return _pysearch.naive_min_diameter(n, edges)
