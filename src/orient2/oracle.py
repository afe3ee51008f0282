"""Ground truth: exact oriented diameter by pruned exhaustive search,
isomorphism-free enumeration of sparse graphs, and the desk-scale
verification harnesses built on them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

from . import _backend
from .codec import emit_graph6, parse_graph6
from .graphs import (
    INFINITE,
    DistanceValue,
    Graph,
    Orientation,
    complement,
    components,
    diameter,
    is_bridgeless,
    is_connected,
    undirected_diameter,
)

DEFAULT_MAX_NODES = 100_000_000

_CANONICAL_COMPONENT_LIMIT = 10


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_MAX_NODES
    time_limit: float | None = None


def default_budget() -> SearchBudget:
    """Default budget, overridable through the ORIENT2_BUDGET variable."""
    env = os.environ.get("ORIENT2_BUDGET")
    if env:
        return SearchBudget(max_nodes=int(env))
    return SearchBudget()


class SearchStatus(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class DecisionOutcome:
    status: SearchStatus
    orientation: Orientation | None = None
    nodes: int = 0


@dataclass(frozen=True)
class VerificationReport:
    n: int
    instances_checked: int
    failures: tuple[str, ...]
    wall_time: float
    fallback_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _dirs_to_orientation(g: Graph, edges: list[tuple[int, int]], dirs: list[int]) -> Orientation:
    arcs = [(q, p) if d else (p, q) for (p, q), d in zip(edges, dirs)]
    return Orientation.from_arcs(g, arcs)


def _solve_bounded(
    g: Graph, d: int, budget: SearchBudget
) -> tuple[int, Orientation | None, int]:
    edges = _backend.ordered_edges(g)
    status, dirs, nodes = _backend.solve_bounded_diameter(
        g.n, edges, d, budget.max_nodes, budget.time_limit
    )
    orientation = None
    if status == _backend.STATUS_YES and dirs is not None:
        orientation = _dirs_to_orientation(g, edges, dirs)
        if diameter(orientation.dir) > d:
            raise AssertionError("search returned an invalid witness")
    return status, orientation, nodes


def exists_orientation_diameter2(g: Graph, budget: SearchBudget | None = None) -> DecisionOutcome:
    """Exact decision for an orientation of diameter at most two.

    A YES outcome carries a verified witness.  Bridged, disconnected, or
    undirected-diameter > 2 inputs are NO without search; budget
    exhaustion yields INDETERMINATE, never a wrong answer.
    """
    budget = budget or default_budget()
    if g.n <= 1:
        return DecisionOutcome(SearchStatus.YES, Orientation.from_arcs(g, []))
    if not is_connected(g) or not is_bridgeless(g) or undirected_diameter(g) > 2:
        return DecisionOutcome(SearchStatus.NO)
    status, orientation, nodes = _solve_bounded(g, 2, budget)
    if status == _backend.STATUS_YES:
        return DecisionOutcome(SearchStatus.YES, orientation, nodes)
    if status == _backend.STATUS_NO:
        return DecisionOutcome(SearchStatus.NO, nodes=nodes)
    return DecisionOutcome(SearchStatus.INDETERMINATE, nodes=nodes)


def exact_oriented_diameter(
    g: Graph, budget: SearchBudget | None = None
) -> DistanceValue | None:
    """Minimum diameter over all orientations.

    INFINITE exactly when the graph is disconnected or has a bridge.
    Returns None when the budget runs out first.
    """
    budget = budget or default_budget()
    if g.n <= 1:
        return 0
    if not is_connected(g) or not is_bridgeless(g):
        return INFINITE
    lower = max(2, int(undirected_diameter(g)))
    remaining = budget.max_nodes
    deadline = time.monotonic() + budget.time_limit if budget.time_limit else None
    for d in range(lower, g.n):
        time_left = None if deadline is None else max(0.0, deadline - time.monotonic())
        level_budget = SearchBudget(max_nodes=remaining, time_limit=time_left)
        status, _, nodes = _solve_bounded(g, d, level_budget)
        remaining -= nodes
        if status == _backend.STATUS_YES:
            return d
        if status == _backend.STATUS_BUDGET or remaining <= 0:
            return None
    raise AssertionError("a strong orientation of diameter <= n-1 always exists")


def naive_oriented_diameter(g: Graph) -> DistanceValue:
    """Brute force over all 2^m orientations; the cross-check oracle."""
    best = _backend.naive_min_diameter(g.n, g.edges())
    return INFINITE if best < 0 else best


# ---------------------------------------------------------------------------
# isomorphism-free enumeration


def _canonical_component_rows(sub: Graph) -> tuple[int, ...]:
    if sub.n > _CANONICAL_COMPONENT_LIMIT:
        raise ValueError(
            f"component with {sub.n} vertices exceeds the brute-force canonical labeling limit"
        )
    best: tuple[int, ...] | None = None
    for perm in permutations(range(sub.n)):
        rows = [0] * sub.n
        for u in range(sub.n):
            row = 0
            for v in range(sub.n):
                if sub.has_edge(perm[u], perm[v]):
                    row |= 1 << v
            rows[u] = row
        t = tuple(rows)
        if best is None or t < best:
            best = t
    assert best is not None
    return best


def canonical_form(g: Graph) -> Graph:
    """Canonical representative of the isomorphism class of ``g``.

    Each component is canonicalized by brute-force minimum over its vertex
    permutations; components are then sorted by (size, canonical rows) and
    laid out consecutively.  Feasible because intended inputs have tiny
    components.
    """
    pieces = []
    for comp in components(g):
        rows = _canonical_component_rows(g.induced(comp))
        pieces.append((len(comp), rows))
    pieces.sort()
    edges = []
    offset = 0
    for size, rows in pieces:
        for u in range(size):
            for v in range(u + 1, size):
                if rows[u] >> v & 1:
                    edges.append((offset + u, offset + v))
        offset += size
    return Graph.from_edges(offset, edges)


def enumerate_blue(n: int, max_edges: int):
    """Yield one canonical representative of every isomorphism class of
    graphs on ``n`` vertices with at most ``max_edges`` edges.

    Classes are grown level by level, adding one edge at a time and
    deduplicating through `canonical_form`.  Emission order: by edge
    count, then by graph6 string of the representative.
    """
    if n > 12:
        raise ValueError("enumeration is limited to n <= 12")
    if max_edges > n:
        raise ValueError("enumeration is limited to max_edges <= n")
    level = {emit_graph6(canonical_form(Graph.from_edges(n, [])))}
    for g6 in sorted(level):
        yield parse_graph6(g6)
    for _ in range(max_edges):
        nxt: set[str] = set()
        for g6 in level:
            g = parse_graph6(g6)
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        nxt.add(emit_graph6(canonical_form(g.with_edge(u, v))))
        for g6 in sorted(nxt):
            yield parse_graph6(g6)
        level = nxt


# ---------------------------------------------------------------------------
# theorem-scale harnesses


def extremal_graph(n: int) -> Graph:
    """Complete graph on n-1 vertices plus one vertex joined to 0, 1 and 2.

    One edge below the threshold; admits no diameter-2 orientation.
    """
    if n < 5:
        raise ValueError("extremal family starts at n = 5")
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
    edges += [(0, n - 1), (1, n - 1), (2, n - 1)]
    return Graph.from_edges(n, edges)


def verify_theorem(n: int) -> VerificationReport:
    """Run the constructor on every threshold instance of order ``n``.

    Enumerates all complements with at most n - 5 edges, orients each
    input, and independently re-checks every output at diameter <= 2.
    """
    from .construct import orient_diameter_two

    if not 5 <= n <= 11:
        raise ValueError("verification harness supports 5 <= n <= 11")
    start = time.monotonic()
    checked = 0
    failures: list[str] = []
    fallbacks = 0
    for blue in enumerate_blue(n, n - 5):
        red = complement(blue)
        checked += 1
        try:
            orientation, trace = orient_diameter_two(red)
            fallbacks += trace.fallback_count()
            if orientation.base != red or diameter(orientation.dir) > 2:
                failures.append(emit_graph6(red))
        except Exception:
            failures.append(emit_graph6(red))
    return VerificationReport(
        n=n,
        instances_checked=checked,
        failures=tuple(failures),
        wall_time=time.monotonic() - start,
        fallback_count=fallbacks,
    )


def verify_sharpness(n: int, budget: SearchBudget | None = None) -> bool:
    """True iff the one-below-threshold extremal graph has no diameter-2
    orientation, decided exhaustively.  Budget exhaustion raises."""
    if not 5 <= n <= 9:
        raise ValueError("sharpness check supports 5 <= n <= 9")
    outcome = exists_orientation_diameter2(extremal_graph(n), budget)
    if outcome.status is SearchStatus.INDETERMINATE:
        raise RuntimeError(f"sharpness search for n={n} exhausted its budget")
    return outcome.status is SearchStatus.NO
