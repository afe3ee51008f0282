"""Ground truth: exact oriented diameter by pruned exhaustive search,
isomorphism-free enumeration of sparse graphs, and the desk-scale
verification harnesses built on them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterator

from . import _backend
from .codec import emit_graph6
from .graphs import (
    INFINITE,
    Digraph,
    DistanceValue,
    Edge,
    Graph,
    Orientation,
    _unchecked,
    bits,
    bridges,
    complement,
    components,
    diameter,
    eccentricity,
    is_bridgeless,
    is_connected,
    undirected_diameter,
)

DEFAULT_MAX_NODES = 100_000_000


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_MAX_NODES
    time_limit: float | None = None


def default_budget() -> SearchBudget:
    """Default budget, overridable through ORIENT2_BUDGET (ValueError unless an integer >= 0)."""
    env = os.environ.get("ORIENT2_BUDGET")
    if not env:
        return SearchBudget()
    if not env.strip().isdecimal():
        raise ValueError(f"ORIENT2_BUDGET must be an integer of at least 0, got {env!r}")
    return SearchBudget(max_nodes=int(env))


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
    enumeration_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _solve_bounded(g: Graph, edges: list[Edge], d: int, budget: SearchBudget) -> DecisionOutcome:
    """Decide "some orientation of ``g`` has diameter at most ``d``" with the
    search kernel, branching over ``edges`` (`_backend.ordered_edges` of
    ``g``); a YES outcome carries its checked witness."""
    status, dirs, nodes = _backend.solve_bounded_diameter(
        g.n, edges, d, budget.max_nodes, budget.time_limit
    )
    if status == _backend.STATUS_BUDGET:
        return DecisionOutcome(SearchStatus.INDETERMINATE, nodes=nodes)
    if status == _backend.STATUS_NO:
        return DecisionOutcome(SearchStatus.NO, nodes=nodes)
    # dirs[i] reverses the i-th edge of the branching order
    rows = [0] * g.n
    for (p, q), flip in zip(edges, dirs):
        if flip:
            p, q = q, p
        rows[p] |= 1 << q
    orientation = Orientation(g, Digraph(g.n, tuple(rows)))
    if diameter(orientation.dir) > d:
        raise AssertionError("search returned an invalid witness")
    return DecisionOutcome(SearchStatus.YES, orientation, nodes)


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
    return _solve_bounded(g, _backend.ordered_edges(g), 2, budget)


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
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    edges = _backend.ordered_edges(g)
    for d in range(lower, g.n):
        time_left = None if deadline is None else max(0.0, deadline - time.monotonic())
        level_budget = SearchBudget(max_nodes=remaining, time_limit=time_left)
        outcome = _solve_bounded(g, edges, d, level_budget)
        remaining -= outcome.nodes
        if outcome.status is SearchStatus.YES:
            return d
        if outcome.status is SearchStatus.INDETERMINATE or remaining <= 0:
            return None
    raise AssertionError("a strong orientation of diameter <= n-1 always exists")


def naive_oriented_diameter(g: Graph) -> DistanceValue:
    """Brute force over all 2^m orientations; the cross-check oracle."""
    best = _backend.naive_min_diameter(g.n, g.edges())
    return INFINITE if best < 0 else best


# ---------------------------------------------------------------------------
# isomorphism-free enumeration


def _refined_cells(neighbours: list[tuple[int, ...]]) -> list[list[int]]:
    """Cells of the stable colouring of a graph, given as neighbour lists,
    under colour refinement.

    Every vertex starts with one colour; each round recolours a vertex by
    the rank of (its colour, its sorted neighbour colours) among the
    distinct signatures, until the number of cells stops growing or each
    vertex has its own.  Ranks depend only on the signatures, so the
    cells and their order are invariant under relabelling.
    """
    colour = [0] * len(neighbours)
    cells = min(1, len(neighbours))
    while cells < len(neighbours):
        sigs = [(colour[u], tuple(sorted([colour[w] for w in nbrs]))) for u, nbrs in enumerate(neighbours)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [rank[sig] for sig in sigs]
        if len(rank) == cells:
            break
        cells = len(rank)
    grouped: list[list[int]] = [[] for _ in range(cells)]
    for u, c in enumerate(colour):
        grouped[c].append(u)
    return grouped


def _twin_classes(cell: list[int], adj: tuple[int, ...]) -> list[list[int]]:
    """``cell`` split into classes of twins: vertices with equal open
    neighbourhoods, or else equal closed ones.

    Swapping two twins is an automorphism, so vertex orders that differ
    only inside a class give equal rows.  Twins always share a refined
    cell, and no vertex has twins of both kinds.
    """
    by_open: dict[int, list[int]] = {}
    for u in cell:
        by_open.setdefault(adj[u], []).append(u)
    classes = []
    by_closed: dict[int, list[int]] = {}
    for cls in by_open.values():
        if len(cls) > 1:
            classes.append(cls)
        else:
            by_closed.setdefault(adj[cls[0]] | 1 << cls[0], []).append(cls[0])
    return classes + list(by_closed.values())


def _tied_prefixes(sub: Graph, classes: list[list[int]]) -> Iterator[list[tuple[int, ...]]]:
    """After each position, every prefix of a vertex order whose rows
    tie the minimum over the orders that lay out the refined cells in
    colour order and permute inside each cell.

    Unplaced vertices sit in ordered blocks, starting from the refined
    cells; each block's positions follow the previous block's.  At each
    position the search tries each vertex of the first block, one per
    twin class of ``classes``, and scores its row with its unplaced
    neighbours at the front of every block of its state, itself still
    in the first.  Tied scores split blocks alike, so every state at a
    position has the same block sizes, and the scores order candidates
    as the least rows their orders can still reach.  Placed vertices
    give every candidate the same lower bits, since every block lies
    inside or outside each placed neighbourhood.  Prefixes that tie the
    least score are kept, with each block, less the vertex, split into
    its neighbours, then the rest.
    """
    adj = sub.adj
    twin = {u: 1 << cls[0] for cls in classes for u in cls}
    cells = _refined_cells([sub.neighbors(u) for u in range(sub.n)])
    states = [((), [sum([1 << u for u in cell]) for cell in cells])]
    for position in range(sub.n):
        tries = []
        for order, blocks in states:
            tried = 0
            for v in bits(blocks[0]):
                if not tried & twin[v]:
                    tried |= twin[v]
                    tries.append((order, blocks, v))
        if len(tries) > 1:
            scores = []
            for _, blocks, v in tries:
                score, start = 0, position
                for block in blocks:
                    score |= ((1 << (adj[v] & block).bit_count()) - 1) << start
                    start += block.bit_count()
                scores.append(score)
            best = min(scores)
            tries = [t for t, score in zip(tries, scores) if score == best]
        states = []
        for order, blocks, v in tries:
            split, others = [], ~(1 << v)
            for block in blocks:
                block &= others
                inside = block & adj[v]
                if inside and inside != block:
                    split += (inside, block ^ inside)
                elif block:
                    split.append(block)
            states.append((order + (v,), split))
        yield [order for order, _ in states]


def _canonical_search(sub: Graph) -> tuple[tuple[int, ...], list[list[int]], list[int]]:
    """The minimum adjacency-row tuple over the vertex orders that lay out
    the refined cells in colour order and permute inside each cell,
    generators of the automorphism group as vertex maps, and the first
    order that gives those rows.

    Any two tied orders differ by an automorphism, and every minimum
    order is a tied order moved by twin swaps, so the maps from the
    first tied order to the others and the swaps of each twin with its
    class's first vertex generate the group.

    The cost is the number of states kept, not the vertex count.  At the
    end there is one state per tied order, at most |Aut| divided by the
    order of the group the twin swaps generate: the spider with k legs
    of length 2 ends with k! tied orders, and k = 6, 7, 8 first occur in
    the sweeps of orders 17, 19 and 21.  Before the end there can be
    more, since prefixes tie until a later row tells them apart: the
    5-cycle with a leaf at each vertex keeps 120 prefixes for its 10
    tied orders.
    """
    classes = _twin_classes(list(range(sub.n)), sub.adj)
    *_, orders = _tied_prefixes(sub, classes)
    position = {u: i for i, u in enumerate(orders[0])}
    rows = tuple([sum([1 << position[w] for w in bits(sub.adj[u])]) for u in orders[0]])
    generators = [[order[position[u]] for u in range(sub.n)] for order in orders[1:]]
    generators += [[{a: w, w: a}.get(u, u) for u in range(sub.n)] for a, *twins in classes for w in twins]
    return rows, generators, orders[0]


def _orbits(g: Graph, generators: list[list[int]]) -> list[list[int]]:
    """The orbits of the group that ``generators`` (vertex maps) generate,
    the automorphism group of ``g``, on its vertices, then on its
    non-edges, each vertex or non-edge a bit mask and each orbit led by
    its least mask."""
    points = [1 << u for u in range(g.n)]
    points += [1 << u | 1 << v for v in range(g.n) for u in range(v) if not g.adj[u] >> v & 1]
    found, seen = [], set()
    for p in points:
        if p not in seen:
            orbit = [p]
            seen.add(p)
            for q in orbit:
                for perm in generators:
                    image = sum([1 << perm[u] for u in bits(q)])
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            found.append(orbit)
    return found


def canonical_form(g: Graph, generators: list[list[int]] | None = None) -> Graph:
    """Canonical representative of the isomorphism class of ``g``.

    Isolated vertices come first.  Every other component is canonicalized
    by the minimum of its adjacency rows over the vertex orders allowed by
    colour refinement (`_canonical_search`); components are then sorted
    by (size, canonical rows) and laid out consecutively, as
    `enumerate_blue` lays them out.  Isomorphic graphs get equal forms
    and non-isomorphic graphs different ones.  A component's cost is set
    by how many of its vertex orders tie, which a large automorphism
    group makes many, not by its vertex count (`_canonical_search`).

    For a connected ``g`` with at least two vertices, a ``generators``
    list receives the search's generators of the automorphism group,
    moved onto the form's labels.
    """
    rows = [0] * sum(1 for row in g.adj if not row)
    if generators is not None:
        if rows or len(components(g)) != 1:
            raise ValueError("automorphism generators are kept only for a connected graph")
        piece, found, order = _canonical_search(g)
        position = {u: i for i, u in enumerate(order)}
        generators += [[position[perm[u]] for u in order] for perm in found]
        return _unchecked(g.n, piece)
    pieces = sorted(
        (len(comp), _canonical_search(g if len(comp) == g.n else g.induced(comp))[0])
        for comp in components(g)
        if len(comp) > 1
    )
    for _, piece in pieces:
        offset = len(rows)
        rows += [row << offset for row in piece]
    return _unchecked(len(rows), tuple(rows))


def _outranked(rows: list[int], u: int, v: int) -> bool:
    """Whether the connected graph on ``rows``, grown from its parent by
    the edge uv (a pendant edge when ``v`` is a new leaf), has a deletable
    element that ranks above the one just added.

    Deleting a leaf, or an edge that is not a bridge, leaves a connected
    graph one edge smaller.  Every leaf ranks above every edge, a leaf by
    its neighbour's degree and an edge by (degree sum, common
    neighbours); each rank is an isomorphism invariant.
    """
    degree = [row.bit_count() for row in rows]
    leaves = [degree[row.bit_length() - 1] for row in rows if not row & row - 1]
    if rows[v] == 1 << u:
        return max(leaves) > degree[u]
    if leaves:
        return True
    rank = (degree[u] + degree[v], (rows[u] & rows[v]).bit_count())
    above = {
        (a, b)
        for a, row in enumerate(rows)
        for b in bits(row >> a << a)
        if (degree[a] + degree[b], (row & rows[b]).bit_count()) > rank
    }
    return bool(above) and not above <= set(bridges(_unchecked(len(rows), tuple(rows))))


def _connected_catalogue(n: int, max_edges: int) -> list[list[Graph]]:
    """Canonical forms of the connected graphs on at most ``n`` vertices,
    at index e those with e edges, for e = 0..max_edges, each level sorted
    by (size, rows).

    Level e grows from level e - 1 by adding a missing edge or a pendant
    vertex, deduplicated through `canonical_form`.  That reaches every
    class: deleting a cycle edge of a connected graph, or a leaf edge of a
    tree, leaves a connected graph with one edge fewer.  Growths in one
    orbit of the parent's automorphism group give isomorphic graphs, so
    each parent grows one pendant per vertex orbit and one edge per
    non-edge orbit.  The group's generators are the ones `canonical_form`
    found for the first candidate that gave the parent.

    A candidate whose added element is `_outranked` is skipped with no
    search (canonical augmentation's parent test).  No class is lost:
    deleting a top-ranked element of a class leaves a parent whose growth
    at the orbit leader of that element's image adds a top-ranked one.
    """
    levels = [[Graph(1, (0,))]]
    generators: dict[Graph, list[list[int]]] = {levels[0][0]: []}
    for _ in range(max_edges):
        grown: dict[Graph, list[list[int]]] = {}
        for g in levels[-1]:
            for leader, *_ in _orbits(g, generators[g]):
                if leader & leader - 1:
                    u, v = bits(leader)
                    rows = [*g.adj]
                    rows[v] |= 1 << u
                elif g.n < n:
                    u, v = leader.bit_length() - 1, g.n
                    rows = [*g.adj, leader]
                else:
                    continue
                rows[u] |= 1 << v
                if _outranked(rows, u, v):
                    continue
                found: list[list[int]] = []
                grown.setdefault(canonical_form(_unchecked(len(rows), tuple(rows)), found), found)
        levels.append(sorted(grown, key=attrgetter("n", "adj")))
        generators = grown
    return levels


def enumerate_blue(n: int, max_edges: int):
    """Yield one canonical representative of every isomorphism class of
    graphs on ``n`` vertices with at most ``max_edges`` edges.

    A class is a multiset of connected components.  The components come
    from `_connected_catalogue`; each multiset is taken in (size, rows)
    order and laid out after the isolated vertices, which is the layout
    of `canonical_form`, so every graph yielded is its own canonical
    form.  Emission order: by edge count, then by the adjacency rows of
    the representative.
    """
    if max_edges < 0:
        raise ValueError(f"max_edges must be at least 0, got {max_edges}")
    catalogue = _connected_catalogue(n, max_edges)
    pieces = sorted((g.n, g.adj, m) for m in range(1, max_edges + 1) for g in catalogue[m])
    levels: list[list[Graph]] = [[] for _ in range(max_edges + 1)]

    def lay_out(start: int, size: int, m: int, rows: tuple[int, ...]) -> None:
        isolated = n - size
        levels[m].append(_unchecked(n, (0,) * isolated + tuple([row << isolated for row in rows])))
        for i in range(start, len(pieces)):
            piece_size, piece_rows, piece_m = pieces[i]
            if size + piece_size > n:
                break
            if m + piece_m <= max_edges:
                lay_out(i, size + piece_size, m + piece_m, rows + tuple([row << size for row in piece_rows]))

    lay_out(0, 0, 0, ())
    for level in levels:
        yield from sorted(level, key=attrgetter("adj"))


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

    Enumerates all complements with at most n - 5 edges (timed on its
    own as ``enumeration_time``), orients each input, and re-checks every
    output at diameter <= 2 with one BFS per source (`eccentricity`),
    independent of the constructor's own check.
    Each failure reads ``"<graph6 of the input>: <reason>"``; the reason
    is ``"<exception type>: <message>"`` when the constructor raised.
    """
    from .construct import orient_diameter_two

    if n < 5:
        raise ValueError(f"verification harness starts at n = 5, got {n}")
    start = time.monotonic()
    blues = list(enumerate_blue(n, n - 5))
    enumeration_time = time.monotonic() - start
    failures: list[str] = []
    fallbacks = 0
    for blue in blues:
        red = complement(blue)
        reason = None
        try:
            orientation, trace = orient_diameter_two(red)
            fallbacks += trace.fallback_count()
            if orientation.base != red:
                reason = "orientation is not of the input graph"
            elif (d := max(eccentricity(orientation.dir, u) for u in range(n))) > 2:
                reason = f"orientation has diameter {d}"
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{emit_graph6(red)}: {reason}")
    return VerificationReport(
        n=n,
        instances_checked=len(blues),
        failures=tuple(failures),
        wall_time=time.monotonic() - start,
        fallback_count=fallbacks,
        enumeration_time=enumeration_time,
    )


def verify_sharpness(n: int, budget: SearchBudget | None = None) -> bool:
    """True iff the one-below-threshold extremal graph has no diameter-2
    orientation, decided exhaustively.  Budget exhaustion raises
    RuntimeError; n < 5 raises ValueError (`extremal_graph`)."""
    outcome = exists_orientation_diameter2(extremal_graph(n), budget)
    if outcome.status is SearchStatus.INDETERMINATE:
        raise RuntimeError(f"sharpness search for n={n} exhausted its budget")
    return outcome.status is SearchStatus.NO
