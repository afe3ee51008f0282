"""Simple graphs and digraphs on vertex sets 0..n-1, stored as bitset rows.

Every value here is immutable: operations return new objects and never
mutate their inputs, so instances are safe to share across threads.
Vertex labels are dense integers; all set-valued results come back sorted
so that traces and tests are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final, Iterable, Iterator, Sequence

INFINITE: Final = math.inf

# A distance is a non-negative int, or INFINITE when there is no path.
DistanceValue = int | float

Edge = tuple[int, int]
Arc = tuple[int, int]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(mask: int, gaps: Sequence[int]) -> int:
    """Relabel ``mask`` from positions in the sorted labels outside ``gaps``
    to those labels, by inserting a zero bit at each label of the sorted ``gaps``."""
    for gap in gaps:
        mask = (mask & ((1 << gap) - 1)) | (mask >> gap << (gap + 1))
    return mask


def in_rows(out: Sequence[int]) -> list[int]:
    """In-neighbor rows of the digraph whose out-neighbor rows are ``out``."""
    into = [0] * len(out)
    for u, row in enumerate(out):
        for v in bits(row):
            into[v] |= 1 << u
    return into


def _exact_in_rows(out: Sequence[int], adj: Sequence[int]) -> list[int]:
    """`in_rows` of ``out``; ValueError unless ``out`` orients the rows ``adj`` exactly, each edge one way."""
    into = in_rows(out)
    for u, (row, edges) in enumerate(zip(out, adj)):
        covered = row | into[u]
        if covered != edges:
            raise ValueError(
                "arcs do not orient the base graph exactly "
                f"(vertex {u}: edges {edges:b}, arcs {covered:b})"
            )
        if row & into[u]:
            raise ValueError(f"edge at vertex {u} oriented both ways")
    return into


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``adj[u]`` is the neighbor set of ``u`` as a bitmask."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("expected one adjacency row per vertex")
        for u, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError("adjacency row mentions vertices outside 0..n-1")
            if row >> u & 1:
                raise ValueError(f"vertex {u} is adjacent to itself")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"edge {u}-{v} is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[u]))

    def with_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled by the sorted order of ``vertices``.

        Raises ValueError for a label outside 0..n-1."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            bad = vs[0] if vs[0] < 0 else vs[-1]
            raise ValueError(f"vertex {bad} outside 0..{self.n - 1}")
        index = {v: i for i, v in enumerate(vs)}
        inside = sum(1 << v for v in vs)
        rows = [0] * len(vs)
        for i, v in enumerate(vs):
            for w in bits(self.adj[v] & inside):
                rows[i] |= 1 << index[w]
        return _unchecked(len(vs), tuple(rows))


def _unchecked(n: int, rows: tuple[int, ...]) -> Graph:
    """A `Graph` over ``rows`` without the validation walk, for rows derived
    from a valid graph (its complement, an induced subgraph), which are valid."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


@dataclass(frozen=True)
class Digraph:
    """Directed graph: ``out[u]`` is the out-neighbor set of ``u`` as a bitmask."""

    n: int
    out: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.out) != self.n:
            raise ValueError("expected one out-row per vertex")
        for u, row in enumerate(self.out):
            if row >> self.n:
                raise ValueError("out-row mentions vertices outside 0..n-1")
            if row >> u & 1:
                raise ValueError(f"self-arc at vertex {u}")

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[Arc]) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {u}->{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
        return Digraph(n, tuple(rows))

    def arcs(self) -> list[Arc]:
        return [(u, v) for u in range(self.n) for v in bits(self.out[u])]


@dataclass(frozen=True)
class Orientation:
    """An assignment of exactly one direction to every edge of ``base``."""

    base: Graph
    dir: Digraph

    def __post_init__(self) -> None:
        if self.base.n != self.dir.n:
            raise ValueError("orientation and base graph have different vertex counts")
        _exact_in_rows(self.dir.out, self.base.adj)

    @staticmethod
    def from_arcs(base: Graph, arcs: Iterable[Arc]) -> "Orientation":
        return Orientation(base, Digraph.from_arcs(base.n, arcs))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of ``g``."""
    full = (1 << g.n) - 1
    # built from a list: CPython grows a tuple built from a generator
    # outside its tuple free lists but frees it into them, so over a long
    # run those lists fill with megabytes of unused tuples
    rows = tuple([(full & ~g.adj[u]) & ~(1 << u) for u in range(g.n)])
    return _unchecked(g.n, rows)


def as_digraph(g: Graph) -> Digraph:
    """View an undirected graph as a digraph with both arc directions."""
    return Digraph(g.n, g.adj)


def distance(d: Digraph, u: int, v: int) -> DistanceValue:
    """Length of a shortest directed path from ``u`` to ``v`` (INFINITE if none)."""
    if not (0 <= u < d.n and 0 <= v < d.n):
        raise ValueError(f"vertex out of range: ({u}, {v}) with n={d.n}")
    if u == v:
        return 0
    seen = 1 << u
    frontier = seen
    steps = 0
    while frontier:
        nxt = 0
        for w in bits(frontier):
            nxt |= d.out[w]
        nxt &= ~seen
        steps += 1
        if nxt >> v & 1:
            return steps
        seen |= nxt
        frontier = nxt
    return INFINITE


def eccentricity(d: Digraph, u: int) -> DistanceValue:
    """Largest distance from ``u`` to any other vertex."""
    full = (1 << d.n) - 1
    seen = 1 << u
    frontier = seen
    steps = 0
    while seen != full:
        nxt = 0
        for w in bits(frontier):
            nxt |= d.out[w]
        nxt &= ~seen
        if not nxt:
            return INFINITE
        seen |= nxt
        frontier = nxt
        steps += 1
    return steps


def diameter(d: Digraph) -> DistanceValue:
    """Largest distance over ordered vertex pairs; 0 when n <= 1."""
    if d.n <= 1:
        return 0
    worst: DistanceValue = 0
    for u in range(d.n):
        ecc = eccentricity(d, u)
        if ecc == INFINITE:
            return INFINITE
        if ecc > worst:
            worst = ecc
    return worst


def undirected_diameter(g: Graph) -> DistanceValue:
    return diameter(as_digraph(g))


def reach(rows: tuple[int, ...], start: int) -> int:
    """Bitmask of the vertices reachable from the vertex set ``start`` along ``rows``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by (size, smallest label)."""
    remaining = (1 << g.n) - 1
    comps: list[tuple[int, ...]] = []
    while remaining:
        seen = reach(g.adj, remaining & -remaining)
        comps.append(tuple(list(bits(seen))))  # from a list: see `complement`
        remaining &= ~seen
    comps.sort(key=lambda c: (len(c), c[0]))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def bridges(g: Graph) -> list[Edge]:
    """All bridges of ``g``, found by DFS lowpoints, as sorted (u, v) pairs."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[Edge] = []
    counter = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # iterative DFS; stack holds (vertex, parent, neighbor iterator)
        stack = [(root, -1, iter(bits(g.adj[root])))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    disc[v] = low[v] = counter
                    counter += 1
                    stack.append((v, u, iter(bits(g.adj[v]))))
                    advanced = True
                    break
                elif v != parent:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        out.append((min(u, parent), max(u, parent)))
    out.sort()
    return out


def is_bridgeless(g: Graph) -> bool:
    """True iff no edge disconnects its component when removed."""
    return not bridges(g)
