"""Simple graphs and digraphs on vertex sets 0..n-1, stored as bitset rows.

Every value here is immutable: operations return new objects and never
mutate their inputs, so instances are safe to share across threads.
Vertex labels are dense integers; all set-valued results come back sorted
so that traces and tests are reproducible.

Two private kernels check dense rows word-parallel, at every order:

* `_transpose` turns out-rows into in-rows.  It cuts the bit matrix into
  W x W tiles, W the least power of two >= max(8, n) up to 1,024, packs
  each tile into one int, swaps the off-diagonal blocks of every 2s x 2s
  block for s = W/2, ..., 1 with one shift, xor and mask each, and joins
  each in-row from byte slices of its column's tiles.
* `_within_two` decides whether every vertex reaches every other in at
  most two steps, by the method of Four Russians (Arlazarov, Dinic,
  Kronrod and Faradzev, 1970): a 16-entry table of the ORs of each 4
  consecutive rows, then one lookup per nibble of each row.

`in_rows` (and through it `_exact_in_rows` and `Graph`'s symmetry check)
uses the transpose only for rows holding at least n²/64 + 64 arcs; sparser
rows keep the per-arc walk, which is faster there and allocates no tiles.
`diameter` answers from `_within_two` for rows holding at least n²/8 arcs
and falls back to one BFS per source when it finds a pair three or more
steps apart.
`eccentricity` is the plain BFS for a check independent of the kernels.
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


def _dense(n: int, arcs: int) -> bool:
    """Whether rows of order ``n`` holding ``arcs`` set bits go through
    `_transpose` rather than a per-arc walk (the cut was measured on both)."""
    return arcs * 64 >= n * n + 4096


def _swap_rounds(w: int) -> Iterator[tuple[int, int]]:
    """(shift, mask) of each round of the w x w transpose, largest block first:
    ``mask`` holds bit j of row i, at i*w + j, where bit s of j is set and
    bit s of i is clear, and the shift moves it to row i + s, column j - s."""
    s = w >> 1
    while s:
        columns = (((1 << s) - 1) << s) * ((1 << w) - 1) // ((1 << 2 * s) - 1)
        block = columns.to_bytes(w >> 3, "little") * s + bytes((w >> 3) * s)
        yield s * (w - 1), int.from_bytes(block * (w // (2 * s)), "little")
        s >>= 1


# the rounds for small orders; larger ones are built per call (for one tile, a round at a time)
_SMALL_ROUNDS = {w: tuple(_swap_rounds(w)) for w in (8, 16, 32, 64)}


# Tile width of the transpose, measured on a 2 vCPU Xeon: every order up to 1,024
# is one tile, and wider tiles are slower and hold more (at n = 6,400, 2,048-bit
# tiles took 0.12 s and 24 MB of peak RSS growth, 1,024-bit ones 0.08 s and 15 MB).
# One tile skips the tiled loop, which made each transpose twice as slow at n =
# 20..64 and cost 3% of perfbench's orient-scale pass and 5% of cli-batch's.
_TILE = 1024


def _transpose(rows: Sequence[int]) -> list[int]:
    """In-rows of the out-rows ``rows``, by a word-parallel transpose of each tile."""
    n = len(rows)
    w = min(_TILE, max(8, 1 << (n - 1).bit_length()))
    stride = w >> 3
    if n <= w:
        m = int.from_bytes(b"".join([row.to_bytes(stride, "little") for row in rows]), "little")
        for shift, mask in _SMALL_ROUNDS.get(w) or _swap_rounds(w):
            t = (m ^ m >> shift) & mask
            m ^= t | t << shift
        data = m.to_bytes(stride * w, "little")
        return [int.from_bytes(data[i : i + stride], "little") for i in range(0, stride * n, stride)]
    rounds = tuple(_swap_rounds(w))
    width = stride * -(-n // w)  # bytes per row, in whole tiles
    cut = [row.to_bytes(width, "little") for row in rows]
    into: list[int] = []
    for j in range(0, width, stride):
        tiles = []  # this column's tiles, transposed, in row order
        for i in range(0, n, w):
            m = int.from_bytes(b"".join([row[j : j + stride] for row in cut[i : i + w]]), "little")
            for shift, mask in rounds:
                t = (m ^ m >> shift) & mask
                m ^= t | t << shift
            tiles.append(m.to_bytes(stride * w, "little"))
        for k in range(0, stride * min(w, n - 8 * j), stride):
            into.append(int.from_bytes(b"".join([tile[k : k + stride] for tile in tiles]), "little"))
    return into


def _within_two(rows: Sequence[int]) -> bool:
    """Whether every vertex reaches every other in at most two steps along
    the out-rows ``rows``, that is, diameter <= 2, by the method of Four Russians."""
    n = len(rows)
    tables = []  # per byte of a row: the ORs of the rows its low and its high nibble select
    for base in range(0, n, 8):
        low, high = [0], [0]
        for row in rows[base : base + 4]:
            low += [x | row for x in low]
        for row in rows[base + 4 : base + 8]:
            high += [x | row for x in high]
        tables.append((low, high))
    full = (1 << n) - 1
    width = (n + 7) >> 3
    for u, row in enumerate(rows):
        seen = row | 1 << u
        for (low, high), byte in zip(tables, row.to_bytes(width, "little")):
            seen |= low[byte & 15] | high[byte >> 4]
        if seen != full:
            return False
    return True


def in_rows(out: Sequence[int]) -> list[int]:
    """In-neighbor rows of the digraph whose out-neighbor rows are ``out``."""
    if _dense(len(out), sum(map(int.bit_count, out))):
        return _transpose(out)
    into = [0] * len(out)
    for u, row in enumerate(out):
        bit = 1 << u
        for v in bits(row):
            into[v] |= bit
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
        n, adj = self.n, self.adj
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("expected one adjacency row per vertex")
        for u, row in enumerate(adj):
            if row >> n:
                raise ValueError("adjacency row mentions vertices outside 0..n-1")
            if row >> u & 1:
                raise ValueError(f"vertex {u} is adjacent to itself")
        into = in_rows(adj)
        if into != list(adj):
            # the first u in order whose row has a v that lacks u
            u, stray = next((u, row & ~col) for u, (row, col) in enumerate(zip(adj, into)) if row & ~col)
            raise ValueError(f"edge {u}-{(stray & -stray).bit_length() - 1} is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _unchecked(n, tuple(rows))

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

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled by the sorted order of ``vertices``.

        Raises ValueError for a label outside 0..n-1."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            bad = vs[0] if vs[0] < 0 else vs[-1]
            raise ValueError(f"vertex {bad} outside 0..{self.n - 1}")
        return _induced(self.adj, vs)


def _induced(adj: Sequence[int], vs: Sequence[int]) -> Graph:
    """The graph the symmetric rows ``adj`` induce on the sorted labels ``vs``,
    relabelled 0..len(vs)-1 in that order."""
    index = {v: i for i, v in enumerate(vs)}
    inside = sum(1 << v for v in vs)
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for w in bits(adj[v] & inside):
            rows[i] |= 1 << index[w]
    return _unchecked(len(vs), tuple(rows))


def _unchecked(n: int, rows: tuple[int, ...]) -> Graph:
    """A `Graph` over ``rows`` without validation, for rows valid by
    construction: derived from a valid graph (its complement, an induced
    subgraph) or built symmetric by a builder that checked its own input
    (`Graph.from_edges`, `codec.parse_graph6`, `oracle.enumerate_blue`)."""
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
    """Largest distance over ordered vertex pairs; 0 when n <= 1.

    Rows holding at least n²/8 arcs are first tried with `_within_two`,
    which beats a BFS per source from about n²/12 arcs up (measured at
    n = 64, 256 and 1,024); the BFS decides every digraph it rejects.
    """
    if d.n <= 1:
        return 0
    arcs = sum(map(int.bit_count, d.out))
    if arcs * 8 >= d.n * d.n and _within_two(d.out):
        return 1 if arcs == d.n * (d.n - 1) else 2
    worst: DistanceValue = 0
    for u in range(d.n):
        ecc = eccentricity(d, u)
        if ecc == INFINITE:
            return INFINITE
        if ecc > worst:
            worst = ecc
    return worst


def undirected_diameter(g: Graph) -> DistanceValue:
    return diameter(Digraph(g.n, g.adj))


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
