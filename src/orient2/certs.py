"""Orientation certificates over a two-class vertex partition.

A certificate fixes an orientation of a graph together with a partition of
its vertices into two classes such that vertices of the same class are at
directed distance at most 2.  A certificate is *non-trivial* when in
addition every vertex has both an in-neighbor and an out-neighbor in the
opposite class.  Two explicit constructions produce such certificates:

* the rotating-window orientation of a spanning complete bipartite graph
  (`orient_complete_bipartite` and the overlay `window_cert`), and
* the clique-pair-with-matching orientation (`orient_bipartite_blue_matchjoin`
  and the overlay `matchjoin_cert`), which tolerates a structured set of
  missing edges on the larger side.

`combine` glues a certified subset to a small remainder with no missing
edges in between, producing a full diameter-2 orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import Sequence

from .graphs import (
    Arc,
    Graph,
    Orientation,
    bits,
    complement,
    diameter,
)


@dataclass(frozen=True)
class Partition2:
    """An ordered pair of disjoint vertex classes covering a certified set."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.first) & set(self.second):
            raise ValueError("partition classes overlap")


@dataclass(frozen=True)
class GoodOrientationCert:
    """Orientation of ``world`` whose classes witness the distance conditions."""

    world: Graph
    orientation: Orientation
    classes: Partition2
    nontrivial: bool


def matchjoin_graph(a: int, k: int) -> Graph:
    """Cliques on 0..a-1 and a..a+k-1, with vertex i matched to a + i for i < k."""
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(a + u, a + v) for u in range(k) for v in range(u + 1, k)]
    edges += [(i, a + i) for i in range(k)]
    return Graph.from_edges(a + k, edges)


def _reach2_rows(o: Orientation) -> list[int]:
    rows = []
    for u in range(o.base.n):
        r = o.dir.out[u]
        acc = r
        for v in bits(r):
            acc |= o.dir.out[v]
        rows.append(acc | 1 << u)
    return rows


def verify_cert(c: GoodOrientationCert) -> bool:
    """Check both certificate conditions at the claimed nontriviality level."""
    if c.orientation.base != c.world:
        raise ValueError("certificate orientation is not over its own world")
    n = c.world.n
    first = set(c.classes.first)
    second = set(c.classes.second)
    if first | second != set(range(n)) or first & second:
        raise ValueError("partition classes do not partition the certified set")
    reach2 = _reach2_rows(c.orientation)
    for cls in (c.classes.first, c.classes.second):
        cls_mask = 0
        for v in cls:
            cls_mask |= 1 << v
        for v in cls:
            if cls_mask & ~reach2[v]:
                return False
    if c.nontrivial:
        masks = {}
        for name, cls in (("first", first), ("second", second)):
            mask = 0
            for v in cls:
                mask |= 1 << v
            masks[name] = mask
        inn = [0] * n
        for u in range(n):
            for v in bits(c.orientation.dir.out[u]):
                inn[v] |= 1 << u
        for v in first:
            if not (c.orientation.dir.out[v] & masks["second"]) or not (inn[v] & masks["second"]):
                return False
        for v in second:
            if not (c.orientation.dir.out[v] & masks["first"]) or not (inn[v] & masks["first"]):
                return False
    return True


def _tie_break_fill(world: Graph, arcs: dict[frozenset[int], Arc]) -> list[Arc]:
    """Complete a partial arc map to all edges, orienting leftovers low -> high."""
    done = []
    for u, v in world.edges():
        key = frozenset((u, v))
        done.append(arcs.get(key, (u, v)))
    return done


def _window_injection(a: int, b: int) -> list[frozenset[int]]:
    """b distinct (a//2)-subsets of range(a); entry i < a is the cyclic window at i."""
    size = a // 2
    windows = [frozenset((i + t) % a for t in range(size)) for i in range(a)]
    if b <= a:
        return windows[:b]
    seen = set(windows)
    extra = []
    for combo in combinations(range(a), size):
        s = frozenset(combo)
        if s not in seen:
            extra.append(s)
            seen.add(s)
        if len(windows) + len(extra) >= b:
            break
    return (windows + extra)[:b]


def _window_arcs(xs: Sequence[int], ys: Sequence[int]) -> dict[frozenset[int], Arc]:
    """Rotating-window arcs between class xs (size a) and class ys (size b >= a)."""
    a, b = len(xs), len(ys)
    arcs: dict[frozenset[int], Arc] = {}
    if (a, b) == (1, 1):
        arcs[frozenset((xs[0], ys[0]))] = (xs[0], ys[0])
        return arcs
    windows = _window_injection(a, b)
    for i in range(b):
        for j in range(a):
            if j in windows[i]:
                arcs[frozenset((ys[i], xs[j]))] = (ys[i], xs[j])
            else:
                arcs[frozenset((ys[i], xs[j]))] = (xs[j], ys[i])
    return arcs


def window_sizes_ok(a: int, b: int) -> bool:
    if (a, b) == (1, 1):
        return True
    return 2 <= a <= b <= comb(a, a // 2)


def split_sizes_ok(a: int, b: int) -> bool:
    """Whether `split_cert` can certify some split with sides of sizes ``a <= b``.

    The window needs ``2 <= a <= b <= C(a, a//2)`` and the clique pair
    ``3 <= a <= b <= 2a``; other sizes never get a certificate.
    """
    return a >= 2 and window_sizes_ok(a, b) or 3 <= a <= b <= 2 * a


def window_cert(world: Graph, side_x: Sequence[int], side_y: Sequence[int]) -> GoodOrientationCert | None:
    """Certificate for a world that spans the complete bipartite graph on the two sides.

    ``side_x`` plays the windowed role and must be the smaller side.  World
    edges inside a class are oriented by the global tie-break; they can only
    shorten distances.  Returns None when the size bounds fail or a cross
    pair is missing.
    """
    xs, ys = list(side_x), list(side_y)
    a, b = len(xs), len(ys)
    if not window_sizes_ok(a, b):
        return None
    for x in xs:
        for y in ys:
            if not world.has_edge(x, y):
                return None
    arcs = _window_arcs(xs, ys)
    orientation = Orientation.from_arcs(world, _tie_break_fill(world, arcs))
    cert = GoodOrientationCert(
        world=world,
        orientation=orientation,
        classes=Partition2(tuple(xs), tuple(ys)),
        nontrivial=(a, b) != (1, 1),
    )
    return cert if verify_cert(cert) else None


def orient_complete_bipartite(a: int, b: int) -> GoodOrientationCert:
    """Certificate for the plain complete bipartite graph on a + b vertices.

    Classes are 0..a-1 and a..a+b-1.  Valid for (1, 1) (trivially) and for
    2 <= a <= b <= C(a, a//2).
    """
    if not window_sizes_ok(a, b):
        raise ValueError(f"no rotating-window orientation for sides ({a}, {b})")
    xs = list(range(a))
    ys = list(range(a, a + b))
    world = Graph.from_edges(a + b, [(x, y) for x in xs for y in ys])
    cert = window_cert(world, xs, ys)
    assert cert is not None
    return cert


def _embed_into_matchjoin(pattern_blue: Graph, a: int, k: int) -> list[int] | None:
    """Injective map of pattern vertices onto clique-pair positions.

    Positions 0..a-1 form one clique, a..a+k-1 the other, and position i is
    matched with a+i for i < k.  Every pattern edge must land on a clique
    edge or a matching pair.  Deterministic backtracking, components first.
    """
    b = a + k
    if pattern_blue.n > b:
        return None
    target = matchjoin_graph(a, k)
    # order: within each component walk from its smallest vertex so every
    # later vertex has an already-placed neighbor when possible
    order: list[int] = []
    seen: set[int] = set()
    for start in range(pattern_blue.n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in pattern_blue.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    placement = [-1] * pattern_blue.n
    used = [False] * b

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        placed_nbrs = [placement[w] for w in pattern_blue.neighbors(v) if placement[w] >= 0]
        for pos in range(b):
            if used[pos]:
                continue
            if any(not target.has_edge(pos, p) for p in placed_nbrs):
                continue
            placement[v] = pos
            used[pos] = True
            if extend(idx + 1):
                return True
            placement[v] = -1
            used[pos] = False
        return False

    return placement if extend(0) else None


def matchjoin_cert(world: Graph, side_x: Sequence[int], side_y: Sequence[int]) -> GoodOrientationCert | None:
    """Certificate for a world spanning K_{a,b} whose missing edges on the y side
    fit inside a clique pair with a matching.

    Requires 3 <= a <= b <= 2a where a = |side_x|, b = |side_y|.  The missing
    edges among ``side_y`` (its complement within the world) are embedded into
    the clique-pair pattern; no embedding means no certificate.
    """
    xs, ys = list(side_x), list(side_y)
    a, b = len(xs), len(ys)
    if not 3 <= a <= b <= 2 * a:
        return None
    for x in xs:
        for y in ys:
            if not world.has_edge(x, y):
                return None
    missing_y = complement(world.induced(ys))  # labels follow sorted(ys)
    ys_sorted = sorted(ys)
    placement = _embed_into_matchjoin(missing_y, a, b - a)
    if placement is None:
        return None
    # at_pos[p] = actual vertex sitting at clique-pair position p
    at_pos = [-1] * b
    for local, pos in enumerate(placement):
        at_pos[pos] = ys_sorted[local]
    k = b - a
    arcs: dict[frozenset[int], Arc] = {}

    def put(u: int, v: int) -> None:
        arcs[frozenset((u, v))] = (u, v)

    for i in range(a):
        put(xs[i], at_pos[i])  # x_i -> y at position i
        for j in range(a):
            if j != i:
                put(at_pos[j], xs[i])  # y at position j -> x_i
    for i in range(k):
        put(at_pos[a + i], xs[i])
        for j in range(a):
            if j != i:
                put(xs[j], at_pos[a + i])
    # second-clique positions point at first-clique positions wherever the
    # actual edge exists; matched pairs fall to the tie-break when present
    for i in range(k):
        for j in range(a):
            if j != i and world.has_edge(at_pos[a + i], at_pos[j]):
                put(at_pos[a + i], at_pos[j])
    orientation = Orientation.from_arcs(world, _tie_break_fill(world, arcs))
    cert = GoodOrientationCert(
        world=world,
        orientation=orientation,
        classes=Partition2(tuple(xs), tuple(ys)),
        nontrivial=True,
    )
    return cert if verify_cert(cert) else None


def orient_bipartite_blue_matchjoin(a: int, b: int, blue_y: Graph) -> GoodOrientationCert:
    """Certificate for the worst-case world with partite sets of sizes a and b.

    The world has no edges inside the x class (0..a-1), every cross pair,
    and on the y class (a..a+b-1) exactly the pairs that are not edges of
    ``blue_y`` (vertex i of blue_y sits at a+i).  ``blue_y`` must fit the
    clique-pair pattern under some relabeling; raises ValueError otherwise.
    """
    if not 3 <= a <= b <= 2 * a:
        raise ValueError(f"partite sizes ({a}, {b}) outside 3 <= a <= b <= 2a")
    if blue_y.n != b:
        raise ValueError(f"expected a graph on {b} vertices, got {blue_y.n}")
    xs = list(range(a))
    ys = list(range(a, a + b))
    edges = [(x, y) for x in xs for y in ys]
    for i in range(b):
        for j in range(i + 1, b):
            if not blue_y.has_edge(i, j):
                edges.append((a + i, a + j))
    world = Graph.from_edges(a + b, edges)
    cert = matchjoin_cert(world, xs, ys)
    if cert is None:
        raise ValueError(
            "missing-edge pattern does not fit two cliques plus a matching under any relabeling"
        )
    return cert


def split_cert(world: Graph, side_a: Sequence[int], side_b: Sequence[int]) -> GoodOrientationCert | None:
    """First non-trivial certificate for the given two-class split, if any.

    Tries the rotating window with the smaller side in the windowed role,
    then the clique-pair construction with either side as the x class.
    """
    small, large = (side_a, side_b) if len(side_a) <= len(side_b) else (side_b, side_a)
    if not split_sizes_ok(len(small), len(large)):
        return None
    cert = window_cert(world, small, large)
    if cert is not None:
        return cert
    for xs, ys in ((side_a, side_b), (side_b, side_a)):
        cert = matchjoin_cert(world, xs, ys)
        if cert is not None:
            return cert
    return None


class CombineCase(Enum):
    NONTRIVIAL_CERT = "nontrivial-cert"
    THREE_ISOLATED = "three-isolated"
    TWO = "two"


def _map_cert_arcs(cert: GoodOrientationCert, vertex_of_local: Sequence[int]) -> list[Arc]:
    return [(vertex_of_local[u], vertex_of_local[v]) for u, v in cert.orientation.dir.arcs()]


def combine(
    red: Graph,
    cert_w: GoodOrientationCert,
    z: Sequence[int],
    zcase: CombineCase,
    cert_z: GoodOrientationCert | None = None,
) -> Orientation:
    """Extend a certified subset to a diameter-2 orientation of all of ``red``.

    ``z`` lists the uncertified vertices; the rest of ``red`` is the
    certified set and must match ``cert_w.world`` under sorted relabeling.
    Every edge between the two parts must be present in ``red``.
    """
    z_sorted = sorted(set(z))
    w_sorted = sorted(set(range(red.n)) - set(z_sorted))
    if not z_sorted or not w_sorted:
        raise ValueError("both the certified set and the leftover set must be nonempty")
    if red.induced(w_sorted) != cert_w.world:
        raise ValueError("certificate world does not match the certified subset")
    if not cert_w.nontrivial or not verify_cert(cert_w):
        raise ValueError("certified subset needs a verified non-trivial certificate")
    for u in w_sorted:
        for v in z_sorted:
            if not red.has_edge(u, v):
                raise ValueError(f"missing edge {u}-{v} between the certified set and the rest")

    first_w = [w_sorted[i] for i in cert_w.classes.first]
    second_w = [w_sorted[i] for i in cert_w.classes.second]
    arcs: dict[frozenset[int], Arc] = {}

    def put(u: int, v: int) -> None:
        arcs[frozenset((u, v))] = (u, v)

    for u, v in _map_cert_arcs(cert_w, w_sorted):
        put(u, v)

    if zcase is CombineCase.NONTRIVIAL_CERT:
        if cert_z is None or not cert_z.nontrivial or not verify_cert(cert_z):
            raise ValueError("this case needs a verified non-trivial certificate for the rest")
        if red.induced(z_sorted) != cert_z.world:
            raise ValueError("rest certificate world does not match the rest of the graph")
        first_z = [z_sorted[i] for i in cert_z.classes.first]
        second_z = [z_sorted[i] for i in cert_z.classes.second]
        for u, v in _map_cert_arcs(cert_z, z_sorted):
            put(u, v)
        for u in first_w:
            for v in first_z:
                put(u, v)
        for u in first_z:
            for v in second_w:
                put(u, v)
        for u in second_w:
            for v in second_z:
                put(u, v)
        for u in second_z:
            for v in first_w:
                put(u, v)
    elif zcase in (CombineCase.THREE_ISOLATED, CombineCase.TWO):
        if zcase is CombineCase.THREE_ISOLATED:
            if len(z_sorted) != 3:
                raise ValueError("this case needs exactly three leftover vertices")
            y1, y2, y3 = z_sorted
            for p, q in ((y1, y2), (y2, y3), (y3, y1)):
                if not red.has_edge(p, q):
                    raise ValueError("three-vertex case requires pairwise edges among the leftovers")
                put(p, q)
        else:
            if len(z_sorted) != 2:
                raise ValueError("this case needs exactly two leftover vertices")
        lead = z_sorted[0]
        rest = z_sorted[1:]
        for u in first_w:
            put(u, lead)
        for v in second_w:
            put(lead, v)
        for y in rest:
            for u in first_w:
                put(y, u)
            for v in second_w:
                put(v, y)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown case {zcase}")

    orientation = Orientation.from_arcs(red, _tie_break_fill(red, arcs))
    if diameter(orientation.dir) > 2:
        raise AssertionError("combined orientation failed its diameter check")
    return orientation
