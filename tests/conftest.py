import importlib.util
import random
from pathlib import Path

import pytest

from orient2.certs import matchjoin_cert, window_cert
from orient2.graphs import Graph, complement


def load_tool(name: str):
    """The script ``tools/<name>.py``, loaded as a module without running its ``main``."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return Graph.from_edges(10, outer + inner + spokes)


def dumbbell(k: int, l: int) -> Graph:
    """Two complete graphs joined by one edge; vertices 0..k-1 and k..k+l-1."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(l) for v in range(u + 1, l)]
    edges.append((0, k))
    return Graph.from_edges(k + l, edges)


def short_dumbbell(k: int, l: int) -> Graph:
    """Two complete graphs sharing vertex 0; k + l - 1 vertices."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    second = [0] + list(range(k, k + l - 1))
    edges += [(second[u], second[v]) for u in range(l) for v in range(u + 1, l)]
    return Graph.from_edges(k + l - 1, edges)


def paths_union(sizes: list[int], n: int | None = None) -> Graph:
    """Disjoint paths of the given orders, laid out consecutively."""
    total = sum(sizes)
    if n is None:
        n = total
    edges = []
    start = 0
    for size in sizes:
        edges.extend((v, v + 1) for v in range(start, start + size - 1))
        start += size
    return Graph.from_edges(n, edges)


def complete_bipartite_cert(a: int, b: int):
    """`window_cert` on K_{a,b} with the classes 0..a-1 and a..a+b-1; None
    outside the window's size bounds."""
    world = Graph.from_edges(a + b, [(x, y) for x in range(a) for y in range(a, a + b)])
    return window_cert(world, range(a), range(a, a + b))


def blue_matchjoin_cert(a: int, b: int, blue_y: Graph):
    """`matchjoin_cert` on the world with no edge inside the x class 0..a-1,
    every cross pair, and on the y class a..a+b-1 exactly the pairs that are
    not edges of ``blue_y`` (its vertex i sits at a + i); None when the sizes
    are out of range or ``blue_y`` does not fit the clique-pair pattern."""
    edges = [(x, y) for x in range(a) for y in range(a, a + b)]
    edges += [(a + i, a + j) for i, j in complement(blue_y).edges()]
    return matchjoin_cert(Graph.from_edges(a + b, edges), range(a), range(a, a + b))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """``g`` with old vertex ``u`` renamed ``perm[u]``."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_connected(rng: random.Random, n: int, p: float) -> Graph:
    """Rejection-sample a connected G(n, p)."""
    from orient2.graphs import is_connected

    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def slack_instances(rng: random.Random, count: int):
    """``count`` kernel inputs (n, edges, d, max_nodes) on connected
    bridgeless graphs with n = 8..16 and d one or two above the undirected
    diameter, so that many sources reach every vertex within d - 1 steps;
    edges degree-ranked or shuffled, budgets unlimited or 0..100 nodes."""
    from orient2._backend import ordered_edges
    from orient2.graphs import is_bridgeless, is_connected, undirected_diameter

    drawn = 0
    while drawn < count:
        n = rng.randint(8, 16)
        p = rng.uniform(0.2, 0.6)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if not (is_connected(g) and is_bridgeless(g)):
            continue
        drawn += 1
        if rng.random() < 0.5:
            edges = ordered_edges(g)
        else:
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
            rng.shuffle(edges)
        d = undirected_diameter(g) + rng.randint(1, 2)
        max_nodes = 10**7 if rng.random() < 0.5 else rng.randint(0, 100)
        yield n, edges, d, max_nodes


@pytest.fixture(scope="session")
def theorem_reports():
    """Shared full verification sweep for the acceptance criteria."""
    from orient2.oracle import verify_theorem

    return {n: verify_theorem(n) for n in range(5, 11)}
