import importlib.util
import random
import time
from pathlib import Path

import pytest

from orient2 import _pysearch
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


def reference_solve(
    n: int,
    edges: list[tuple[int, int]],
    d: int,
    max_nodes: int,
    time_limit: float | None = None,
    restart: bool = False,
) -> tuple[int, list[int] | None, int]:
    """The search the reach table replaced: each propagation test sets the
    edge, searches from every source within d - 1 reverse steps of the head
    of the dropped arc, and unsets the edge.  Propagation is one cyclic scan
    to the fixpoint, as in the kernels; ``restart`` instead scans again from
    edge 0 after every forced edge."""
    m = len(edges)
    full = (1 << n) - 1
    out = [0] * n
    inn = [0] * n
    und = [0] * n
    for p, q in edges:
        und[p] |= 1 << q
        und[q] |= 1 << p
    assigned = [-1] * m
    trail: list[int] = []
    nodes = 0
    deadline = time.monotonic() + time_limit if time_limit is not None else None

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _pysearch._BudgetExceeded
        if deadline is not None and nodes % _pysearch._TICK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise _pysearch._BudgetExceeded

    def reach_ok(src: int) -> bool:
        r = 1 << src
        for _ in range(d):
            nxt = r
            mask = r
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                nxt |= out[v] | und[v]
            if nxt == r:
                break
            r = nxt
            if r == full:
                return True
        return r == full

    def feasible_around(head: int) -> bool:
        r = 1 << head
        for _ in range(d - 1):
            nxt = r
            mask = r
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                nxt |= inn[v] | und[v]
            if nxt == r:
                break
            r = nxt
        mask = r
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if not reach_ok(u):
                return False
        return True

    def set_arc(i: int, direction: int) -> int:
        p, q = edges[i]
        if direction:
            p, q = q, p
        out[p] |= 1 << q
        inn[q] |= 1 << p
        und[p] &= ~(1 << q)
        und[q] &= ~(1 << p)
        assigned[i] = direction
        return q

    def unset_arc(i: int) -> None:
        p, q = edges[i]
        if assigned[i]:
            p, q = q, p
        out[p] &= ~(1 << q)
        inn[q] &= ~(1 << p)
        und[p] |= 1 << q
        und[q] |= 1 << p
        assigned[i] = -1

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            unset_arc(trail.pop())

    def propagate() -> bool:
        i = quiet = 0
        while quiet < m:
            quiet += 1
            if assigned[i] < 0:
                ok0 = feasible_around(set_arc(i, 0))
                unset_arc(i)
                ok1 = feasible_around(set_arc(i, 1))
                unset_arc(i)
                if not ok0 and not ok1:
                    return False
                if ok0 != ok1:
                    set_arc(i, 0 if ok0 else 1)
                    trail.append(i)
                    tick()
                    quiet = 0
                    if restart:
                        i = 0
                        continue
            i = i + 1 if i + 1 < m else 0
        return True

    def search() -> bool:
        mark = len(trail)
        if not propagate():
            undo_to(mark)
            return False
        branch = next((i for i in range(m) if assigned[i] < 0), -1)
        if branch < 0:
            return True
        for direction in (0, 1):
            submark = len(trail)
            head = set_arc(branch, direction)
            trail.append(branch)
            tick()
            if feasible_around(head) and search():
                return True
            undo_to(submark)
        undo_to(mark)
        return False

    try:
        if not all(reach_ok(u) for u in range(n)):
            return (_pysearch.STATUS_NO, None, nodes)
        if m == 0:
            return (_pysearch.STATUS_YES, [], nodes)
        head = set_arc(0, 0)
        trail.append(0)
        tick()
        if feasible_around(head) and search():
            return (_pysearch.STATUS_YES, list(assigned), nodes)
        return (_pysearch.STATUS_NO, None, nodes)
    except _pysearch._BudgetExceeded:
        return (_pysearch.STATUS_BUDGET, None, nodes)


@pytest.fixture(scope="session")
def theorem_reports():
    """Shared full verification sweep for the acceptance criteria."""
    from orient2.oracle import verify_theorem

    return {n: verify_theorem(n) for n in range(5, 11)}
