import random
import time
from itertools import chain, combinations, permutations, product
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_graph, cycle_graph, path_graph, petersen, random_connected, relabel, slack_instances
from orient2 import _backend, _pysearch, oracle
from orient2.codec import emit_graph6
from orient2.graphs import (
    INFINITE,
    Digraph,
    Graph,
    Orientation,
    complement,
    diameter,
    is_bridgeless,
    is_connected,
    undirected_diameter,
)
from orient2.oracle import (
    SearchBudget,
    SearchStatus,
    _canonical_search,
    _connected_catalogue,
    _orbits,
    _outranked,
    _refined_cells,
    _tied_prefixes,
    _twin_classes,
    canonical_form,
    enumerate_blue,
    exact_oriented_diameter,
    exists_orientation_diameter2,
    extremal_graph,
    naive_oriented_diameter,
    verify_sharpness,
    verify_theorem,
)


class TestDecision:
    def test_k5_yes_with_verified_witness(self):
        out = exists_orientation_diameter2(complete_graph(5))
        assert out.status is SearchStatus.YES
        assert diameter(out.orientation.dir) <= 2

    def test_extremal_8_no(self):
        out = exists_orientation_diameter2(extremal_graph(8))
        assert out.status is SearchStatus.NO

    def test_star_no(self):
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert exists_orientation_diameter2(star).status is SearchStatus.NO

    def test_disconnected_no(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert exists_orientation_diameter2(g).status is SearchStatus.NO

    def test_budget_exhaustion_is_indeterminate(self):
        out = exists_orientation_diameter2(complete_graph(7), SearchBudget(max_nodes=2))
        assert out.status is SearchStatus.INDETERMINATE

    def test_trivial_graphs_yes(self):
        assert exists_orientation_diameter2(Graph.from_edges(1, [])).status is SearchStatus.YES


class TestExactDiameter:
    def test_c5_is_four(self):
        assert exact_oriented_diameter(cycle_graph(5)) == 4

    def test_petersen_is_six(self):
        assert exact_oriented_diameter(petersen()) == 6

    def test_branching_order_computed_once_per_graph(self, monkeypatch):
        # Petersen is searched at levels 2..6 on one branching order
        calls = []
        order = _backend.ordered_edges
        monkeypatch.setattr(_backend, "ordered_edges", lambda g: calls.append(g) or order(g))
        assert exact_oriented_diameter(petersen()) == 6
        assert len(calls) == 1

    def test_bridge_infinite(self):
        assert exact_oriented_diameter(path_graph(3)) == INFINITE

    def test_empty_graph_and_k1_zero(self):
        assert exact_oriented_diameter(Graph.from_edges(0, [])) == 0
        assert exact_oriented_diameter(Graph.from_edges(1, [])) == 0

    def test_small_complete_graphs(self):
        # no tournament on 4 vertices reaches diameter 2; 3 and 5 both do
        assert exact_oriented_diameter(complete_graph(3)) == 2
        assert exact_oriented_diameter(complete_graph(4)) == 3
        assert exact_oriented_diameter(complete_graph(5)) == 2

    def test_budget_exhaustion_none(self):
        assert exact_oriented_diameter(petersen(), SearchBudget(max_nodes=3)) is None

    def test_matches_naive_small(self):
        rng = random.Random(1123)
        for _ in range(40):
            n = rng.randint(3, 6)
            g = random_connected(rng, n, rng.uniform(0.3, 0.9))
            if g.m > 12:
                continue
            assert exact_oriented_diameter(g) == naive_oriented_diameter(g)


class TestTimeLimit:
    @pytest.mark.skipif(_backend.BACKEND != "python", reason="the patched tick interval reaches only the pure kernel")
    def test_zero_time_limit_gives_no_answer(self, monkeypatch):
        # every tick reads the clock, so a zero-second limit stops the first search
        monkeypatch.setattr(_pysearch, "_TICK_INTERVAL", 1)
        budget = SearchBudget(time_limit=0.0)
        for g in (complete_graph(5), extremal_graph(8)):
            assert exists_orientation_diameter2(g, budget).status is SearchStatus.INDETERMINATE
        for g in (cycle_graph(5), complete_graph(4), petersen()):
            assert exact_oriented_diameter(g, budget) is None

    def test_ample_time_limit_answers(self):
        budget = SearchBudget(time_limit=600.0)
        assert exists_orientation_diameter2(extremal_graph(8), budget).status is SearchStatus.NO
        assert exact_oriented_diameter(petersen(), budget) == 6


class TestOneBelowThreshold:
    """Every graph with one edge fewer than the threshold, C(n,2) - n + 4
    edges, decided exactly: only the extremal graph has no diameter-2
    orientation."""

    @pytest.mark.parametrize("n, count, nodes", [(6, 2, 49), (7, 5, 174), (8, 11, 464), (9, 25, 1493), (10, 66, 4595)])
    def test_census(self, n, count, nodes):
        instances = [complement(b) for b in enumerate_blue(n, n - 4) if b.m == n - 4]
        outcomes = [exists_orientation_diameter2(g) for g in instances]
        assert len(instances) == count
        no = [canonical_form(g) for g, out in zip(instances, outcomes) if out.status is SearchStatus.NO]
        assert no == [canonical_form(extremal_graph(n))]
        assert sum(out.status is SearchStatus.YES for out in outcomes) == count - 1
        assert sum(out.nodes for out in outcomes) == nodes


@st.composite
def _graphs(draw, max_edges=45):
    """Graphs on 6..12 vertices with n to ``max_edges`` edges."""
    n = draw(st.integers(min_value=6, max_value=12))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(min_value=n, max_value=min(max_edges, len(pairs))))
    return Graph.from_edges(n, sorted(draw(st.permutations(pairs))[:m]))


def _connected_bridgeless(g: Graph) -> bool:
    """Connected, and still connected without any single edge."""
    if not is_connected(g):
        return False
    edges = g.edges()
    return all(is_connected(Graph.from_edges(g.n, edges[:i] + edges[i + 1 :])) for i in range(len(edges)))


class TestExactProperties:
    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    def test_finite_iff_connected_and_bridgeless(self, g):
        # Robbins (1939): a graph has a strong orientation iff it is
        # connected and bridgeless
        assert (exact_oriented_diameter(g) != INFINITE) == _connected_bridgeless(g)

    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    def test_at_most_chvatal_thomassen_bound(self, g):
        # Chvatal and Thomassen (JCTB 1978): a bridgeless graph of diameter d
        # has an orientation of diameter at most 2d^2 + 2d
        value = exact_oriented_diameter(g)
        if value != INFINITE:
            d = undirected_diameter(g)
            assert d <= value <= 2 * d * d + 2 * d

    @settings(max_examples=40, deadline=None)
    @given(_graphs(max_edges=20))
    def test_matches_naive(self, g):
        assert exact_oriented_diameter(g) == naive_oriented_diameter(g)


def _rebuilt_orientations(n: int, edges: list[tuple[int, int]]):
    """Out-rows of orientation ``mask`` for every mask, each rebuilt from the
    edge list: bit i set points edges[i][1] -> edges[i][0]."""
    for mask in range(1 << len(edges)):
        out = [0] * n
        for i, (p, q) in enumerate(edges):
            if mask >> i & 1:
                out[q] |= 1 << p
            else:
                out[p] |= 1 << q
        yield mask, out


def _diameter_rows(n: int, out: list[int]) -> int:
    """Directed diameter of out-rows by breadth-first search from every
    source; -1 when some vertex is unreachable."""
    full = (1 << n) - 1
    worst = 0
    for src in range(n):
        seen = frontier = 1 << src
        steps = 0
        while seen != full:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= out[v]
            frontier = nxt & ~seen
            if not frontier:
                return -1
            seen |= frontier
            steps += 1
        worst = max(worst, steps)
    return worst


def _reference_min_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    """The plain brute force: every orientation rebuilt and measured in full."""
    if n <= 1:
        return 0
    best = -1
    for _, out in _rebuilt_orientations(n, edges):
        worst = _diameter_rows(n, out)
        if worst >= 0 and (best < 0 or worst < best):
            best = worst
    return best


def _kernel_corpus() -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded graphs on 1..7 vertices with at most 13 edges, every density,
    edges in random order and direction, plus named small cases."""
    rng = random.Random(4242)
    cases = []
    for _ in range(320):
        n = rng.randint(1, 7)
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(13, len(pairs))))
        cases.append((n, [(q, p) if rng.random() < 0.5 else (p, q) for p, q in edges]))
    named = [
        Graph.from_edges(1, []),
        Graph.from_edges(4, []),
        Graph.from_edges(2, [(0, 1)]),
        cycle_graph(3),
        complete_graph(4),
        complete_graph(5),
        path_graph(5),
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    ]
    return cases + [(g.n, g.edges()) for g in named]


class TestNaiveKernel:
    """The pure kernel's bitsliced blocks against the rebuild-every-orientation
    brute force."""

    def test_matches_rebuild_reference(self):
        results = []
        for n, edges in _kernel_corpus():
            got = _pysearch.naive_min_diameter(n, edges)
            assert got == _reference_min_diameter(n, edges), (n, edges)
            results.append(got)
        assert {-1, 0, 2, 3, 4} <= set(results)

    def test_named_small_cases(self):
        assert _pysearch.naive_min_diameter(2, [(0, 1)]) == -1
        assert _pysearch.naive_min_diameter(3, []) == -1
        assert _pysearch.naive_min_diameter(1, []) == 0
        assert naive_oriented_diameter(cycle_graph(3)) == 2
        assert naive_oriented_diameter(complete_graph(4)) == 3
        assert naive_oriented_diameter(complete_graph(5)) == 2
        assert naive_oriented_diameter(path_graph(4)) == INFINITE

    def test_lane_ok_masks_match_per_orientation_diameters(self):
        # one block holding every orientation: lane j is orientation j
        checked = 0
        for n, edges in _kernel_corpus():
            if n <= 1:
                continue
            m = len(edges)
            ones = (1 << (1 << m)) - 1
            forward = [sum(1 << j for j in range(1 << m) if not j >> i & 1) for i in range(m)]
            oks = _pysearch._lane_oks(n, edges, forward, ones, n - 1)
            diameters = [_diameter_rows(n, out) for _, out in _rebuilt_orientations(n, edges)]
            for hop, ok in enumerate(oks, 1):
                assert ok == sum(1 << j for j, d in enumerate(diameters) if 0 <= d <= hop), (n, edges, hop)
            checked += any(oks)
        assert checked >= 60

    @pytest.mark.parametrize("lane_bits", [1, 2, 3])
    def test_many_blocks_match_rebuild_reference(self, monkeypatch, lane_bits):
        monkeypatch.setattr(_pysearch, "_NAIVE_LANE_BITS", lane_bits)
        for n, edges in _kernel_corpus():
            assert _pysearch.naive_min_diameter(n, edges) == _reference_min_diameter(n, edges), (n, edges)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (Graph.from_edges(3, []), -1),  # m = 0
            (cycle_graph(3), 2),  # m < lane bits
            (path_graph(4), -1),
            (cycle_graph(4), 3),  # m = lane bits
            (path_graph(5), -1),
            (cycle_graph(5), 4),  # m > lane bits
            (complete_graph(4), 3),
            (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]), -1),
        ],
    )
    def test_edge_counts_around_the_lane_width(self, monkeypatch, g, expected):
        monkeypatch.setattr(_pysearch, "_NAIVE_LANE_BITS", 4)
        assert _pysearch.naive_min_diameter(g.n, g.edges()) == expected

    def test_edge_limit(self):
        k10 = complete_graph(10)
        with pytest.raises(ValueError, match="limited to 40 edges"):
            _pysearch.naive_min_diameter(10, k10.edges())
        with pytest.raises(ValueError, match="limited to 40 edges"):
            naive_oriented_diameter(k10)


def _reference_solve(
    n: int,
    edges: list[tuple[int, int]],
    d: int,
    max_nodes: int,
    time_limit: float | None = None,
) -> tuple[int, list[int] | None, int]:
    """The search the reach table replaced: each propagation test sets the
    edge, searches from every source within d - 1 reverse steps of the head
    of the dropped arc, and unsets the edge."""
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
        while True:
            forced = -1
            forced_dir = 0
            for i in range(m):
                if assigned[i] >= 0:
                    continue
                ok0 = feasible_around(set_arc(i, 0))
                unset_arc(i)
                ok1 = feasible_around(set_arc(i, 1))
                unset_arc(i)
                if not ok0 and not ok1:
                    return False
                if ok0 != ok1:
                    forced = i
                    forced_dir = 0 if ok0 else 1
                    break
            if forced < 0:
                return True
            set_arc(forced, forced_dir)
            trail.append(forced)
            tick()

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


class TestSolveKernel:
    """The pure kernel's reach-table propagation against the set, search
    and unset reference: same status, witness and node count."""

    def test_matches_reference(self):
        rng = random.Random(20181)
        statuses = set()
        for _ in range(2000):
            n = rng.randint(2, 10)
            p = rng.uniform(0.2, 0.95)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            if rng.random() < 0.5:
                edges = _backend.ordered_edges(g)
            else:
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
                rng.shuffle(edges)
            d = rng.randint(1, 4)
            max_nodes = 10**7 if rng.random() < 0.5 else rng.randint(0, 30)
            got = _pysearch.solve(n, edges, d, max_nodes, None)
            assert got == _reference_solve(n, edges, d, max_nodes, None), (n, edges, d, max_nodes)
            statuses.add(got[0])
        assert statuses == {_pysearch.STATUS_NO, _pysearch.STATUS_YES, _pysearch.STATUS_BUDGET}

    def test_matches_reference_on_deep_trails(self):
        # connected bridgeless graphs on 11..16 vertices: trails run to dozens
        # of commits, and a failed branch unwinds many of them at once
        rng = random.Random(20182)
        statuses = set()
        backtracked = drawn = 0
        while drawn < 40:
            n = rng.randint(11, 16)
            p = rng.uniform(0.2, 0.6)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            if not (is_connected(g) and is_bridgeless(g)):
                continue
            drawn += 1
            if rng.random() < 0.5:
                edges = _backend.ordered_edges(g)
            else:
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
                rng.shuffle(edges)
            d = rng.randint(2, 6)
            max_nodes = 10**7 if rng.random() < 0.5 else rng.randint(0, 100)
            got = _pysearch.solve(n, edges, d, max_nodes, None)
            assert got == _reference_solve(n, edges, d, max_nodes, None), (n, edges, d, max_nodes)
            statuses.add(got[0])
            # one node per commit: more than a straight run means an undo
            backtracked += got[2] > (1 if got[0] == _pysearch.STATUS_NO else len(edges))
        assert statuses == {_pysearch.STATUS_NO, _pysearch.STATUS_YES, _pysearch.STATUS_BUDGET}
        assert backtracked >= 4

    def test_matches_reference_where_sources_have_slack(self):
        # d above the undirected diameter: the searches the reach table
        # proves unnecessary are skipped, and the answers must not move
        statuses = set()
        for n, edges, d, max_nodes in slack_instances(random.Random(20186), 25):
            got = _pysearch.solve(n, edges, d, max_nodes, None)
            assert got == _reference_solve(n, edges, d, max_nodes, None), (n, edges, d, max_nodes)
            statuses.add(got[0])
        assert statuses == {_pysearch.STATUS_NO, _pysearch.STATUS_YES, _pysearch.STATUS_BUDGET}

    @pytest.mark.parametrize(
        "n, nodes",
        [(5, 20), (6, 21), (7, 27), (8, 33), (9, 39), (10, 45), (11, 51), (12, 57), (13, 63)],
    )
    def test_sharpness_node_counts(self, n, nodes):
        out = exists_orientation_diameter2(extremal_graph(n))
        assert (out.status, out.nodes) == (SearchStatus.NO, nodes)

    def test_petersen_level_node_counts(self):
        g = petersen()
        edges = _backend.ordered_edges(g)
        got = [_pysearch.solve(g.n, edges, d, 10**7, None) for d in range(2, 7)]
        assert [nodes for _, _, nodes in got] == [1, 1, 40, 315, 15]
        assert [status for status, _, _ in got] == [_pysearch.STATUS_NO] * 4 + [_pysearch.STATUS_YES]
        assert got[-1] == _reference_solve(g.n, edges, 6, 10**7, None)


def _distances(n: int, out: list[int], src: int) -> list[int]:
    """Breadth-first distances from ``src`` along the out-rows; n * n where unreachable."""
    dist = [n * n] * n
    dist[src] = 0
    frontier = seen = 1 << src
    step = 0
    while frontier:
        step += 1
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= out[v]
        frontier = nxt & ~seen
        seen |= frontier
        for v in range(n):
            if frontier >> v & 1:
                dist[v] = step
    return dist


class TestSlackLemma:
    """The rule by which `_pysearch.solve` skips a cut-arc search, on plain
    distances: if u reaches a in k steps and b only in k + 1, reaches another
    in-neighbour c of b within k + 1 steps, and reaches every vertex within
    d - 1 steps, then without the arc a->b u still reaches every vertex
    within d steps."""

    def test_cutting_the_arc_keeps_the_eccentricity_within_d(self):
        rng = random.Random(18018)
        held = tight = 0
        for _ in range(200):
            n = rng.randint(4, 12)
            d = rng.randint(2, 5)
            p = rng.uniform(0.2, 0.8)
            out = [0] * n  # a potential digraph: both-way edges and single arcs
            for u, v in combinations(range(n), 2):
                r = rng.random()
                if r < p / 2:
                    out[u] |= 1 << v
                    out[v] |= 1 << u
                elif r < p:
                    u, v = (u, v) if rng.random() < 0.5 else (v, u)
                    out[u] |= 1 << v
            dist = [_distances(n, out, u) for u in range(n)]
            into = [[c for c in range(n) if out[c] >> b & 1] for b in range(n)]
            for a, b in product(range(n), repeat=2):
                if not out[a] >> b & 1:
                    continue
                cut = out[:]
                cut[a] ^= 1 << b
                for u in range(n):
                    k = dist[u][a]
                    if max(dist[u]) > d - 1 or dist[u][b] != k + 1:
                        continue
                    if all(c == a or dist[u][c] > k + 1 for c in into[b]):
                        continue
                    held += 1
                    ecc = max(_distances(n, cut, u))
                    assert ecc <= d, (n, out, a, b, u, d)
                    tight += ecc == d
        assert held >= 5000 and tight >= 100, (held, tight)


def _grown_level_by_level(n: int, max_edges: int):
    """The enumerator the component catalogue replaced: each edge-count
    level adds every missing edge to every graph of the level below and
    deduplicates through `canonical_form`."""
    level = {canonical_form(Graph.from_edges(n, []))}
    yield from sorted(level, key=attrgetter("adj"))
    for _ in range(max_edges):
        level = {
            canonical_form(Graph.from_edges(n, [*g.edges(), (u, v)]))
            for g in level
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        }
        yield from sorted(level, key=attrgetter("adj"))


class TestEnumeration:
    def test_edgeless_only(self):
        assert len(list(enumerate_blue(5, 0))) == 1

    def test_one_edge(self):
        assert len(list(enumerate_blue(5, 1))) == 2

    def test_counts_per_level_n8(self):
        graphs = list(enumerate_blue(8, 3))
        by_edges = {}
        for g in graphs:
            by_edges.setdefault(g.m, []).append(g)
        assert [len(by_edges.get(k, [])) for k in range(4)] == [1, 1, 2, 5]

    def test_no_isomorphic_duplicates(self):
        graphs = list(enumerate_blue(6, 4))
        forms = {tuple(canonical_form(g).adj) for g in graphs}
        assert len(forms) == len(graphs)

    def test_matches_labeled_enumeration_with_perm_dedup(self):
        # independent oracle: orbit counting over all labeled graphs
        n, k = 6, 3
        pairs = list(combinations(range(n), 2))
        all_perms = list(permutations(range(n)))
        seen = set()
        reps = 0
        for combo in combinations(pairs, k):
            key = frozenset(combo)
            if key in seen:
                continue
            reps += 1
            for perm in all_perms:
                seen.add(frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in combo))
        mine = [g for g in enumerate_blue(n, k) if g.m == k]
        assert len(mine) == reps

    @pytest.mark.parametrize("n", range(5, 12))
    def test_matches_level_by_level_reference(self, n):
        # the reference's levels do not depend on max_edges, so one run per n
        # gives its output for every k as a prefix
        reference = list(_grown_level_by_level(n, n - 5))
        for k in range(n - 4):
            assert list(enumerate_blue(n, k)) == [g for g in reference if g.m <= k], (n, k)

    def test_every_graph_is_its_own_canonical_form(self):
        for n in (5, 8, 11):
            for g in enumerate_blue(n, n - 5):
                assert canonical_form(g) == g

    def test_every_graph_equals_its_validated_rebuild(self):
        graphs = list(enumerate_blue(9, 4))
        assert graphs and all(g == Graph(g.n, g.adj) for g in graphs)

    def test_canonical_form_iso_invariant(self):
        rng = random.Random(7)
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_limits(self):
        # no upper limit on the order, nor on max_edges against it; only a
        # negative max_edges is refused (test_negative_max_edges_rejected)
        assert len(list(enumerate_blue(14, 2))) == 4
        graphs = list(enumerate_blue(6, 7))
        assert len(graphs) == 78 and graphs == list(_grown_level_by_level(6, 7))

    def test_negative_max_edges_rejected(self):
        with pytest.raises(ValueError, match="max_edges must be at least 0"):
            next(enumerate_blue(6, -1))

    def test_components_of_eleven_vertices(self):
        graphs = list(enumerate_blue(12, 10))
        assert len(graphs) == 6370
        assert canonical_form(Graph.from_edges(12, [(u, u + 1) for u in range(10)])) in graphs

    @pytest.mark.parametrize(
        "n, counts",
        [
            (10, [1, 1, 2, 5, 11, 26]),
            (11, [1, 1, 2, 5, 11, 26, 67]),
            (12, [1, 1, 2, 5, 11, 26, 68, 175]),
            (13, [1, 1, 2, 5, 11, 26, 68, 176, 492]),
            (14, [1, 1, 2, 5, 11, 26, 68, 177, 495, 1464]),
            (15, [1, 1, 2, 5, 11, 26, 68, 177, 496, 1471, 4583]),
        ],
    )
    def test_counts_per_level_match_oeis(self, n, counts):
        # OEIS A000664 (graphs with m edges), less those needing more than n
        # vertices; at n = 15 its 497, 1,476 and 4,613 for 8, 9 and 10 edges
        # lose 1, 5 and 30 graphs (8K2; five forests; 26 forests and 4
        # unicyclic graphs), and the 10-edge trees are 11-vertex components
        per_level = [0] * (n - 4)
        for g in enumerate_blue(n, n - 5):
            per_level[g.m] += 1
        assert per_level == counts


class TestConnectedCatalogue:
    def test_counts_match_oeis_a002905(self):
        # connected graphs with e edges, e = 0..8
        levels = _connected_catalogue(9, 8)
        assert [len(level) for level in levels] == [1, 1, 1, 3, 5, 12, 30, 79, 227]

    def test_nine_edge_term_of_oeis_a002905(self):
        # reaches C9, whose one refined cell has no twins to prune
        assert len(_connected_catalogue(10, 9)[9]) == 710

    def test_levels_are_canonical_connected_and_sorted(self):
        for m, level in enumerate(_connected_catalogue(6, 6)):
            assert level == sorted(level, key=attrgetter("n", "adj"))
            for g in level:
                assert g.m == m and g.n <= 6 and is_connected(g) and canonical_form(g) == g

    @pytest.mark.parametrize("n", [5, 7])
    def test_matches_networkx_atlas(self, n):
        nx = pytest.importorskip("networkx")
        # the atlas holds every graph on at most 7 vertices, and every
        # connected graph with at most 6 edges has at most 7 vertices
        forms: dict[int, set] = {m: set() for m in range(7)}
        for h in nx.graph_atlas_g():
            if 0 < h.number_of_nodes() <= n and h.number_of_edges() <= 6 and nx.is_connected(h):
                g = Graph.from_edges(h.number_of_nodes(), h.edges())
                forms[g.m].add(canonical_form(g))
        assert [set(level) for level in _connected_catalogue(n, 6)] == [forms[m] for m in range(7)]

    def test_rank_test_loses_no_class(self, monkeypatch):
        levels = _connected_catalogue(9, 8)
        monkeypatch.setattr(oracle, "_outranked", lambda rows, u, v: False)
        assert _connected_catalogue(9, 8) == levels

    def test_about_one_canonical_search_per_class(self, monkeypatch):
        # 1,068 classes above K1; a search of every grown candidate took 4,996
        calls = []
        search = oracle._canonical_search
        monkeypatch.setattr(oracle, "_canonical_search", lambda sub: calls.append(sub) or search(sub))
        assert sum(map(len, _connected_catalogue(10, 9)[1:])) == 1068
        assert len(calls) <= 1250

    def test_grown_edge_is_outranked_by_a_leaf(self):
        # a triangle 0-1-2 with a leaf 3 at 2: grown by the edge 02 from the
        # path 0-1-2-3, or by the leaf from the triangle
        rows = list(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).adj)
        assert _outranked(rows, 0, 2)
        assert not _outranked(rows, 2, 3)

    def test_bridge_of_higher_rank_does_not_outrank_a_grown_edge(self):
        # two triangles joined by the bridge 23, of rank (6, 0); the edge 02
        # ties every other triangle edge next to the bridge at (5, 1)
        rows = list(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]).adj)
        assert not _outranked(rows, 0, 2)
        assert not _outranked(rows, 3, 5)
        assert _outranked(rows, 0, 1)

    def test_leaf_next_to_a_higher_degree_vertex_outranks_a_grown_leaf(self):
        # a star with centre 0 and leaves 1, 2, 3, and a leaf 4 at 1
        rows = list(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)]).adj)
        assert _outranked(rows, 1, 4)
        assert not _outranked(rows, 0, 3)


def _brute_force_form(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency-row tuple over all n! vertex orders."""
    neighbours = [g.neighbors(u) for u in range(g.n)]
    bit = [0] * g.n
    best = None
    for order in permutations(range(g.n)):
        for i, u in enumerate(order):
            bit[u] = 1 << i
        rows = tuple([sum([bit[w] for w in neighbours[u]]) for u in order])
        if best is None or rows < best:
            best = rows
    return best


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _k33() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _prism() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def _cube() -> Graph:
    return Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])


class TestCanonicalLabelling:
    def test_agrees_with_brute_force(self):
        rng = random.Random(2014)
        graphs = []
        for _ in range(150):
            n = rng.randint(1, 7)
            p = rng.uniform(0.1, 0.6)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            graphs += [g, _shuffled(g, rng)]
        mine = [canonical_form(g) for g in graphs]
        oracle = [_brute_force_form(g) for g in graphs]
        # equal forms exactly when the brute-force forms are equal
        pairs = set(zip(mine, oracle))
        assert len(set(mine)) == len(set(oracle)) == len(pairs)
        # and every form is isomorphic to its input
        assert all(_brute_force_form(c) == o for c, o in pairs)

    @pytest.mark.parametrize(
        "g",
        [_k33(), _prism(), cycle_graph(6), _cube(), Graph.from_edges(7, [(0, v) for v in range(1, 7)])],
        ids=["K3,3", "prism", "C6", "Q3", "K1,6"],
    )
    def test_relabelling_invariant_where_refinement_cannot_split(self, g):
        rng = random.Random(g.m)
        form = canonical_form(g)
        for _ in range(4):
            assert canonical_form(_shuffled(g, rng)) == form

    def test_k33_and_prism_differ(self):
        assert canonical_form(_k33()) != canonical_form(_prism())


def _every_cell_order_rows(sub: Graph) -> tuple[int, ...]:
    """The rows `_canonical_search` must return: the minimum over every
    order of every refined cell."""
    neighbours = [sub.neighbors(u) for u in range(sub.n)]
    bit = [0] * sub.n

    def rows(order: list[int]) -> tuple[int, ...]:
        for i, u in enumerate(order):
            bit[u] = 1 << i
        return tuple([sum([bit[w] for w in neighbours[u]]) for u in order])

    cells = _refined_cells(neighbours)
    return min(rows(list(chain(*orders))) for orders in product(*map(permutations, cells)))


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def _spider(legs: int) -> Graph:
    """A centre with ``legs`` paths of length 2."""
    return Graph.from_edges(2 * legs + 1, [e for i in range(1, 2 * legs, 2) for e in [(0, i), (i, i + 1)]])


def _k24() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in range(2) for v in range(2, 6)])


def _k4_leaf() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


class TestTwinShortcut:
    @pytest.mark.parametrize(
        "g",
        [
            _star(6),
            _k24(),
            cycle_graph(6),
            Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
            _k4_leaf(),
        ],
        ids=["K1,6", "K2,4", "C6", "spider-2-2-2", "K4+leaf"],
    )
    def test_forms_equal_every_order_minimum(self, g):
        rng = random.Random(g.n)
        for h in (g, _shuffled(g, rng), _shuffled(g, rng)):
            assert _canonical_search(h)[0] == _every_cell_order_rows(h)

    def test_classes_of_false_and_true_twins(self):
        assert sorted(map(sorted, _twin_classes([0, 1, 2], _k4_leaf().adj))) == [[0, 1, 2]]
        assert sorted(map(sorted, _twin_classes(list(range(6)), _k24().adj))) == [[0, 1], [2, 3, 4, 5]]
        assert sorted(map(sorted, _twin_classes(list(range(6)), cycle_graph(6).adj))) == [[u] for u in range(6)]

    def test_one_branch_per_twin_class(self):
        # a hub joined to three centres with two leaves each: the six leaves
        # form the first cell and three twin classes, and all of them tie
        g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)])
        classes = _twin_classes(list(range(10)), g.adj)
        assert next(_tied_prefixes(g, classes)) == [(4,), (6,), (8,)]
        assert len(next(_tied_prefixes(g, [[u] for u in range(10)]))) == 6
        h = _shuffled(g, random.Random(3))
        first = next(_tied_prefixes(h, _twin_classes(list(range(10)), h.adj)))
        assert len(first) == 3 and len({h.adj[u] for (u,) in first}) == 3

    @pytest.mark.parametrize(
        "g, ties",
        [(cycle_graph(13), 26), (_star(12), 1), (complete_graph(13), 1), (_spider(6), 720)],
        ids=["C13", "K1,12", "K13", "spider-6x2"],
    )
    def test_final_ties_on_symmetric_13_vertex_graphs(self, g, ties):
        # every tied order of a connected graph is an automorphism image of
        # the first, so C13 ties its 26 rotations and reflections and the
        # spider its 6! leg orders; the twin classes leave one order of the
        # star and of the clique
        *_, orders = _tied_prefixes(g, _twin_classes(list(range(13)), g.adj))
        assert len(orders) == ties

    def test_prefixes_can_outnumber_final_ties(self):
        # the 5-cycle with a leaf at each vertex places its leaves first, and
        # their 5! orders tie until the cycle rows tell them apart
        sun = Graph.from_edges(10, [(u, u + 5) for u in range(5)] + [(5 + u, 5 + (u + 1) % 5) for u in range(5)])
        ties = [len(tied) for tied in _tied_prefixes(sun, _twin_classes(list(range(10)), sun.adj))]
        assert max(ties) == 120 and ties[-1] == 10

    @pytest.mark.parametrize(
        "g", [Graph.from_edges(11, [(u, u + 1) for u in range(10)]), _spider(5)], ids=["P11", "spider-5x2"]
    )
    def test_eleven_vertex_form_is_relabelling_invariant(self, g):
        rng = random.Random(11)
        assert canonical_form(_shuffled(g, rng)) == canonical_form(g)

    def test_k19_takes_one_leaf_order_and_is_relabelling_invariant(self):
        star = _star(9)
        prefixes = list(_tied_prefixes(star, _twin_classes(list(range(10)), star.adj)))
        assert len(prefixes) == 10 and all(len(tied) == 1 for tied in prefixes)
        form = canonical_form(star)
        assert form.adj == (1 << 9,) * 9 + ((1 << 9) - 1,)
        rng = random.Random(9)
        for _ in range(4):
            assert canonical_form(_shuffled(star, rng)) == form


def _random_small_graphs(count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, 8)
        p = rng.uniform(0.15, 0.7)
        graphs.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return graphs


def _brute_force_orbits(g: Graph) -> set[frozenset[int]]:
    """Orbits on the vertices and on the non-edges of ``g``, as bit masks,
    under every permutation that maps edges to edges."""
    edges = g.edges()
    autos = [p for p in permutations(range(g.n)) if all(g.has_edge(p[u], p[v]) for u, v in edges)]
    points = [(u,) for u in range(g.n)] + [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    return {frozenset(sum(1 << p[u] for u in point) for p in autos) for point in points}


class TestCanonicalSearch:
    def test_rows_equal_every_order_minimum_on_random_graphs(self):
        for g in _random_small_graphs(300, 2014):
            assert _canonical_search(g)[0] == _every_cell_order_rows(g), emit_graph6(g)

    def test_rows_equal_every_order_minimum_on_relabelled_catalogue(self):
        rng = random.Random(1998)
        for level in _connected_catalogue(7, 6):
            for g in level:
                h = _shuffled(g, rng)
                assert _canonical_search(h)[0] == _every_cell_order_rows(h) == g.adj

    def test_generators_map_edges_to_edges(self):
        catalogue = [g for level in _connected_catalogue(9, 8) for g in level]
        for g in catalogue + _random_small_graphs(100, 7):
            for perm in _canonical_search(g)[1]:
                assert sorted(perm) == list(range(g.n))
                assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())

    def test_orbits_equal_brute_force_orbits(self):
        rng = random.Random(1998)
        for level in _connected_catalogue(7, 8):
            for g in level:
                for h in (g, _shuffled(g, rng)):
                    orbits = _orbits(h, _canonical_search(h)[1])
                    assert {frozenset(orbit) for orbit in orbits} == _brute_force_orbits(h)
                    assert all(orbit[0] == min(orbit) for orbit in orbits)

    def test_form_keeps_the_generators_of_its_automorphism_group(self):
        # the catalogue grows each graph from the generators `canonical_form`
        # kept for a relabelled copy of it, moved onto the form's labels
        rng = random.Random(2602)
        for level in _connected_catalogue(7, 8):
            for g in level:
                if g.n < 2:
                    continue
                generators = []
                assert canonical_form(_shuffled(g, rng), generators) == g
                for perm in generators:
                    assert sorted(perm) == list(range(g.n))
                    assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
                assert {frozenset(orbit) for orbit in _orbits(g, generators)} == _brute_force_orbits(g)

    def test_generators_only_for_a_connected_graph(self):
        for g in (Graph(1, (0,)), Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(3, [(0, 1)])):
            with pytest.raises(ValueError, match="only for a connected graph"):
                canonical_form(g, [])


class TestExtremalFamily:
    def test_n5_is_k5_minus_edge(self):
        g = extremal_graph(5)
        assert (g.n, g.m) == (5, 9)

    def test_size_one_below_threshold(self):
        from orient2.construct import threshold_size

        for n in range(5, 12):
            assert extremal_graph(n).m == threshold_size(n) - 1

    def test_complement_is_star_plus_isolated(self):
        co = complement(extremal_graph(8))
        degs = sorted(co.degree(v) for v in range(8))
        # a 4-leaf star plus three isolated vertices
        assert degs == [0, 0, 0, 1, 1, 1, 1, 4]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            extremal_graph(4)


class TestHarnesses:
    def test_verify_theorem_n5(self):
        report = verify_theorem(5)
        assert report.instances_checked == 1 and report.ok

    def test_verify_theorem_n7(self):
        report = verify_theorem(7)
        assert report.instances_checked == 4 and report.ok

    def test_verify_theorem_rechecks_outputs_without_the_kernels(self, monkeypatch):
        """An output of diameter above 2 fails the re-check even when the
        word-parallel diameter-2 kernel wrongly accepts every digraph."""
        import orient2.construct as construct
        import orient2.graphs as graphs

        real = construct.orient_diameter_two

        def transitive(g):
            _, trace = real(g)
            rows = tuple(row >> (u + 1) << (u + 1) for u, row in enumerate(g.adj))
            return Orientation(g, Digraph(g.n, rows)), trace

        monkeypatch.setattr(construct, "orient_diameter_two", transitive)
        monkeypatch.setattr(graphs, "_within_two", lambda rows: True)
        report = verify_theorem(7)
        assert report.instances_checked == 4 and len(report.failures) == 4
        assert all(f.endswith(": orientation has diameter inf") for f in report.failures)

    def test_verify_theorem_range_check(self):
        with pytest.raises(ValueError):
            verify_theorem(4)

    def test_verify_theorem_n12(self):
        report = verify_theorem(12)
        assert report.instances_checked == 289 and report.ok
        assert report.fallback_count == 0

    def test_verify_theorem_n14(self):
        report = verify_theorem(14)
        assert report.instances_checked == 2250 and report.ok
        assert report.fallback_count == 0
        assert 0 < report.enumeration_time < report.wall_time

    def test_verify_theorem_records_why_an_instance_failed(self, monkeypatch):
        import orient2.construct

        def broken(g):
            raise RuntimeError("no move at level 0")

        monkeypatch.setattr(orient2.construct, "orient_diameter_two", broken)
        report = verify_theorem(6)
        assert report.instances_checked == 2 and len(report.failures) == 2
        red = complement(next(enumerate_blue(6, 1)))
        assert report.failures[0] == f"{emit_graph6(red)}: RuntimeError: no move at level 0"

    def test_sharpness_small(self):
        assert verify_sharpness(5)
        assert verify_sharpness(6)
        assert all(verify_sharpness(n) for n in range(10, 31))

    def test_sharpness_range_check(self):
        with pytest.raises(ValueError):
            verify_sharpness(4)

    def test_sharpness_budget_raises(self):
        with pytest.raises(RuntimeError):
            verify_sharpness(9, SearchBudget(max_nodes=1))

    def test_budget_env_override(self, monkeypatch):
        from orient2.oracle import default_budget

        monkeypatch.setenv("ORIENT2_BUDGET", "12345")
        assert default_budget().max_nodes == 12345
        monkeypatch.delenv("ORIENT2_BUDGET")
        assert default_budget().max_nodes == 100_000_000

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_budget_env_rejects_what_is_not_a_budget(self, monkeypatch, value):
        from orient2.oracle import default_budget

        monkeypatch.setenv("ORIENT2_BUDGET", value)
        with pytest.raises(ValueError, match=f"ORIENT2_BUDGET must be an integer of at least 0, got '{value}'"):
            default_budget()
