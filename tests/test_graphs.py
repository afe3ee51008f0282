import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import complete_graph, cycle_graph, dumbbell, path_graph
import orient2.graphs as graphs_module
from orient2.codec import emit_graph6, parse_graph6
from orient2.construct import orient_diameter_two
from orient2.graphs import (
    INFINITE,
    Digraph,
    Graph,
    Orientation,
    _transpose,
    _within_two,
    bits,
    complement,
    components,
    diameter,
    eccentricity,
    in_rows,
    is_bridgeless,
    undirected_diameter,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs) if pairs else st.nothing(), max_size=len(pairs)))
    return Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize(
        "n, rows, match",
        [
            (2, (0b10, 0b00), "not symmetric"),
            (2, (0b01, 0b00), "adjacent to itself"),
            (2, (0b100, 0b00), "outside"),
            (2, (0b00,), "one adjacency row"),
            (-1, (), "non-negative"),
        ],
    )
    def test_public_constructor_validates_rows(self, n, rows, match):
        with pytest.raises(ValueError, match=match):
            Graph(n, rows)

    def test_from_edges_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges(-1, [])

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
        assert g.edges() == [(0, 1), (1, 3), (2, 3)]

    def test_induced_relabels(self):
        g = path_graph(5)
        sub = g.induced([1, 2, 4])
        assert sub.edges() == [(0, 1)]

    @pytest.mark.parametrize("vertices, label", [([-1], -1), ([-3], -3), ([-1, 0], -1), ([0, 5], 5)])
    def test_induced_rejects_labels_outside_the_graph(self, vertices, label):
        with pytest.raises(ValueError, match=f"vertex {label} outside 0..2"):
            path_graph(3).induced(vertices)

    @given(graphs(), st.data())
    def test_derived_graphs_equal_validated_rebuilds(self, g, data):
        vs = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        built = (complement(g), g.induced(vs), Graph.from_edges(g.n, g.edges()), parse_graph6(emit_graph6(g)))
        for derived in built:
            assert derived == Graph(derived.n, derived.adj)
        assert built[2] == built[3] == g
        assert complement(g).adj == tuple(
            sum(1 << v for v in range(g.n) if v != u and not g.has_edge(u, v)) for u in range(g.n)
        )
        order = sorted(vs)
        assert g.induced(vs).adj == tuple(
            sum(1 << j for j, w in enumerate(order) if g.has_edge(v, w)) for v in order
        )


class TestComplement:
    def test_complete_becomes_edgeless(self):
        assert complement(complete_graph(5)).m == 0

    def test_single_vertex_fixed_point(self):
        g = Graph.from_edges(1, [])
        assert complement(g) == g

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        co = complement(c5)
        assert co.m == 5
        assert sorted(co.degree(v) for v in range(5)) == [2] * 5
        assert is_bridgeless(co) and len(components(co)) == 1

    @given(graphs())
    def test_edge_counts_add_up(self, g):
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestDistances:
    def test_directed_triangle(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert diameter(d) == 2

    def test_unreachable(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        assert eccentricity(d, 0) == 1
        assert eccentricity(d, 1) == INFINITE

    def test_diameter_isolated_vertex(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0)])
        assert diameter(d) == INFINITE

    def test_diameter_trivial(self):
        assert diameter(Digraph.from_arcs(1, [])) == 0

    def test_directed_four_cycle(self):
        # the two-by-two complete bipartite graph oriented as a cycle
        d = Digraph.from_arcs(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert diameter(d) == 3

    @given(graphs(max_n=7))
    def test_orientation_diameter_lower_bound(self, g):
        # orienting can only increase distances beyond the undirected ones
        arcs = [(u, v) for u, v in g.edges()]
        o = Orientation.from_arcs(g, arcs)
        assert diameter(o.dir) >= undirected_diameter(g)

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_adding_arcs_never_increases_distances(self, g, rng):
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        base = Digraph.from_arcs(g.n, arcs)
        smaller = [a for a in arcs if rng.random() < 0.7]
        partial = Digraph.from_arcs(g.n, smaller)
        for u in range(g.n):
            assert eccentricity(base, u) <= eccentricity(partial, u)


class TestComponentsAndBridges:
    def test_triangle_plus_isolated(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
        assert components(g) == [(3,), (4,), (0, 1, 2)]

    def test_edgeless(self):
        assert components(Graph.from_edges(4, [])) == [(0,), (1,), (2,), (3,)]

    def test_dumbbell_connected(self):
        assert components(dumbbell(3, 4)) == [tuple(range(7))]

    def test_cycle_bridgeless(self):
        assert is_bridgeless(cycle_graph(5))

    def test_path_has_bridges(self):
        assert not is_bridgeless(path_graph(3))

    def test_dumbbell_join_edge_is_bridge(self):
        assert not is_bridgeless(dumbbell(3, 3))

    def test_two_cycles_bridgeless_componentwise(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
        assert is_bridgeless(g)


class TestOrientation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Digraph(3, (0, 0)), "expected one out-row per vertex"),
            (lambda: Digraph(2, (0b100, 0)), "out-row mentions vertices outside 0..n-1"),
            (lambda: Digraph(3, (0, 0b10, 0)), "self-arc at vertex 1"),
            (lambda: Digraph.from_arcs(3, [(0, 1), (2, 2)]), "self-arc at vertex 2"),
            (lambda: Digraph.from_arcs(3, [(0, 3)]), "arc 0->3 outside 0..2"),
            (lambda: Orientation(Graph.from_edges(3, []), Digraph(2, (0, 0))),
             "orientation and base graph have different vertex counts"),
        ],
        ids=["row-count", "row-past-n", "self-arc-row", "self-arc", "arc-out-of-range", "orders-differ"],
    )
    def test_input_errors(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_rejects_double_direction(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            Orientation.from_arcs(g, [(0, 1), (1, 0)])

    def test_rejects_missing_edge(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Orientation.from_arcs(g, [(0, 1)])

    def test_rejects_stray_arc(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            Orientation.from_arcs(g, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# the word-parallel kernels against the per-arc walks they replace

WORD_BOUNDARIES = (7, 8, 9, 15, 16, 17, 63, 64, 65, 200)


def walk_in_rows(out):
    """In-rows by the per-arc walk: the reference for `_transpose`."""
    into = [0] * len(out)
    for u, row in enumerate(out):
        for v in bits(row):
            into[v] |= 1 << u
    return into


def walk_exactness_error(out, adj):
    """The message `Orientation` gave for out-rows ``out`` over ``adj`` before
    the transpose, from the walk's in-rows; None when they orient it exactly."""
    into = walk_in_rows(out)
    for u, (row, edges) in enumerate(zip(out, adj)):
        covered = row | into[u]
        if covered != edges:
            return f"arcs do not orient the base graph exactly (vertex {u}: edges {edges:b}, arcs {covered:b})"
        if row & into[u]:
            return f"edge at vertex {u} oriented both ways"
    return None


def walk_symmetry_error(adj):
    for u, row in enumerate(adj):
        for v in bits(row):
            if not adj[v] >> u & 1:
                return f"edge {u}-{v} is not symmetric"
    return None


def bfs_diameter(rows):
    """Diameter by one BFS per source: the reference for `_within_two` and `diameter`."""
    d = Digraph(len(rows), tuple(rows))
    return max((eccentricity(d, u) for u in range(d.n)), default=0)


def random_rows(rng, n, p):
    return [sum(1 << v for v in range(n) if v != u and rng.random() < p) for u in range(n)]


def constructed(n, seed):
    """The constructor's diameter-2 orientation of a threshold instance of order ``n``."""
    rng = random.Random(seed)
    blue = Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), n - 5))
    o, _ = orient_diameter_two(complement(blue))
    return o.base, list(o.dir.out)


@pytest.fixture(params=["transpose", "walk"])
def rows_path(request, monkeypatch):
    """Run a test once with every row set sent through `_transpose` and once through the walk."""
    monkeypatch.setattr(graphs_module, "_dense", lambda n, arcs: request.param == "transpose")
    return request.param


class TestKernels:
    def test_transpose_matches_the_walk(self):
        rng = random.Random(2301)
        for n in [*range(71), 200]:
            for p in (0.0, 0.05, 0.5, 1.0):
                rows = random_rows(rng, n, p)
                assert _transpose(rows) == walk_in_rows(rows), (n, p)
                assert in_rows(rows) == walk_in_rows(rows), (n, p)
        # one tile up to order 1,024; several above it, the last ones filled in part
        for n in (1023, 1024, 1025, 2049):
            for ands in (1, 3):  # densities 1/2 and 1/8
                rows = [-1] * n
                for _ in range(ands):
                    rows = [row & rng.getrandbits(n) for row in rows]
                rows = [row & ~(1 << u) for u, row in enumerate(rows)]
                assert _transpose(rows) == walk_in_rows(rows), (n, ands)
                assert in_rows(rows) == walk_in_rows(rows), (n, ands)

    def test_within_two_and_diameter_match_bfs(self):
        rng = random.Random(2302)
        verdicts = set()
        for n in [*range(71), 200]:
            for p in (0.1, 0.3, 0.5, 0.7, 1.0):
                rows = random_rows(rng, n, p)
                reference = bfs_diameter(rows)
                assert _within_two(rows) == (reference <= 2), (n, p)
                assert diameter(Digraph(n, tuple(rows))) == reference, (n, p)
                verdicts.add(reference <= 2)
        assert verdicts == {False, True}
        n = 2049  # the kernels run at every order, past any tile or word size
        rows = [rng.getrandbits(n) & ~(1 << u) for u in range(n)]
        assert _within_two(rows) and diameter(Digraph(n, tuple(rows))) == bfs_diameter(rows) == 2

    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    def test_constructed_orientations_pass(self, n, rows_path):
        g, rows = constructed(n, n)
        assert _within_two(rows)
        assert Orientation(g, Digraph(n, tuple(rows))).dir.out == tuple(rows)

    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    @pytest.mark.parametrize("fault", ["both ways", "missing arc", "arc off the base graph"])
    def test_faults_raise_the_walks_message(self, n, fault, rows_path):
        g, rows = constructed(n, n)
        rng = random.Random(n)
        u = rng.choice([u for u in range(n) if rows[u]])
        v = rng.choice(list(bits(rows[u])))
        if fault == "both ways":
            rows[v] |= 1 << u
        elif fault == "missing arc":
            rows[u] ^= 1 << v
        else:
            u, v = rng.choice([(u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)])
            rows[u] |= 1 << v
        expected = walk_exactness_error(rows, g.adj)
        assert expected is not None
        with pytest.raises(ValueError) as raised:
            Orientation(g, Digraph(n, tuple(rows)))
        assert str(raised.value) == expected

    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    def test_a_pair_at_distance_three_fails(self, n):
        _, rows = constructed(n, n)
        arcs = [(u, v) for u in range(n) for v in bits(rows[u])]
        random.Random(n).shuffle(arcs)
        distances = set()
        for u, v in arcs:  # reverse one arc at a time until some pair is at distance 3
            flipped = list(rows)
            flipped[u] ^= 1 << v
            flipped[v] |= 1 << u
            d = bfs_diameter(flipped)
            assert _within_two(flipped) == (d <= 2)
            assert diameter(Digraph(n, tuple(flipped))) == d
            distances.add(d)
            if d == 3:
                break
        assert 3 in distances

    @pytest.mark.parametrize("n", WORD_BOUNDARIES)
    def test_asymmetric_rows_get_the_walks_message(self, n, rows_path):
        rng = random.Random(2303 + n)
        adj = list(complement(Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), n))).adj)
        assert Graph(n, tuple(adj)).adj == tuple(adj)
        for dropped in (1, 2, 3):
            # drop v from the rows of some of its neighbours: row v then has that many strays
            broken = list(adj)
            v = rng.choice([v for v in range(n) if adj[v].bit_count() >= 3])
            for u in rng.sample(list(bits(adj[v])), dropped):
                broken[u] ^= 1 << v
            with pytest.raises(ValueError) as raised:
                Graph(n, tuple(broken))
            assert str(raised.value) == walk_symmetry_error(broken)

    def test_dense_rows_take_the_transpose(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return walk_in_rows(rows)

        monkeypatch.setattr(graphs_module, "_transpose", counted)
        g, rows = constructed(40, 1)
        calls.clear()
        Graph(g.n, g.adj)
        Orientation(g, Digraph(g.n, tuple(rows)))
        assert calls == [40, 40]

    def test_empty_graph_at_the_largest_order_takes_the_walk(self, monkeypatch):
        def refused(rows):
            raise AssertionError("sparse rows reached the transpose")

        monkeypatch.setattr(graphs_module, "_transpose", refused)
        g = Graph.from_edges(258048, [])
        assert in_rows(g.adj) == [0] * 258048
