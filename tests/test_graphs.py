import pytest
from hypothesis import given, strategies as st

from conftest import complete_graph, cycle_graph, dumbbell, path_graph
from orient2.graphs import (
    INFINITE,
    Digraph,
    Graph,
    Orientation,
    as_digraph,
    complement,
    components,
    diameter,
    distance,
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
        for derived in (complement(g), g.induced(vs)):
            assert derived == Graph(derived.n, derived.adj)
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
        assert distance(d, 0, 2) == 2
        assert diameter(d) == 2

    def test_distance_to_self(self):
        d = Digraph.from_arcs(4, [(0, 1)])
        assert distance(d, 2, 2) == 0

    def test_unreachable(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        assert distance(d, 1, 0) == INFINITE

    def test_out_of_range_vertex(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(ValueError):
            distance(d, 0, 5)

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
            for v in range(g.n):
                assert distance(base, u, v) <= distance(partial, u, v)


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

    def test_as_digraph_symmetric(self):
        g = cycle_graph(4)
        d = as_digraph(g)
        assert distance(d, 0, 2) == 2
