import random
from math import comb

import pytest

from conftest import complete_graph, cycle_graph, paths_union
from orient2.certs import (
    CombineCase,
    GoodOrientationCert,
    Partition2,
    combine,
    matchjoin_cert,
    matchjoin_graph,
    orient_bipartite_blue_matchjoin,
    orient_complete_bipartite,
    split_cert,
    verify_cert,
    window_cert,
)
from orient2.graphs import Graph, Orientation, complement, diameter


def k_ab(a, b):
    return Graph.from_edges(a + b, [(x, y) for x in range(a) for y in range(a, a + b)])


class TestVerifyCert:
    def test_single_edge_any_direction_good(self):
        g = Graph.from_edges(2, [(0, 1)])
        for arcs in ([(0, 1)], [(1, 0)]):
            cert = GoodOrientationCert(g, Orientation.from_arcs(g, arcs), Partition2((0,), (1,)), False)
            assert verify_cert(cert)

    def test_directed_four_cycle_nontrivial(self):
        g = k_ab(2, 2)
        o = Orientation.from_arcs(g, [(2, 0), (0, 3), (3, 1), (1, 2)])
        cert = GoodOrientationCert(g, o, Partition2((0, 1), (2, 3)), True)
        assert verify_cert(cert)

    def test_all_arcs_one_way_fails(self):
        g = k_ab(3, 3)
        o = Orientation.from_arcs(g, [(x, y) for x in range(3) for y in range(3, 6)])
        cert = GoodOrientationCert(g, o, Partition2((0, 1, 2), (3, 4, 5)), False)
        assert not verify_cert(cert)

    def test_mismatched_world_raises(self):
        g = k_ab(2, 2)
        h = complete_graph(4)
        o = Orientation.from_arcs(h, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        cert = GoodOrientationCert(g, o, Partition2((0, 1), (2, 3)), False)
        with pytest.raises(ValueError):
            verify_cert(cert)

    def test_partition_must_cover(self):
        g = k_ab(2, 2)
        o = Orientation.from_arcs(g, [(2, 0), (0, 3), (3, 1), (1, 2)])
        cert = GoodOrientationCert(g, o, Partition2((0,), (2, 3)), False)
        with pytest.raises(ValueError):
            verify_cert(cert)


class TestWindowConstruction:
    def test_2_2_matches_formula(self):
        cert = orient_complete_bipartite(2, 2)
        arcs = set(cert.orientation.dir.arcs())
        # classes 0,1 | 2,3; windows pair y_i with x_i
        assert arcs == {(2, 0), (0, 3), (3, 1), (1, 2)}
        assert cert.nontrivial and verify_cert(cert)

    def test_3_3_windows(self):
        cert = orient_complete_bipartite(3, 3)
        d = cert.orientation.dir
        for i in range(3):
            assert d.has_arc(3 + i, i)
            for j in range(3):
                if j != i:
                    assert d.has_arc(j, 3 + i)
        assert verify_cert(cert)

    def test_1_1_good_but_trivial(self):
        cert = orient_complete_bipartite(1, 1)
        assert verify_cert(cert) and not cert.nontrivial

    @pytest.mark.parametrize("a", range(2, 7))
    def test_full_range_nontrivial(self, a):
        for b in range(a, min(comb(a, a // 2), 20) + 1):
            cert = orient_complete_bipartite(a, b)
            assert verify_cert(cert) and cert.nontrivial

    def test_out_degree_is_half_window(self):
        cert = orient_complete_bipartite(5, 9)
        xs = set(cert.classes.first)
        for y in cert.classes.second:
            outs = sum(1 for x in xs if cert.orientation.dir.has_arc(y, x))
            ins = sum(1 for x in xs if cert.orientation.dir.has_arc(x, y))
            assert (outs, ins) == (2, 3)

    def test_size_bounds_rejected(self):
        with pytest.raises(ValueError):
            orient_complete_bipartite(2, 3)
        with pytest.raises(ValueError):
            orient_complete_bipartite(4, 7)
        with pytest.raises(ValueError):
            orient_complete_bipartite(1, 2)

    def test_overlay_tolerates_extra_edges(self):
        # same classes, but the world also has edges inside each class
        world = complement(Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]))
        cert = window_cert(world, [0, 1, 2, 3], [4, 5, 6, 7])
        assert cert is not None and cert.nontrivial


class TestMatchJoin:
    def test_graph_shape(self):
        g = matchjoin_graph(3, 2)
        assert g.n == 5 and g.m == 3 + 1 + 2
        g = matchjoin_graph(4, 2)
        assert g.has_edge(0, 4) and g.has_edge(1, 5)
        assert not g.has_edge(2, 4) and not g.has_edge(0, 5)

    @pytest.mark.parametrize("a", range(3, 7))
    def test_full_patterns(self, a):
        for b in range(a, 2 * a + 1):
            cert = orient_bipartite_blue_matchjoin(a, b, matchjoin_graph(a, b - a))
            assert verify_cert(cert) and cert.nontrivial

    def test_k3_exact(self):
        cert = orient_bipartite_blue_matchjoin(3, 3, complete_graph(3))
        assert verify_cert(cert) and cert.nontrivial

    def test_canonical_3_5_arc_layout(self):
        # identity embedding: x side 0..2, first clique 3..5, second 6..7
        cert = orient_bipartite_blue_matchjoin(3, 5, matchjoin_graph(3, 2))
        d = cert.orientation.dir
        for arc in [(0, 3), (1, 4), (2, 5), (4, 0), (5, 0), (6, 0), (7, 1), (1, 6), (2, 7), (6, 4), (7, 3)]:
            assert d.has_arc(*arc), arc

    def test_c5_embeds(self):
        cert = orient_bipartite_blue_matchjoin(3, 5, cycle_graph(5))
        assert verify_cert(cert) and cert.nontrivial

    def test_k4_does_not_embed(self):
        with pytest.raises(ValueError):
            orient_bipartite_blue_matchjoin(3, 4, complete_graph(4))

    def test_random_proper_subgraphs(self):
        rng = random.Random(40813)
        for _ in range(25):
            a = rng.randint(3, 6)
            b = rng.randint(a, 2 * a)
            full = matchjoin_graph(a, b - a)
            edges = full.edges()
            if not edges:
                continue
            keep = [e for e in edges if rng.random() < 0.6]
            if len(keep) == len(edges):
                keep = keep[:-1]
            cert = orient_bipartite_blue_matchjoin(a, b, Graph.from_edges(b, keep))
            assert verify_cert(cert) and cert.nontrivial



def path_classes_cert(x_paths, y_paths):
    # both classes are unions of paths of missing edges, laid out x first
    a, b = sum(x_paths), sum(y_paths)
    world = complement(paths_union(x_paths + y_paths))
    return world, matchjoin_cert(world, list(range(a)), list(range(a, a + b)))


class TestPathClasses:
    def test_three_singletons_each(self):
        world, cert = path_classes_cert([1, 1, 1], [1, 1, 1])
        assert world.n == 6 and cert is not None and verify_cert(cert) and cert.nontrivial

    def test_mixed_paths(self):
        world, cert = path_classes_cert([1, 1, 2], [2, 2, 1, 1])
        assert world.n == 10 and cert is not None and verify_cert(cert) and cert.nontrivial

    def test_small_side_rejected(self):
        assert path_classes_cert([1, 1], [1, 1])[1] is None

    def test_unbalanced_rejected(self):
        assert path_classes_cert([1, 1, 1], [4, 4])[1] is None


class TestCombine:
    def test_two_leftovers(self):
        blue = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        o = combine(red, cert, [6, 7], CombineCase.TWO)
        assert diameter(o.dir) == 2

    def test_three_isolated_leftovers(self):
        blue = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        o = combine(red, cert, [6, 7, 8], CombineCase.THREE_ISOLATED)
        assert diameter(o.dir) == 2

    def test_two_certified_halves(self):
        blue = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        red = complement(blue)
        cw = split_cert(red.induced(range(4)), [0, 1], [2, 3])
        cz = split_cert(red.induced(range(4, 8)), [0, 1], [2, 3])
        o = combine(red, cw, [4, 5, 6, 7], CombineCase.NONTRIVIAL_CERT, cz)
        assert diameter(o.dir) == 2

    def test_blue_cross_edge_rejected(self):
        blue = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            combine(red, cert, [6, 7], CombineCase.TWO)

    def test_three_with_internal_blue_edge_rejected(self):
        blue = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            combine(red, cert, [6, 7, 8], CombineCase.THREE_ISOLATED)


def certify_and_combine_two(red, u1, v1, u2, v2):
    # certify the (u2, v2) split, then extend it over the two leftovers u1 + v1
    w = sorted(u2 + v2)
    local = {v: i for i, v in enumerate(w)}
    cert = split_cert(red.induced(w), [local[v] for v in u2], [local[v] for v in v2])
    assert cert is not None
    return combine(red, cert, u1 + v1, CombineCase.TWO)


class TestQuadruple:
    def test_clique_core(self):
        blue = Graph.from_edges(11, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        o = certify_and_combine_two(complement(blue), [4], [5], [0, 1, 2, 3], [6, 7, 8, 9, 10])
        assert diameter(o.dir) == 2

    def test_dumbbell_core(self):
        d43 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (0, 3)]
        blue = Graph.from_edges(15, d43)
        o = certify_and_combine_two(complement(blue), [7], [8], [9, 10, 11, 12, 13, 14], [0, 1, 2, 3, 4, 5, 6])
        assert diameter(o.dir) == 2

    def test_path_partition(self):
        blue = paths_union([3, 3, 1, 1, 1])
        o = certify_and_combine_two(complement(blue), [6], [7], [0, 1, 2], [3, 4, 5, 8])
        assert diameter(o.dir) == 2

    def test_not_a_partition_rejected(self):
        # vertex 3 is both certified and a leftover
        red = complement(Graph.from_edges(6, []))
        cert = split_cert(red.induced([2, 3, 4, 5]), [0, 1], [2, 3])
        assert cert is not None
        with pytest.raises(ValueError):
            combine(red, cert, [0, 1, 3], CombineCase.TWO)
