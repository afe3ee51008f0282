import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_graph, cycle_graph, dumbbell, path_graph, paths_union, short_dumbbell
from orient2.graphs import Graph, components
from orient2.structure import (
    ComponentClass,
    ComponentKind,
    classify_component,
    excess,
    find_reduction,
    find_violating_triple,
    select_forest,
    tree_components,
)
from orient2.certs import verify_cert


def disjoint_union(*parts: Graph) -> Graph:
    edges = []
    offset = 0
    for part in parts:
        edges.extend((offset + u, offset + v) for u, v in part.edges())
        offset += part.n
    return Graph.from_edges(offset, edges)


class TestExcess:
    def test_tree(self):
        assert excess(path_graph(6)) == -1

    def test_cycle(self):
        assert excess(cycle_graph(5)) == 0

    def test_dumbbell_3_4(self):
        g = dumbbell(3, 4)
        assert (g.n, g.m) == (7, 10)
        assert excess(g) == 3


class TestClassify:
    def test_five_cycle(self):
        assert classify_component(cycle_graph(5), tuple(range(5))) == ComponentClass(
            ComponentKind.FIVE_CYCLE
        )

    def test_short_dumbbell(self):
        g = short_dumbbell(3, 3)
        assert classify_component(g, tuple(range(5))) == ComponentClass(
            ComponentKind.PROPER_SHORT_DUMBBELL, (3, 3)
        )

    def test_path(self):
        assert classify_component(path_graph(4), tuple(range(4))) == ComponentClass(
            ComponentKind.PATH, (4,)
        )

    def test_singleton_is_path(self):
        assert classify_component(Graph.from_edges(1, []), (0,)) == ComponentClass(
            ComponentKind.PATH, (1,)
        )

    def test_complete(self):
        assert classify_component(complete_graph(4), tuple(range(4))) == ComponentClass(
            ComponentKind.COMPLETE, (4,)
        )

    def test_dumbbells(self):
        assert classify_component(dumbbell(3, 4), tuple(range(7))) == ComponentClass(
            ComponentKind.PROPER_DUMBBELL, (3, 4)
        )
        # a triangle with one pendant edge is the smallest proper dumbbell
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert classify_component(paw, tuple(range(4))) == ComponentClass(
            ComponentKind.PROPER_DUMBBELL, (1, 3)
        )

    def test_improper_short_dumbbell_is_dumbbell(self):
        # two triangles sharing an edge is neither; a K3 + K2 sharing a vertex is a paw
        g = short_dumbbell(3, 2)
        cls = classify_component(g, tuple(range(4)))
        assert cls == ComponentClass(ComponentKind.PROPER_DUMBBELL, (1, 3))

    def test_other(self):
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert classify_component(star, tuple(range(5))).kind is ComponentKind.OTHER
        diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert classify_component(diamond, tuple(range(4))).kind is ComponentKind.OTHER

    def test_not_a_component_rejected(self):
        with pytest.raises(ValueError):
            classify_component(path_graph(4), (0, 1))

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=False))
    def test_relabel_invariance(self, rng):
        base_graphs = [
            cycle_graph(5),
            dumbbell(3, 4),
            short_dumbbell(3, 4),
            complete_graph(5),
            path_graph(4),
            Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        ]
        g = base_graphs[rng.randrange(len(base_graphs))]
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert classify_component(g, tuple(range(g.n))) == classify_component(h, tuple(range(h.n)))


def brute_force_triples(b: Graph):
    """Independent re-implementation used as the oracle for the search."""
    hits = []
    for triple in combinations(range(b.n), 3):
        if any(b.has_edge(u, v) for u, v in combinations(triple, 2)):
            continue
        counts = {2: [], 3: []}
        for v in range(b.n):
            if v in triple:
                continue
            k = sum(1 for x in triple if b.has_edge(v, x))
            if k in counts:
                counts[k].append(v)
        if len(counts[2]) >= 2 or counts[3]:
            hits.append(triple)
    return hits


class TestViolatingTriples:
    def test_two_shared_neighbors_plus_isolated(self):
        b = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        w = find_violating_triple(b)
        assert w is not None and len(w.n2) == 2

    def test_all_isolated_absent(self):
        assert find_violating_triple(Graph.from_edges(5, [])) is None

    def test_single_shared_neighbor_allowed(self):
        # two-leaf star plus isolated vertices: the center lands in N2 once
        b = Graph.from_edges(5, [(0, 1), (1, 2)])
        assert find_violating_triple(b) is None

    def test_three_leaf_star_triggers_n3(self):
        b = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
        w = find_violating_triple(b)
        assert w is not None and w.n3 == (0,)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_agrees_with_brute_force(self, rng):
        n = rng.randint(4, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        b = Graph.from_edges(n, edges)
        expected = brute_force_triples(b)
        got = find_violating_triple(b)
        if not expected:
            assert got is None
        else:
            assert got is not None
            assert (got.x1, got.x2, got.x3) == expected[0]


class TestSelectForest:
    def test_all_singletons(self):
        b = Graph.from_edges(8, [])
        forest = select_forest(b, 5, 0)
        assert len(forest) == 5 and sum(len(c) for c in forest) == 5

    def test_mixed_sizes_within_bounds(self):
        b = disjoint_union(path_graph(3), path_graph(2), *[Graph.from_edges(1, [])] * 3)
        forest = select_forest(b, 3, 2)
        total = sum(len(c) for c in forest)
        assert 3 <= total <= 5
        assert -len(forest) >= -3

    def test_no_trees_errors(self):
        with pytest.raises(ValueError):
            select_forest(cycle_graph(4), 1, 3)

    def test_size_filter_applies(self):
        b = disjoint_union(path_graph(4), *[Graph.from_edges(1, [])] * 4)
        forest = select_forest(b, 2, 0)
        assert all(len(c) == 1 for c in forest)


class TestFindReduction:
    def check(self, b, plan):
        assert plan is not None
        assert set(plan.w) < set(range(b.n))
        blue_w = b.induced(plan.w)
        assert excess(blue_w) >= -1
        comp_sets = [set(c) for c in components(b)]
        w = set(plan.w)
        assert all(c <= w or not (c & w) for c in comp_sets)
        assert verify_cert(plan.cert) and plan.cert.nontrivial

    def test_dumbbell_with_path(self):
        b = disjoint_union(dumbbell(3, 3), path_graph(3), *[Graph.from_edges(1, [])] * 5)
        self.check(b, find_reduction(b))

    def test_two_non_trees(self):
        b = disjoint_union(complete_graph(4), complete_graph(4), *[Graph.from_edges(1, [])] * 11)
        self.check(b, find_reduction(b))

    def test_k3_with_p3(self):
        b = disjoint_union(complete_graph(3), path_graph(3), *[Graph.from_edges(1, [])] * 4)
        self.check(b, find_reduction(b))

    def test_c5_with_p3(self):
        b = disjoint_union(cycle_graph(5), path_graph(3), *[Graph.from_edges(1, [])] * 4)
        self.check(b, find_reduction(b))

    def test_large_component_uses_forest(self):
        b = disjoint_union(dumbbell(3, 4), path_graph(2), *[Graph.from_edges(1, [])] * 7)
        plan = find_reduction(b)
        self.check(b, plan)
        assert plan.recipe == "non-tree+forest"

    def test_single_component_absent(self):
        assert find_reduction(complete_graph(3)) is None

    def test_path_families_validate_if_found(self):
        b = paths_union([2, 2, 1, 1, 1])
        plan = find_reduction(b)
        if plan is not None:
            self.check(b, plan)

    def test_determinism(self):
        b = disjoint_union(dumbbell(3, 3), path_graph(3), *[Graph.from_edges(1, [])] * 5)
        assert find_reduction(b) == find_reduction(b)


class TestTreeAccounting:
    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_tree_count_balances_excess(self, rng):
        # assemble a blue graph with total excess -5, then check the count identity
        parts = [Graph.from_edges(1, [])] * 5
        extra = rng.randint(0, 3)
        pool = [cycle_graph(4), complete_graph(3), dumbbell(3, 3), cycle_graph(5)]
        chosen = [pool[rng.randrange(len(pool))] for _ in range(extra)]
        for part in chosen:
            parts.append(part)
            parts.extend([Graph.from_edges(1, [])] * excess(part))
        b = disjoint_union(*parts)
        assert excess(b) == -5
        non_tree_excess = sum(
            excess(b.induced(c)) for c in components(b) if b.induced(c).m >= len(c)
        )
        assert len(tree_components(b)) == 5 + non_tree_excess
