"""Seeded end-to-end fuzzing of the full pipeline on labeled instances.

The acceptance sweep covers isomorphism classes; these tests hit random
labelings, random sizes above the threshold, and the larger component
shapes that only appear past the acceptance range.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from conftest import complete_graph, dumbbell
from orient2.construct import orient_diameter_two, replay_trace, threshold_size
from orient2.graphs import Graph, complement, diameter
from orient2.oracle import exists_orientation_diameter2, SearchStatus


def disjoint_union(*parts: Graph) -> Graph:
    edges = []
    offset = 0
    for part in parts:
        edges.extend((offset + u, offset + v) for u, v in part.edges())
        offset += part.n
    return Graph.from_edges(offset, edges)


class TestRandomLabeledInstances:
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_threshold_instances_random_labels(self, n):
        rng = random.Random(5000 + n)
        pairs = list(combinations(range(n), 2))
        fallbacks = 0
        for _ in range(300):
            blue_edges = rng.sample(pairs, n - 5)
            red = complement(Graph.from_edges(n, blue_edges))
            o, trace = orient_diameter_two(red)
            assert diameter(o.dir) <= 2
            fallbacks += trace.fallback_count()
        assert fallbacks == 0

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_sizes_above_threshold(self, n):
        rng = random.Random(7000 + n)
        pairs = list(combinations(range(n), 2))
        for _ in range(120):
            m = rng.randint(threshold_size(n), comb(n, 2))
            red = Graph.from_edges(n, rng.sample(pairs, m))
            o, trace = orient_diameter_two(red)
            assert diameter(o.dir) <= 2
            assert replay_trace(red, trace) == o

    def test_every_labeled_threshold_instance_n8(self):
        # exhaustive over all labeled complements with exactly 3 edges
        pairs = list(combinations(range(8), 2))
        count = 0
        for blue_edges in combinations(pairs, 3):
            red = complement(Graph.from_edges(8, blue_edges))
            o, _ = orient_diameter_two(red)
            assert diameter(o.dir) <= 2
            count += 1
        assert count == comb(len(pairs), 3)


class TestLargeComponentShapes:
    def test_dumbbell_3_4_with_mixed_trees(self):
        # n=16: the 7-vertex dumbbell complement needs the forest recipe
        blue = disjoint_union(dumbbell(3, 4), Graph.from_edges(2, [(0, 1)]), *[Graph.from_edges(1, [])] * 7)
        red = complement(blue)
        assert red.m >= threshold_size(red.n)
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2 and trace.fallback_count() == 0

    def test_k7_complement_with_singletons(self):
        # n=26: a complete 7-vertex complement component, excess 14
        blue = disjoint_union(complete_graph(7), *[Graph.from_edges(1, [])] * 19)
        red = complement(blue)
        assert blue.m == blue.n - 5
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2 and trace.fallback_count() == 0

    def test_two_medium_non_trees(self):
        # two complement cycles force the paired-component recipe
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        blue = disjoint_union(c4, c4, *[Graph.from_edges(1, [])] * 5)
        red = complement(blue)
        assert blue.m == blue.n - 5
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2 and trace.fallback_count() == 0

    def test_wheel_like_component_contracts(self):
        # complement component outside every named family: triple machinery
        wheel = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
        blue = disjoint_union(wheel, *[Graph.from_edges(1, [])] * 8)
        red = complement(blue)
        assert blue.m == blue.n - 5
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2


class TestConstructorAgreesWithOracle:
    def test_small_orders_cross_checked(self):
        # for every threshold instance the exhaustive search must agree
        rng = random.Random(31337)
        for n in (8, 9):
            pairs = list(combinations(range(n), 2))
            for _ in range(40):
                blue_edges = rng.sample(pairs, n - 5)
                red = complement(Graph.from_edges(n, blue_edges))
                o, _ = orient_diameter_two(red)
                assert diameter(o.dir) <= 2
                assert exists_orientation_diameter2(red).status is SearchStatus.YES


def threshold_instance(n: int) -> Graph:
    """Seeded threshold instance: the complement of a random blue graph with n - 5 edges."""
    rng = random.Random(f"threshold:{n}")
    return complement(Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), n - 5)))


class TestScale:
    def test_orders_past_the_single_byte_codec(self):
        # each instance takes well under a second; a search that walks every
        # combination of tree components takes minutes at n = 100
        start = time.perf_counter()
        for n in (64, 80, 100):
            red = threshold_instance(n)
            o, trace = orient_diameter_two(red)
            assert o.base == red and diameter(o.dir) <= 2
            assert trace.fallback_count() == 0
            assert replay_trace(red, trace) == o
        assert time.perf_counter() - start < 30
