import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    dumbbell,
    path_graph,
    paths_union,
    relabel,
    short_dumbbell,
)
from orient2 import construct, structure
from orient2.construct import orient_diameter_two
from orient2.graphs import Graph, bits, complement, components
from orient2.structure import (
    ComponentClass,
    ComponentKind,
    LiveBlue,
    TripleStep,
    _candidate_splits,
    _certify_union,
    _shaped_combinations,
    _splittable,
    _tree_shapes,
    classify_component,
    excess,
    find_reduction,
    find_violating_triple,
)
from orient2.certs import matchjoin_cert, split_cert, verify_cert, window_cert, window_sizes_ok

PLAN_SHA256 = "a00174acb001e9bb78a1a1bd3e237e8635e46879920f705f6aaa54ec46c8570f"


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
        h = relabel(g, perm)
        assert classify_component(g, tuple(range(g.n))) == classify_component(h, tuple(range(h.n)))


def _ref_is_clique(g: Graph, vertices) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vertices, 2))


def _ref_is_path(sub: Graph) -> bool:
    if sub.n == 1:
        return True
    degs = sorted(sub.degree(v) for v in range(sub.n))
    if sub.n == 2:
        return degs == [1, 1]
    return sub.m == sub.n - 1 and degs[:2] == [1, 1] and degs[2:] == [2] * (sub.n - 2)


def _ref_dumbbell_params(sub: Graph):
    """Remove one edge at a time; (k, l) when it leaves two cliques, one per endpoint."""
    for u, v in sub.edges():
        parts = components(Graph.from_edges(sub.n, [e for e in sub.edges() if e != (u, v)]))
        if len(parts) != 2 or (u in parts[0]) == (v in parts[0]):
            continue
        if all(_ref_is_clique(sub, part) for part in parts):
            return tuple(sorted(len(part) for part in parts))
    return None


def _ref_short_dumbbell_params(sub: Graph):
    """Remove one vertex at a time; (k, l) when each side left is a clique with it."""
    for z in range(sub.n):
        rest = [v for v in range(sub.n) if v != z]
        parts = [[rest[i] for i in part] for part in components(sub.induced(rest))]
        if len(parts) != 2:
            continue
        if all(_ref_is_clique(sub, part + [z]) for part in parts):
            return tuple(sorted(len(part) + 1 for part in parts))
    return None


def reference_classify(g: Graph, comp) -> ComponentClass:
    """Subgraph-building classifier, the reference for `classify_component`."""
    sub = g.induced(comp)
    if _ref_is_path(sub):
        return ComponentClass(ComponentKind.PATH, (sub.n,))
    if sub.m == sub.n * (sub.n - 1) // 2:
        return ComponentClass(ComponentKind.COMPLETE, (sub.n,))
    if sub.n == 5 and sub.m == 5 and all(sub.degree(v) == 2 for v in range(5)):
        return ComponentClass(ComponentKind.FIVE_CYCLE)
    short = _ref_short_dumbbell_params(sub)
    if short is not None and short[0] >= 3:
        return ComponentClass(ComponentKind.PROPER_SHORT_DUMBBELL, short)
    dumb = _ref_dumbbell_params(sub)
    if dumb is not None and dumb[1] >= 3:
        return ComponentClass(ComponentKind.PROPER_DUMBBELL, dumb)
    return ComponentClass(ComponentKind.OTHER)


class TestClassifyAgainstReference:
    def test_random_graphs(self):
        rng = random.Random(7)
        kinds = set()
        for _ in range(2000):
            n = rng.randint(1, 11)
            p = rng.random()
            g = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
            for comp in components(g):
                cls = classify_component(g, comp)
                assert cls == reference_classify(g, comp)
                kinds.add(cls.kind)
        # a random graph almost never has a C5 component; the cycle family below covers it
        assert kinds == set(ComponentKind) - {ComponentKind.FIVE_CYCLE}

    @pytest.mark.parametrize(
        "family",
        [dumbbell, lambda a, b: short_dumbbell(a + 1, b + 1), lambda a, b: cycle_graph(a + b + 1)],
        ids=["dumbbell", "short_dumbbell", "cycle"],
    )
    def test_relabelled_families(self, family):
        rng = random.Random(11)
        for a in range(1, 8):
            for b in range(1, 8):
                g = disjoint_union(family(a, b), Graph.from_edges(2, []))
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                comp = tuple(sorted(perm[v] for v in range(g.n - 2)))
                assert classify_component(h, comp) == reference_classify(h, comp)


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


def attachments(b: Graph, step: TripleStep) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """N2 and N3 of the step's triple: the outside vertices with exactly two
    and exactly three neighbors in it."""
    triple_mask = 1 << step.x1 | 1 << step.x2 | 1 << step.x3
    n2 = []
    n3 = []
    for v in range(b.n):
        if triple_mask >> v & 1:
            continue
        hits = (b.adj[v] & triple_mask).bit_count()
        if hits == 2:
            n2.append(v)
        elif hits == 3:
            n3.append(v)
    return tuple(n2), tuple(n3)


def assert_violates(b: Graph, step: TripleStep) -> None:
    n2, n3 = attachments(b, step)
    assert len(n2) >= 2 or n3, (step, n2, n3)


class TestViolatingTriples:
    def test_two_shared_neighbors_plus_isolated(self):
        b = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        w = find_violating_triple(b)
        assert w is not None and len(attachments(b, w)[0]) == 2
        assert_violates(b, w)

    def test_all_isolated_absent(self):
        assert find_violating_triple(Graph.from_edges(5, [])) is None

    def test_single_shared_neighbor_allowed(self):
        # two-leaf star plus isolated vertices: the center lands in N2 once
        b = Graph.from_edges(5, [(0, 1), (1, 2)])
        assert find_violating_triple(b) is None

    def test_three_leaf_star_triggers_n3(self):
        b = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
        w = find_violating_triple(b)
        assert w is not None and attachments(b, w)[1] == (0,)
        assert_violates(b, w)

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
            assert_violates(b, got)


def reference_triple(b: Graph):
    """The C(n,3) scan over every outside vertex, the reference for `find_violating_triple`."""
    for x1, x2, x3 in combinations(range(b.n), 3):
        if b.has_edge(x1, x2) or b.has_edge(x1, x3) or b.has_edge(x2, x3):
            continue
        step = TripleStep(x1, x2, x3)
        n2, n3 = attachments(b, step)
        if len(n2) >= 2 or n3:
            return step
    return None


def scan_triple(b: Graph):
    """The pair-and-third scan that `find_violating_triple` replaced: for each
    independent pair, every independent x3 after x2 that shares a neighbor
    with x1 or x2 (any x3 once x1 and x2 share one), checked one by one."""
    adj = b.adj
    co = []
    for x in range(b.n):
        shared = 0
        for v in bits(adj[x]):
            shared |= adj[v]
        co.append(shared & ~(1 << x))
    full = (1 << b.n) - 1
    for x1 in range(b.n):
        a1 = adj[x1]
        after1 = full & ~a1 >> x1 + 1 << x1 + 1
        for x2 in bits(after1):
            a2 = adj[x2]
            thirds = after1 & ~a2 >> x2 + 1 << x2 + 1
            if not co[x1] >> x2 & 1:
                thirds &= co[x1] | co[x2]
            both = a1 & a2
            either = a1 ^ a2
            for x3 in bits(thirds):
                a3 = adj[x3]
                n3 = both & a3
                n2 = both & ~a3 | either & a3
                if n3 or n2.bit_count() >= 2:
                    return TripleStep(x1, x2, x3)
    return None


def seeded_triple_levels(monkeypatch, orders, seeds):
    """The levels `find_violating_triple` is called on while seeded
    threshold instances of these orders are constructed, relabelled by
    rank, each with the step it returned from the masks its `LiveBlue`
    kept from level to level."""
    levels = []

    def recorded(b):
        step = find_violating_triple(b)
        levels.append((b.compact()[0], step))
        return step

    monkeypatch.setattr(construct, "find_violating_triple", recorded)
    for n in orders:
        for seed in seeds:
            rng = random.Random(f"triple-levels:{n}:{seed}")
            blue = Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), n - 5))
            orient_diameter_two(complement(blue))
    return levels


class TestTripleMaskBranches:
    """One case per mask of the pair (0, 1): the first x3 that the mask admits
    is the lexicographically first violating third vertex."""

    @pytest.mark.parametrize(
        "edges, step, n2",
        [
            # 0 and 1 share 2 and 3: every independent x3 after 1 is admitted
            ([(0, 2), (0, 3), (1, 2), (1, 3)], TripleStep(0, 1, 4), (2, 3)),
            # 0 and 1 share 5; 3 shares 6 with 0 (the x1 side), 2 shares nothing
            ([(0, 5), (1, 5), (0, 6), (3, 6)], TripleStep(0, 1, 3), (5, 6)),
            # 0 and 1 share 5; 3 shares 6 with 1 (the x2 side)
            ([(0, 5), (1, 5), (1, 6), (3, 6)], TripleStep(0, 1, 3), (5, 6)),
            # 0 and 1 share nothing; 3 shares 5 with 0 and 6 with 1
            ([(0, 5), (3, 5), (1, 6), (3, 6)], TripleStep(0, 1, 3), (5, 6)),
            # 0 and 1 share nothing; 3 shares 5 and 6 with 1
            ([(1, 5), (1, 6), (3, 5), (3, 6)], TripleStep(0, 1, 3), (5, 6)),
            # 0 and 1 share nothing; 3 shares 5 and 6 with 0
            ([(0, 5), (0, 6), (3, 5), (3, 6)], TripleStep(0, 1, 3), (5, 6)),
        ],
        ids=[
            "doubly-linked",
            "singly-linked-x1-side",
            "singly-linked-x2-side",
            "unlinked-third-linked-to-both",
            "unlinked-third-doubly-linked-to-x2",
            "unlinked-third-doubly-linked-to-x1",
        ],
    )
    def test_branch(self, edges, step, n2):
        b = Graph.from_edges(7, edges)
        assert find_violating_triple(b) == step == reference_triple(b)
        assert attachments(b, step) == (n2, ())

    def test_pair_without_admissible_third_is_passed_over(self):
        # 0 and 1 share only 5, and no vertex after 1 shares a neighbor with
        # either, so the pair (0, 1) admits no x3; the unlinked pair (0, 2)
        # admits 3, which shares 6 and 7 with 2
        b = Graph.from_edges(8, [(0, 5), (1, 5), (2, 6), (3, 6), (2, 7), (3, 7)])
        assert find_violating_triple(b) == reference_triple(b) == TripleStep(0, 2, 3)
        assert attachments(b, TripleStep(0, 2, 3)) == ((6, 7), ())


class TestTripleAgainstReference:
    def test_random_graphs(self):
        rng = random.Random(19)
        found = 0
        for _ in range(3000):
            n = rng.randint(3, 40)
            p = rng.random() ** 2  # mostly sparse, like blue graphs, but every density occurs
            b = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            expected = reference_triple(b)
            assert find_violating_triple(b) == expected
            found += expected is not None
        assert 500 < found < 2500  # both outcomes are well represented

    def test_pair_without_common_neighbor_then_shared_third(self):
        # 0 and 1 share no neighbor; 2 shares neighbor 5 with 0 and neighbor 6 with 1
        b = Graph.from_edges(8, [(0, 5), (2, 5), (1, 6), (2, 6), (3, 4)])
        assert find_violating_triple(b) == reference_triple(b)
        assert find_violating_triple(b) == TripleStep(0, 1, 2)
        assert attachments(b, TripleStep(0, 1, 2)) == ((5, 6), ())

    def test_common_neighbor_pair_with_far_third(self):
        # 0 and 1 share 2 and 3; the third vertex 4 shares nothing with either
        b = Graph.from_edges(6, [(0, 2), (1, 2), (0, 3), (1, 3)])
        assert find_violating_triple(b) == TripleStep(0, 1, 4)
        assert attachments(b, TripleStep(0, 1, 4)) == ((2, 3), ())

    def test_scan_reference_agrees_with_the_full_scan(self):
        rng = random.Random(1919)
        for _ in range(500):
            n = rng.randint(3, 24)
            p = rng.random() ** 2
            b = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            assert scan_triple(b) == reference_triple(b)

    def test_recorded_levels_of_seeded_constructions(self, monkeypatch):
        levels = seeded_triple_levels(monkeypatch, (100, 150, 200), (1, 2, 3))
        assert len(levels) > 500 and max(b.n for b, _ in levels) == 200
        for b, kept in levels:
            got = find_violating_triple(b)
            assert got == kept == scan_triple(b)
            if got is not None:
                assert_violates(b, got)


def live_summary(live: LiveBlue):
    """What the searches read from ``live``, relabelled by rank: the edge
    count, the component split and the common-neighbour masks."""
    rank = {v: i for i, v in enumerate(live.labels)}

    def ranked(mask):
        return sum(1 << rank[v] for v in bits(mask))

    co, dbl, doubled = live.common_neighbours()
    return (
        live.order,
        live.m,
        [(size, rank[low], ranked(mask)) for size, low, mask in live.trees],
        [(size, rank[low], ranked(mask), ex) for size, low, mask, ex in live.non_trees],
        [ranked(co[v]) for v in live.labels],
        [ranked(dbl[v]) for v in live.labels],
        ranked(doubled),
    )


class TestLiveBlue:
    """Edits in place keep everything a `LiveBlue` maintains equal to a
    rebuild from the level relabelled by rank."""

    @staticmethod
    def random_edit(rng: random.Random, live: LiveBlue) -> bool:
        labels = live.labels
        kind = rng.randrange(3)
        if kind == 0:
            pairs = [(u, v) for u, v in combinations(labels, 2) if not live.adj[u] >> v & 1]
            if not pairs:
                return False
            live.add_edge(*rng.choice(pairs))
        elif kind == 1:
            triples = [t for t in combinations(labels, 3) if not any(live.adj[u] >> v & 1 for u, v in combinations(t, 2))]
            if not triples:
                return False
            live.identify(*rng.choice(triples))
        else:
            comps = [key[2] for key in live.trees] + [key[2] for key in live.non_trees]
            if len(comps) < 2:
                return False
            chosen = rng.sample(comps, rng.randint(1, len(comps) - 1))
            live.replace(sorted(v for mask in chosen for v in bits(mask)))
        return True

    def test_edits_match_a_rebuild(self):
        rng = random.Random(2601)
        edits = 0
        for _ in range(200):
            n = rng.randint(3, 16)
            pairs = list(combinations(range(n), 2))
            blue = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(2 * n, len(pairs)))))
            live = LiveBlue(blue)
            if rng.random() < 0.5:
                live.common_neighbours()  # masks kept from the start, or first counted later
            for _ in range(rng.randint(1, 8)):
                if live.order < 3 or not self.random_edit(rng, live):
                    break
                edits += 1
                assert live.labels == sorted(live.labels) and live.live == sum(1 << v for v in live.labels)
                if rng.random() < 0.5:
                    assert live_summary(live) == live_summary(LiveBlue(live.compact()[0]))
            assert live_summary(live) == live_summary(LiveBlue(live.compact()[0]))
        assert edits > 400

    def test_fresh_labels_come_last(self):
        live = LiveBlue(Graph.from_edges(6, [(0, 1), (2, 3)]))
        assert live.identify(0, 2, 4) == 6 and live.labels == [1, 3, 5, 6]
        assert live.rank(6) == 3 and live.adj[6] == 1 << 1 | 1 << 3
        assert live.replace([1, 3, 6]) == 7 and live.labels == [5, 7, 8]
        assert live.adj[7] == 1 << 8 and live.m == 1 and [key[0] for key in live.trees] == [-2, -1]


def filtered_combinations(sizes, count, keep):
    return [
        combo
        for combo in combinations(range(len(sizes)), count)
        if keep(tuple(sizes[i] for i in combo))
    ]


class TestShapedCombinations:
    def test_matches_filtered_combinations(self):
        rng = random.Random(23)
        for _ in range(400):
            pool = (1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 9)
            sizes = sorted((rng.choice(pool) for _ in range(rng.randint(0, 14))), reverse=True)
            fixed = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 2)))
            count = rng.randint(1, 4)
            lo, hi = sorted((rng.randint(0, 8), rng.randint(1, 12)))
            distinct = tuple(sorted(set(sizes), reverse=True))
            shapes = _tree_shapes(fixed, distinct, count, lo, hi)

            def keep(shape):
                return lo <= sum(shape) <= hi and _splittable(tuple(sorted(fixed + shape)))

            expected = filtered_combinations(sizes, count, keep)
            assert list(_shaped_combinations(sizes, count, shapes)) == expected

    def test_recipe_three_bounds(self):
        # the small-forest window [lo, 6] with a component of five vertices
        sizes = [7, 6, 4, 3, 3, 2, 2, 1, 1, 1]
        for count in (1, 2, 3):
            shapes = _tree_shapes((5,), (6, 5, 4, 3, 2, 1), count, 4, 6)

            def keep(shape):
                return 4 <= sum(shape) <= 6 and _splittable(tuple(sorted((5,) + shape)))

            got = list(_shaped_combinations(sizes, count, shapes))
            assert got == filtered_combinations(sizes, count, keep)
            assert got  # each count has feasible forests here

    def test_no_shape_yields_nothing(self):
        assert list(_shaped_combinations([1, 1, 1], 2, frozenset())) == []

    def test_recipe_two_bound_gives_the_level_bound_shapes(self):
        # recipe 2 caps the total of `count` trees at count * the largest size
        for fixed in ((3, 3), (4, 11), (5, 9), (8, 8)):
            for distinct in ((1,), (2, 1), (3, 1), (4, 2, 1), (6, 5, 3, 1), (9, 2)):
                for count in (1, 2):
                    for n in range(sum(fixed), sum(fixed) + 2 * distinct[0] + 3):
                        capped = min(n, count * distinct[0])
                        assert _tree_shapes(fixed, distinct, count, 0, capped) == _tree_shapes(
                            fixed, distinct, count, 0, n
                        ), (fixed, distinct, count, n)

    def test_recipe_three_asks_for_at_most_six_trees(self, monkeypatch):
        # its forest has at most six vertices, so more trees have no shape
        asked = []

        def recorded(fixed, sizes, count, lo, hi):
            asked.append((len(fixed), count))
            return _tree_shapes(fixed, sizes, count, lo, hi)

        monkeypatch.setattr(structure, "_tree_shapes", recorded)
        rng = random.Random(3)
        for n in (60, 100):
            blue = Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), n - 5))
            orient_diameter_two(complement(blue))
        recipe_three = [count for fixed, count in asked if fixed == 1]
        assert recipe_three and max(recipe_three) <= 6

    def test_recipe_two_shapes_are_cached_across_orders(self):
        # two non-tree components (4 and 11 vertices) and five isolated
        # vertices: recipes 1 and 2 fail, so recipe 2 asks for tree shapes
        edges = [(1, 6), (2, 17), (3, 9), (3, 18), (6, 14), (6, 16), (7, 12), (8, 19),
                 (9, 18), (12, 19), (13, 19), (14, 16), (14, 17), (15, 18), (17, 19)]
        _tree_shapes.cache_clear()
        assert find_reduction(Graph.from_edges(20, edges)) is None
        first = _tree_shapes.cache_info()
        assert first.misses > 0
        for n in range(21, 26):  # the same level with more isolated vertices
            assert find_reduction(Graph.from_edges(n, edges)) is None
        later = _tree_shapes.cache_info()
        assert later.misses == first.misses and later.hits > first.hits


def integer_partitions(total, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in integer_partitions(total - first, first):
            yield (first,) + rest


def seeded_world(rng, sizes):
    """Complement of a disjoint union of random connected blue parts with these orders."""
    edges = []
    parts = []
    start = 0
    for size in sizes:
        part = tuple(range(start, start + size))
        order = list(part)
        rng.shuffle(order)
        edges += [(order[i], order[rng.randrange(i)]) for i in range(1, size)]  # spanning tree
        edges += [e for e in combinations(part, 2) if rng.random() < 0.3]
        parts.append(part)
        start += size
    return complement(Graph.from_edges(start, set(map(tuple, map(sorted, edges))))), parts


class TestSizePrefilter:
    def test_rejected_sizes_never_certify(self):
        rng = random.Random(29)
        rejected = accepted = 0
        for total in range(2, 13):
            for sizes in integer_partitions(total):
                if len(sizes) < 2:
                    continue
                world, parts = seeded_world(rng, sizes)
                splittable = _splittable(tuple(sorted(sizes)))
                rejected += not splittable
                accepted += splittable
                first = None
                for side_a, side_b in _candidate_splits(parts):
                    cert = split_cert(world, side_a, side_b)
                    if first is None:
                        first = cert
                    a, b = sorted((len(side_a), len(side_b)))
                    if not splittable:
                        # the constructions' own size checks agree with the predicate
                        assert cert is None
                        for xs, ys in ((side_a, side_b), (side_b, side_a)):
                            window = window_cert(world, xs, ys)
                            assert window is None or not window.nontrivial
                            assert matchjoin_cert(world, xs, ys) is None
                    elif a >= 2 and window_sizes_ok(a, b):
                        # no blue edge crosses a whole-part split, so the window always certifies
                        assert cert is not None and verify_cert(cert)
                # the parts cover the world, so its labels are the union's local labels
                assert _certify_union(complement(world), parts) == first
        assert (rejected, accepted) == (41, 218)  # of the 259 tuples with at least two parts

    def test_certify_union_tries_only_splits_of_certifiable_sizes(self, monkeypatch):
        """`_certify_union` tries the `_candidate_splits` whose side sizes pass
        `split_sizes_ok`, in that order, and no other."""
        from orient2.certs import split_sizes_ok

        tried = []

        def never(world, side_a, side_b):
            tried.append((side_a, side_b))
            return None

        monkeypatch.setattr(structure, "split_cert", never)
        rng = random.Random(31)
        for total in range(2, 13):
            for sizes in integer_partitions(total):
                world, parts = seeded_world(rng, sizes)
                tried.clear()
                assert _certify_union(complement(world), parts) is None
                expected = [
                    (side_a, side_b)
                    for side_a, side_b in _candidate_splits(parts)
                    if split_sizes_ok(*sorted((len(side_a), len(side_b))))
                ]
                assert tried == expected, sizes
                assert bool(expected) == _splittable(tuple(sorted(sizes))), sizes

    def test_first_split_comes_before_any_table_of_the_masks(self):
        """24 singletons have 2^23 - 1 two-colorings; the first, with and
        without the size filter, costs no memory proportional to them."""
        from orient2.certs import split_sizes_ok

        parts = [[v] for v in range(24)]
        for fits, smaller in ((None, 1), (split_sizes_ok, 6)):  # 6 + 18 is the first window fit
            tracemalloc.start()
            try:
                first = next(_candidate_splits(parts, fits))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert first == (list(range(smaller)), list(range(smaller, 24)))
            assert peak < 1 << 20, peak

    def test_subset_sum_walk_matches_every_split_size(self):
        """Walking the set bits of the subset-sum mask decides what trying
        every smaller side size a did."""
        from orient2.certs import split_sizes_ok

        checked = 0
        for total in range(1, 25):
            for sizes in integer_partitions(total):
                sums = 1
                for size in sizes:
                    sums |= sums << size
                every_a = any(sums >> a & 1 and split_sizes_ok(a, total - a) for a in range(1, total // 2 + 1))
                assert _splittable.__wrapped__(tuple(sorted(sizes))) == every_a, sizes
                checked += 1
        assert checked == sum(1 for t in range(1, 25) for _ in integer_partitions(t))

    def test_single_part_is_rejected(self):
        assert not _splittable((6,))
        assert _splittable((2, 2)) and _splittable((3, 6)) and not _splittable((3, 7))

    def test_no_small_forest_splits_a_component_past_the_gate(self):
        """Past `_SMALL_FOREST_LIMIT`, the side without the component has at
        most six forest vertices and is the smaller one, so no split passes."""
        limit = structure._SMALL_FOREST_LIMIT
        assert _splittable((6, limit))
        for total in range(1, 7):
            for trees in integer_partitions(total):
                for comp in range(limit + 1, 4 * limit):
                    assert not _splittable(tuple(sorted((*trees, comp))))

    def test_small_forest_gate_changes_no_plan(self, monkeypatch):
        rng = random.Random(2311)
        recipes = set()
        for _ in range(40):
            cycle = rng.randint(5, 26)
            trees = paths_union([rng.randint(1, 6) for _ in range(rng.randint(1, 3))])
            blue = disjoint_union(cycle_graph(cycle), trees)
            gated = find_reduction(blue)
            with monkeypatch.context() as ungated:
                ungated.setattr(structure, "_SMALL_FOREST_LIMIT", blue.n)
                assert find_reduction(blue) == gated
            if gated is not None:
                recipes.add((gated.recipe, cycle))
        # the gate is reached, at its limit too
        assert ("non-tree+small-forest", 20) in recipes

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

    def test_non_tree_with_tree4(self):
        # components of 1, 1, 1, 2, 4 and 7 vertices; found by a seeded
        # search over random blue graphs with n - 5 edges
        edges = [(0, 3), (0, 13), (1, 3), (1, 10), (2, 8), (3, 13), (4, 9), (4, 14), (5, 12), (7, 9), (10, 12)]
        b = Graph.from_edges(16, edges)
        assert sorted(len(c) for c in components(b)) == [1, 1, 1, 2, 4, 7]
        plan = find_reduction(b)
        self.check(b, plan)
        assert plan.recipe == "non-tree+tree4"

    def test_single_component_absent(self):
        assert find_reduction(complete_graph(3)) is None

    def test_path_families_validate_if_found(self):
        b = paths_union([2, 2, 1, 1, 1])
        plan = find_reduction(b)
        if plan is not None:
            self.check(b, plan)

    def test_plans_match_the_pin(self):
        # (w, recipe, cert arcs, cert classes) over seeded blue graphs, n = 8..30, m <= n
        rng = random.Random(4)
        digest = hashlib.sha256()
        for _ in range(1500):
            n = rng.randint(8, 30)
            b = Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), rng.randint(0, n)))
            plan = find_reduction(b)
            row = None
            if plan is not None:
                cert = plan.cert
                row = [
                    list(plan.w),
                    plan.recipe,
                    [(u, v) for u, row in enumerate(cert.rows) for v in bits(row)],
                    list(cert.first),
                    list(cert.second),
                ]
            digest.update((json.dumps(row) + "\n").encode())
        assert digest.hexdigest() == PLAN_SHA256

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
        shapes = [(len(c), b.induced(c).m) for c in components(b)]
        trees = sum(1 for n, m in shapes if m == n - 1)
        non_tree_excess = sum(m - n for n, m in shapes if m >= n)
        assert trees == 5 + non_tree_excess
