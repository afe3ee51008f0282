import random
from itertools import combinations, permutations

import pytest

from conftest import complete_graph, cycle_graph, path_graph, petersen, random_connected, relabel
from orient2 import _pysearch
from orient2.codec import emit_graph6
from orient2.graphs import INFINITE, Graph, complement, diameter
from orient2.oracle import (
    SearchBudget,
    SearchStatus,
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

    def test_bridge_infinite(self):
        assert exact_oriented_diameter(path_graph(3)) == INFINITE

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


def _reference_min_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    """The brute force the Gray-code walk replaced: every orientation rebuilt
    and measured in full."""
    if n <= 1:
        return 0
    best = -1
    for _, out in _rebuilt_orientations(n, edges):
        worst = _pysearch._diameter_rows(n, out)
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


def _recorded_full_diameters(monkeypatch, n: int, edges: list[tuple[int, int]]) -> tuple[int, list]:
    """The kernel's answer and the out-rows it measured in full, in order."""
    measured = []

    def recording(n: int, out: list[int]) -> int:
        measured.append(tuple(out))
        return full_diameter(n, out)

    full_diameter = _pysearch._diameter_rows
    with monkeypatch.context() as patch:
        patch.setattr(_pysearch, "_diameter_rows", recording)
        best = _pysearch.naive_min_diameter(n, edges)
    return best, measured


class TestNaiveKernel:
    """The pure kernel's Gray-code walk against the rebuild-every-orientation
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

    def test_walk_visits_every_orientation_once(self, monkeypatch):
        # with no finite best every orientation is measured in full
        bridged = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        disconnected = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        for g in (path_graph(6), bridged, disconnected):
            edges = g.edges()
            best, measured = _recorded_full_diameters(monkeypatch, g.n, edges)
            assert best == -1
            assert sorted(measured) == sorted(tuple(out) for _, out in _rebuilt_orientations(g.n, edges))

    def test_full_diameter_only_when_it_could_beat_the_best(self, monkeypatch):
        checked = 0
        for n, edges in _kernel_corpus()[:120]:
            if n <= 1:
                continue
            rows = dict(_rebuilt_orientations(n, edges))
            expected = []
            best = -1
            for k in range(1 << len(edges)):
                out = rows[k ^ k >> 1]
                d = _pysearch._diameter_rows(n, out)
                if best < 0 or 0 <= d < best:
                    expected.append(tuple(out))
                    best = d
            got, measured = _recorded_full_diameters(monkeypatch, n, edges)
            assert got == best and measured == expected, (n, edges)
            checked += best > 0
        assert checked >= 20

    def test_edge_limit(self):
        k10 = complete_graph(10)
        with pytest.raises(ValueError, match="limited to 40 edges"):
            _pysearch.naive_min_diameter(10, k10.edges())
        with pytest.raises(ValueError, match="limited to 40 edges"):
            naive_oriented_diameter(k10)


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

    def test_canonical_form_iso_invariant(self):
        rng = random.Random(7)
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_limits(self):
        with pytest.raises(ValueError):
            list(enumerate_blue(14, 2))
        with pytest.raises(ValueError):
            list(enumerate_blue(6, 7))

    def test_component_limit_checked_before_first_yield(self):
        # 11-vertex components could appear; nothing is yielded before the error
        with pytest.raises(ValueError):
            next(enumerate_blue(12, 10))

    @pytest.mark.parametrize(
        "n, counts",
        [
            (10, [1, 1, 2, 5, 11, 26]),
            (11, [1, 1, 2, 5, 11, 26, 67]),
            (12, [1, 1, 2, 5, 11, 26, 68, 175]),
        ],
    )
    def test_counts_per_level_match_oeis(self, n, counts):
        # OEIS A000664 (graphs with m edges), less those needing more than n vertices
        per_level = [0] * (n - 4)
        for g in enumerate_blue(n, n - 5):
            per_level[g.m] += 1
        assert per_level == counts


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

    def test_verify_theorem_range_check(self):
        with pytest.raises(ValueError):
            verify_theorem(4)
        with pytest.raises(ValueError):
            verify_theorem(14)

    def test_verify_theorem_n12(self):
        report = verify_theorem(12)
        assert report.instances_checked == 289 and report.ok
        assert report.fallback_count == 0

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

    def test_sharpness_range_check(self):
        with pytest.raises(ValueError):
            verify_sharpness(10)

    def test_sharpness_budget_raises(self):
        with pytest.raises(RuntimeError):
            verify_sharpness(9, SearchBudget(max_nodes=1))

    def test_budget_env_override(self, monkeypatch):
        from orient2.oracle import default_budget

        monkeypatch.setenv("ORIENT2_BUDGET", "12345")
        assert default_budget().max_nodes == 12345
        monkeypatch.delenv("ORIENT2_BUDGET")
        assert default_budget().max_nodes == 100_000_000
