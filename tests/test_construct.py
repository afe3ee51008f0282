import dataclasses
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import orient2
from conftest import complete_graph, cycle_graph, dumbbell, paths_union, relabel, short_dumbbell
from orient2 import construct, structure
from orient2._basecase_table import TABLE
from orient2.construct import (
    BaseCaseStep,
    ConstructionTrace,
    FallbackStep,
    InternalVerificationError,
    PadStep,
    TripleStep,
    _base_case_with_family,
    _contract_reduction,
    _contract_triple,
    expand_reduction,
    expand_triple_contraction,
    orient_diameter_two,
    replay_trace,
    threshold_size,
)
from orient2.graphs import Digraph, Graph, Orientation, bits, complement, components, diameter
from orient2.oracle import SearchBudget, enumerate_blue, verify_theorem
from orient2.structure import (
    ComponentClass,
    ComponentKind,
    LiveBlue,
    ReductionPlan,
    classify_component,
    find_reduction,
)


# The directly orientable families as (core, ascending path sizes): five
# paths of at most 4 vertices, or one core with the paths its family takes.
FAMILIES = [(None, sizes) for sizes in combinations_with_replacement(range(1, 5), 5)] + [
    (ComponentClass(ComponentKind[kind], tuple(params)), sizes)
    for cores, shapes in [
        ([("COMPLETE", 4), ("PROPER_DUMBBELL", 2, 4), ("PROPER_DUMBBELL", 1, 4)], [(1, 1, 1, 1, 1, 1, 1)]),
        ([("PROPER_DUMBBELL", 3, 4)], [(1, 1, 1, 1, 1, 1, 1, 1)]),
        ([("PROPER_DUMBBELL", 3, 3), ("PROPER_SHORT_DUMBBELL", 3, 3)], [(1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2)]),
        (
            [("PROPER_DUMBBELL", 2, 3), ("FIVE_CYCLE",), ("PROPER_DUMBBELL", 1, 3), ("COMPLETE", 3)],
            [(1, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 1, 1, 2, 2), (1, 1, 2, 2, 2), (1, 2, 2, 2, 2), (2, 2, 2, 2, 2)],
        ),
    ]
    for kind, *params in cores
    for sizes in shapes
]


def disjoint_union(*parts: Graph) -> Graph:
    edges = []
    offset = 0
    for part in parts:
        edges.extend((offset + u, offset + v) for u, v in part.edges())
        offset += part.n
    return Graph.from_edges(offset, edges)


def singletons(k: int) -> list[Graph]:
    return [Graph.from_edges(1, [])] * k


def random_blue(rng: random.Random, n: int, m: int) -> Graph:
    return Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), m))


def without_edges(g: Graph, *dropped: tuple[int, int]) -> Graph:
    return Graph.from_edges(g.n, [e for e in g.edges() if e not in dropped])


def sink_at_zero(rows):
    """Out-rows ``rows`` with every arc out of vertex 0 reversed: 0 reaches nothing."""
    return (0,) + tuple(row | (rows[0] >> v & 1) for v, row in enumerate(rows) if v)


def edit_first(steps, kind, **changes):
    """``steps`` with the first step of type ``kind`` given the field values ``changes``."""
    i = next(i for i, step in enumerate(steps) if isinstance(step, kind))
    return steps[:i] + (dataclasses.replace(steps[i], **changes),) + steps[i + 1 :]


def sinking_base_case(steps):
    return edit_first(steps, BaseCaseStep, rows=sink_at_zero(steps[-1].rows))


def edit_cert(steps, **changes):
    """``steps`` with the first reduce step's certificate given the field values ``changes``."""
    plan = next(step for step in steps if isinstance(step, ReductionPlan))
    return edit_first(steps, ReductionPlan, cert=dataclasses.replace(plan.cert, **changes))


def without_first_arc(rows):
    """Out-rows ``rows`` without the lowest arc of the first non-empty row."""
    u = next(u for u, row in enumerate(rows) if row)
    return rows[:u] + (rows[u] & rows[u] - 1,) + rows[u + 1 :]


def base_case(blue: Graph) -> tuple[tuple[int, ...], str] | None:
    """`_base_case_with_family` on ``blue`` and its components."""
    return _base_case_with_family(blue, components(blue))


def checked_base_case(blue: Graph) -> tuple[Orientation, str] | None:
    """`base_case` with its out-rows checked as the orientation of the complement of ``blue``."""
    result = base_case(blue)
    if result is None:
        return None
    rows, family = result
    return Orientation(complement(blue), Digraph(blue.n, rows)), family


def with_first_arc_both_ways(rows):
    """Out-rows ``rows`` with the lowest arc of the first non-empty row also reversed."""
    u = next(u for u, row in enumerate(rows) if row)
    v = (rows[u] & -rows[u]).bit_length() - 1
    return rows[:v] + (rows[v] | 1 << u,) + rows[v + 1 :]


def reduction_instance() -> Graph:
    """K3 + P3 + four singletons in the complement: one reduce step on w = 0..5, then a base case."""
    return complement(disjoint_union(complete_graph(3), paths_union([3]), *singletons(4)))


class TestNormalize:
    def test_identity_at_threshold(self):
        g = complete_graph(5)
        assert g.m == threshold_size(5)
        _, trace = orient_diameter_two(g)
        assert not any(isinstance(s, PadStep) for s in trace.steps)

    def test_k6_deletes_first_edge(self):
        _, trace = orient_diameter_two(complete_graph(6))
        assert trace.steps[0] == PadStep(((0, 1),))

    def test_k8_deletes_three(self):
        _, trace = orient_diameter_two(complete_graph(8))
        assert trace.steps[0] == PadStep(((0, 1), (0, 2), (0, 3)))

    def test_below_threshold_rejected(self):
        g = without_edges(complete_graph(6), (0, 1), (0, 2))
        with pytest.raises(ValueError, match="order 6 has 13 edges; 14 are required"):
            orient_diameter_two(g)
        with pytest.raises(ValueError, match="need at least 5 vertices, got 4"):
            orient_diameter_two(complete_graph(4))

    def test_padding_deletes_the_lexicographically_first_edges(self):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(6, 40)
            surplus = rng.randint(0, min(3, n - 5))
            g = complement(random_blue(rng, n, n - 5 - surplus))
            _, trace = orient_diameter_two(g)
            reference = tuple(g.edges()[: g.m - threshold_size(g.n)])
            first = trace.steps[0]
            assert (first.deleted if isinstance(first, PadStep) else ()) == reference


class TestBaseCases:
    def test_table_keys_present(self):
        assert set(TABLE) == {(5, 0, 0, 0), (4, 1, 0, 0), (3, 2, 0, 0), (4, 0, 1, 0), (4, 0, 0, 1)}

    @pytest.mark.parametrize(
        "sizes",
        [[1, 1, 1, 1, 1], [2, 1, 1, 1, 1], [2, 2, 1, 1, 1], [3, 1, 1, 1, 1], [4, 1, 1, 1, 1]],
    )
    def test_table_families(self, sizes):
        blue = paths_union(sizes)
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2
        assert o.base == complement(blue)

    def test_table_serves_relabeled_instances(self):
        blue = paths_union([3, 1, 1, 1, 1])
        perm = [3, 6, 0, 5, 2, 4, 1]
        shuffled = relabel(blue, perm)
        o, _ = checked_base_case(shuffled)
        assert diameter(o.dir) <= 2 and o.base == complement(shuffled)

    @pytest.mark.parametrize(
        "sizes",
        [[3, 2, 1, 1, 1], [2, 2, 2, 1, 1], [4, 2, 1, 1, 1], [3, 3, 1, 1, 1], [3, 2, 2, 1, 1],
         [2, 2, 2, 2, 1], [4, 3, 1, 1, 1], [4, 2, 2, 1, 1], [3, 3, 2, 1, 1], [2, 2, 2, 2, 2],
         [4, 4, 1, 1, 1], [4, 3, 2, 1, 1], [3, 3, 2, 2, 1], [4, 4, 4, 4, 4]],
    )
    def test_partition_families(self, sizes):
        blue = paths_union(sizes)
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2

    @pytest.mark.parametrize("core", ["K4", "D42", "D41"])
    def test_core_plus_seven_singletons(self, core):
        q = {"K4": complete_graph(4), "D42": dumbbell(2, 4), "D41": dumbbell(1, 4)}[core]
        blue = disjoint_union(q, *singletons(7))
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2

    def test_d34_plus_eight_singletons(self):
        blue = disjoint_union(dumbbell(3, 4), *singletons(8))
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2

    @pytest.mark.parametrize("core", ["D33", "S33"])
    @pytest.mark.parametrize("tail", ["6P1", "P2+5P1"])
    def test_medium_cores(self, core, tail):
        q = dumbbell(3, 3) if core == "D33" else short_dumbbell(3, 3)
        rest = singletons(6) if tail == "6P1" else [paths_union([2])] + singletons(5)
        blue = disjoint_union(q, *rest)
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2

    @pytest.mark.parametrize("core", ["D32", "C5", "D31", "K3"])
    @pytest.mark.parametrize("twos", [0, 2, 5])
    def test_small_cores_with_short_paths(self, core, twos):
        q = {
            "D32": dumbbell(2, 3),
            "C5": cycle_graph(5),
            "D31": dumbbell(1, 3),
            "K3": complete_graph(3),
        }[core]
        rest = [paths_union([2])] * twos + singletons(5 - twos)
        blue = disjoint_union(q, *rest)
        o, _ = checked_base_case(blue)
        assert diameter(o.dir) <= 2

    def test_every_accepted_multiset_gets_a_base_case(self):
        assert len(FAMILIES) == 88 and set(construct._FAMILIES) == set(FAMILIES)
        build = {
            ComponentKind.COMPLETE: complete_graph,
            ComponentKind.PROPER_DUMBBELL: dumbbell,
            ComponentKind.PROPER_SHORT_DUMBBELL: short_dumbbell,
            ComponentKind.FIVE_CYCLE: lambda: cycle_graph(5),
        }
        for entry in FAMILIES:
            core, sizes = entry
            blue = paths_union(list(sizes))
            if core is not None:
                blue = disjoint_union(build[core.kind](*core.params), blue)
            comps = components(blue)
            name = "+".join(sorted(str(classify_component(blue, c)) for c in comps))
            assert construct._FAMILY_NAMES[entry] == name  # the trace names do not change
            assert construct._family_may_fit(LiveBlue(blue))  # the driver's gate admits every family
            rows, family = _base_case_with_family(blue, comps)
            served = core is None and tuple(sizes.count(k) for k in (1, 2, 3, 4)) in TABLE
            assert family == ("table:" if served else "") + name
            o = Orientation(complement(blue), Digraph(blue.n, rows))
            assert diameter(o.dir) <= 2, family

    def test_non_family_absent(self):
        assert base_case(disjoint_union(complete_graph(5), *singletons(5))) is None
        assert base_case(paths_union([5, 1, 1, 1, 1])) is None
        assert base_case(paths_union([1, 1, 1, 1])) is None

    def test_component_count_outside_every_family_skips_classification(self, monkeypatch):
        classified = []

        def counted(blue, comp):
            classified.append(comp)
            return classify_component(blue, comp)

        monkeypatch.setattr(construct, "classify_component", counted)
        assert base_case(paths_union([2] * 6 + [1] * 6)) is None
        assert classified == []
        o, family = checked_base_case(disjoint_union(cycle_graph(5), *singletons(5)))
        assert diameter(o.dir) <= 2 and "FIVE_CYCLE" in family
        assert classified == [(0, 1, 2, 3, 4)]  # the singletons are paths unclassified


def ungated_base_case(blue: Graph) -> tuple[tuple[int, ...], str] | None:
    """`_base_case_with_family` as a reference: every component is
    classified and the multiset looked up in `FAMILIES`."""
    comps = components(blue)
    classes = [classify_component(blue, c) for c in comps]
    cores = [cls for cls in classes if cls.kind is not ComponentKind.PATH]
    sizes = tuple(sorted(cls.params[0] for cls in classes if cls.kind is ComponentKind.PATH))
    core = cores[0] if cores else None
    if len(cores) > 1 or (core, sizes) not in FAMILIES:
        return None
    family = "+".join(sorted(map(str, classes)))
    if core is None:
        served = construct._serve_table(blue, comps)
        if served is not None:
            return served, f"table:{family}"
    found = construct._quadruple_search(blue, comps)
    return None if found is None else (found, family)


class TestBaseCaseSizeGate:
    """The base case returns what classifying every component would, and
    the driver's gate `_family_may_fit` skips no level that has a base case."""

    def test_every_small_blue_graph(self):
        found = 0
        for n in range(5, 12):
            for blue in enumerate_blue(n, n - 5):
                expected = ungated_base_case(blue)
                assert base_case(blue) == expected, blue
                assert expected is None or construct._family_may_fit(LiveBlue(blue))
                found += expected is not None
        assert found > 0

    def test_every_level_of_seeded_threshold_instances(self, monkeypatch):
        # every padded level, whether or not the driver's size gate let it
        # reach `_base_case_with_family`
        levels = []
        gated = construct._base_case_with_family
        pad = construct._delete_red_pairs

        def recorded(blue, deleted):
            pad(blue, deleted)
            levels.append(blue.compact()[0])

        monkeypatch.setattr(construct, "_delete_red_pairs", recorded)
        rng = random.Random(14)
        for i in range(200):
            n = 20 + i % 21
            orient_diameter_two(complement(random_blue(rng, n, n - 5)))
        found = 0
        for blue in levels:
            expected = ungated_base_case(blue)
            assert gated(blue, components(blue)) == expected, blue
            assert expected is None or construct._family_may_fit(LiveBlue(blue))
            found += expected is not None
        assert found > 0 and len(levels) > 200

    @pytest.mark.parametrize(
        "blue, family",
        [
            # 9 components, the largest D(3,4) with 7 vertices: passes
            (disjoint_union(dumbbell(3, 4), *singletons(8)), "PROPER_DUMBBELL(3,4)"),
            # 6 components with a P3 next to the core: rejected
            (disjoint_union(complete_graph(3), paths_union([3]), *singletons(4)), None),
            # 5 paths including a P5: rejected
            (paths_union([5, 1, 1, 1, 1]), None),
            # a non-tree of 8 vertices beside five singletons: rejected
            (disjoint_union(cycle_graph(8), *singletons(5)), None),
            # two non-trees beside five singletons: rejected
            (disjoint_union(complete_graph(3), complete_graph(3), *singletons(5)), None),
        ],
    )
    def test_instances_at_the_gate_edges(self, monkeypatch, blue, family):
        classified = []

        def counted(blue, comp):
            classified.append(comp)
            return classify_component(blue, comp)

        monkeypatch.setattr(construct, "classify_component", counted)
        result = base_case(blue)
        assert construct._family_may_fit(LiveBlue(blue)) is (family is not None)
        if family is None:
            assert result is None
        else:
            assert classified == [components(blue)[-1]]  # the core alone
            o, found = checked_base_case(blue)
            assert family in found and diameter(o.dir) <= 2
        assert result == ungated_base_case(blue)


def reduction_labels(n: int, plan: ReductionPlan):
    """The kept labels, the removed labels and the two certificate classes
    (as masks) of the reduce step ``plan`` on a level of order ``n``."""
    removed = sorted(plan.w)
    kept = [v for v in range(n) if v not in removed]
    classes = [sum(1 << removed[i] for i in c) for c in (plan.cert.first, plan.cert.second)]
    return kept, removed, classes


def contracted_orientation(live: LiveBlue) -> tuple[Orientation, list[int]]:
    """A diameter-2 orientation of the complement of the contracted level
    ``live``, over its ranks, and its out-rows moved to ``live``'s labels."""
    o_star, _ = orient_diameter_two(complement(live.compact()[0]))
    rows = [0] * len(live.adj)
    for label, row in zip(live.labels, o_star.dir.out):
        rows[label] = sum(1 << live.labels[i] for i in bits(row))
    return o_star, rows


class TestExpansion:
    """One reduce step, on a level whose labels are its ranks: the two
    super-vertices take the fresh labels n and n + 1."""

    def _reduction_setup(self):
        blue = disjoint_union(dumbbell(3, 3), paths_union([3]), *singletons(5))
        red = complement(blue)
        assert red.m == threshold_size(red.n)
        plan = find_reduction(blue)
        assert plan is not None
        live = LiveBlue(blue)
        lift = _contract_reduction(live, plan.w, plan.cert)
        assert lift.first == blue.n and live.labels[-2:] == [blue.n, blue.n + 1]
        return red, blue, plan, live, lift

    def test_contracted_instance_stays_above_threshold(self):
        _, _, _, live, _ = self._reduction_setup()
        contracted = complement(live.compact()[0])
        assert contracted.m >= threshold_size(contracted.n)

    def test_expansion_preserves_outside_arcs(self):
        red, blue, plan, live, lift = self._reduction_setup()
        o_star, rows = contracted_orientation(live)
        assert expand_reduction(rows, live.live, lift) == (1 << red.n) - 1
        assert not any(rows[red.n :])
        expanded = Orientation(red, Digraph(red.n, tuple(rows[: red.n])))
        assert diameter(expanded.dir) <= 2
        kept, _, _ = reduction_labels(blue.n, plan)
        k = len(kept)
        for a, b in o_star.dir.arcs():
            if a < k and b < k:
                assert expanded.dir.out[kept[a]] >> kept[b] & 1

    def test_classes_copy_their_super_vertex_directions(self):
        red, blue, plan, live, lift = self._reduction_setup()
        o_star, rows = contracted_orientation(live)
        expand_reduction(rows, live.live, lift)
        kept, removed, classes = reduction_labels(blue.n, plan)
        k = len(kept)
        assert sorted(bits(classes[0] | classes[1])) == removed
        for a, u in enumerate(kept):
            for super_rank, cls in zip((k, k + 1), classes):
                for x in bits(cls):
                    assert rows[u] >> x & 1 == o_star.dir.out[a] >> super_rank & 1
                    assert rows[x] >> u & 1 == o_star.dir.out[super_rank] >> a & 1


class TestTripleContraction:
    """Seed 3 at n = 12: the first move identifies the triple (1, 4, 8), and
    the kept vertices 3, 5 and 7 keep some but not all of their edges to it."""

    def _setup(self):
        blue = random_blue(random.Random(3), 12, 7)
        red = complement(blue)
        _, trace = orient_diameter_two(red)
        step = trace.steps[0]
        assert isinstance(step, TripleStep)
        removed = tuple(sorted((step.x1, step.x2, step.x3)))
        kept = tuple(v for v in range(blue.n) if v not in removed)
        live = LiveBlue(blue)
        lift = _contract_triple(live, removed)
        return blue, red, removed, kept, live, lift

    def test_merged_vertex_joins_the_kept_vertices_blue_into_the_triple(self):
        blue, red, removed, kept, live, lift = self._setup()
        k = len(kept)
        triple = sum(1 << x for x in removed)
        assert removed == (1, 4, 8)
        assert lift.merged == blue.n and live.labels == [*kept, blue.n]
        contracted_blue = live.compact()[0]
        assert contracted_blue.n == k + 1
        assert contracted_blue.induced(range(k)) == blue.induced(kept)
        joined = [kept[i] for i in contracted_blue.neighbors(k)]
        assert joined == [u for u in kept if blue.adj[u] & triple] == [3, 5, 7]

    def test_expansion_lifts_kept_arcs_cycle_and_remnants(self):
        blue, red, removed, kept, live, lift = self._setup()
        contracted_blue = live.compact()[0]
        o_star, rows = contracted_orientation(live)
        assert expand_triple_contraction(rows, live.live, lift) == (1 << red.n) - 1
        assert not any(rows[red.n :])
        expanded = Orientation(red, Digraph(red.n, tuple(rows[: red.n])))
        assert diameter(expanded.dir) <= 2
        k = len(kept)
        x1, x2, x3 = removed
        out = expanded.dir.out
        assert all(out[a] >> b & 1 for a, b in ((x1, x2), (x2, x3), (x3, x1)))
        for a, b in o_star.dir.arcs():
            if a < k and b < k:
                assert out[kept[a]] >> kept[b] & 1
        remnants = 0
        for a, u in enumerate(kept):
            for x in removed:
                if not red.has_edge(u, x):
                    continue
                if contracted_blue.has_edge(a, k):
                    remnants += 1
                    assert out[min(u, x)] >> max(u, x) & 1
                else:
                    assert out[u] >> x & 1 == o_star.dir.out[a] >> k & 1
        assert remnants == 4  # 3-1, 3-8, 5-1 and 7-8: both label orders occur


def induced_contract_triple(blue: Graph, triple) -> Graph:
    """The compact contraction: the induced graph on the kept vertices plus
    one vertex joined to every kept vertex that meets the triple."""
    removed = sorted(triple)
    kept = [v for v in range(blue.n) if v not in removed]
    k = len(kept)
    triple_mask = sum(1 << x for x in removed)
    rows = list(blue.induced(kept).adj) + [0]
    for i, u in enumerate(kept):
        if blue.adj[u] & triple_mask:
            rows[i] |= 1 << k
            rows[k] |= 1 << i
    return Graph(k + 1, tuple(rows))


class TestLevels:
    def test_contract_triple_matches_the_induced_construction(self):
        rng = random.Random(1903)
        checked = 0
        for _ in range(1000):
            n = rng.randint(3, 70)
            blue = random_blue(rng, n, rng.randint(0, n * (n - 1) // 4))
            triple = tuple(rng.sample(range(n), 3))
            if any(blue.has_edge(u, v) for u, v in combinations(triple, 2)):
                continue
            live = LiveBlue(blue)
            lift = _contract_triple(live, triple)
            assert live.compact()[0] == induced_contract_triple(blue, triple)
            kept = [v for v in range(n) if v not in triple]
            assert lift.triple == tuple(sorted(triple)) and live.labels == [*kept, n]
            assert lift.rows == tuple(blue.adj[x] for x in lift.triple)
            checked += 1
        assert checked > 400

    def test_components_run_once_per_construction(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g.n)
            return components(g)

        for module in (construct, structure):
            monkeypatch.setattr(module, "components", counted, raising=False)
        rng = random.Random(1904)
        for n in (20, 40, 80, 120):
            calls.clear()
            _, trace = orient_diameter_two(complement(random_blue(rng, n, n - 5)))
            levels = [s for s in trace.steps if not isinstance(s, PadStep)]
            assert len(levels) > 3
            assert calls == [n]

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (without_first_arc, "do not orient the base graph exactly"),
            (with_first_arc_both_ways, "oriented both ways"),
            (sink_at_zero, "innermost orientation of order 11 has diameter above 2"),
        ],
        ids=["missing-arc", "arc-both-ways", "sink"],
    )
    def test_innermost_rows_are_checked_by_replay(self, corrupt, match):
        # a recorded base case hands over bare rows; replay checks them against their level
        blue = disjoint_union(complete_graph(4), *singletons(7))
        rows, family = base_case(blue)
        trace = ConstructionTrace((BaseCaseStep(family, corrupt(rows)),))
        with pytest.raises(ValueError, match=match):
            replay_trace(complement(blue), trace)

    @pytest.mark.parametrize("corrupt", [without_first_arc, with_first_arc_both_ways, sink_at_zero])
    def test_a_faulty_base_case_fails_the_output_check(self, monkeypatch, corrupt):
        # the driver's own rows get no second check: the output check catches them
        blue = disjoint_union(complete_graph(4), *singletons(7))
        built = construct._base_case_with_family

        def faulty(level, comps, certs):
            rows, family = built(level, comps, certs)
            return corrupt(rows), family

        monkeypatch.setattr(construct, "_base_case_with_family", faulty)
        with pytest.raises(InternalVerificationError):
            orient_diameter_two(complement(blue))


class TestFallback:
    def test_oracle_fallback_orients_and_replays(self, monkeypatch):
        g = complement(random_blue(random.Random(8), 8, 3))
        for name in ("_base_case_with_family", "find_reduction", "find_violating_triple"):
            monkeypatch.setattr(construct, name, lambda blue, *comps: None)
        o, trace = orient_diameter_two(g)
        assert o.base == g and diameter(o.dir) <= 2
        assert isinstance(trace.steps[-1], FallbackStep)
        assert trace.fallback_count() == 1
        assert replay_trace(g, trace) == o

    def test_budget_exhaustion_is_not_reported_as_no(self, monkeypatch):
        for name in ("_base_case_with_family", "find_reduction", "find_violating_triple"):
            monkeypatch.setattr(construct, name, lambda blue, *comps: None)
        monkeypatch.setattr(construct, "SearchBudget", lambda: SearchBudget(max_nodes=1))
        with pytest.raises(InternalVerificationError, match="ran out of its 1-node budget"):
            orient_diameter_two(complete_graph(9))


class TestDriver:
    @pytest.mark.parametrize("n", range(5, 12))
    def test_complete_graphs(self, n):
        o, trace = orient_diameter_two(complete_graph(n))
        assert diameter(o.dir) <= 2

    def test_precondition_small(self):
        with pytest.raises(ValueError):
            orient_diameter_two(complete_graph(4))

    def test_precondition_sparse(self):
        g = without_edges(complete_graph(6), (0, 1), (2, 3))
        with pytest.raises(ValueError):
            orient_diameter_two(g)

    def test_base_case_instance(self):
        blue = disjoint_union(complete_graph(4), *singletons(7))
        o, trace = orient_diameter_two(complement(blue))
        assert diameter(o.dir) <= 2
        assert any(isinstance(s, BaseCaseStep) for s in trace.steps)

    def test_triple_contraction_instance(self):
        blue = disjoint_union(cycle_graph(4), *singletons(5))
        red = complement(blue)
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2
        assert any(isinstance(s, TripleStep) for s in trace.steps)

    def test_reduction_instance(self):
        blue = disjoint_union(complete_graph(3), paths_union([3]), *singletons(4))
        red = complement(blue)
        o, trace = orient_diameter_two(red)
        assert diameter(o.dir) <= 2
        assert any(isinstance(s, ReductionPlan) for s in trace.steps)

    def test_padding_recorded(self):
        o, trace = orient_diameter_two(complete_graph(8))
        assert isinstance(trace.steps[0], PadStep)
        assert trace.steps[0].deleted == ((0, 1), (0, 2), (0, 3))

    def test_no_fallbacks_on_these(self):
        cases = [
            complete_graph(9),
            complement(disjoint_union(cycle_graph(4), *singletons(5))),
            complement(paths_union([4, 1, 1, 1, 1])),
        ]
        for g in cases:
            _, trace = orient_diameter_two(g)
            assert trace.fallback_count() == 0

    def test_deterministic(self):
        blue = disjoint_union(cycle_graph(4), paths_union([2]), *singletons(5))
        red = complement(blue)
        o1, t1 = orient_diameter_two(red)
        o2, t2 = orient_diameter_two(red)
        assert o1 == o2 and t1 == t2

    @pytest.mark.parametrize("n", range(6, 11))
    def test_extremal_plus_one_edge(self, n):
        # one edge above the extremal graph sits exactly at the threshold;
        # the complement is a star, which exercises repeated contraction
        from orient2.oracle import extremal_graph

        g = Graph.from_edges(n, [*extremal_graph(n).edges(), (3, n - 1)])
        assert g.m == threshold_size(n)
        o, trace = orient_diameter_two(g)
        assert diameter(o.dir) <= 2
        assert trace.fallback_count() == 0

    def test_triple_expansion_keeps_all_present_edges_directed(self):
        # every vertex outside the triple keeps either all or none of its
        # three edges; when all are present they copy one direction
        blue = disjoint_union(cycle_graph(4), *singletons(5))
        red = complement(blue)
        o, trace = orient_diameter_two(red)
        step = next(s for s in trace.steps if isinstance(s, TripleStep))
        triple = {step.x1, step.x2, step.x3}
        for u in range(red.n):
            if u in triple:
                continue
            present = [x for x in triple if red.has_edge(u, x)]
            if len(present) == 3:
                outs = sum(o.dir.out[u] >> x & 1 for x in present)
                assert outs in (0, 3)


class TestSweepMemos:
    """A `verify_theorem` sweep remembers certified unions and the moves of
    inner levels for as long as it runs; nothing it builds may change."""

    @staticmethod
    def sweep(monkeypatch, n):
        """Each instance of ``verify_theorem(n)`` with its out-rows, its trace
        and the sweep's memos, as built inside the sweep."""
        built = []
        real = construct.orient_diameter_two

        def spy(g):
            o, trace = real(g)
            built.append((g, o.dir.out, trace.to_json(), construct._SWEEP.get()))
            return o, trace

        monkeypatch.setattr(construct, "orient_diameter_two", spy)
        report = verify_theorem(n)
        assert report.ok and report.instances_checked == len(built)
        assert construct._SWEEP.get() is None  # the memos end with the sweep
        return built

    @pytest.mark.parametrize("n", [11, 12, 13])  # 13: the first order where a padded level repeats
    def test_a_sweep_builds_what_a_standalone_call_builds(self, monkeypatch, n):
        hits = Counter()
        real_get = structure._Memo.get

        def get(memo, key):
            value = real_get(memo, key)
            hits[memo] += value is not structure._MISSING
            return value

        monkeypatch.setattr(structure._Memo, "get", get)
        built = self.sweep(monkeypatch, n)
        memos = built[0][3]
        assert hits[memos.certs] and hits[memos.levels]
        for g, rows, steps, _ in built:
            o, trace = orient_diameter_two(g)
            assert o.dir.out == rows and trace.to_json() == steps

    def test_a_certificate_is_remembered_with_the_order_of_its_parts(self):
        blue = disjoint_union(complete_graph(3), paths_union([3]))
        parts = components(blue)
        assert structure._certify_union(blue, parts) != structure._certify_union(blue, parts[::-1])
        memo = structure._Memo()
        for order in (parts, parts[::-1], parts):
            assert structure._certify_union(blue, order, memo) == structure._certify_union(blue, order)
        assert len(memo.entries) == 2

    def test_no_memo_grows_past_its_bound(self, monkeypatch):
        largest = Counter()
        real_put = structure._Memo.put

        def put(memo, key, value):
            real_put(memo, key, value)
            largest[memo] = max(largest[memo], len(memo.entries))

        monkeypatch.setattr(structure._Memo, "put", put)
        memos = self.sweep(monkeypatch, 14)[0][3]
        assert largest[memos.certs] <= structure._MEMO_SIZE
        assert largest[memos.levels] == structure._MEMO_SIZE  # n = 14 has more inner levels than that

    def test_an_instance_that_raises_leaves_no_entry(self, monkeypatch):
        first = complement(disjoint_union(cycle_graph(4), *singletons(5)))  # a triple, then an inner level
        second = complement(disjoint_union(cycle_graph(4), cycle_graph(4), *singletons(8)))  # two inner levels

        def entries(memos):
            return [list(memos.certs.entries.items()), list(memos.levels.entries.items())]

        with construct._one_sweep():
            memos = construct._SWEEP.get()
            orient_diameter_two(first)
            kept = entries(memos)
            orient_diameter_two(second)
            assert all(len(now) > len(before) for now, before in zip(entries(memos), kept))
        with construct._one_sweep():
            memos = construct._SWEEP.get()
            orient_diameter_two(first)
            assert entries(memos) == kept
            monkeypatch.setattr(construct, "diameter", lambda d: 3)  # the output check fails
            with pytest.raises(InternalVerificationError):
                orient_diameter_two(second)
            assert entries(memos) == kept


@st.composite
def _relabelled_threshold_instances(draw):
    """A threshold instance on 5..16 vertices (the complement of a blue
    graph with at most n - 5 edges) and a permutation of its vertices."""
    n = draw(st.integers(min_value=5, max_value=16))
    blue = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=n - 5, unique=True))
    return complement(Graph.from_edges(n, blue)), draw(st.permutations(range(n)))


class TestRelabelling:
    @settings(max_examples=60, deadline=None)
    @given(_relabelled_threshold_instances())
    def test_relabelled_instance_gets_a_diameter_two_orientation(self, case):
        g, perm = case
        h = relabel(g, perm)
        o, _ = orient_diameter_two(h)
        assert o.base == h and diameter(o.dir) <= 2


class TestAddedRedEdges:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_adding_red_edges_keeps_a_diameter_two_orientation(self, data):
        """A threshold instance with any of its n - 5 missing edges added still
        gets a diameter-2 orientation of the graph with those edges."""
        n = data.draw(st.integers(min_value=5, max_value=24))
        pairs = list(combinations(range(n), 2))
        blue = data.draw(st.lists(st.sampled_from(pairs), min_size=n - 5, max_size=n - 5, unique=True))
        added = set(data.draw(st.lists(st.sampled_from(blue), unique=True))) if blue else set()
        g = complement(Graph.from_edges(n, [e for e in blue if e not in added]))
        o, _ = orient_diameter_two(g)
        assert o.base == g and diameter(o.dir) <= 2


class TestReplay:
    @pytest.mark.parametrize(
        "blue_builder",
        [
            lambda: paths_union([1, 1, 1, 1, 1]),
            lambda: disjoint_union(cycle_graph(4), *singletons(5)),
            lambda: disjoint_union(complete_graph(3), paths_union([3]), *singletons(4)),
            lambda: disjoint_union(dumbbell(3, 3), paths_union([3]), *singletons(5)),
        ],
    )
    def test_replay_reproduces_output(self, blue_builder):
        red = complement(blue_builder())
        o, trace = orient_diameter_two(red)
        assert replay_trace(red, trace) == o

    def test_replay_with_padding(self):
        g = complete_graph(9)
        o, trace = orient_diameter_two(g)
        assert replay_trace(g, trace) == o

    @pytest.mark.parametrize(
        "graph, cut, match",
        [
            (complete_graph(9), lambda steps: (), "ends before"),
            (complete_graph(9), lambda steps: steps[:1], "ends before"),
            (complete_graph(9), lambda steps: steps[:-1], "ends before"),
            (complete_graph(9), lambda steps: steps + steps[-1:], "1 steps after"),
            (complete_graph(9), lambda steps: steps[:1] + steps, "unexpected trace step"),
            (complete_graph(9), lambda steps: (PadStep(((0, 99),)),) + steps[1:], r"pad pair \(0, 99\)"),
            (complete_graph(9), lambda steps: (PadStep(((2, 2),)),) + steps[1:], r"pad pair \(2, 2\)"),
            (
                complete_graph(9),
                lambda steps: (PadStep(((0, 1), (1, 0))),) + steps[1:],
                r"pad pair \(1, 0\)",
            ),
            (
                complete_graph(9),
                lambda steps: (PadStep(steps[0].deleted + ((0, 5), (0, 6))),) + steps[1:],
                "misses 6 edges",
            ),
            (complete_graph(9), sinking_base_case, "innermost orientation of order 7 has diameter above 2"),
            (complete_graph(5), sinking_base_case, "innermost orientation of order 5 has diameter above 2"),
            (
                complete_graph(9),
                lambda steps: edit_first(steps, TripleStep, x1=0, x2=1, x3=2),
                r"triple \(0, 1, 2\) is not independent",
            ),
            (
                complete_graph(9),
                lambda steps: edit_first(steps, TripleStep, x3=99),
                r"triple \(1, 2, 99\) is not independent",
            ),
            (
                reduction_instance(),
                lambda steps: edit_cert(steps, rows=without_first_arc(steps[0].cert.rows)),
                "do not orient the base graph exactly",
            ),
            (
                reduction_instance(),
                lambda steps: edit_first(steps, ReductionPlan, w=(0, 1, 2, 3, 4)),
                r"set \(0, 1, 2, 3, 4\) is not a proper union of blue components",
            ),
            (
                reduction_instance(),
                lambda steps: edit_cert(steps, first=(0, 1, 2, 3, 4), second=(5,)),
                "fails its distance conditions",
            ),
            (
                reduction_instance(),
                lambda steps: edit_cert(steps, world=complement(steps[0].cert.world)),
                r"certificate world is not the red graph on \(0, 1, 2, 3, 4, 5\)",
            ),
            (
                reduction_instance(),
                lambda steps: edit_cert(steps, nontrivial=False),
                r"certificate on \(0, 1, 2, 3, 4, 5\) is trivial",
            ),
        ],
        ids=[
            "empty",
            "pad-only",
            "cut-before-base-case",
            "step-after-base-case",
            "pad-twice",
            "pad-out-of-range",
            "pad-self-pair",
            "pad-deleted-twice",
            "pad-too-many",
            "base-case-diameter",
            "single-step-base-case-diameter",
            "triple-not-independent",
            "triple-out-of-range",
            "reduce-cert-misses-an-edge",
            "reduce-not-a-union-of-components",
            "reduce-cert-classes-fail",
            "reduce-cert-world-not-the-level",
            "reduce-cert-trivial",
        ],
    )
    def test_malformed_trace_rejected(self, graph, cut, match):
        """K9's trace is pad, contract-triple, base-case; K5's a single base case."""
        _, trace = orient_diameter_two(graph)
        with pytest.raises(ValueError, match=match):
            replay_trace(graph, ConstructionTrace(cut(trace.steps)))

    def test_pad_too_many_rejected_under_optimize(self):
        # the order check must not be an assert, which python -O strips
        script = (
            "from orient2.construct import ConstructionTrace, PadStep, orient_diameter_two, replay_trace\n"
            "from orient2.graphs import Graph\n"
            "g = Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)])\n"
            "steps = orient_diameter_two(g)[1].steps\n"
            "bad = (PadStep(steps[0].deleted + ((0, 5), (0, 6))),) + steps[1:]\n"
            "try:\n"
            "    replay_trace(g, ConstructionTrace(bad))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(pathlib.Path(orient2.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "misses 6 edges" in done.stdout


class TestCostGuard:
    """The unwind lifts rows: the driver checks only the output, replay
    also the innermost orientation, and no level between them gets its red
    graph built beyond the certificate worlds replay checks."""

    def test_only_the_innermost_level_and_the_output_are_checked(self, monkeypatch):
        g = complement(random_blue(random.Random(3), 40, 35))
        diameters: list[int] = []
        complements: list[int] = []

        def counted(fn, orders):
            def wrapper(graph):
                orders.append(graph.n)
                return fn(graph)

            return wrapper

        monkeypatch.setattr(construct, "diameter", counted(diameter, diameters))
        monkeypatch.setattr(construct, "complement", counted(complement, complements))
        o, trace = orient_diameter_two(g)
        assert o.base == g
        moves = [s for s in trace.steps if not isinstance(s, PadStep)]
        worlds = [len(s.w) for s in moves if isinstance(s, ReductionPlan)]
        assert len(moves) - 1 >= 5 and worlds  # seed 3: five triples, then a reduce step on 26
        inner = g.n - 2 * (len(moves) - 1 - len(worlds)) - sum(len_w - 2 for len_w in worlds)
        assert diameters == [g.n]
        assert not any(inner < k < g.n for k in complements)
        diameters.clear()
        complements.clear()
        assert replay_trace(g, trace) == o
        assert diameters == [inner, g.n]
        between = Counter(k for k in complements if inner < k < g.n)
        assert not between - Counter(worlds)
