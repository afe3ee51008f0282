import dataclasses
import random
from math import comb

import pytest

from conftest import (
    blue_matchjoin_cert,
    complete_bipartite_cert,
    complete_graph,
    cycle_graph,
    paths_union,
)
from orient2 import certs
from orient2.certs import (
    GoodOrientationCert,
    _embed_into_matchjoin,
    _window_injection,
    combine,
    matchjoin_cert,
    matchjoin_graph,
    split_cert,
    verify_cert,
    window_cert,
)
from orient2.graphs import Digraph, Graph, Orientation, bits, complement, diameter


def k_ab(a, b):
    return Graph.from_edges(a + b, [(x, y) for x in range(a) for y in range(a, a + b)])


def rows_of(n, arcs):
    return Digraph.from_arcs(n, arcs).out


def arcs_of(rows):
    return {(u, v) for u, row in enumerate(rows) for v in bits(row)}


def oriented(red, rows):
    """The orientation of ``red`` that the out-rows ``rows`` give; raises unless they orient it exactly."""
    return Orientation(red, Digraph(red.n, rows))


# the directed four-cycle 2 -> 0 -> 3 -> 1 -> 2 on K_{2,2}
FOUR_CYCLE = rows_of(4, [(2, 0), (0, 3), (3, 1), (1, 2)])


class TestVerifyCert:
    def test_single_edge_any_direction_good(self):
        g = Graph.from_edges(2, [(0, 1)])
        for arcs in ([(0, 1)], [(1, 0)]):
            cert = GoodOrientationCert(g, rows_of(2, arcs), (0,), (1,), False)
            assert verify_cert(cert)

    def test_directed_four_cycle_nontrivial(self):
        cert = GoodOrientationCert(k_ab(2, 2), FOUR_CYCLE, (0, 1), (2, 3), True)
        assert verify_cert(cert)

    def test_all_arcs_one_way_fails(self):
        rows = rows_of(6, [(x, y) for x in range(3) for y in range(3, 6)])
        cert = GoodOrientationCert(k_ab(3, 3), rows, (0, 1, 2), (3, 4, 5), False)
        assert not verify_cert(cert)

    def test_mismatched_world_raises(self):
        rows = rows_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # orients K4
        cert = GoodOrientationCert(k_ab(2, 2), rows, (0, 1), (2, 3), False)
        with pytest.raises(ValueError, match="do not orient the base graph exactly"):
            verify_cert(cert)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (rows_of(4, [(2, 0), (0, 3), (3, 1)]), "do not orient the base graph exactly"),
            (rows_of(4, [(2, 0), (0, 2), (0, 3), (3, 1), (1, 2)]), "oriented both ways"),
            (rows_of(4, [(2, 0), (0, 3), (3, 1), (1, 2), (0, 1)]), "do not orient the base graph exactly"),
            ((FOUR_CYCLE[0] | 1,) + FOUR_CYCLE[1:], "do not orient the base graph exactly"),
            (FOUR_CYCLE[:3], "expected 4 out-rows"),
            (FOUR_CYCLE + (0,), "expected 4 out-rows"),
            ((FOUR_CYCLE[0] | 1 << 4,) + FOUR_CYCLE[1:], "expected 4 out-rows"),
        ],
        ids=[
            "misses-an-edge",
            "edge-both-ways",
            "arc-on-a-non-edge",
            "self-arc",
            "too-few-rows",
            "too-many-rows",
            "arc-outside-the-world",
        ],
    )
    def test_rows_must_orient_the_world_exactly(self, rows, match):
        # the checks an `Orientation` of the world made before certificates held bare rows
        cert = GoodOrientationCert(k_ab(2, 2), rows, (0, 1), (2, 3), True)
        with pytest.raises(ValueError, match=match):
            verify_cert(cert)

    def test_partition_must_cover(self):
        cert = GoodOrientationCert(k_ab(2, 2), FOUR_CYCLE, (0,), (2, 3), False)
        with pytest.raises(ValueError, match="do not partition"):
            verify_cert(cert)

    def test_classes_must_be_disjoint(self):
        cert = GoodOrientationCert(k_ab(2, 2), FOUR_CYCLE, (0, 1, 2), (2, 3), False)
        with pytest.raises(ValueError, match="do not partition"):
            verify_cert(cert)

    @staticmethod
    def counted_checks(monkeypatch):
        """The certificates `verify_cert` checks from now on, one entry per check."""
        checked = []

        def counted(cert):
            checked.append(cert)
            return check(cert)

        check = certs._check
        monkeypatch.setattr(certs, "_check", counted)
        return checked

    @pytest.mark.parametrize("nontrivial, verdict", [(True, True), (False, False)])
    def test_verdict_is_recorded(self, monkeypatch, nontrivial, verdict):
        # the four-cycle passes non-trivially; with every arc one way the check fails
        rows = FOUR_CYCLE if verdict else rows_of(4, [(x, y) for x in range(2) for y in range(2, 4)])
        checked = self.counted_checks(monkeypatch)
        cert = GoodOrientationCert(k_ab(2, 2), rows, (0, 1), (2, 3), nontrivial)
        assert verify_cert(cert) is verdict and verify_cert(cert) is verdict
        assert checked == [cert]
        fresh = GoodOrientationCert(k_ab(2, 2), rows, (0, 1), (2, 3), nontrivial)
        assert fresh == cert and hash(fresh) == hash(cert)
        assert verify_cert(fresh) is verdict and checked == [cert, fresh]
        # an edited copy records no verdict of its own: the four-cycle also
        # passes trivially, and arcs all one way also fail non-trivially
        edited = dataclasses.replace(cert, nontrivial=not nontrivial)
        assert verify_cert(edited) is verdict and checked == [cert, fresh, edited]

    def test_malformed_certificate_raises_every_time(self, monkeypatch):
        checked = self.counted_checks(monkeypatch)
        cert = GoodOrientationCert(k_ab(2, 2), FOUR_CYCLE[:3], (0, 1), (2, 3), True)
        for _ in range(2):
            with pytest.raises(ValueError, match="expected 4 out-rows"):
                verify_cert(cert)
        assert checked == [cert, cert]


class TestWindowConstruction:
    def test_2_2_matches_formula(self):
        cert = complete_bipartite_cert(2, 2)
        arcs = arcs_of(cert.rows)
        # classes 0,1 | 2,3; windows pair y_i with x_i
        assert arcs == {(2, 0), (0, 3), (3, 1), (1, 2)}
        assert cert.nontrivial and verify_cert(cert)

    def test_3_3_windows(self):
        cert = complete_bipartite_cert(3, 3)
        rows = cert.rows
        for i in range(3):
            assert rows[3 + i] >> i & 1
            for j in range(3):
                if j != i:
                    assert rows[j] >> 3 + i & 1
        assert verify_cert(cert)

    def test_1_1_good_but_trivial(self):
        cert = complete_bipartite_cert(1, 1)
        assert verify_cert(cert) and not cert.nontrivial

    @pytest.mark.parametrize("a", range(2, 7))
    def test_full_range_nontrivial(self, a):
        for b in range(a, min(comb(a, a // 2), 20) + 1):
            cert = complete_bipartite_cert(a, b)
            assert verify_cert(cert) and cert.nontrivial

    def test_out_degree_is_half_window(self):
        cert = complete_bipartite_cert(5, 9)
        xs = set(cert.first)
        for y in cert.second:
            outs = sum(cert.rows[y] >> x & 1 for x in xs)
            ins = sum(cert.rows[x] >> y & 1 for x in xs)
            assert (outs, ins) == (2, 3)

    def test_size_bounds_rejected(self):
        assert complete_bipartite_cert(2, 3) is None
        assert complete_bipartite_cert(4, 7) is None
        assert complete_bipartite_cert(1, 2) is None

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
            cert = blue_matchjoin_cert(a, b, matchjoin_graph(a, b - a))
            assert verify_cert(cert) and cert.nontrivial

    def test_k3_exact(self):
        cert = blue_matchjoin_cert(3, 3, complete_graph(3))
        assert verify_cert(cert) and cert.nontrivial

    def test_canonical_3_5_arc_layout(self):
        # identity embedding: x side 0..2, first clique 3..5, second 6..7
        cert = blue_matchjoin_cert(3, 5, matchjoin_graph(3, 2))
        arcs = arcs_of(cert.rows)
        for arc in [(0, 3), (1, 4), (2, 5), (4, 0), (5, 0), (6, 0), (7, 1), (1, 6), (2, 7), (6, 4), (7, 3)]:
            assert arc in arcs, arc

    def test_c5_embeds(self):
        cert = blue_matchjoin_cert(3, 5, cycle_graph(5))
        assert verify_cert(cert) and cert.nontrivial

    def test_k4_does_not_embed(self):
        assert blue_matchjoin_cert(3, 4, complete_graph(4)) is None

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
            cert = blue_matchjoin_cert(a, b, Graph.from_edges(b, keep))
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
        o = oriented(red, combine(red, cert, [6, 7]))
        assert diameter(o.dir) == 2

    def test_two_certified_halves(self):
        blue = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        red = complement(blue)
        cw = split_cert(red.induced(range(4)), [0, 1], [2, 3])
        cz = split_cert(red.induced(range(4, 8)), [0, 1], [2, 3])
        o = oriented(red, combine(red, cw, [4, 5, 6, 7], cz))
        assert diameter(o.dir) == 2

    def test_blue_cross_edge_rejected(self):
        blue = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            combine(red, cert, [6, 7])

    def test_three_with_internal_blue_edge_rejected(self):
        blue = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError):
            combine(red, cert, [6, 7, 8])

    @pytest.mark.parametrize("part", ["w", "z"])
    def test_trivial_certificate_rejected(self, part):
        # K6 as a K2 and a K4: the (1, 1) window certifies the K2, but only trivially
        trivial = window_cert(complete_graph(2), [0], [1])
        good = split_cert(complete_graph(4), [0, 1], [2, 3])
        assert not trivial.nontrivial and verify_cert(trivial)
        red = complete_graph(6)
        cert_w, z, cert_z = (trivial, [2, 3, 4, 5], good) if part == "w" else (good, [4, 5], trivial)
        with pytest.raises(ValueError, match="non-trivial certificate"):
            combine(red, cert_w, z, cert_z)

    def test_certificate_of_another_world_rejected(self):
        # a certificate of K6, laid on a part of the red graph that misses two triangles
        blue = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
        cert = split_cert(complete_graph(6), [0, 1, 2], [3, 4, 5])
        assert cert is not None and verify_cert(cert)
        with pytest.raises(ValueError, match="does not match its part"):
            combine(complement(blue), cert, [6, 7])
        # K5 and an isolated vertex: its rows match the red K5 on 0..4, but it has a vertex too many
        world = Graph.from_edges(6, [(u, v) for v in range(5) for u in range(v)])
        longer = GoodOrientationCert(world, certs._orient_rest(world, [0] * 6), (0, 1, 2), (3, 4, 5), True)
        with pytest.raises(ValueError, match="does not match its part"):
            combine(complete_graph(7), longer, [5, 6])

    @pytest.mark.parametrize("part", ["w", "z"])
    def test_certificate_failing_its_distance_conditions_rejected(self, part):
        # the red K4 oriented low to high, claimed non-trivial: vertex 0 has no in-neighbour
        world = complete_graph(4)
        failing = GoodOrientationCert(world, certs._orient_rest(world, [0] * 4), (0, 1), (2, 3), True)
        good = split_cert(world, [0, 1], [2, 3])
        assert not verify_cert(failing) and verify_cert(good)
        cert_w, cert_z = (failing, good) if part == "w" else (good, failing)
        with pytest.raises(ValueError, match="verified non-trivial"):
            combine(complete_graph(8), cert_w, [4, 5, 6, 7], cert_z)

    @pytest.mark.parametrize("leftovers", [3, 4])
    def test_leftovers_without_certificate_rejected(self, leftovers):
        # only two leftover vertices can stand in for a certificate's classes
        blue = Graph.from_edges(6 + leftovers, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        red = complement(blue)
        cert = split_cert(red.induced(range(6)), [0, 1, 2], [3, 4, 5])
        with pytest.raises(ValueError, match=f"{leftovers} leftover vertices need a certificate"):
            combine(red, cert, range(6, 6 + leftovers))


def certify_and_combine_two(red, u1, v1, u2, v2):
    # certify the (u2, v2) split, then extend it over the two leftovers u1 + v1
    w = sorted(u2 + v2)
    local = {v: i for i, v in enumerate(w)}
    cert = split_cert(red.induced(w), [local[v] for v in u2], [local[v] for v in v2])
    assert cert is not None
    return oriented(red, combine(red, cert, u1 + v1))


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
            combine(red, cert, [0, 1, 3])


# Arc-dict references: the three constructions as first written, one arc
# per unordered pair, every pair left unset oriented low label to high.
# The row-based builders must reproduce their out-rows bit for bit.


def ref_fill(world, arcs):
    return Orientation.from_arcs(world, [arcs.get(frozenset(e), e) for e in world.edges()])


def ref_window(world, xs, ys):
    a, b = len(xs), len(ys)
    if (a, b) == (1, 1):
        return ref_fill(world, {frozenset((xs[0], ys[0])): (xs[0], ys[0])})
    arcs = {}
    windows = _window_injection(a, b)
    for i in range(b):
        for j in range(a):
            arc = (ys[i], xs[j]) if j in windows[i] else (xs[j], ys[i])
            arcs[frozenset(arc)] = arc
    return ref_fill(world, arcs)


def ref_embedding(pattern_blue, a, k):
    """The clique-pair embedding as first written: the same vertex order,
    each vertex tried at positions 0..a+k-1 in turn."""
    b = a + k
    if pattern_blue.n > b:
        return None
    target = matchjoin_graph(a, k)
    order = []
    seen = set()
    for start in range(pattern_blue.n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in pattern_blue.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    placement = [-1] * pattern_blue.n
    used = [False] * b

    def extend(idx):
        if idx == len(order):
            return True
        v = order[idx]
        placed_nbrs = [placement[w] for w in pattern_blue.neighbors(v) if placement[w] >= 0]
        for pos in range(b):
            if used[pos]:
                continue
            if any(not target.has_edge(pos, p) for p in placed_nbrs):
                continue
            placement[v] = pos
            used[pos] = True
            if extend(idx + 1):
                return True
            placement[v] = -1
            used[pos] = False
        return False

    return placement if extend(0) else None


def ref_matchjoin(world, xs, ys):
    a, b = len(xs), len(ys)
    ys_sorted = sorted(ys)
    at_pos = [-1] * b
    for local, pos in enumerate(ref_embedding(complement(world.induced(ys)), a, b - a)):
        at_pos[pos] = ys_sorted[local]
    arcs = {}

    def put(u, v):
        arcs[frozenset((u, v))] = (u, v)

    for i in range(a):
        put(xs[i], at_pos[i])
        for j in range(a):
            if j != i:
                put(at_pos[j], xs[i])
    for i in range(b - a):
        put(at_pos[a + i], xs[i])
        for j in range(a):
            if j != i:
                put(xs[j], at_pos[a + i])
    for i in range(b - a):
        for j in range(a):
            if j != i and world.has_edge(at_pos[a + i], at_pos[j]):
                put(at_pos[a + i], at_pos[j])
    return ref_fill(world, arcs)


# what `combine`'s leftover holds, with the seed of its cases: its own
# certificate, or two vertices that stand in for its classes
COMBINE_SHAPES = {"nontrivial-cert": 7300, "two": 7302}


def ref_combine(red, cert_w, z, shape, cert_z=None):
    z_sorted = sorted(z)
    w_sorted = sorted(set(range(red.n)) - set(z))
    arcs = {}

    def put(u, v):
        arcs[frozenset((u, v))] = (u, v)

    def lay_out(cert, labels):
        for u, v in sorted(arcs_of(cert.rows)):
            put(labels[u], labels[v])
        return [labels[i] for i in cert.first], [labels[i] for i in cert.second]

    first_w, second_w = lay_out(cert_w, w_sorted)
    if shape == "nontrivial-cert":
        first_z, second_z = lay_out(cert_z, z_sorted)
        blocks = ((first_w, first_z), (first_z, second_w), (second_w, second_z), (second_z, first_w))
        for sources, targets in blocks:
            for u in sources:
                for v in targets:
                    put(u, v)
    else:
        # the routing as first written: the lead leftover vertex between the
        # classes, and the other one from W's second class back to its first
        lead, rest = z_sorted[0], z_sorted[1:]
        for u in first_w:
            put(u, lead)
        for v in second_w:
            put(lead, v)
        for y in rest:
            for u in first_w:
                put(y, u)
            for v in second_w:
                put(v, y)
    return ref_fill(red, arcs)


def shuffled_two_class_world(rng, a, b, inner, blue_y=None):
    """A world on a + b shuffled labels with every cross pair, each pair
    inside the x class with probability ``inner``, and on the y class the
    non-edges of ``blue_y`` (or each pair with probability ``inner``)."""
    perm = rng.sample(range(a + b), a + b)
    xs, ys = perm[:a], perm[a:]
    edges = [(x, y) for x in xs for y in ys]
    edges += [(xs[i], xs[j]) for i in range(a) for j in range(i + 1, a) if rng.random() < inner]
    if blue_y is None:
        edges += [(ys[i], ys[j]) for i in range(b) for j in range(i + 1, b) if rng.random() < inner]
    else:
        edges += [(ys[i], ys[j]) for i, j in complement(blue_y).edges()]
    return Graph.from_edges(a + b, edges), xs, ys


def seeded_combine_input(rng, shape):
    """A red graph, a certificate for its certified set w, the leftover set z
    and, for the "nontrivial-cert" shape, a certificate for z; w and z interleave."""

    def certified_part():
        while True:
            a = rng.randint(2, 4)
            world, xs, ys = shuffled_two_class_world(rng, a, rng.randint(a, 2 * a), 0.8)
            cert = split_cert(world, xs, ys)
            if cert is not None:
                return world, cert

    w_world, cert_w = certified_part()
    if shape == "nontrivial-cert":
        z_world, cert_z = certified_part()
    else:
        cert_z = None
        z_world = complete_graph(2) if rng.random() < 0.5 else Graph.from_edges(2, [])
    nw, n = w_world.n, w_world.n + z_world.n
    labels = rng.sample(range(n), n)
    w_labels, z_labels = sorted(labels[:nw]), sorted(labels[nw:])
    edges = [(w_labels[u], w_labels[v]) for u, v in w_world.edges()]
    edges += [(z_labels[u], z_labels[v]) for u, v in z_world.edges()]
    edges += [(u, v) for u in w_labels for v in z_labels]
    return Graph.from_edges(n, edges), cert_w, z_labels, cert_z


class TestAgainstArcDictReference:
    @pytest.mark.parametrize("a", range(1, 7))
    def test_window_sizes(self, a):
        rng = random.Random(7100 + a)
        sizes = [1] if a == 1 else range(a, min(comb(a, a // 2), 20) + 1)
        for b in sizes:
            cert = complete_bipartite_cert(a, b)
            expected = ref_window(cert.world, range(a), range(a, a + b))
            assert cert.rows == expected.dir.out, (a, b)
            world, xs, ys = shuffled_two_class_world(rng, a, b, 0.5)
            cert = window_cert(world, xs, ys)
            assert cert.rows == ref_window(world, xs, ys).dir.out, (a, b)

    def test_clique_pair_sizes(self):
        rng = random.Random(7200)
        pairs = [(a, b) for a in range(3, 7) for b in range(a, 2 * a + 1)]
        for a, b in pairs:
            cert = blue_matchjoin_cert(a, b, matchjoin_graph(a, b - a))
            expected = ref_matchjoin(cert.world, range(a), range(a, a + b))
            assert cert.rows == expected.dir.out, (a, b)
        for _ in range(200):
            a, b = pairs[rng.randrange(len(pairs))]
            full = matchjoin_graph(a, b - a).edges()
            pattern = Graph.from_edges(b, [e for e in full if rng.random() < 0.6])
            world, xs, ys = shuffled_two_class_world(rng, a, b, 0.5, pattern)
            cert = matchjoin_cert(world, xs, ys)
            assert cert is not None
            assert cert.rows == ref_matchjoin(world, xs, ys).dir.out, (a, b)

    def test_embedding_on_small_patterns(self):
        # every graph on at most 6 vertices, alone and with one to three
        # isolated vertices added up to 8 vertices (the first search places
        # the rest without them), and seeded sparse ones on 7 and 8 (the
        # complements the constructor hands over are sparse), against every
        # clique pair with 3 <= a <= a + k <= min(2a, 8)
        nx = pytest.importorskip("networkx")
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
        patterns = [
            Graph.from_edges(g.number_of_nodes() + extra, g.edges())
            for g in atlas
            for extra in range(4)
            if g.number_of_nodes() + extra <= 8
        ]
        rng = random.Random(7400)
        for n in (7, 8):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            patterns += [Graph.from_edges(n, rng.sample(pairs, rng.randint(0, n))) for _ in range(60)]
        shapes = [(a, k) for a in range(3, 9) for k in range(a + 1) if a + k <= 8]
        embedded = 0
        for pattern in patterns:
            for a, k in shapes:
                expected = ref_embedding(pattern, a, k)
                assert _embed_into_matchjoin(pattern, a, k) == expected, (pattern, a, k)
                embedded += expected is not None
        assert 0 < embedded < len(patterns) * len(shapes)

    def test_k4_with_two_isolated_vertices_does_not_embed(self):
        # K4 needs four pairwise adjacent positions, which the pair (3, 3) lacks
        k4_2k1 = Graph.from_edges(6, [(u, v) for v in range(4) for u in range(v)])
        assert _embed_into_matchjoin(k4_2k1, 3, 3) is None is ref_embedding(k4_2k1, 3, 3)

    @pytest.mark.parametrize("shape", COMBINE_SHAPES)
    def test_combine_cases(self, shape):
        rng = random.Random(COMBINE_SHAPES[shape])
        for _ in range(40):
            red, cert_w, z, cert_z = seeded_combine_input(rng, shape)
            o = oriented(red, combine(red, cert_w, z, cert_z))
            assert o.dir.out == ref_combine(red, cert_w, z, shape, cert_z).dir.out
            assert diameter(o.dir) == 2
