"""Structural analysis of the missing-edge graph ("blue" graph).

The driver looks at the complement of its input: component shapes, edge
excess, unions of tree components, contractible subsets, and independent
triples with too many shared neighbors.  Everything here is a pure
function of the blue graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

from .certs import GoodOrientationCert, split_cert
from .graphs import Graph, complement, components


class ComponentKind(Enum):
    PATH = "PATH"
    COMPLETE = "COMPLETE"
    PROPER_DUMBBELL = "PROPER_DUMBBELL"
    PROPER_SHORT_DUMBBELL = "PROPER_SHORT_DUMBBELL"
    FIVE_CYCLE = "FIVE_CYCLE"
    OTHER = "OTHER"


@dataclass(frozen=True)
class ComponentClass:
    kind: ComponentKind
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind.value}({','.join(str(p) for p in self.params)})"
        return self.kind.value


@dataclass(frozen=True)
class TripleWitness:
    """Independent triple with at least two doubly-attached or one triply-attached outside vertex."""

    x1: int
    x2: int
    x3: int
    n2: tuple[int, ...]
    n3: tuple[int, ...]


@dataclass(frozen=True)
class ReductionPlan:
    """A contractible union of whole blue components, with its certificate."""

    w: tuple[int, ...]
    recipe: str
    cert: GoodOrientationCert  # local to sorted(w)


def excess(g: Graph) -> int:
    """Edge surplus m - n; trees have excess -1, cycles 0."""
    return g.m - g.n


def _is_clique(g: Graph, vertices: Sequence[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vertices, 2))


def _is_path(sub: Graph) -> bool:
    if sub.n == 1:
        return True
    degs = sorted(sub.degree(v) for v in range(sub.n))
    if sub.n == 2:
        return degs == [1, 1]
    return sub.m == sub.n - 1 and degs[:2] == [1, 1] and degs[2:] == [2] * (sub.n - 2)


def _dumbbell_params(sub: Graph) -> tuple[int, int] | None:
    """(k, l) if sub is two cliques joined by a single edge, else None."""
    for u, v in sub.edges():
        trimmed = sub.without_edge(u, v)
        parts = components(trimmed)
        if len(parts) != 2:
            continue
        left, right = parts
        if (u in left) == (v in left):
            continue
        if _is_clique(sub, left) and _is_clique(sub, right):
            k, l = sorted((len(left), len(right)))
            return k, l
    return None


def _short_dumbbell_params(sub: Graph) -> tuple[int, int] | None:
    """(k, l) if sub is two cliques sharing exactly one vertex, else None."""
    for z in range(sub.n):
        rest = [v for v in range(sub.n) if v != z]
        parts = components(sub.induced(rest))
        if len(parts) != 2:
            continue
        rest_sorted = rest  # induced() relabels by sorted order; rest is sorted
        side_a = [rest_sorted[i] for i in parts[0]]
        side_b = [rest_sorted[i] for i in parts[1]]
        if _is_clique(sub, side_a + [z]) and _is_clique(sub, side_b + [z]):
            k, l = sorted((len(side_a) + 1, len(side_b) + 1))
            return k, l
    return None


def classify_component(g: Graph, comp: Sequence[int]) -> ComponentClass:
    """Exact structural class of one connected component of ``g``.

    Tests cheapest first: path, complete, 5-cycle, short dumbbell,
    dumbbell; anything else is OTHER.  Raises if ``comp`` is not a
    component of ``g``.
    """
    comp_sorted = tuple(sorted(comp))
    if comp_sorted not in set(components(g)):
        raise ValueError("vertex set is not a connected component")
    sub = g.induced(comp_sorted)
    if _is_path(sub):
        return ComponentClass(ComponentKind.PATH, (sub.n,))
    if sub.m == sub.n * (sub.n - 1) // 2:
        return ComponentClass(ComponentKind.COMPLETE, (sub.n,))
    if sub.n == 5 and sub.m == 5 and all(sub.degree(v) == 2 for v in range(5)):
        return ComponentClass(ComponentKind.FIVE_CYCLE)
    short = _short_dumbbell_params(sub)
    if short is not None and short[0] >= 3:
        return ComponentClass(ComponentKind.PROPER_SHORT_DUMBBELL, short)
    dumb = _dumbbell_params(sub)
    if dumb is not None and dumb[1] >= 3:
        return ComponentClass(ComponentKind.PROPER_DUMBBELL, dumb)
    return ComponentClass(ComponentKind.OTHER)


def find_violating_triple(b: Graph) -> TripleWitness | None:
    """First independent triple (lexicographic) with |N2| >= 2 or N3 nonempty.

    N_i collects the outside vertices with exactly i neighbors in the
    triple.  Returns None when every independent triple satisfies
    |N2| <= 1 and N3 empty.
    """
    for x1, x2, x3 in combinations(range(b.n), 3):
        if b.has_edge(x1, x2) or b.has_edge(x1, x3) or b.has_edge(x2, x3):
            continue
        triple_mask = 1 << x1 | 1 << x2 | 1 << x3
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
        if len(n2) >= 2 or n3:
            return TripleWitness(x1, x2, x3, tuple(n2), tuple(n3))
    return None


def tree_components(b: Graph) -> list[tuple[int, ...]]:
    """Components with edge count one less than vertex count."""
    out = []
    for comp in components(b):
        sub = b.induced(comp)
        if sub.m == sub.n - 1:
            out.append(comp)
    return out


def select_forest(b: Graph, t: int, m0: int) -> tuple[tuple[int, ...], ...]:
    """Union of tree components with t <= total vertices <= t + m0.

    Only trees of size (edge count) at most ``m0`` qualify.  Greedy over
    the largest qualifying trees: take the shortest prefix reaching t
    vertices.  The resulting forest has excess at least -t, and at least
    -t + m0 when t > m0 and a size-m0 tree exists.
    """
    if t < 1:
        raise ValueError("need a positive vertex target")
    qualifying = [c for c in tree_components(b) if len(c) - 1 <= m0]
    if len(qualifying) < t:
        raise ValueError(f"need at least {t} tree components of size <= {m0}")
    qualifying.sort(key=lambda c: (-len(c), c[0]))
    chosen: list[tuple[int, ...]] = []
    total = 0
    for comp in qualifying[:t]:
        chosen.append(comp)
        total += len(comp)
        if total >= t:
            break
    assert t <= total <= t + m0
    return tuple(chosen)


def _candidate_splits(parts: Sequence[tuple[int, ...]]) -> Iterator[tuple[list[int], list[int]]]:
    """Unordered two-colorings of whole parts into nonempty sides, smallest mask first."""
    r = len(parts)
    for mask in range(1, 1 << (r - 1)):
        side_a: list[int] = []
        side_b: list[int] = []
        for i, part in enumerate(parts):
            (side_a if mask >> i & 1 else side_b).extend(part)
        yield side_a, side_b


def _validated_plan(
    b: Graph, parts: Sequence[tuple[int, ...]], recipe: str
) -> ReductionPlan | None:
    w = sorted(v for part in parts for v in part)
    if len(w) == b.n:
        return None  # a contractible set must be a proper subset
    sub_blue = b.induced(w)
    if excess(sub_blue) < -1:
        return None
    world = complement(sub_blue)
    local = {v: i for i, v in enumerate(w)}
    for side_a, side_b in _candidate_splits(parts):
        cert = split_cert(world, [local[v] for v in side_a], [local[v] for v in side_b])
        if cert is not None:
            return ReductionPlan(tuple(w), recipe, cert)
    return None


def find_reduction(b: Graph) -> ReductionPlan | None:
    """Search the fixed recipe list for a contractible union of components.

    Candidates are unions of whole blue components; each is validated by
    building a non-trivial certificate for the complement restricted to it
    and checking that the blue excess stays at least -1.  The first
    validated candidate wins, so results are deterministic.
    """
    comps = components(b)
    infos = [(comp, b.induced(comp)) for comp in comps]
    non_trees = [(comp, sub) for comp, sub in infos if sub.m >= sub.n]
    trees = [comp for comp, sub in infos if sub.m == sub.n - 1]
    trees_big_first = sorted(trees, key=lambda c: (-len(c), c[0]))

    # recipe 1: one non-tree component plus a greedy forest of tree components
    for comp, sub in non_trees:
        ex1 = excess(sub)
        n1 = sub.n
        tried: set[tuple[tuple[int, ...], ...]] = set()
        for t in (n1 - 2, 5):
            if t < 1 or len(trees) < t:
                continue
            m0 = max((len(c) - 1 for c in trees), default=0)
            try:
                forest = select_forest(b, t, m0)
            except ValueError:
                continue
            if forest in tried:
                continue
            tried.add(forest)
            if ex1 - len(forest) < -1:
                continue
            plan = _validated_plan(b, [comp, *forest], "non-tree+forest")
            if plan is not None:
                return plan

    # recipe 2: two non-tree components, possibly with one or two tree components
    for (ca, sa), (cb, sb) in combinations(non_trees, 2):
        base_ex = excess(sa) + excess(sb)
        plan = _validated_plan(b, [ca, cb], "two-non-trees")
        if plan is not None:
            return plan
        for count in (1, 2):
            if base_ex - count < -1:
                continue
            for combo in combinations(trees_big_first, count):
                plan = _validated_plan(b, [ca, cb, *combo], "two-non-trees+trees")
                if plan is not None:
                    return plan

    # recipe 3: non-tree plus a four-vertex tree, then non-tree plus a small forest
    for comp, sub in non_trees:
        for tree in trees_big_first:
            if len(tree) == 4:
                plan = _validated_plan(b, [comp, tree], "non-tree+tree4")
                if plan is not None:
                    return plan
        lo = min(4, sub.n)
        ex1 = excess(sub)
        for count in range(1, min(len(trees), ex1 + 1) + 1):
            for combo in combinations(trees_big_first, count):
                total = sum(len(c) for c in combo)
                if not lo <= total <= 6:
                    continue
                plan = _validated_plan(b, [comp, *combo], "non-tree+small-forest")
                if plan is not None:
                    return plan

    # recipe 4: small non-tree plus a three-vertex tree
    for comp, sub in non_trees:
        if not 4 <= sub.n <= 6:
            continue
        for tree in trees_big_first:
            if len(tree) == 3:
                plan = _validated_plan(b, [comp, tree], "non-tree+tree3")
                if plan is not None:
                    return plan

    return None
