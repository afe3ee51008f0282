"""Structural analysis of the missing-edge graph ("blue" graph).

The driver looks at the complement of its input: component shapes, edge
excess, unions of tree components, contractible subsets, and independent
triples with too many shared neighbors.  Everything here is a pure
function of the blue graph.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterator, Sequence

from .certs import GoodOrientationCert, split_cert, split_sizes_ok
from .graphs import Graph, bits, complement, components, reach


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
class ReductionPlan:
    """A contractible union of whole blue components, with its certificate."""

    w: tuple[int, ...]
    recipe: str
    cert: GoodOrientationCert  # local to sorted(w)


@dataclass(frozen=True)
class TripleStep:
    """An independent triple with at least two doubly-attached or one
    triply-attached outside vertex, identified into one vertex."""

    x1: int
    x2: int
    x3: int


def excess(g: Graph) -> int:
    """Edge surplus m - n; trees have excess -1, cycles 0."""
    return g.m - g.n


def _two_cliques(rows: Sequence[int], mask: int) -> tuple[int, int] | None:
    """Sorted sizes when ``mask`` spans exactly two cliques with no edge between them."""
    low = mask & -mask
    side = rows[low.bit_length() - 1] & mask | low
    other = mask & ~side
    if not other:
        return None
    for v in bits(mask):
        clique = side if side >> v & 1 else other
        if rows[v] & mask != clique & ~(1 << v):
            return None
    k, l = sorted((side.bit_count(), other.bit_count()))
    return k, l


def _short_dumbbell_params(rows: Sequence[int], mask: int) -> tuple[int, int] | None:
    """(k, l) if ``mask`` spans two cliques sharing exactly one vertex, else None."""
    for z in bits(mask):
        rest = mask & ~(1 << z)
        if rows[z] & mask == rest:  # the shared vertex sees every other vertex
            sizes = _two_cliques(rows, rest)
            if sizes is not None:
                return sizes[0] + 1, sizes[1] + 1
    return None


def _dumbbell_params(rows: Sequence[int], mask: int) -> tuple[int, int] | None:
    """(k, l) if ``mask`` spans two cliques joined by a single edge, else None."""
    for u in bits(mask):
        for v in bits(rows[u] >> u + 1 << u + 1):
            trimmed = list(rows)
            trimmed[u] &= ~(1 << v)
            trimmed[v] &= ~(1 << u)
            sizes = _two_cliques(trimmed, mask)
            if sizes is not None:
                return sizes
    return None


def classify_component(g: Graph, comp: Sequence[int]) -> ComponentClass:
    """Exact structural class of one connected component of ``g``.

    Tests cheapest first: path, complete, 5-cycle, short dumbbell,
    dumbbell; anything else is OTHER.  Raises if ``comp`` is not a
    component of ``g``.
    """
    mask = sum(1 << v for v in set(comp) if 0 <= v < g.n)
    if not mask or len(comp) != mask.bit_count() or reach(g.adj, mask & -mask) != mask:
        raise ValueError("vertex set is not a connected component")
    degs = [g.adj[v].bit_count() for v in bits(mask)]
    n = len(degs)
    m = sum(degs) // 2
    if m == n - 1 and max(degs) <= 2:
        return ComponentClass(ComponentKind.PATH, (n,))
    if m == n * (n - 1) // 2:
        return ComponentClass(ComponentKind.COMPLETE, (n,))
    if n == 5 and m == 5 and max(degs) == 2:
        return ComponentClass(ComponentKind.FIVE_CYCLE)
    short = _short_dumbbell_params(g.adj, mask)
    if short is not None and short[0] >= 3:
        return ComponentClass(ComponentKind.PROPER_SHORT_DUMBBELL, short)
    dumb = _dumbbell_params(g.adj, mask)
    if dumb is not None and dumb[1] >= 3:
        return ComponentClass(ComponentKind.PROPER_DUMBBELL, dumb)
    return ComponentClass(ComponentKind.OTHER)


def find_violating_triple(b: Graph) -> TripleStep | None:
    """First independent triple (lexicographic) with |N2| >= 2 or N3 nonempty,
    as the trace step that contracts it.

    N_i collects the outside vertices with exactly i neighbors in the
    triple.  Returns None when every independent triple satisfies
    |N2| <= 1 and N3 empty.

    Let c(x, y) count the common neighbors of x and y.  An independent
    triple violates exactly when one of its pairs has c >= 2 or two of its
    pairs have c >= 1.  A vertex of N2 is a common neighbor of exactly one
    pair and a vertex of N3 of all three, so N3 nonempty gives three pairs
    with c >= 1, and two vertices of N2 give one pair with c >= 2 or two
    pairs with c >= 1.  Conversely, take two common neighbors of one pair,
    or one common neighbor of each of two pairs.  Each lies in N2 or N3.
    If they coincide, which only two pairs allow, that vertex lies in N3;
    if not, N3 is nonempty or both lie in N2.

    ``co[x]`` holds the vertices y != x with c(x, y) >= 1 and ``dbl[x]``
    those with c(x, y) >= 2, so for each pair the admissible x3 form one
    mask: every vertex if x2 is in ``dbl[x1]``; ``co[x1] | co[x2]`` if x2
    is in ``co[x1]``; ``(co[x1] & co[x2]) | dbl[x1] | dbl[x2]`` otherwise.
    Its lowest independent bit after x2 is the lexicographically first x3.
    The mask can only be nonempty when ``dbl[x1]`` has a vertex after x1,
    or x2 lies in ``co[x1]``, or ``dbl[x2]`` is nonempty, or ``co[x2]``
    meets ``co[x1]``, that is x2 lies in ``co[y]`` for some y in
    ``co[x1]``; the scan visits only those x2.
    """
    adj = b.adj
    co = []
    dbl = []
    doubled = 0  # the vertices x with dbl[x] nonempty
    for x in range(b.n):
        once = twice = 0
        for v in bits(adj[x]):
            row = adj[v]
            twice |= once & row
            once |= row
        co.append(once & ~(1 << x))
        twice &= ~(1 << x)
        dbl.append(twice)
        if twice:
            doubled |= 1 << x
    full = (1 << b.n) - 1
    for x1 in range(b.n):
        a1, co1 = adj[x1], co[x1]
        after1 = full & ~a1 >> x1 + 1 << x1 + 1
        dbl1 = dbl[x1] & after1
        if dbl1:
            seconds = after1
        else:
            seconds = co1 | doubled
            for y in bits(co1):
                seconds |= co[y]
            seconds &= after1
        for x2 in bits(seconds):
            if dbl1 >> x2 & 1:
                mask = after1
            elif co1 >> x2 & 1:
                mask = co1 | co[x2]
            else:
                mask = co1 & co[x2] | dbl1 | dbl[x2]
            a2 = adj[x2]
            thirds = mask & after1 & ~a2 >> x2 + 1 << x2 + 1
            if thirds:
                return TripleStep(x1, x2, (thirds & -thirds).bit_length() - 1)
    return None


def _candidate_splits(parts: Sequence[tuple[int, ...]]) -> Iterator[tuple[list[int], list[int]]]:
    """Unordered two-colorings of whole parts into nonempty sides, smallest mask first."""
    r = len(parts)
    for mask in range(1, 1 << (r - 1)):
        side_a: list[int] = []
        side_b: list[int] = []
        for i, part in enumerate(parts):
            (side_a if mask >> i & 1 else side_b).extend(part)
        yield side_a, side_b


def _union_excess(b: Graph, vertices: Sequence[int]) -> int:
    """Excess of a union of whole components, which keeps all of their edges."""
    return sum(b.adj[v].bit_count() for v in vertices) // 2 - len(vertices)


@lru_cache(maxsize=4096)
def _splittable(sizes: tuple[int, ...]) -> bool:
    """Whether whole parts of these (sorted) sizes split into two sides that
    pass `split_sizes_ok`.

    No blue edge crosses such a split, so these sizes are all `split_cert`
    can fail on before the world is built.
    """
    total = sum(sizes)
    sums = 1  # bit s: some subset of the parts has s vertices
    for size in sizes:
        sums |= sums << size
    return any(sums >> a & 1 and split_sizes_ok(a, total - a) for a in range(1, total // 2 + 1))


@lru_cache(maxsize=4096)
def _tree_shapes(
    fixed: tuple[int, ...], sizes: tuple[int, ...], count: int, lo: int, hi: int
) -> frozenset[tuple[int, ...]]:
    """Non-increasing ``count``-tuples over ``sizes`` (given largest first) whose
    total lies in [lo, hi] and which are `_splittable` together with the
    ``fixed`` part sizes, with all of their prefixes."""
    shapes: set[tuple[int, ...]] = set()

    def extend(prefix: tuple[int, ...], total: int, first: int) -> None:
        if len(prefix) == count:
            if total >= lo and _splittable(tuple(sorted(fixed + prefix))):
                shapes.update(prefix[:i] for i in range(count + 1))
            return
        for i in range(first, len(sizes)):
            if total + sizes[i] <= hi:
                extend(prefix + (sizes[i],), total + sizes[i], i)

    extend((), 0, 0)
    return frozenset(shapes)


def _shaped_combinations(
    sizes: Sequence[int], count: int, shapes: frozenset[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """``combinations(range(len(sizes)), count)`` restricted, in the same
    order, to the index tuples whose sizes form a tuple in ``shapes``.

    ``sizes`` must be non-increasing and ``shapes`` closed under prefixes.
    When a prefix leaves ``shapes``, every later index of the same size
    would too, so the walk bisects past all of them at once.
    """
    neg = [-size for size in sizes]

    def walk(start: int, chosen: tuple[int, ...], shape: tuple[int, ...]) -> Iterator[tuple]:
        if len(chosen) == count:
            yield chosen
            return
        stop = len(sizes) - (count - len(chosen)) + 1
        i = start
        while i < stop:
            longer = shape + (sizes[i],)
            if longer in shapes:
                yield from walk(i + 1, chosen + (i,), longer)
                i += 1
            else:
                i = bisect_right(neg, neg[i], i)

    if () in shapes:
        yield from walk(0, (), ())


def _certify_union(b: Graph, parts: Sequence[tuple[int, ...]]) -> GoodOrientationCert | None:
    """First non-trivial certificate of the red graph on the union of the
    whole blue components ``parts``, over their two-colorings in
    `_candidate_splits` order; labels are local to the sorted union."""
    if not _splittable(tuple(sorted(len(part) for part in parts))):
        return None
    w = sorted(v for part in parts for v in part)
    world = complement(b.induced(w))
    local = {v: i for i, v in enumerate(w)}
    for side_a, side_b in _candidate_splits(parts):
        cert = split_cert(world, [local[v] for v in side_a], [local[v] for v in side_b])
        if cert is not None:
            return cert
    return None


def _validated_plan(
    b: Graph, parts: Sequence[tuple[int, ...]], recipe: str
) -> ReductionPlan | None:
    w = tuple(sorted(v for part in parts for v in part))
    if len(w) == b.n:
        return None  # a contractible set must be a proper subset
    if _union_excess(b, w) < -1:
        return None
    cert = _certify_union(b, parts)
    return None if cert is None else ReductionPlan(w, recipe, cert)


# tree sizes that fit recipe 3's small forest (at most six vertices), largest first
_SMALL_FOREST_SIZES = (6, 5, 4, 3, 2, 1)

# Largest non-tree component recipe 3 can certify with a small forest.  Every
# split keeps the component whole, so past this size the side without it, at
# most six forest vertices, is the smaller side a, and `split_sizes_ok` caps
# b at max(C(a, a//2), 2a), largest at a = 6.
_SMALL_FOREST_LIMIT = max(b for b in range(6, 64) if split_sizes_ok(6, b))


def find_reduction(
    b: Graph, comps: Sequence[tuple[int, ...]] | None = None
) -> ReductionPlan | None:
    """Search the fixed recipe list for a contractible union of components.

    Candidates are unions of whole blue components; each is validated by
    building a non-trivial certificate for the complement restricted to it
    and checking that the blue excess stays at least -1.  The first
    validated candidate wins, so results are deterministic.  Candidates
    whose part sizes admit no certifiable split are skipped unbuilt.
    ``comps`` are the components of ``b`` in `components` order, computed
    when not given.
    """
    if comps is None:
        comps = components(b)
    non_trees: list[tuple[int, ...]] = []
    non_tree_excess: list[int] = []
    trees: list[tuple[int, ...]] = []
    for comp in comps:
        ex = _union_excess(b, comp)
        if ex == -1:  # a component has excess at least -1, exactly -1 when it is a tree
            trees.append(comp)
        else:
            non_trees.append(comp)
            non_tree_excess.append(ex)
    trees_big_first = sorted(trees, key=lambda c: (-len(c), c[0]))
    tree_sizes = [len(c) for c in trees_big_first]
    distinct_sizes = tuple(sorted(set(tree_sizes), reverse=True))
    covered = list(accumulate(tree_sizes))

    # recipe 1: one non-tree component plus the fewest largest trees covering t vertices
    for comp in non_trees:
        tried: set[int] = set()
        for t in (len(comp) - 2, 5):
            if t < 1 or len(trees) < t:
                continue
            count = bisect_left(covered, t) + 1
            if count in tried:
                continue
            tried.add(count)
            plan = _validated_plan(b, [comp, *trees_big_first[:count]], "non-tree+forest")
            if plan is not None:
                return plan

    # recipe 2: two non-tree components, possibly with one or two tree components
    for ca, cb in combinations(non_trees, 2):
        plan = _validated_plan(b, [ca, cb], "two-non-trees")
        if plan is not None:
            return plan
        for count in (1, 2):
            # `count` trees never exceed this bound, so it keys the cache
            # without the level's order whenever the trees are small
            hi = min(b.n, count * max(distinct_sizes, default=0))
            shapes = _tree_shapes((len(ca), len(cb)), distinct_sizes, count, 0, hi)
            for combo in _shaped_combinations(tree_sizes, count, shapes):
                parts = [ca, cb, *(trees_big_first[i] for i in combo)]
                plan = _validated_plan(b, parts, "two-non-trees+trees")
                if plan is not None:
                    return plan

    # recipe 3: non-tree plus a four-vertex tree, then non-tree plus a small forest
    for comp, ex1 in zip(non_trees, non_tree_excess):
        for tree in trees_big_first:
            if len(tree) == 4:
                plan = _validated_plan(b, [comp, tree], "non-tree+tree4")
                if plan is not None:
                    return plan
        if len(comp) > _SMALL_FOREST_LIMIT:
            continue
        lo = min(4, len(comp))
        # a forest of at most six vertices has at most six trees
        for count in range(1, min(len(trees), ex1 + 1, 6) + 1):
            shapes = _tree_shapes((len(comp),), _SMALL_FOREST_SIZES, count, lo, 6)
            for combo in _shaped_combinations(tree_sizes, count, shapes):
                parts = [comp, *(trees_big_first[i] for i in combo)]
                plan = _validated_plan(b, parts, "non-tree+small-forest")
                if plan is not None:
                    return plan

    # recipe 4: small non-tree plus a three-vertex tree
    for comp in non_trees:
        if not 4 <= len(comp) <= 6:
            continue
        for tree in trees_big_first:
            if len(tree) == 3:
                plan = _validated_plan(b, [comp, tree], "non-tree+tree3")
                if plan is not None:
                    return plan

    return None
