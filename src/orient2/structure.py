"""Structural analysis of the missing-edge graph ("blue" graph).

The driver looks at the complement of its input: component shapes, edge
excess, unions of tree components, contractible subsets, and independent
triples with too many shared neighbors.  Everything here is a pure
function of the blue graph.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Callable, Iterator, Sequence

from .certs import GoodOrientationCert, split_cert, split_sizes_ok
from .graphs import Graph, _induced, _relabel, _unchecked, bits, complement, components, reach


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


# Entries in each memo of a sweep.  The n = 16 sweep (2 vCPU Xeon, Python
# 3.11.7, pure kernel) took 35 to 39 s with no memo; with memos of 256
# entries, 13.2 to 13.7 s at a peak RSS of 35.9 MB; of 1,024, 12.3 to
# 12.9 s at 37.5 MB; unbounded, 11.8 s at 56.4 MB.
_MEMO_SIZE = 1024
_MISSING = object()


class _Memo:
    """Results of a deterministic step, kept for the repeats within one sweep.

    A map of at most `_MEMO_SIZE` entries that forgets the least recently
    used one.  The entries put since the last `settle` belong to the
    instance being built: ``settle(True)`` keeps them and ``settle(False)``
    takes them back, so an instance whose construction raised leaves none."""

    def __init__(self) -> None:
        self.entries: OrderedDict = OrderedDict()
        self._fresh: list = []

    def get(self, key):
        """The value put under ``key``, or `_MISSING`."""
        value = self.entries.get(key, _MISSING)
        if value is not _MISSING:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self.entries[key] = value
        self._fresh.append(key)
        if len(self.entries) > _MEMO_SIZE:
            self.entries.popitem(last=False)

    def settle(self, keep: bool) -> None:
        if not keep:
            for key in self._fresh:
                self.entries.pop(key, None)
        self._fresh.clear()


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
    mask = 0
    for v in comp:
        if not 0 <= v < g.n:
            raise ValueError("vertex set is not a connected component")
        mask |= 1 << v
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


class LiveBlue:
    """A blue graph that a descent edits in place, over labels that never change.

    Padding adds blue edges between live labels.  A contraction retires the
    labels it removes and gives each vertex it makes a fresh label above
    every label so far, so kept vertices keep their order and new ones come
    last, as they would if every level were relabelled 0..n-1.  A label's
    rank among the live ones (`rank`, its index in ``labels``) is therefore
    its label in that relabelled level, and every choice the driver makes
    depends on ranks alone.  A retired label's row keeps its last value.

    Each edit also updates, only where it changed the graph, what the
    driver's searches read: the edge count ``m``; the components, split
    into ``trees`` (keys ``(-size, smallest label, mask)``, largest first)
    and ``non_trees`` (keys ``(size, smallest label, mask, excess)``, in
    `components` order) and joined by a union-find; and the common-neighbour
    masks of `find_violating_triple`, recounted when next asked for at the
    labels an edit marked.  ``certs`` is the memo of certified unions that
    `find_reduction` consults, set only within a sweep.
    """

    def __init__(self, g: Graph) -> None:
        self.adj = list(g.adj)
        self.live = (1 << g.n) - 1
        self.labels = list(range(g.n))
        self.m = 0
        self.trees: list[tuple[int, int, int]] = []
        self.non_trees: list[tuple[int, int, int, int]] = []
        self._parent = list(range(g.n))
        self._info: dict[int, tuple[int, int, int, int]] = {}  # root: size, smallest label, mask, edges
        self._co: list[int] = []
        self._dbl: list[int] = []
        self._doubled = 0  # the labels x with dbl[x] nonempty
        self._stale = self.live  # the labels whose co and dbl may have changed since last counted
        self.certs: _Memo | None = None
        adj, parent, info = self.adj, self._parent, self._info
        for comp in components(g):
            low = comp[0]
            mask = degrees = 0
            for v in comp:
                parent[v] = low
                mask |= 1 << v
                degrees += adj[v].bit_count()
            size, edges = len(comp), degrees // 2
            self.m += edges
            info[low] = (size, low, mask, edges)
            if edges < size:
                self.trees.append((-size, low, mask))
            else:
                self.non_trees.append((size, low, mask, edges - size))  # in `components` order
        self.trees.sort()

    @property
    def order(self) -> int:
        return len(self.labels)

    def rank(self, label: int) -> int:
        return bisect_left(self.labels, label)

    def compact(self) -> tuple[Graph, list[tuple[int, ...]]]:
        """The level relabelled by rank, and its components there in `components` order.

        While no label has retired, every label is its own rank."""
        keys = sorted([key[:3] for key in self.non_trees] + [(-s, low, mask) for s, low, mask in self.trees])
        if len(self.adj) == self.order:
            comps = [(low,) if size == 1 else tuple(list(bits(mask))) for size, low, mask in keys]
            return _unchecked(self.order, tuple(self.adj)), comps
        rank = {v: i for i, v in enumerate(self.labels)}
        # built from lists: see `complement`
        comps = [(rank[low],) if size == 1 else tuple([rank[v] for v in bits(mask)]) for size, low, mask in keys]
        return _induced(self.adj, self.labels), comps

    def labelled(self, masks: Sequence[int]) -> list[int]:
        """The ``masks`` over ranks moved to the labels they rank."""
        if len(self.adj) == self.order:
            return list(masks)
        return [_relabel(mask, self.labels) for mask in masks]

    def _root(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _put(self, root: int, size: int, mask: int, edges: int) -> None:
        low = (mask & -mask).bit_length() - 1
        self._info[root] = (size, low, mask, edges)
        if edges < size:  # a component has at least size - 1 edges, exactly that many when a tree
            insort(self.trees, (-size, low, mask))
        else:
            insort(self.non_trees, (size, low, mask, edges - size))

    def _take(self, x: int) -> tuple[int, int, int, int]:
        """Remove the component of ``x`` from the split; returns its root, size, mask and edges."""
        root = self._root(x)
        size, low, mask, edges = self._info.pop(root)
        if edges < size:
            del self.trees[bisect_left(self.trees, (-size, low))]
        else:
            del self.non_trees[bisect_left(self.non_trees, (size, low))]
        return root, size, mask, edges

    def add_edge(self, u: int, v: int) -> None:
        """Add the blue edge u-v between two live labels that are not adjacent."""
        adj = self.adj
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        self.m += 1
        root, size, mask, edges = self._take(u)
        if self._root(v) != root:
            other, size_v, mask_v, edges_v = self._take(v)
            self._parent[other] = root
            size, mask, edges = size + size_v, mask | mask_v, edges + edges_v
        self._put(root, size, mask, edges + 1)
        self._stale |= 1 << u | 1 << v | adj[u] | adj[v]

    def identify(self, x1: int, x2: int, x3: int) -> int:
        """Identify the independent live labels x1, x2, x3 into one fresh
        label, joined to every vertex that meets them; returns that label.

        Only rows within blue distance 1 of the triple change, so common
        neighbours change only within distance 2; those are marked."""
        adj = self.adj
        z = len(adj)
        bit = 1 << z
        triple = 1 << x1 | 1 << x2 | 1 << x3
        rows = adj[x1], adj[x2], adj[x3]
        joined = rows[0] | rows[1] | rows[2]
        near = joined | bit
        for u in bits(joined):
            row = adj[u] & ~triple | bit
            adj[u] = row
            near |= row
        adj.append(joined)
        lost = sum(row.bit_count() for row in rows) - joined.bit_count()
        self.m -= lost
        self.live = self.live & ~triple | bit
        for x in (x1, x2, x3):
            del self.labels[bisect_left(self.labels, x)]
        self.labels.append(z)
        self._parent.append(z)
        size, mask, edges = 1, bit, -lost
        for x in (x1, x2, x3):
            if self._root(x) != z:
                root, size_x, mask_x, edges_x = self._take(x)
                self._parent[root] = z
                size, mask, edges = size + size_x, mask | mask_x, edges + edges_x
        self._put(z, size - 3, mask & ~triple, edges)
        self._stale |= near
        return z

    def replace(self, w: Sequence[int]) -> int:
        """Replace the live labels ``w``, a union of whole components, by two
        fresh labels joined by one edge; returns the first of them."""
        s = len(self.adj)
        gone = 0
        for x in w:
            gone |= 1 << x
            if self._root(x) in self._info:
                self.m -= self._take(x)[3]
            del self.labels[bisect_left(self.labels, x)]
        self.adj += [1 << s + 1, 1 << s]
        self.m += 1
        self.live = self.live & ~gone | 3 << s
        self.labels += [s, s + 1]
        self._parent += [s, s]
        self._put(s, 2, 3 << s, 1)
        self._stale |= 3 << s  # no common neighbour outside w involves w
        return s

    def common_neighbours(self) -> tuple[list[int], list[int], int]:
        """``co``, ``dbl`` and the mask of the labels with ``dbl`` nonempty
        (see `find_violating_triple`), recounted at the live labels that
        edits marked since the last call, all of them on the first."""
        adj, co, dbl, live = self.adj, self._co, self._dbl, self.live
        co += [0] * (len(adj) - len(co))
        dbl += [0] * (len(adj) - len(dbl))
        doubled = self._doubled & live
        for x in bits(self._stale & live):
            once = twice = 0
            for v in bits(adj[x]):
                row = adj[v]
                twice |= once & row
                once |= row
            bit = 1 << x
            co[x] = once & ~bit
            dbl[x] = twice = twice & ~bit
            doubled = doubled | bit if twice else doubled & ~bit
        self._doubled, self._stale = doubled, 0
        return co, dbl, doubled


def find_violating_triple(b: Graph | LiveBlue) -> TripleStep | None:
    """First independent triple (lexicographic) with |N2| >= 2 or N3 nonempty,
    as the trace step that contracts it, in ranks.

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
    ``co[x1]``; the scan visits only those x2.  A `LiveBlue` keeps ``co``
    and ``dbl`` from level to level.
    """
    if isinstance(b, Graph):
        b = LiveBlue(b)
    co, dbl, doubled = b.common_neighbours()
    adj, live = b.adj, b.live
    for x1 in bits(live):
        a1, co1 = adj[x1], co[x1]
        after1 = live & ~a1 >> x1 + 1 << x1 + 1
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
                x3 = (thirds & -thirds).bit_length() - 1
                return TripleStep(b.rank(x1), b.rank(x2), b.rank(x3))
    return None


def _candidate_splits(
    parts: Sequence[Sequence[int]], fits: Callable[[int, int], bool] | None = None
) -> Iterator[tuple[list[int], list[int]]]:
    """Unordered two-colorings of whole parts into nonempty sides, smallest
    mask first; with ``fits``, only those whose side sizes, smaller first, pass it."""
    sizes = [len(part) for part in parts]
    total = sum(sizes)
    for mask in range(1, 1 << (len(sizes) - 1)):
        size = sum([sizes[i] for i in bits(mask)])
        if fits is not None and not fits(min(size, total - size), max(size, total - size)):
            continue
        side_a: list[int] = []
        side_b: list[int] = []
        for i, part in enumerate(parts):
            (side_a if mask >> i & 1 else side_b).extend(part)
        yield side_a, side_b


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
    smaller = sums & (1 << total // 2 + 1) - 2  # the sums 1..total//2
    return any(split_sizes_ok(a, total - a) for a in bits(smaller))


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


def _certify_union(
    b: Graph | LiveBlue, parts: Sequence[tuple[int, ...]], memo: _Memo | None = None
) -> GoodOrientationCert | None:
    """First non-trivial certificate of the red graph on the union of the
    whole blue components ``parts``, over their two-colorings in
    `_candidate_splits` order, skipping unbuilt those whose side sizes fail
    `split_sizes_ok`; labels are local to the sorted union.

    The answer depends only on the union's blue rows and its parts in those
    local labels, which key ``memo``; a certificate is immutable and keeps
    its verdict, so a remembered one is returned as it was built."""
    if not _splittable(tuple(sorted(len(part) for part in parts))):
        return None
    w = sorted(v for part in parts for v in part)
    rows = _induced(b.adj, w)
    local = {v: i for i, v in enumerate(w)}
    local_parts = tuple([tuple([local[v] for v in part]) for part in parts])
    key = rows.adj, local_parts
    cert = _MISSING if memo is None else memo.get(key)
    if cert is _MISSING:
        world = complement(rows)
        for side_a, side_b in _candidate_splits(local_parts, split_sizes_ok):
            cert = split_cert(world, side_a, side_b)
            if cert is not None:
                break
        else:
            cert = None
        if memo is not None:
            memo.put(key, cert)
    return cert


def _validated_plan(b: LiveBlue, parts: Sequence[int], excess: int, recipe: str) -> ReductionPlan | None:
    """The plan contracting the union of the component masks ``parts``, whose
    blue excess is ``excess``, when it is a proper subset with excess at
    least -1 and a certificate; its set is recorded in ranks."""
    sizes = [part.bit_count() for part in parts]
    if excess < -1 or sum(sizes) == b.order or not _splittable(tuple(sorted(sizes))):
        return None  # a contractible set must be a proper subset
    cert = _certify_union(b, [tuple(bits(part)) for part in parts], b.certs)
    if cert is None:
        return None
    union = 0
    for part in parts:
        union |= part
    return ReductionPlan(tuple([b.rank(v) for v in bits(union)]), recipe, cert)


# tree sizes that fit recipe 3's small forest (at most six vertices), largest first
_SMALL_FOREST_SIZES = (6, 5, 4, 3, 2, 1)

# Largest non-tree component recipe 3 can certify with a small forest.  Every
# split keeps the component whole, so past this size the side without it, at
# most six forest vertices, is the smaller side a, and `split_sizes_ok` caps
# b at max(C(a, a//2), 2a), largest at a = 6.
_SMALL_FOREST_LIMIT = max(b for b in range(6, 64) if split_sizes_ok(6, b))


def find_reduction(b: Graph | LiveBlue) -> ReductionPlan | None:
    """Search the fixed recipe list for a contractible union of components.

    Candidates are unions of whole blue components; each is validated by
    building a non-trivial certificate for the complement restricted to it
    and checking that the blue excess stays at least -1.  The first
    validated candidate wins, so results are deterministic.  Candidates
    whose part sizes admit no certifiable split are skipped unbuilt.  The
    components are read from a `LiveBlue`'s split, built for a `Graph`.
    """
    if isinstance(b, Graph):
        b = LiveBlue(b)
    non_trees = b.non_trees
    trees = [mask for _, _, mask in b.trees]  # largest first
    neg_sizes = [key[0] for key in b.trees]
    tree_sizes = [-size for size in neg_sizes]
    distinct_sizes = tuple(sorted(set(tree_sizes), reverse=True))
    covered = list(accumulate(tree_sizes))

    def trees_of_size(size: int) -> list[int]:
        return trees[bisect_left(neg_sizes, -size) : bisect_right(neg_sizes, -size)]

    # recipe 1: one non-tree component plus the fewest largest trees covering t vertices
    for size, _, comp, ex in non_trees:
        tried: set[int] = set()
        for t in (size - 2, 5):
            if t < 1 or len(trees) < t:
                continue
            count = bisect_left(covered, t) + 1
            if count in tried:
                continue
            tried.add(count)
            plan = _validated_plan(b, [comp, *trees[:count]], ex - count, "non-tree+forest")
            if plan is not None:
                return plan

    # recipe 2: two non-tree components, possibly with one or two tree components
    for (size_a, _, ca, ex_a), (size_b, _, cb, ex_b) in combinations(non_trees, 2):
        plan = _validated_plan(b, [ca, cb], ex_a + ex_b, "two-non-trees")
        if plan is not None:
            return plan
        for count in (1, 2):
            # `count` trees never exceed this bound, so it keys the cache
            # without the level's order whenever the trees are small
            hi = min(b.order, count * max(distinct_sizes, default=0))
            shapes = _tree_shapes((size_a, size_b), distinct_sizes, count, 0, hi)
            for combo in _shaped_combinations(tree_sizes, count, shapes):
                parts = [ca, cb, *(trees[i] for i in combo)]
                plan = _validated_plan(b, parts, ex_a + ex_b - count, "two-non-trees+trees")
                if plan is not None:
                    return plan

    # recipe 3: non-tree plus a four-vertex tree, then non-tree plus a small forest
    for size, _, comp, ex in non_trees:
        for tree in trees_of_size(4):
            plan = _validated_plan(b, [comp, tree], ex - 1, "non-tree+tree4")
            if plan is not None:
                return plan
        if size > _SMALL_FOREST_LIMIT:
            continue
        lo = min(4, size)
        # a forest of at most six vertices has at most six trees
        for count in range(1, min(len(trees), ex + 1, 6) + 1):
            shapes = _tree_shapes((size,), _SMALL_FOREST_SIZES, count, lo, 6)
            for combo in _shaped_combinations(tree_sizes, count, shapes):
                plan = _validated_plan(b, [comp, *(trees[i] for i in combo)], ex - count, "non-tree+small-forest")
                if plan is not None:
                    return plan

    # recipe 4: small non-tree plus a three-vertex tree
    for size, _, comp, ex in non_trees:
        if 4 <= size <= 6:
            for tree in trees_of_size(3):
                plan = _validated_plan(b, [comp, tree], ex - 1, "non-tree+tree3")
                if plan is not None:
                    return plan

    return None
