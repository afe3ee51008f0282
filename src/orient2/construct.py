"""Main driver: build a diameter-2 orientation of any graph with at least
C(n,2) - n + 5 edges (n >= 5).

The driver works on the complement.  After trimming the input to exactly
the threshold size, the complement has exactly n - 5 edges and one of
three moves always applies:

* the complement's component multiset is one of the directly orientable
  families (served by an explicit partition recipe or the stored
  small-case table),
* some union of whole complement components is contractible to a single
  certified pair of super-vertices (a reduction), or
* some independent triple with two doubly-attached or one triply-attached
  outside vertex can be identified into one vertex.

Contractions recurse on a strictly smaller instance; expansions replay
the certificates to lift the small solution's out-rows back up.  The
trace step is the one record of a level: a reduce step is the
`ReductionPlan` itself, certificate record included, and a base case or
fallback holds its orientation's out-rows.  Replay checks each recorded
step against its level; the driver's own steps are correct by
construction, and its one check is the final orientation's.  If no move
applies (which would contradict the case analysis) an exhaustive search
is used as a safety valve and the event is recorded in the trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Callable, Sequence

from ._basecase_table import TABLE
from .certs import GoodOrientationCert, combine, verify_cert
from .codec import parse_digraph6
from .graphs import (
    Digraph,
    Edge,
    Graph,
    Orientation,
    _spread,
    _unchecked,
    bits,
    complement,
    components,
    diameter,
)
from .structure import (
    ComponentClass,
    ComponentKind,
    ReductionPlan,
    TripleStep,
    _certify_union,
    classify_component,
    find_reduction,
    find_violating_triple,
)


class InternalVerificationError(RuntimeError):
    """A produced orientation failed its mandatory diameter re-check."""


def threshold_size(n: int) -> int:
    """Smallest edge count that guarantees a diameter-2 orientation (n >= 5)."""
    return comb(n, 2) - n + 5


# ---------------------------------------------------------------------------
# trace steps


@dataclass(frozen=True)
class PadStep:
    deleted: tuple[Edge, ...]


@dataclass(frozen=True)
class BaseCaseStep:
    family: str
    rows: tuple[int, ...]  # out-rows of the level's orientation


@dataclass(frozen=True)
class FallbackStep:
    reason: str
    rows: tuple[int, ...]  # out-rows of the level's orientation


# a reduce step is the `ReductionPlan` that `find_reduction` returned, a
# contract-triple step the `TripleStep` that `find_violating_triple` returned
TraceStep = PadStep | BaseCaseStep | ReductionPlan | TripleStep | FallbackStep


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]

    def fallback_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, FallbackStep))

    def to_json(self) -> list[dict]:
        out: list[dict] = []
        for step in self.steps:
            if isinstance(step, PadStep):
                out.append({"kind": "pad", "deleted": [list(e) for e in step.deleted]})
            elif isinstance(step, BaseCaseStep):
                out.append({"kind": "base-case", "family": step.family})
            elif isinstance(step, ReductionPlan):
                out.append({"kind": "reduce", "w": list(step.w), "recipe": step.recipe})
            elif isinstance(step, TripleStep):
                out.append({"kind": "contract-triple", "triple": [step.x1, step.x2, step.x3]})
            else:
                out.append({"kind": "fallback-oracle", "reason": step.reason})
        return out


# a level of the descent: the padding deleted, the padded blue graph and its non-pad step
Level = tuple[tuple[Edge, ...], Graph, TraceStep]


# ---------------------------------------------------------------------------
# base cases


def _path_sequence(blue: Graph, comp: tuple[int, ...]) -> list[int]:
    if len(comp) == 1:
        return list(comp)
    ends = [v for v in comp if blue.degree(v) == 1]
    walk = [min(ends)]
    seen = {walk[0]}
    while len(walk) < len(comp):
        nxt = [w for w in blue.neighbors(walk[-1]) if w not in seen]
        walk.append(nxt[0])
        seen.add(nxt[0])
    return walk


def _paths_blue(key: tuple[int, int, int, int]) -> Graph:
    a, b, c, d = key
    sizes = [4] * d + [3] * c + [2] * b + [1] * a
    edges: list[Edge] = []
    start = 0
    for size in sizes:
        edges.extend((v, v + 1) for v in range(start, start + size - 1))
        start += size
    return Graph.from_edges(sum(sizes), edges)


# the stored orientations' arcs, decoded once
_TABLE_ARCS = {key: parse_digraph6(encoded).arcs() for key, encoded in TABLE.items()}


def _serve_table(blue: Graph, comps: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Out-rows of the stored orientation for these path components, relabelled onto ``blue``."""
    counts = Counter(len(c) for c in comps)
    key = (counts.get(1, 0), counts.get(2, 0), counts.get(3, 0), counts.get(4, 0))
    arcs = _TABLE_ARCS.get(key)
    if arcs is None:
        return None
    phi: list[int] = []
    for comp in sorted(comps, key=lambda c: (-len(c), c[0])):
        phi.extend(_path_sequence(blue, comp))
    rows = [0] * blue.n
    for u, v in arcs:
        rows[phi[u]] |= 1 << phi[v]
    return tuple(rows)


_FAMILY1_CORES = {
    ComponentClass(ComponentKind.COMPLETE, (4,)),
    ComponentClass(ComponentKind.PROPER_DUMBBELL, (2, 4)),
    ComponentClass(ComponentKind.PROPER_DUMBBELL, (1, 4)),
}
_FAMILY2_CORE = ComponentClass(ComponentKind.PROPER_DUMBBELL, (3, 4))
_FAMILY3_CORES = {
    ComponentClass(ComponentKind.PROPER_DUMBBELL, (3, 3)),
    ComponentClass(ComponentKind.PROPER_SHORT_DUMBBELL, (3, 3)),
}
_FAMILY4_CORES = {
    ComponentClass(ComponentKind.PROPER_DUMBBELL, (2, 3)),
    ComponentClass(ComponentKind.FIVE_CYCLE),
    ComponentClass(ComponentKind.PROPER_DUMBBELL, (1, 3)),
    ComponentClass(ComponentKind.COMPLETE, (3,)),
}


# What `_family_signature` accepts has 5 paths of at most 4 vertices, or one
# core and 5 (family 4), 6 (family 3), 7 (family 1) or 8 (family 2) paths of
# at most 2 vertices: 5 to 9 components.  The largest core is D(3,4), with 7
# vertices.  So each component count bounds the sizes of the largest and the
# second largest component.
_FAMILY_SIZE_BOUNDS = {5: (4, 4), **{count: (7, 2) for count in range(6, 10)}}


def _family_signature(classes: list[ComponentClass]) -> str | None:
    """Structural id when the component multiset is directly orientable, else None."""
    paths = Counter()
    cores: list[ComponentClass] = []
    for cls in classes:
        if cls.kind is ComponentKind.PATH:
            paths[cls.params[0]] += 1
        else:
            cores.append(cls)
    label = "+".join(sorted(str(c) for c in classes))
    if not cores:
        if sum(paths.values()) == 5 and max(paths, default=1) <= 4:
            return label
        return None
    if len(cores) != 1:
        return None
    core = cores[0]
    singles = paths.get(1, 0)
    twos = paths.get(2, 0)
    only_12 = set(paths) <= {1, 2}
    if core in _FAMILY1_CORES and paths == Counter({1: 7}):
        return label
    if core == _FAMILY2_CORE and paths == Counter({1: 8}):
        return label
    if core in _FAMILY3_CORES and (paths == Counter({1: 6}) or paths == Counter({1: 5, 2: 1})):
        return label
    if core in _FAMILY4_CORES and only_12 and singles + twos == 5:
        return label
    return None


def _quadruple_search(blue: Graph, comps: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Out-rows from a deterministic search over leftover choices Z among the
    blue ``comps``, each gluing the certified rest W to Z with `combine`:
    two singletons, then one P2, then two components with more than two
    vertices between them, which Z certifies on its own."""
    r = len(comps)
    singles = [i for i in range(r) if len(comps[i]) == 1]
    pairs = [i for i in range(r) if len(comps[i]) == 2]
    leftover_options: list[tuple[int, ...]] = list(combinations(singles, 2))
    leftover_options += [(i,) for i in pairs]
    leftover_options += [
        (i, j)
        for i, j in combinations(range(r), 2)
        if len(comps[i]) + len(comps[j]) > 2
    ]
    for chosen in leftover_options:
        rest = [comps[i] for i in range(r) if i not in chosen]
        cert = _certify_union(blue, rest)
        if cert is None:
            continue
        z_comps = [comps[i] for i in chosen]
        z_verts = sorted(v for c in z_comps for v in c)
        cert_z = None
        if len(z_verts) > 2:
            # Z's certificate does not depend on how W was split
            cert_z = _certify_union(blue, z_comps)
            if cert_z is None:
                continue
        # w and z are unions of whole blue components, so every red
        # edge between them is present and `combine` cannot refuse
        return combine(complement(blue), cert, z_verts, cert_z)
    return None


def _base_case_with_family(
    blue: Graph, comps: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], str] | None:
    """Out-rows orienting the complement of ``blue`` and its family name when
    its components ``comps`` (in `components` order) form one of the
    directly orientable families.

    The rows are not checked here: `_execute` checks the orientation they lift to."""
    bounds = _FAMILY_SIZE_BOUNDS.get(len(comps))
    if bounds is None or len(comps[-1]) > bounds[0] or len(comps[-2]) > bounds[1]:
        return None
    classes = [classify_component(blue, c) for c in comps]
    family = _family_signature(classes)
    if family is None:
        return None
    if all(cls.kind is ComponentKind.PATH for cls in classes):
        served = _serve_table(blue, comps)
        if served is not None:
            return served, f"table:{family}"
    found = _quadruple_search(blue, comps)
    if found is not None:
        return found, family
    return None


# ---------------------------------------------------------------------------
# contraction / expansion


def _removed_and_kept(n: int, vertices: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted ``vertices`` a contraction removes and the sorted labels it keeps."""
    removed = tuple(sorted(vertices))
    return removed, tuple([v for v in range(n) if v not in removed])  # see graphs.complement


def _contract_reduction(level: Graph, plan: ReductionPlan) -> Graph:
    """The padded blue graph ``level`` with ``plan.w`` contracted to the
    super-vertices ``len(kept)`` and ``len(kept) + 1``.  Both contractions
    trust their step and build the result unchecked from the valid ``level``."""
    removed, kept = _removed_and_kept(level.n, plan.w)
    k = len(kept)
    rows = list(level.induced(kept).adj) + [1 << (k + 1), 1 << k]
    return _unchecked(k + 2, tuple(rows))


def _contract_triple(level: Graph, step: TripleStep) -> Graph:
    """The padded blue graph ``level`` with the step's triple identified into
    the vertex ``len(kept)``.

    Each kept row drops the triple's three bit positions by shifting the
    bits above each of them down one place, highest first, and gains the
    merged vertex when it meets the triple."""
    removed, kept = _removed_and_kept(level.n, (step.x1, step.x2, step.x3))
    x1, x2, x3 = removed
    k = len(kept)
    triple_mask = 1 << x1 | 1 << x2 | 1 << x3
    low1, low2, low3 = (1 << x1) - 1, (1 << x2) - 1, (1 << x3) - 1
    merged = 1 << k
    rows = []
    join = 0
    adj = level.adj
    for i, u in enumerate(kept):
        row = adj[u]
        squeezed = row & low3 | row >> x3 + 1 << x3
        squeezed = squeezed & low2 | squeezed >> x2 + 1 << x2
        squeezed = squeezed & low1 | squeezed >> x1 + 1 << x1
        if row & triple_mask:
            squeezed |= merged
            join |= 1 << i
        rows.append(squeezed)
    rows.append(join)
    return _unchecked(k + 1, tuple(rows))


def _lift_kept(
    star: Sequence[int], kept: tuple[int, ...], removed: tuple[int, ...], targets: tuple[int, ...]
) -> list[int]:
    """Out-rows over the uncontracted labels that hold the kept vertices'
    arcs: a kept-kept arc is relabelled, and an arc to the contracted vertex
    ``len(kept) + i`` becomes arcs to every vertex of the mask ``targets[i]``."""
    k = len(kept)
    rows = [0] * (k + len(removed))
    for label, row in zip(kept, star):
        lifted = _spread(row & ((1 << k) - 1), removed)
        for i, mask in enumerate(targets):
            if row >> (k + i) & 1:
                lifted |= mask
        rows[label] = lifted
    return rows


def expand_reduction(star: Sequence[int], level: Graph, plan: ReductionPlan) -> list[int]:
    """Lift out-rows of an orientation of the contracted graph over the set
    ``plan.w`` that `_contract_reduction` removed from ``level``.

    Edges inside the removed set follow the plan's certificate; edges
    between a kept vertex and a certificate class copy the direction that
    vertex chose toward the class's super-vertex.  The lift of a diameter-2
    orientation has diameter 2, so nothing here is checked."""
    removed, kept = _removed_and_kept(level.n, plan.w)
    k = len(kept)
    cert = plan.cert
    classes = tuple(sum(1 << removed[i] for i in c) for c in (cert.first, cert.second))
    rows = _lift_kept(star, kept, removed, classes)
    for i, cls in enumerate(classes):
        super_out = _spread(star[k + i], removed)
        for x in bits(cls):
            rows[x] |= super_out
    for a, row in enumerate(cert.rows):
        rows[removed[a]] |= _spread(row, kept)
    return rows


def expand_triple_contraction(star: Sequence[int], level: Graph, step: TripleStep) -> list[int]:
    """Lift out-rows of an orientation over the triple that `_contract_triple`
    identified in ``level``.

    The triple becomes a directed 3-cycle; every kept vertex that kept all
    three edges copies its direction toward the merged vertex, and partial
    remnants are oriented low label to high label.  Unchecked, as above."""
    removed, kept = _removed_and_kept(level.n, (step.x1, step.x2, step.x3))
    x1, x2, x3 = removed
    triple = (1 << x1) | (1 << x2) | (1 << x3)
    full = (1 << level.n) - 1
    red = [full & ~level.adj[x] & ~(1 << x) for x in removed]
    rows = _lift_kept(star, kept, removed, (triple,))
    merged_out = _spread(star[len(kept)], removed)
    whole = red[0] & red[1] & red[2]
    for (x, nxt), adj in zip(((x1, x2), (x2, x3), (x3, x1)), red):
        remnants = adj & ~triple & ~whole
        rows[x] |= merged_out | (1 << nxt) | (remnants >> (x + 1) << (x + 1))
        for u in bits(remnants & ((1 << x) - 1)):
            rows[u] |= 1 << x
    return rows


# ---------------------------------------------------------------------------
# the driver


def _delete_red_pairs(blue: Graph, deleted: tuple[Edge, ...]) -> Graph:
    """``blue`` with each deleted red edge added as a blue edge.

    Raises ValueError naming the first pair that is not an edge of the
    complement of ``blue`` once the pairs before it are deleted; pairs that
    pass keep the graph valid, so it is built unchecked."""
    if not deleted:
        return blue
    rows = list(blue.adj)
    for u, v in deleted:
        if not (0 <= u < blue.n and 0 <= v < blue.n) or u == v or rows[u] >> v & 1:
            raise ValueError(f"pad pair {(u, v)} is not an edge of the level's graph")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _unchecked(blue.n, tuple(rows))


def _restore_padding(rows: list[int], deleted: tuple[Edge, ...]) -> None:
    """Put each deleted edge ``(u, v)`` back into ``rows`` as the arc u -> v."""
    for u, v in deleted:
        rows[u] |= 1 << v


def _oracle_fallback(norm: Graph) -> Orientation:
    # deferred: oracle imports this module
    from .oracle import SearchStatus, default_budget, exists_orientation_diameter2

    budget = default_budget()
    outcome = exists_orientation_diameter2(norm, budget)
    if outcome.status is SearchStatus.INDETERMINATE:
        raise InternalVerificationError(f"exhaustive fallback ran out of its {budget.max_nodes}-node budget")
    if outcome.orientation is None:
        raise InternalVerificationError(
            "exhaustive fallback found no diameter-2 orientation above the threshold"
        )
    return outcome.orientation


def _checked_cert(level: Graph, step: ReductionPlan) -> GoodOrientationCert:
    """The certificate ``step`` records; raises ValueError unless ``w`` is a proper
    union of blue components with a non-trivial certificate of its red graph."""
    w = tuple(sorted(set(step.w)))
    inside = sum(1 << v for v in w if 0 <= v < level.n)
    whole = inside.bit_count() == len(w) == len(step.w) and 0 < len(w) < level.n
    if not whole or any(level.adj[v] & ~inside for v in w):
        raise ValueError(f"reduce step's set {step.w} is not a proper union of blue components")
    cert = step.cert
    if not cert.nontrivial:
        raise ValueError(f"reduce step's certificate on {step.w} is trivial")
    if cert.world != complement(level.induced(w)):
        raise ValueError(f"reduce step's certificate world is not the red graph on {step.w}")
    if not verify_cert(cert):
        raise ValueError(f"reduce step's certificate on {step.w} fails its distance conditions")
    return cert


def _execute(
    g: Graph, next_step: Callable[[Graph], Level]
) -> tuple[Orientation, ConstructionTrace]:
    """Descend on the complement through the levels ``next_step`` hands out
    for each blue graph, then lift the innermost orientation's out-rows back
    through every contraction and padding.

    Each level is contracted and expanded from its step and padded graph
    alone, so the driver runs exactly the trace it records.  Only the
    output is checked: a bad one raises InternalVerificationError."""
    levels: list[Level] = []
    blue = complement(g)
    while True:
        levels.append(next_step(blue))
        _, level, step = levels[-1]
        if isinstance(step, ReductionPlan):
            blue = _contract_reduction(level, step)
        elif isinstance(step, TripleStep):
            blue = _contract_triple(level, step)
        else:
            break
    rows = list(step.rows)
    for deleted, level, step in reversed(levels):
        if isinstance(step, ReductionPlan):
            rows = expand_reduction(rows, level, step)
        elif isinstance(step, TripleStep):
            rows = expand_triple_contraction(rows, level, step)
        _restore_padding(rows, deleted)
    try:
        o = Orientation(g, Digraph(g.n, tuple(rows)))
    except ValueError as exc:
        raise InternalVerificationError(f"lifted rows do not orient the input: {exc}") from exc
    if diameter(o.dir) > 2:
        raise InternalVerificationError("final orientation failed its diameter check")
    steps: list[TraceStep] = []
    for deleted, _, step in levels:
        if deleted:
            steps.append(PadStep(deleted))
        steps.append(step)
    return o, ConstructionTrace(tuple(steps))


def _first_red_pairs(blue: Graph, count: int) -> tuple[Edge, ...]:
    """The first ``count`` pairs u < v with no blue edge, in lexicographic order."""
    full = (1 << blue.n) - 1
    pairs = ((u, v) for u in range(blue.n) for v in bits(full & ~blue.adj[u] >> (u + 1) << (u + 1)))
    return tuple(islice(pairs, count))


def _choose_move(blue: Graph) -> Level:
    """The constructor's decision at one level, read from its blue graph: trim
    the red graph to the threshold by deleting its lexicographically first
    edges, then take the first of base case, reduction, violating triple and
    exhaustive fallback.  The level's components are computed once, for
    the base-case gate and the reduction search."""
    n = blue.n
    if n < 5:
        raise ValueError(f"need at least 5 vertices, got {n}")
    red_m = comb(n, 2) - blue.m
    if red_m < threshold_size(n):
        raise ValueError(f"graph of order {n} has {red_m} edges; {threshold_size(n)} are required")
    deleted = _first_red_pairs(blue, red_m - threshold_size(n))
    level = _delete_red_pairs(blue, deleted)
    comps = components(level)
    base = _base_case_with_family(level, comps)
    if base is not None:
        rows, family = base
        return deleted, level, BaseCaseStep(family, rows)
    plan = find_reduction(level, comps)
    if plan is not None:
        return deleted, level, plan
    triple = find_violating_triple(level)
    if triple is not None:
        return deleted, level, triple
    orientation = _oracle_fallback(complement(level))
    reason = "no base case, contractible set, or triple applied"
    return deleted, level, FallbackStep(reason, orientation.dir.out)


def orient_diameter_two(g: Graph) -> tuple[Orientation, ConstructionTrace]:
    """Diameter-2 orientation for any graph with n >= 5 and at least
    C(n,2) - n + 5 edges, together with a replayable construction trace."""
    return _execute(g, _choose_move)


def replay_trace(g: Graph, trace: ConstructionTrace) -> Orientation:
    """Re-apply recorded steps mechanically; reproduces the driver's output.

    Raises ValueError when the trace ends before a base-case or fallback
    step, continues after one, or holds a step that does not fit its level."""
    steps = iter(trace.steps)

    def recorded(blue: Graph) -> Level:
        step = next(steps, None)
        deleted: tuple[Edge, ...] = ()
        if isinstance(step, PadStep):
            deleted = step.deleted
            step = next(steps, None)
        if step is None:
            raise ValueError("trace ends before its base-case or fallback step")
        level = _delete_red_pairs(blue, deleted)
        n, missing = level.n, level.m
        if n < 5 or missing != n - 5:
            raise ValueError(
                f"padded level of order {n} misses {missing} edges; n >= 5 and n - 5 are required"
            )
        if isinstance(step, (BaseCaseStep, FallbackStep)):
            inner = Orientation(complement(level), Digraph(n, step.rows))
            if diameter(inner.dir) > 2:
                raise ValueError(f"innermost orientation of order {n} has diameter above 2")
        elif isinstance(step, ReductionPlan):
            _checked_cert(level, step)
        elif isinstance(step, TripleStep):
            triple = (step.x1, step.x2, step.x3)
            inside = sum(1 << x for x in set(triple) if 0 <= x < n)
            if inside.bit_count() != 3 or any(level.adj[x] & inside for x in triple):
                raise ValueError(f"triple {triple} is not independent in the level's blue graph")
        else:
            raise ValueError(f"unexpected trace step {step!r}")
        return deleted, level, step

    o, _ = _execute(g, recorded)
    extra = sum(1 for _ in steps)
    if extra:
        raise ValueError(f"trace has {extra} steps after its base-case or fallback step")
    return o
