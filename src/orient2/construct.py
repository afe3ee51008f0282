"""Main driver: build a diameter-2 orientation of any graph with at least
C(n,2) - n + 5 edges (n >= 5).

The driver works on the complement.  After trimming the input to exactly
the threshold size, the complement has exactly n - 5 edges and one of
three moves always applies:

* the complement's component multiset is one of the directly orientable
  families of the table `_FAMILIES` (served by the stored small-case
  table or by gluing certified unions of components, `_quadruple_search`),
* some union of whole complement components is contractible to a single
  certified pair of super-vertices (a reduction), or
* some independent triple with two doubly-attached or one triply-attached
  outside vertex can be identified into one vertex.

Contractions recurse on a strictly smaller instance; expansions replay
the certificates to lift the small solution's out-rows back up.  The
descent edits one `LiveBlue` in place: kept vertices keep their labels,
contracted ones take fresh labels above them, and each level does work
local to its step and keeps only what its lift needs.  Trace steps
record ranks among the live labels, which are the labels a level would
have if relabelled 0..n-1.  The trace step is the one record of a
level: a reduce step is the `ReductionPlan` itself, certificate record
included, and a base case or fallback holds its orientation's out-rows.
Replay checks each recorded step against its level; the driver's own
steps are correct by construction, and its one check is the final
orientation's.  If no move applies (which would contradict the case
analysis) an exhaustive search is used as a safety valve and the event
is recorded in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice
from math import comb
from typing import Callable, NamedTuple, Sequence

from ._basecase_table import TABLE
from .certs import GoodOrientationCert, combine, verify_cert
from .codec import parse_digraph6
from .graphs import (
    Digraph,
    Edge,
    Graph,
    Orientation,
    bits,
    complement,
    diameter,
)
from .structure import (
    ComponentClass,
    ComponentKind,
    LiveBlue,
    ReductionPlan,
    TripleStep,
    _certify_union,
    classify_component,
    find_reduction,
    find_violating_triple,
)


class InternalVerificationError(RuntimeError):
    """On a valid input, a step raised or the output failed its mandatory re-check."""


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


# the stored orientations' arcs, decoded once
_TABLE_ARCS = {key: parse_digraph6(encoded).arcs() for key, encoded in TABLE.items()}


def _serve_table(blue: Graph, comps: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Out-rows of the stored orientation for these path components, relabelled onto ``blue``."""
    arcs = _TABLE_ARCS.get(tuple([sum(len(c) == size for c in comps) for size in (1, 2, 3, 4)]))
    if arcs is None:
        return None
    phi: list[int] = []
    for comp in sorted(comps, key=lambda c: (-len(c), c[0])):
        phi.extend(_path_sequence(blue, comp))
    rows = [0] * blue.n
    for u, v in arcs:
        rows[phi[u]] |= 1 << phi[v]
    return tuple(rows)


_COMPLETE, _DUMBBELL = ComponentKind.COMPLETE, ComponentKind.PROPER_DUMBBELL

# The directly orientable families, each as its component multiset: a core
# (None for five paths of at most 4 vertices) and its path sizes, ascending.
_FAMILIES: list[tuple[ComponentClass | None, tuple[int, ...]]] = [
    (None, sizes) for sizes in combinations_with_replacement(range(1, 5), 5)
] + [
    (ComponentClass(kind, params), sizes)
    for cores, shapes in (
        # family 1: K4, D(2,4) or D(1,4) with seven singletons
        ([(_COMPLETE, (4,)), (_DUMBBELL, (2, 4)), (_DUMBBELL, (1, 4))], [(1,) * 7]),
        # family 2: D(3,4) with eight singletons
        ([(_DUMBBELL, (3, 4))], [(1,) * 8]),
        # family 3: D(3,3) or the short S(3,3) with six singletons, or five and a P2
        ([(_DUMBBELL, (3, 3)), (ComponentKind.PROPER_SHORT_DUMBBELL, (3, 3))], [(1,) * 6, (1,) * 5 + (2,)]),
        # family 4: D(2,3), C5, D(1,3) or K3 with five paths of at most 2 vertices
        (
            [(_DUMBBELL, (2, 3)), (ComponentKind.FIVE_CYCLE, ()), (_DUMBBELL, (1, 3)), (_COMPLETE, (3,))],
            [(1,) * (5 - twos) + (2,) * twos for twos in range(6)],
        ),
    )
    for kind, params in cores
    for sizes in shapes
]

# a family's trace name joins its components' classes, sorted
_FAMILY_NAMES = {
    (core, sizes): "+".join(
        sorted(str(cls) for cls in [core, *(ComponentClass(ComponentKind.PATH, (s,)) for s in sizes)] if cls)
    )
    for core, sizes in _FAMILIES
}
_FAMILY_SHAPES = {(core is not None, sizes) for core, sizes in _FAMILIES}


def _family_may_fit(blue: LiveBlue) -> bool:
    """Whether the level ``blue`` may be a family: at most one non-tree
    component, of at most 7 vertices (D(3,4) is the largest core), and trees
    whose ascending sizes are the path sizes of a family that has a core
    exactly when the level has a non-tree (every core has a cycle)."""
    non_trees, trees = blue.non_trees, blue.trees
    if len(non_trees) > 1 or non_trees and non_trees[0][0] > 7 or len(trees) > 8:  # no family has 9 paths
        return False
    return (bool(non_trees), tuple([-key[0] for key in reversed(trees)])) in _FAMILY_SHAPES


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
    core, sizes = None, []
    for comp in comps:  # a component of one or two vertices is a path
        cls = classify_component(blue, comp) if len(comp) > 2 else None
        if cls is None or cls.kind is ComponentKind.PATH:
            sizes.append(len(comp))  # ascending, as `components` orders by size
        elif core is None:
            core = cls
        else:
            return None
    family = _FAMILY_NAMES.get((core, tuple(sizes)))
    if family is None:
        return None
    if core is None:
        served = _serve_table(blue, comps)
        if served is not None:
            return served, f"table:{family}"
    found = _quadruple_search(blue, comps)
    if found is not None:
        return found, family
    return None


# ---------------------------------------------------------------------------
# contraction / expansion
#
# A level is contracted in place on the descent's `LiveBlue`: the labels a
# contraction removes retire, and the vertices it makes take fresh labels.
# What the lift of a level needs is one small record.


class TripleLift(NamedTuple):
    triple: tuple[int, int, int]  # the identified labels, ascending
    rows: tuple[int, int, int]  # their blue rows at the level
    merged: int  # the label they became


class ReductionLift(NamedTuple):
    w: tuple[int, ...]  # the contracted labels, ascending
    cert: GoodOrientationCert  # local to w
    first: int  # the super-vertices are first and first + 1


def _relabel(row: int, labels: Sequence[int]) -> int:
    """The mask ``row`` over 0..len(labels)-1 moved to ``labels``, bit i to ``labels[i]``."""
    out = 0
    for i in bits(row):
        out |= 1 << labels[i]
    return out


def _contract_reduction(blue: LiveBlue, w: tuple[int, ...], cert: GoodOrientationCert) -> ReductionLift:
    """Contract the ascending labels ``w`` of ``blue``, a union of whole
    components that ``cert`` certifies, to two fresh adjacent super-vertices."""
    return ReductionLift(w, cert, blue.replace(w))


def _contract_triple(blue: LiveBlue, triple: Sequence[int]) -> TripleLift:
    """Identify the independent ``triple`` of labels of ``blue`` into one fresh label."""
    x1, x2, x3 = sorted(triple)
    rows = blue.adj[x1], blue.adj[x2], blue.adj[x3]
    return TripleLift((x1, x2, x3), rows, blue.identify(x1, x2, x3))


def _point_into(rows: list[int], neighbours: int, label: int, targets: int) -> int:
    """Turn each arc into ``label``, whose red neighbours are the mask
    ``neighbours``, into arcs to every vertex of ``targets``; returns and
    clears ``label``'s out-row."""
    swap = 1 << label | targets
    for u in bits(neighbours & ~rows[label]):
        rows[u] ^= swap
    out, rows[label] = rows[label], 0
    return out


def expand_reduction(rows: list[int], live: int, lift: ReductionLift) -> int:
    """Lift, in place, out-rows over labels of an orientation of the level
    that a reduction contracted, whose live labels are ``live``, over the
    set ``lift.w``; returns the live labels of the level it came from.

    Edges inside the set follow the certificate; edges between a kept
    vertex and a certificate class copy the direction that vertex chose
    toward the class's super-vertex.  The lift of a diameter-2 orientation
    has diameter 2, so nothing here is checked."""
    w, cert, first = lift
    kept = live & ~(3 << first)  # both super-vertices are red-adjacent to every kept vertex
    for label, cls in zip((first, first + 1), (cert.first, cert.second)):
        out = _point_into(rows, kept, label, sum(1 << w[i] for i in cls))
        for i in cls:
            rows[w[i]] |= out
    for x, row in zip(w, cert.rows):
        rows[x] |= _relabel(row, w)
    return kept | sum(1 << x for x in w)


def expand_triple_contraction(rows: list[int], live: int, lift: TripleLift) -> int:
    """Lift, in place, out-rows over labels of an orientation of the level
    that identified ``lift.triple``, whose live labels are ``live``; returns
    the live labels of the level it came from.

    The triple becomes a directed 3-cycle; every kept vertex that kept all
    three edges copies its direction toward the merged vertex, and partial
    remnants are oriented low label to high label.  Unchecked, as above."""
    (x1, x2, x3), blue_rows, merged = lift
    triple = 1 << x1 | 1 << x2 | 1 << x3
    met = blue_rows[0] | blue_rows[1] | blue_rows[2]  # the kept vertices missing an edge to the triple
    kept = live & ~(1 << merged)
    merged_out = _point_into(rows, kept & ~met, merged, triple)
    for x, nxt, blue_x in zip((x1, x2, x3), (x2, x3, x1), blue_rows):
        remnants = met & ~blue_x  # red to x, blue to another vertex of the triple
        rows[x] |= merged_out | 1 << nxt | remnants >> x + 1 << x + 1
        for u in bits(remnants & (1 << x) - 1):
            rows[u] |= 1 << x
    return kept | triple


# ---------------------------------------------------------------------------
# the driver


def _delete_red_pairs(blue: LiveBlue, deleted: tuple[Edge, ...]) -> None:
    """Add each deleted red edge, given by the ranks of its ends, to ``blue``
    as a blue edge.

    Raises ValueError naming the first pair that is not an edge of the
    complement of ``blue`` once the pairs before it are deleted."""
    for u, v in deleted:
        n, labels = blue.order, blue.labels
        if not (0 <= u < n and 0 <= v < n) or u == v or blue.adj[labels[u]] >> labels[v] & 1:
            raise ValueError(f"pad pair {(u, v)} is not an edge of the level's graph")
        blue.add_edge(labels[u], labels[v])


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


def _checked_cert(blue: LiveBlue, step: ReductionPlan) -> GoodOrientationCert:
    """The certificate ``step`` records; raises ValueError unless ``w`` is a proper
    union of blue components with a non-trivial certificate of its red graph."""
    n, labels = blue.order, blue.labels
    w = tuple(sorted(set(step.w)))
    inside = sum(1 << labels[v] for v in w if 0 <= v < n)
    whole = inside.bit_count() == len(w) == len(step.w) and 0 < len(w) < n
    if not whole or any(blue.adj[labels[v]] & ~inside for v in w):
        raise ValueError(f"reduce step's set {step.w} is not a proper union of blue components")
    cert = step.cert
    if not cert.nontrivial:
        raise ValueError(f"reduce step's certificate on {step.w} is trivial")
    if cert.world != complement(blue.induced([labels[v] for v in w])):
        raise ValueError(f"reduce step's certificate world is not the red graph on {step.w}")
    if not verify_cert(cert):
        raise ValueError(f"reduce step's certificate on {step.w} fails its distance conditions")
    return cert


def _execute(
    g: Graph, next_step: Callable[[LiveBlue], tuple[tuple[Edge, ...], TraceStep]]
) -> tuple[Orientation, ConstructionTrace]:
    """Descend on the complement through the steps ``next_step`` hands out,
    then lift the innermost orientation's out-rows back through every
    contraction and padding.

    ``next_step`` pads the level, ``blue``, by the pairs it returns and
    returns the level's step; both are in ranks, which ``blue.labels``
    maps to labels.  Each level is contracted in place and lifted from its
    record alone, so the driver runs exactly the trace it records.  Only
    the output is checked: a bad one raises InternalVerificationError."""
    blue = LiveBlue(complement(g))
    steps: list[TraceStep] = []
    lifts: list[tuple[tuple[Edge, ...], TripleLift | ReductionLift]] = []
    while True:
        deleted, step = next_step(blue)
        labels = blue.labels
        if deleted:
            steps.append(PadStep(deleted))
        steps.append(step)
        pads = tuple([(labels[u], labels[v]) for u, v in deleted])
        if isinstance(step, ReductionPlan):
            lifts.append((pads, _contract_reduction(blue, tuple([labels[v] for v in step.w]), step.cert)))
        elif isinstance(step, TripleStep):
            lifts.append((pads, _contract_triple(blue, [labels[step.x1], labels[step.x2], labels[step.x3]])))
        else:
            break
    rows = [0] * len(blue.adj)
    for label, row in zip(labels, blue.labelled(step.rows)):
        rows[label] = row
    _restore_padding(rows, pads)
    live = blue.live
    for pads, lift in reversed(lifts):
        if isinstance(lift, ReductionLift):
            live = expand_reduction(rows, live, lift)
        else:
            live = expand_triple_contraction(rows, live, lift)
        _restore_padding(rows, pads)
    try:
        o = Orientation(g, Digraph(g.n, tuple(rows[: g.n])))
    except ValueError as exc:
        raise InternalVerificationError(f"lifted rows do not orient the input: {exc}") from exc
    if diameter(o.dir) > 2:
        raise InternalVerificationError("final orientation failed its diameter check")
    return o, ConstructionTrace(tuple(steps))


def _first_red_pairs(blue: LiveBlue, count: int) -> tuple[Edge, ...]:
    """The first ``count`` pairs u < v of ranks with no blue edge, in lexicographic order."""
    if not count:
        return ()
    live = blue.live
    pairs = (
        (i, blue.rank(v))
        for i, u in enumerate(blue.labels)
        for v in bits(live & ~blue.adj[u] >> (u + 1) << (u + 1))
    )
    return tuple(islice(pairs, count))


def _choose_move(blue: LiveBlue) -> tuple[tuple[Edge, ...], TraceStep]:
    """The constructor's decision at one level, read from its blue graph: trim
    the red graph to the threshold by deleting its lexicographically first
    edges, then take the first of base case, reduction, violating triple and
    exhaustive fallback.  The level is relabelled by rank only where a base
    case may apply, or to fall back."""
    deleted = _first_red_pairs(blue, blue.order - 5 - blue.m)  # red edges over the threshold, which each level meets
    _delete_red_pairs(blue, deleted)
    if _family_may_fit(blue):
        base = _base_case_with_family(*blue.compact())
        if base is not None:
            rows, family = base
            return deleted, BaseCaseStep(family, rows)
    plan = find_reduction(blue)
    if plan is not None:
        return deleted, plan
    triple = find_violating_triple(blue)
    if triple is not None:
        return deleted, triple
    orientation = _oracle_fallback(complement(blue.compact()[0]))
    reason = "no base case, contractible set, or triple applied"
    return deleted, FallbackStep(reason, orientation.dir.out)


def orient_diameter_two(g: Graph) -> tuple[Orientation, ConstructionTrace]:
    """Diameter-2 orientation for any graph with n >= 5 and at least C(n,2) - n + 5
    edges, with a replayable construction trace; ValueError, before any work, for any other graph."""
    if g.n < 5:
        raise ValueError(f"need at least 5 vertices, got {g.n}")
    if g.m < threshold_size(g.n):
        raise ValueError(f"graph of order {g.n} has {g.m} edges; {threshold_size(g.n)} are required")
    try:
        return _execute(g, _choose_move)
    except ValueError as exc:  # the input met the rule, so a fault of the driver
        raise InternalVerificationError(f"construction failed: {exc}") from exc


def replay_trace(g: Graph, trace: ConstructionTrace) -> Orientation:
    """Re-apply recorded steps mechanically; reproduces the driver's output.

    Raises ValueError when the trace ends before a base-case or fallback
    step, continues after one, or holds a step that does not fit its level."""
    steps = iter(trace.steps)

    def recorded(blue: LiveBlue) -> tuple[tuple[Edge, ...], TraceStep]:
        step = next(steps, None)
        deleted: tuple[Edge, ...] = ()
        if isinstance(step, PadStep):
            deleted = step.deleted
            step = next(steps, None)
        if step is None:
            raise ValueError("trace ends before its base-case or fallback step")
        _delete_red_pairs(blue, deleted)
        n, missing = blue.order, blue.m
        if n < 5 or missing != n - 5:
            raise ValueError(
                f"padded level of order {n} misses {missing} edges; n >= 5 and n - 5 are required"
            )
        if isinstance(step, (BaseCaseStep, FallbackStep)):
            inner = Orientation(complement(blue.compact()[0]), Digraph(n, step.rows))
            if diameter(inner.dir) > 2:
                raise ValueError(f"innermost orientation of order {n} has diameter above 2")
        elif isinstance(step, ReductionPlan):
            _checked_cert(blue, step)
        elif isinstance(step, TripleStep):
            triple = (step.x1, step.x2, step.x3)
            inside = sum(1 << blue.labels[x] for x in set(triple) if 0 <= x < n)
            if inside.bit_count() != 3 or any(blue.adj[blue.labels[x]] & inside for x in triple):
                raise ValueError(f"triple {triple} is not independent in the level's blue graph")
        else:
            raise ValueError(f"unexpected trace step {step!r}")
        return deleted, step

    o, _ = _execute(g, recorded)
    extra = sum(1 for _ in steps)
    if extra:
        raise ValueError(f"trace has {extra} steps after its base-case or fallback step")
    return o
