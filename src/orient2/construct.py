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
the certificates to lift the small solution back up.  Every returned
orientation is re-checked before it leaves this module.  If no move
applies (which would contradict the case analysis) an exhaustive search
is used as a safety valve and the event is recorded in the trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from . import _backend
from ._basecase_table import TABLE
from .certs import (
    CombineCase,
    GoodOrientationCert,
    Partition2,
    combine,
    split_cert,
)
from .codec import parse_digraph6
from .graphs import (
    Arc,
    Edge,
    Graph,
    Orientation,
    bits,
    complement,
    components,
    diameter,
)
from .structure import (
    ComponentClass,
    ComponentKind,
    _candidate_splits,
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
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class ReduceStep:
    w: tuple[int, ...]
    recipe: str
    cert_arcs: tuple[Arc, ...]
    cert_first: tuple[int, ...]
    cert_second: tuple[int, ...]


@dataclass(frozen=True)
class TripleStep:
    x1: int
    x2: int
    x3: int


@dataclass(frozen=True)
class FallbackStep:
    reason: str
    arcs: tuple[Arc, ...]


TraceStep = PadStep | BaseCaseStep | ReduceStep | TripleStep | FallbackStep


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
            elif isinstance(step, ReduceStep):
                out.append({"kind": "reduce", "w": list(step.w), "recipe": step.recipe})
            elif isinstance(step, TripleStep):
                out.append({"kind": "contract-triple", "triple": [step.x1, step.x2, step.x3]})
            else:
                out.append({"kind": "fallback-oracle", "reason": step.reason})
        return out


@dataclass(frozen=True)
class ReductionFrame:
    """A certified set contracted to the super-vertices len(kept), len(kept) + 1."""

    red_before: Graph
    removed: tuple[int, ...]
    kept: tuple[int, ...]
    cert: GoodOrientationCert


@dataclass(frozen=True)
class TripleFrame:
    """An independent triple identified into the vertex len(kept)."""

    red_before: Graph
    removed: tuple[int, ...]
    kept: tuple[int, ...]


# ---------------------------------------------------------------------------
# normalization


def normalize_to_threshold(g: Graph) -> tuple[Graph, tuple[Edge, ...]]:
    """Trim to exactly the threshold size by deleting lexicographically
    smallest edges; the deleted edges are restored with arbitrary direction
    afterwards, which never increases any distance."""
    target = threshold_size(g.n)
    if g.m < target:
        raise ValueError(f"graph has {g.m} edges, needs at least {target}")
    surplus = g.m - target
    deleted = tuple(g.edges()[:surplus])
    trimmed = g
    for u, v in deleted:
        trimmed = trimmed.without_edge(u, v)
    return trimmed, deleted


def _check_precondition(g: Graph) -> None:
    if g.n < 5:
        raise ValueError(f"need at least 5 vertices, got {g.n}")
    if g.m < threshold_size(g.n):
        raise ValueError(
            f"graph of order {g.n} has {g.m} edges; {threshold_size(g.n)} are required"
        )


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


def _serve_table(blue: Graph, red: Graph, comps: list[tuple[int, ...]]) -> Orientation | None:
    counts = Counter(len(c) for c in comps)
    key = (counts.get(1, 0), counts.get(2, 0), counts.get(3, 0), counts.get(4, 0))
    encoded = TABLE.get(key)
    if encoded is None:
        return None
    stored = parse_digraph6(encoded)
    phi: dict[int, int] = {}
    offset = 0
    for comp in sorted(comps, key=lambda c: (-len(c), c[0])):
        for i, v in enumerate(_path_sequence(blue, comp)):
            phi[offset + i] = v
        offset += len(comp)
    arcs = [(phi[u], phi[v]) for u, v in stored.arcs()]
    o = Orientation.from_arcs(red, arcs)
    if diameter(o.dir) > 2:
        raise InternalVerificationError("stored small-case orientation failed its check")
    return o


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


def _quadruple_search(red: Graph, comps: list[tuple[int, ...]]) -> Orientation | None:
    """Deterministic search over leftover choices and two-class splits of the blue ``comps``."""
    r = len(comps)
    singles = [i for i in range(r) if len(comps[i]) == 1]
    pairs = [i for i in range(r) if len(comps[i]) == 2]
    leftover_options: list[tuple[int, ...]] = []
    leftover_options += [combo for combo in combinations(singles, 2)]
    leftover_options += [(i,) for i in pairs]
    leftover_options += [combo for combo in combinations(singles, 3)]
    leftover_options += [
        (i, j)
        for i, j in combinations(range(r), 2)
        if len(comps[i]) + len(comps[j]) > 2
    ]
    for chosen in leftover_options:
        rest = [comps[i] for i in range(r) if i not in chosen]
        if not rest:
            continue
        w_verts = sorted(v for c in rest for v in c)
        world = red.induced(w_verts)
        local = {v: i for i, v in enumerate(w_verts)}
        z_comps = [comps[i] for i in chosen]
        z_verts = sorted(v for c in z_comps for v in c)
        for side_a, side_b in _candidate_splits(rest):
            cert = split_cert(world, [local[v] for v in side_a], [local[v] for v in side_b])
            if cert is None:
                continue
            try:
                if len(z_verts) == 2:
                    return combine(red, cert, z_verts, CombineCase.TWO)
                if len(chosen) == 3:
                    return combine(red, cert, z_verts, CombineCase.THREE_ISOLATED)
                zw = red.induced(z_verts)
                zl = {v: i for i, v in enumerate(z_verts)}
                cert_z = split_cert(
                    zw,
                    [zl[v] for v in z_comps[0]],
                    [zl[v] for v in z_comps[1]],
                )
                if cert_z is None:
                    continue
                return combine(red, cert, z_verts, CombineCase.NONTRIVIAL_CERT, cert_z)
            except ValueError:
                continue
    return None


def _base_case_with_family(blue: Graph, red: Graph) -> tuple[Orientation, str] | None:
    """Orientation of ``red`` and its family name when its complement ``blue``
    is one of the directly orientable component families."""
    comps = components(blue)
    classes = [classify_component(blue, c) for c in comps]
    family = _family_signature(classes)
    if family is None:
        return None
    if all(cls.kind is ComponentKind.PATH for cls in classes):
        served = _serve_table(blue, red, comps)
        if served is not None:
            return served, f"table:{family}"
    found = _quadruple_search(red, comps)
    if found is not None:
        return found, family
    return None


def base_case_orient(b: Graph) -> Orientation | None:
    """Orientation of the complement of ``b`` when ``b`` is one of the
    directly orientable component families; None otherwise."""
    result = _base_case_with_family(b, complement(b))
    return result[0] if result is not None else None


# ---------------------------------------------------------------------------
# contraction / expansion


def _kept_blue_rows(red: Graph, kept: tuple[int, ...]) -> list[int]:
    """Blue (missing-edge) rows of ``red`` restricted to ``kept``, relabelled by position."""
    full = (1 << red.n) - 1
    index = {v: j for j, v in enumerate(kept)}
    rows = []
    for u in kept:
        row = 0
        for v in bits(full & ~red.adj[u] & ~(1 << u)):
            j = index.get(v)
            if j is not None:
                row |= 1 << j
        rows.append(row)
    return rows


def _contract_reduction(
    norm_red: Graph, w: tuple[int, ...], cert: GoodOrientationCert
) -> tuple[ReductionFrame, Graph]:
    removed = tuple(sorted(w))
    assert len(removed) >= 4, "a certified contractible set has at least four vertices"
    kept = tuple(v for v in range(norm_red.n) if v not in set(removed))
    k = len(kept)
    rows = _kept_blue_rows(norm_red, kept) + [0, 0]
    rows[k] |= 1 << (k + 1)
    rows[k + 1] |= 1 << k
    contracted_blue = Graph(k + 2, tuple(rows))
    assert contracted_blue.m <= contracted_blue.n - 5
    assert contracted_blue.n > 5
    return ReductionFrame(norm_red, removed, kept, cert), complement(contracted_blue)


def _contract_triple(norm_red: Graph, triple: tuple[int, int, int]) -> tuple[TripleFrame, Graph]:
    removed = tuple(sorted(triple))
    kept = tuple(v for v in range(norm_red.n) if v not in set(removed))
    k = len(kept)
    triple_mask = sum(1 << x for x in removed)
    rows = _kept_blue_rows(norm_red, kept) + [0]
    for i, u in enumerate(kept):
        if triple_mask & ~norm_red.adj[u]:
            rows[i] |= 1 << k
            rows[k] |= 1 << i
    contracted_blue = Graph(k + 1, tuple(rows))
    assert contracted_blue.m <= contracted_blue.n - 5
    return TripleFrame(norm_red, removed, kept), complement(contracted_blue)


def expand_reduction(o_star: Orientation, frame: ReductionFrame) -> Orientation:
    """Lift an orientation of the contracted graph back over the removed set.

    Edges inside the removed set follow the stored certificate; edges
    between a kept vertex and a certificate class copy the direction that
    vertex chose toward the class's super-vertex."""
    if diameter(o_star.dir) > 2:
        raise ValueError("contracted orientation must have diameter at most 2")
    kept, removed, cert = frame.kept, frame.removed, frame.cert
    first_g = [removed[i] for i in cert.classes.first]
    second_g = [removed[i] for i in cert.classes.second]
    k = len(kept)
    arcs: list[Arc] = []
    for a, b in o_star.dir.arcs():
        if a < k and b < k:
            arcs.append((kept[a], kept[b]))
    for idx, gx in enumerate(kept):
        for super_label, cls in ((k, first_g), (k + 1, second_g)):
            if o_star.dir.has_arc(idx, super_label):
                arcs.extend((gx, w) for w in cls)
            elif o_star.dir.has_arc(super_label, idx):
                arcs.extend((w, gx) for w in cls)
            else:  # pragma: no cover - the contracted graph always has these edges
                raise AssertionError("missing super-vertex edge in contracted orientation")
    for a, b in cert.orientation.dir.arcs():
        arcs.append((removed[a], removed[b]))
    result = Orientation.from_arcs(frame.red_before, arcs)
    if diameter(result.dir) > 2:
        raise InternalVerificationError("expanded orientation failed its diameter check")
    return result


def expand_triple_contraction(o_star: Orientation, frame: TripleFrame) -> Orientation:
    """Lift an orientation over an identified independent triple.

    The triple becomes a directed 3-cycle; every kept vertex that kept all
    three edges copies its direction toward the merged vertex, and partial
    remnants are oriented low label to high label."""
    if diameter(o_star.dir) > 2:
        raise ValueError("contracted orientation must have diameter at most 2")
    kept, removed = frame.kept, frame.removed
    x1, x2, x3 = removed
    red = frame.red_before
    k = len(kept)
    merged = k  # the contracted vertex
    arcs: list[Arc] = [(x1, x2), (x2, x3), (x3, x1)]
    for a, b in o_star.dir.arcs():
        if a < k and b < k:
            arcs.append((kept[a], kept[b]))
    for idx, gu in enumerate(kept):
        if o_star.dir.has_arc(idx, merged):
            arcs.extend((gu, x) for x in removed)
        elif o_star.dir.has_arc(merged, idx):
            arcs.extend((x, gu) for x in removed)
        else:
            for x in removed:
                if red.has_edge(gu, x):
                    arcs.append((gu, x) if gu < x else (x, gu))
    result = Orientation.from_arcs(red, arcs)
    if diameter(result.dir) > 2:
        raise InternalVerificationError("expanded orientation failed its diameter check")
    return result


# ---------------------------------------------------------------------------
# the driver


def _restore_padding(base: Graph, o_norm: Orientation, deleted: tuple[Edge, ...]) -> Orientation:
    if not deleted:
        return o_norm if o_norm.base == base else Orientation(base, o_norm.dir)
    arcs = o_norm.dir.arcs() + [(u, v) for u, v in deleted]
    return Orientation.from_arcs(base, arcs)


def _oracle_fallback(norm: Graph) -> Orientation:
    from .oracle import default_budget  # deferred: oracle imports this module

    budget = default_budget()
    status, dirs, _ = _backend.solve_bounded_diameter(
        norm.n, _backend.ordered_edges(norm), 2, budget.max_nodes, budget.time_limit
    )
    if status != _backend.STATUS_YES or dirs is None:
        raise InternalVerificationError(
            "exhaustive fallback found no diameter-2 orientation above the threshold"
        )
    edges = _backend.ordered_edges(norm)
    arcs = [(q, p) if d else (p, q) for (p, q), d in zip(edges, dirs)]
    return Orientation.from_arcs(norm, arcs)


Move = tuple[tuple[Edge, ...], TraceStep]  # (padding deleted at a level, its non-pad step)


def _execute(
    g: Graph, next_step: Callable[[Graph], Move]
) -> tuple[Orientation, ConstructionTrace]:
    """Descend through the moves ``next_step`` hands out level by level, then
    lift the innermost orientation back through every padding and contraction.

    Contractions and the innermost orientation are built from the steps'
    contents alone, so the driver runs exactly the trace it records."""
    steps: list[TraceStep] = []
    levels: list[tuple[Graph, tuple[Edge, ...]]] = []
    frames: list[ReductionFrame | TripleFrame] = []
    current = g
    while True:
        deleted, move = next_step(current)
        levels.append((current, deleted))
        if deleted:
            steps.append(PadStep(deleted))
        steps.append(move)
        norm = current
        for u, v in deleted:
            norm = norm.without_edge(u, v)
        if isinstance(move, (BaseCaseStep, FallbackStep)):
            o = Orientation.from_arcs(norm, move.arcs)
            break
        if isinstance(move, ReduceStep):
            w = tuple(sorted(move.w))
            world = norm.induced(w)
            cert = GoodOrientationCert(
                world=world,
                orientation=Orientation.from_arcs(world, move.cert_arcs),
                classes=Partition2(move.cert_first, move.cert_second),
                nontrivial=True,
            )
            frame, current = _contract_reduction(norm, w, cert)
        elif isinstance(move, TripleStep):
            frame, current = _contract_triple(norm, (move.x1, move.x2, move.x3))
        else:
            raise ValueError(f"unexpected trace step {move!r}")
        frames.append(frame)

    for level_input, deleted in reversed(levels):
        o = _restore_padding(level_input, o, deleted)
        if frames:
            frame = frames.pop()
            if isinstance(frame, ReductionFrame):
                o = expand_reduction(o, frame)
            else:
                o = expand_triple_contraction(o, frame)
    if o.base != g or diameter(o.dir) > 2:
        raise InternalVerificationError("final orientation failed its diameter check")
    return o, ConstructionTrace(tuple(steps))


def _choose_move(current: Graph) -> Move:
    """The constructor's decision at one level: trim to the threshold, then the
    first of base case, reduction, violating triple and exhaustive fallback."""
    _check_precondition(current)
    norm, deleted = normalize_to_threshold(current)
    blue = complement(norm)
    base = _base_case_with_family(blue, norm)
    if base is not None:
        orientation, family = base
        return deleted, BaseCaseStep(family, tuple(orientation.dir.arcs()))
    plan = find_reduction(blue)
    if plan is not None:
        cert = plan.cert
        arcs = tuple(cert.orientation.dir.arcs())
        step = ReduceStep(plan.w, plan.recipe, arcs, cert.classes.first, cert.classes.second)
        return deleted, step
    witness = find_violating_triple(blue)
    if witness is not None:
        return deleted, TripleStep(witness.x1, witness.x2, witness.x3)
    orientation = _oracle_fallback(norm)
    reason = "no base case, contractible set, or triple applied"
    return deleted, FallbackStep(reason, tuple(orientation.dir.arcs()))


def orient_diameter_two(g: Graph) -> tuple[Orientation, ConstructionTrace]:
    """Diameter-2 orientation for any graph with n >= 5 and at least
    C(n,2) - n + 5 edges, together with a replayable construction trace."""
    return _execute(g, _choose_move)


def replay_trace(g: Graph, trace: ConstructionTrace) -> Orientation:
    """Re-apply recorded steps mechanically; reproduces the driver's output.

    Raises ValueError when the trace ends before a base-case or fallback
    step, or continues after one."""
    steps = iter(trace.steps)

    def recorded(current: Graph) -> Move:
        step = next(steps, None)
        deleted: tuple[Edge, ...] = ()
        if isinstance(step, PadStep):
            deleted = step.deleted
            step = next(steps, None)
        if step is None:
            raise ValueError("trace ends before its base-case or fallback step")
        return deleted, step

    o, _ = _execute(g, recorded)
    extra = sum(1 for _ in steps)
    if extra:
        raise ValueError(f"trace has {extra} steps after its base-case or fallback step")
    return o
