"""Pure-Python search kernel for edge-orientation problems.

`solve` decides whether the input graph has an orientation of directed
diameter at most ``d`` by depth-first search over edge directions.  A
partial assignment keeps, per vertex, the set of committed out-arcs and
the set of still-undirected incident edges; a vertex pair stays feasible
while the "potential" digraph (committed arcs plus both directions of
every undirected edge) connects it within ``d`` steps.  Assigning an edge
only removes potential arcs, so pruning on potential reachability is
sound.  On top of the pruning the kernel runs failed-direction
propagation: any undirected edge that is infeasible one way is committed
the other way before branching.

`naive_min_diameter` is the deliberately dumb cross-check: it visits all
2^m orientations and takes the smallest diameter.  The walk runs in
reflected Gray-code order, so each step reverses one edge in place, and
an orientation gets the full diameter only when it could beat the best
found so far.  It shares no code, pruning or symmetry with `solve`.

The compiled kernel in ``_speedups.pyx`` mirrors these semantics exactly,
including node counting, so the two backends are interchangeable.
"""

from __future__ import annotations

import time

STATUS_NO = 0
STATUS_YES = 1
STATUS_BUDGET = 2

_TICK_INTERVAL = 2048
_NAIVE_MAX_EDGES = 40


class _BudgetExceeded(Exception):
    pass


def solve(
    n: int,
    edges: list[tuple[int, int]],
    d: int,
    max_nodes: int,
    time_limit: float | None = None,
) -> tuple[int, list[int] | None, int]:
    """Search for an orientation of diameter <= d.

    ``edges`` fixes both the branching order and the meaning of the
    returned direction list: entry i is 0 for edges[i][0] -> edges[i][1],
    1 for the reverse.  Returns (status, directions, nodes_used).
    """
    m = len(edges)
    full = (1 << n) - 1
    out = [0] * n  # committed out-arcs
    inn = [0] * n  # committed in-arcs
    und = [0] * n  # endpoints of still-undirected incident edges
    for p, q in edges:
        und[p] |= 1 << q
        und[q] |= 1 << p
    assigned = [-1] * m
    trail: list[int] = []
    nodes = 0
    deadline = time.monotonic() + time_limit if time_limit is not None else None

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _BudgetExceeded
        if deadline is not None and nodes % _TICK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise _BudgetExceeded

    def reach_ok(src: int) -> bool:
        # can src reach every vertex within d steps of potential arcs?
        r = 1 << src
        for _ in range(d):
            nxt = r
            mask = r
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                nxt |= out[v] | und[v]
            if nxt == r:
                break
            r = nxt
            if r == full:
                return True
        return r == full

    def feasible_all() -> bool:
        return all(reach_ok(u) for u in range(n))

    def feasible_around(head: int) -> bool:
        # Only sources within d-1 potential reverse steps of `head` can have
        # lost reachability when the potential arc head->tail disappeared.
        r = 1 << head
        for _ in range(d - 1):
            nxt = r
            mask = r
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                nxt |= inn[v] | und[v]
            if nxt == r:
                break
            r = nxt
        mask = r
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if not reach_ok(u):
                return False
        return True

    def set_arc(i: int, direction: int) -> int:
        p, q = edges[i]
        if direction:
            p, q = q, p
        out[p] |= 1 << q
        inn[q] |= 1 << p
        und[p] &= ~(1 << q)
        und[q] &= ~(1 << p)
        assigned[i] = direction
        return q  # head of the removed reverse potential arc

    def unset_arc(i: int) -> None:
        p, q = edges[i]
        if assigned[i]:
            p, q = q, p
        out[p] &= ~(1 << q)
        inn[q] &= ~(1 << p)
        und[p] |= 1 << q
        und[q] |= 1 << p
        assigned[i] = -1

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            unset_arc(trail.pop())

    def propagate() -> bool:
        # assumes the current state passed its feasibility check
        while True:
            forced = -1
            forced_dir = 0
            for i in range(m):
                if assigned[i] >= 0:
                    continue
                head0 = set_arc(i, 0)
                ok0 = feasible_around(head0)
                unset_arc(i)
                head1 = set_arc(i, 1)
                ok1 = feasible_around(head1)
                unset_arc(i)
                if not ok0 and not ok1:
                    return False
                if ok0 != ok1:
                    forced = i
                    forced_dir = 0 if ok0 else 1
                    break
            if forced < 0:
                return True
            set_arc(forced, forced_dir)
            trail.append(forced)
            tick()

    def search() -> bool:
        mark = len(trail)
        if not propagate():
            undo_to(mark)
            return False
        branch = -1
        for i in range(m):
            if assigned[i] < 0:
                branch = i
                break
        if branch < 0:
            return True
        for direction in (0, 1):
            submark = len(trail)
            head = set_arc(branch, direction)
            trail.append(branch)
            tick()
            if feasible_around(head) and search():
                return True
            undo_to(submark)
        undo_to(mark)
        return False

    try:
        if not feasible_all():
            return (STATUS_NO, None, nodes)
        if m == 0:
            return (STATUS_YES, [], nodes)
        # Reversing every arc preserves the diameter, so the first edge's
        # direction can be fixed without losing any solutions.
        head = set_arc(0, 0)
        trail.append(0)
        tick()
        if feasible_around(head) and search():
            return (STATUS_YES, list(assigned), nodes)
        return (STATUS_NO, None, nodes)
    except _BudgetExceeded:
        return (STATUS_BUDGET, None, nodes)


def naive_min_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    """Smallest diameter over all 2^m orientations; -1 when every one is infinite.

    Orientation k of the walk is the reflected Gray code ``k ^ (k >> 1)``
    (bit i set: edge i points edges[i][1] -> edges[i][0]), so step k
    reverses the single edge ``ctz(k)`` in place.  Once a finite ``best``
    is known, an orientation gets the full diameter only if every source
    reaches all vertices within ``best - 1`` steps; the test stops at the
    first source that does not.
    """
    m = len(edges)
    if m > _NAIVE_MAX_EDGES:
        raise ValueError(f"brute-force enumeration limited to {_NAIVE_MAX_EDGES} edges")
    if n <= 1:
        return 0
    full = (1 << n) - 1
    out = [0] * n
    for p, q in edges:
        out[p] |= 1 << q
    flips = [(p, 1 << q, q, 1 << p) for p, q in edges]
    best = _diameter_rows(n, out)
    hops = range(best - 1)
    sources = range(n)
    for k in range(1, 1 << m):
        p, pbit, q, qbit = flips[(k & -k).bit_length() - 1]
        out[p] ^= pbit
        out[q] ^= qbit
        if best >= 0:
            for src in sources:
                seen = 1 << src
                frontier = seen
                for _ in hops:
                    nxt = 0
                    while frontier:
                        low = frontier & -frontier
                        nxt |= out[low.bit_length() - 1]
                        frontier ^= low
                    frontier = nxt & ~seen
                    seen |= frontier
                if seen != full:
                    break
            else:
                best = _diameter_rows(n, out)
                hops = range(best - 1)
        else:
            best = _diameter_rows(n, out)
            hops = range(best - 1)
    return best


def _diameter_rows(n: int, out: list[int]) -> int:
    full = (1 << n) - 1
    worst = 0
    for src in range(n):
        seen = 1 << src
        frontier = seen
        steps = 0
        while seen != full:
            nxt = 0
            mask = frontier
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                nxt |= out[v]
            nxt &= ~seen
            if not nxt:
                return -1
            seen |= nxt
            frontier = nxt
            steps += 1
        if steps > worst:
            worst = steps
    return worst
