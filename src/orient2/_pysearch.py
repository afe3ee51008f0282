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

Each propagation test asks whether the current, feasible state stays
feasible once one potential arc a->b is gone, and reads the answer off a
reach table of that state: for every vertex v and step k, the sources
that reach v within k potential steps, and those that reach two or more
of v's potential in-neighbours within k steps.  The table is built on
the first test after a commit or an undo and dropped by the next one.  A
source u loses a distance only when a is k < d steps away, b is not
within k steps, and a is b's only potential in-neighbour within k steps;
three bitmask operations per k find every such u.  At k = d - 1 the arc
was b's last way in, so the test fails at once; any other such source
gets one breadth-first search with the arc cut.  Tests only read the
state; it changes only when an edge is forced or branched on.

`naive_min_diameter` is the deliberately dumb cross-check: it evaluates
all 2^m orientations and takes the smallest diameter.  It is bitsliced:
orientation j is bit lane j of Python ints, 2^14 orientations to a
block, and one int per vertex pair holds the lanes in which the pair is
within the current hop count, so one AND-OR step advances a whole block.
It shares no code, pruning or symmetry with `solve`.

The compiled kernel in ``_speedups.c`` ports `solve` line for line,
reach table included, so the two backends force the same edges, return
the same witnesses and count the same nodes; they are interchangeable.
"""

from __future__ import annotations

import time

STATUS_NO = 0
STATUS_YES = 1
STATUS_BUDGET = 2

_TICK_INTERVAL = 2048
_NAIVE_MAX_EDGES = 40
_NAIVE_LANE_BITS = 14


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
    und = [0] * n  # endpoints of still-undirected incident edges
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for p, q in edges:
        und[p] |= 1 << q
        und[q] |= 1 << p
        nbrs[p].append(q)
        nbrs[q].append(p)
    assigned = [-1] * m
    trail: list[int] = []
    nodes = 0
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    table: tuple[list[list[int]], list[list[int]], list[int]] | None = None

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _BudgetExceeded
        if deadline is not None and nodes % _TICK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise _BudgetExceeded

    def reach_table() -> tuple[list[list[int]], list[list[int]], list[int]]:
        # reach[k][v]: the sources within k potential steps of v, k = 0..d.
        # shared[k][v]: the sources within k steps of two or more potential
        # in-neighbours of v, k = 0..d-1.  pout[v]: v's potential out-row.
        nonlocal table
        if table is None:
            # v's potential in-neighbours: every neighbour but its committed out-arcs
            pin = [[c for c in nbrs[v] if not out[v] >> c & 1] for v in range(n)]
            level = [1 << v for v in range(n)]
            reach = [level]
            shared = []
            for _ in range(d):
                nxt = []
                two = []
                for v in range(n):
                    once = twice = 0
                    for c in pin[v]:
                        x = level[c]
                        twice |= once & x
                        once |= x
                    nxt.append(level[v] | once)
                    two.append(twice)
                level = nxt
                reach.append(level)
                shared.append(two)
            table = (reach, shared, [out[v] | und[v] for v in range(n)])
        return table

    def removable(a: int, b: int) -> bool:
        # Does the current, feasible state stay feasible without the
        # potential arc a->b?  The module docstring gives the test.
        reach, shared, pout = reach_table()
        last = d - 1
        if reach[last][a] & ~reach[last][b] & ~shared[last][b]:
            return False
        abit = 1 << a
        hit = abit  # k = 0: a itself always loses its direct arc
        for k in range(1, last):
            hit |= reach[k][a] & ~reach[k][b] & ~shared[k][b]
        cut = pout[a] & ~(1 << b)
        while hit:
            seen = frontier = hit & -hit
            hit ^= seen
            for _ in range(d):
                nxt = 0
                if frontier & abit:
                    nxt = cut
                    frontier ^= abit
                while frontier:
                    bit = frontier & -frontier
                    nxt |= pout[bit.bit_length() - 1]
                    frontier ^= bit
                frontier = nxt & ~seen
                if not frontier:
                    break
                seen |= frontier
            if seen != full:
                return False
        return True

    def set_arc(i: int, direction: int) -> None:
        nonlocal table
        p, q = edges[i]
        if direction:
            p, q = q, p
        out[p] |= 1 << q
        und[p] &= ~(1 << q)
        und[q] &= ~(1 << p)
        assigned[i] = direction
        trail.append(i)
        table = None

    def undo_to(mark: int) -> None:
        nonlocal table
        while len(trail) > mark:
            i = trail.pop()
            p, q = edges[i]
            if assigned[i]:
                p, q = q, p
            out[p] &= ~(1 << q)
            und[p] |= 1 << q
            und[q] |= 1 << p
            assigned[i] = -1
            table = None

    def propagate() -> bool:
        # assumes the current state is feasible
        while True:
            forced = -1
            forced_dir = 0
            for i in range(m):
                if assigned[i] >= 0:
                    continue
                p, q = edges[i]
                ok0 = removable(q, p)  # p->q drops the potential arc q->p
                ok1 = removable(p, q)
                if not ok0 and not ok1:
                    return False
                if ok0 != ok1:
                    forced = i
                    forced_dir = 0 if ok0 else 1
                    break
            if forced < 0:
                return True
            set_arc(forced, forced_dir)
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
        # propagate() left both directions of every open edge feasible
        for direction in (0, 1):
            submark = len(trail)
            set_arc(branch, direction)
            tick()
            if search():
                return True
            undo_to(submark)
        undo_to(mark)
        return False

    try:
        if any(row != full for row in reach_table()[0][d]):
            return (STATUS_NO, None, nodes)
        if m == 0:
            return (STATUS_YES, [], nodes)
        # Reversing every arc preserves the diameter, so the first edge's
        # direction can be fixed without losing any solutions.
        ok = removable(edges[0][1], edges[0][0])
        set_arc(0, 0)
        tick()
        if ok and search():
            return (STATUS_YES, list(assigned), nodes)
        return (STATUS_NO, None, nodes)
    except _BudgetExceeded:
        return (STATUS_BUDGET, None, nodes)


def naive_min_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    """Smallest diameter over all 2^m orientations; -1 when every one is infinite.

    Orientation j (bit i set: edge i points edges[i][1] -> edges[i][0])
    is evaluated as one bit lane of Python ints, ``2^b`` orientations per
    block: the low ``b`` edges vary with the lane, the others are fixed by
    the block.  A block's minimum is the first hop at which some lane
    reaches every vertex pair; hops run to ``best - 1`` once a finite
    ``best`` is known, and to ``n - 1`` before.
    """
    m = len(edges)
    if m > _NAIVE_MAX_EDGES:
        raise ValueError(f"brute-force enumeration limited to {_NAIVE_MAX_EDGES} edges")
    if n <= 1:
        return 0
    lane_bits = min(m, _NAIVE_LANE_BITS)
    ones = (1 << (1 << lane_bits)) - 1
    # Edge i < b points forward in the lanes with bit i clear: runs of 2^i
    # set and 2^i clear lanes.  ``rep`` marks the start of each 2^(i+1)
    # run, i.e. ones // (2^(2^(i+1)) - 1), built without a long division.
    low = [0] * lane_bits
    rep = 1
    for i in reversed(range(lane_bits)):
        low[i] = (rep << (1 << i)) - rep
        rep |= rep << (1 << i)
    best = -1
    for block in range(1 << (m - lane_bits)):
        high = [0 if block >> i & 1 else ones for i in range(m - lane_bits)]
        oks = _lane_oks(n, edges, low + high, ones, n - 1 if best < 0 else best - 1)
        for hop, ok in enumerate(oks, 1):
            if ok:
                best = hop
                break
    return best


def _lane_oks(n: int, edges: list[tuple[int, int]], forward: list[int], ones: int, hops: int) -> list[int]:
    """For h = 1..hops (hops >= 1), the lanes of ``ones`` whose orientation
    has every vertex pair within h steps; edge i points edges[i][0] -> edges[i][1]
    in the lanes of ``forward[i]`` and backwards in the others.

    ``row[t]`` holds the lanes in which t is within the current hop count
    of the source.  Reach only grows with the hop count, so once no lane
    passes at the last hop none passes at any.
    """
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (p, q), fwd in zip(edges, forward):
        into[q].append((p, fwd))
        into[p].append((q, ones ^ fwd))
    oks = [ones] * hops
    for s in range(n):
        row = [0] * n
        row[s] = ones
        for h in range(hops):
            nxt = []
            every = ones
            for t in range(n):
                got = row[t]
                for v, arc in into[t]:
                    got |= row[v] & arc
                nxt.append(got)
                every &= got
            row = nxt
            oks[h] &= every
        if not oks[-1]:
            return [0] * hops
    return oks
