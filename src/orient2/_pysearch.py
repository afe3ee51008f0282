"""Pure-Python search kernel for edge-orientation problems.

`solve` decides whether the input graph has an orientation of directed
diameter at most ``d`` by depth-first search over edge directions.  A
partial assignment keeps, per vertex, its row in the "potential" digraph
(committed arcs plus both directions of every undirected edge) and its
potential in-neighbours; a vertex pair stays feasible while that digraph
connects it within ``d`` steps.  Assigning an edge only removes potential
arcs, so pruning on potential reachability is sound.  On top of the
pruning the kernel runs failed-direction propagation: any undirected
edge that is infeasible one way is committed the other way before
branching.

Each propagation test asks whether the current, feasible state stays
feasible once one potential arc a->b is gone, and reads the answer off a
reach table of that state: for every vertex v and step k, the sources
that reach v within k potential steps, and those that reach two or more
of v's potential in-neighbours within k steps.  A source u loses a
distance only when a is k < d steps away, b is not within k steps, and a
is b's only potential in-neighbour within k steps; three bitmask
operations per k find every such u.  At k = d - 1 the arc was b's last
way in, so the test fails at once.  A source u hit at k <= d - 2 is safe
without a search when it reaches a second potential in-neighbour c of b
within k + 1 steps (u in shared[k + 1][b]) and every vertex within d - 1
steps (u in ``slack``, the AND of the rows reach[d - 1]).  Proof: a path
from u through a->b to c is longer than k + 1, since b alone is k + 1
steps from u, so without the arc u reaches b via c within k + 2 steps,
and any other vertex at most one step later than before, so within d.
Any other hit source gets one breadth-first search with the arc cut,
which stops as soon as the rows it has expanded cover every vertex, in
the middle of a level if need be.  Tests only read the state; it changes
only when an edge is forced or branched on, and ``slack`` is read once
per state.

One table lives for the whole search.  Committing p->q changes only p's
potential in-neighbours, so level k + 1 is recomputed for p and for the
vertices that read a row that changed at level k (that vertex and its
potential out-neighbours), and every overwritten row goes onto a log.
Each commit records the log's length, and an undo pops the log back to
it, so the table is built from scratch only at the root.

`naive_min_diameter` is the deliberately dumb cross-check: it evaluates
all 2^m orientations and takes the smallest diameter.  It is bitsliced:
orientation j is bit lane j of Python ints, 2^14 orientations to a
block, and one int per vertex pair holds the lanes in which the pair is
within the current hop count, so one AND-OR step advances a whole block.
It shares no code, pruning or symmetry with `solve`.

The compiled kernel in ``_speedups.c`` runs the same search and the same
tests, skip included, but rebuilds the reach table after every commit.
The two tables are equal, so the two backends force the same edges,
return the same witnesses and count the same nodes; they are
interchangeable.
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
    if n < 0:
        raise ValueError(f"number of vertices must be non-negative, not {n}")
    if d < 0:
        raise ValueError(f"diameter bound must be non-negative, not {d}")
    m = len(edges)
    full = (1 << n) - 1
    pout = [0] * n  # potential out-rows: committed out-arcs and undirected edges
    pin: list[list[int]] = [[] for _ in range(n)]  # potential in-neighbours
    for i, pair in enumerate(edges):
        if len(pair) != 2 or not (0 <= pair[0] < n and 0 <= pair[1] < n) or pair[0] == pair[1]:
            raise ValueError(f"edge {i} is not a pair of distinct vertices in 0..{n - 1}")
        p, q = pair
        if pout[p] >> q & 1:
            raise ValueError(f"edge {i} repeats {{{p}, {q}}}")
        pout[p] |= 1 << q
        pout[q] |= 1 << p
        pin[p].append(q)
        pin[q].append(p)
    assigned = [-1] * m
    trail: list[int] = []
    log_at: list[int] = []  # log_at[j]: len(log) before trail[j] was committed
    nodes = 0
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    # reach[k][v], k = 0..d: the sources within k potential steps of v.
    # shared[k][v], k = 0..d-1: the sources within k steps of two or more
    # potential in-neighbours of v.  log: the overwritten (k, v, reach[k + 1][v],
    # shared[k][v]) entries, oldest first.
    reach = [[1 << v for v in range(n)]] + [[0] * n for _ in range(d)]
    shared = [[0] * n for _ in range(d)]
    log: list[tuple[int, int, int, int]] = []
    slack: int | None = None  # the sources within d - 1 steps of every vertex; None: not yet read

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _BudgetExceeded
        if deadline is not None and nodes % _TICK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise _BudgetExceeded

    def refresh(dirty: int) -> None:
        # Recompute level k + 1 of the rows of ``dirty`` (the vertices whose
        # potential in-neighbours changed) and of every vertex that reads a
        # row changed at level k: that row's vertex and its potential
        # out-neighbours.  Each overwritten row goes onto the log.
        changed = 0
        for k in range(d):
            level, nxt, two = reach[k], reach[k + 1], shared[k]
            todo = dirty | changed
            while changed:
                low = changed & -changed
                todo |= pout[low.bit_length() - 1]
                changed ^= low
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                once = twice = 0
                for c in pin[v]:
                    x = level[c]
                    twice |= once & x
                    once |= x
                once |= level[v]
                if once != nxt[v] or twice != two[v]:
                    log.append((k, v, nxt[v], two[v]))
                    if once != nxt[v]:
                        changed |= low
                        nxt[v] = once
                    two[v] = twice

    # The rows removable reads, bound once, since refresh and undo_to write
    # them in place: level d - 1, shared[1], and (reach[k], shared[k],
    # shared[k + 1]) for 0 < k < d - 1.  Empty lists stand in for levels a
    # small d lacks: no test runs at d = 0, and at d = 1 the first test of
    # every arc fails.
    last_reach = reach[d - 1]
    last_shared = shared[d - 1] if d else []
    second = shared[1] if d > 1 else []
    middle = [(reach[k], shared[k], shared[k + 1]) for k in range(1, d - 1)]

    def removable(a: int, b: int) -> bool:
        # Does the current, feasible state stay feasible without the
        # potential arc a->b?  The module docstring gives the test.
        nonlocal slack
        if last_reach[a] & ~last_reach[b] & ~last_shared[b]:
            return False
        if slack is None:
            slack = full
            for row in last_reach:
                slack &= row
        abit = 1 << a
        # k = 0: a itself always loses its direct arc.  A source with slack
        # that reaches a second in-neighbour of b within k + 1 steps is safe.
        hit = abit & ~(second[b] & slack)
        for row, two, near in middle:
            hit |= row[a] & ~row[b] & ~two[b] & ~(near[b] & slack)
        cut = pout[a] & ~(1 << b)
        while hit:
            seen = frontier = hit & -hit
            hit ^= seen
            for _ in range(d):
                # nxt: seen and the rows expanded so far; a level stops as
                # soon as it covers every vertex
                nxt = seen
                if frontier & abit:
                    nxt |= cut
                    frontier ^= abit
                while frontier and nxt != full:
                    bit = frontier & -frontier
                    nxt |= pout[bit.bit_length() - 1]
                    frontier ^= bit
                frontier = nxt ^ seen
                seen = nxt
                if not frontier or seen == full:
                    break
            if seen != full:
                return False
        return True

    def set_arc(i: int, direction: int) -> None:
        nonlocal slack
        p, q = edges[i]
        if direction:
            p, q = q, p
        pin[p].remove(q)  # the potential arc q->p is gone
        pout[q] ^= 1 << p
        assigned[i] = direction
        trail.append(i)
        log_at.append(len(log))
        refresh(1 << p)
        slack = None

    def undo_to(mark: int) -> None:
        nonlocal slack
        if len(trail) <= mark:
            return
        slack = None
        keep = log_at[mark]
        del log_at[mark:]
        while len(log) > keep:
            k, v, row, two = log.pop()
            reach[k + 1][v] = row
            shared[k][v] = two
        while len(trail) > mark:
            i = trail.pop()
            p, q = edges[i]
            if assigned[i]:
                p, q = q, p
            pin[p].append(q)
            pout[q] |= 1 << p
            assigned[i] = -1

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
        refresh(full)
        if any(row != full for row in reach[d]):
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
