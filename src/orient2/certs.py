"""Orientation certificates over a two-class vertex partition.

A certificate fixes an orientation of a graph together with a partition of
its vertices into two classes such that vertices of the same class are at
directed distance at most 2.  A certificate is *non-trivial* when in
addition every vertex has both an in-neighbor and an out-neighbor in the
opposite class.  Two explicit constructions produce such certificates:

* `window_cert`, the rotating-window orientation of a world that spans
  the complete bipartite graph on the two classes, and
* `matchjoin_cert`, the clique-pair-with-matching orientation, which
  tolerates a structured set of missing edges on the larger side.

`split_cert` tries both on one split.  `combine` glues a certified subset
to a small remainder with no missing edges in between, producing the
out-rows of a full diameter-2 orientation: it joins the subset's two
classes and the remainder's two classes, those of the remainder's own
certificate or its two vertices, in one directed cycle of four classes.
It checks its inputs: the cross edges, and each certificate's world
against its part of the red graph and its verdict.

A certificate is one record: its world, the out-rows that orient it
(``rows[u]`` is the bitmask of u's out-neighbors) and its two classes in
their recorded order.  Each construction writes the arcs it fixes into
the rows and orients every other edge of its world from the lower label
to the higher one; `verify_cert` is the one check of a certificate, and
since a certificate is immutable it records its verdict there, so each
certificate is verified once however often it is asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .graphs import Edge, Graph, _exact_in_rows, _spread, bits, complement, in_rows


@dataclass(frozen=True)
class GoodOrientationCert:
    """Out-rows orienting ``world`` and two classes covering its vertices
    that witness the distance conditions."""

    world: Graph
    rows: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    nontrivial: bool
    _verdict: bool | None = field(default=None, init=False, compare=False, repr=False)  # see `verify_cert`


def matchjoin_graph(a: int, k: int) -> Graph:
    """Cliques on 0..a-1 and a..a+k-1, with vertex i matched to a + i for i < k."""
    left, right = (1 << a) - 1, ((1 << k) - 1) << a
    rows = [left ^ 1 << u for u in range(a)] + [right ^ 1 << a + u for u in range(k)]
    for i in range(k):
        rows[i] |= 1 << a + i
        rows[a + i] |= 1 << i
    return Graph(a + k, tuple(rows))


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _cross_gap(g: Graph, us: Iterable[int], vs: int) -> Edge | None:
    """The first pair (u, v), u from ``us`` in order and v lowest first from
    the mask ``vs``, that is not an edge of ``g``; None when there is none."""
    for u in us:
        gap = vs & ~g.adj[u]
        if gap:
            return u, (gap & -gap).bit_length() - 1
    return None


def _orient_rest(world: Graph, rows: list[int]) -> tuple[int, ...]:
    """The out-rows ``rows`` with every other edge of ``world`` added from
    its lower label to its higher one."""
    into = in_rows(rows)
    for u, row in enumerate(rows):
        free = world.adj[u] & ~row & ~into[u]
        rows[u] = row | free >> (u + 1) << (u + 1)
    return tuple(rows)


def verify_cert(c: GoodOrientationCert) -> bool:
    """Check both certificate conditions at the claimed nontriviality level.

    Raises ValueError when the rows do not orient ``world`` exactly or the
    classes do not partition its vertices; otherwise returns whether the
    distance conditions hold.  A certificate is immutable, so the verdict
    is recorded on it and each certificate is checked once; a malformed
    one records nothing and raises on every call."""
    if c._verdict is None:
        object.__setattr__(c, "_verdict", _check(c))
    return c._verdict


def _check(c: GoodOrientationCert) -> bool:
    n, out = c.world.n, c.rows
    if len(out) != n or any(row >> n for row in out):
        raise ValueError(
            f"arcs do not orient the base graph exactly (expected {n} out-rows over 0..{n - 1})"
        )
    into = _exact_in_rows(out, c.world.adj)
    first, second = _mask(c.first), _mask(c.second)
    if first | second != (1 << n) - 1 or first & second:
        raise ValueError("partition classes do not partition the certified set")
    for v, row in enumerate(out):
        own, other = (first, second) if first >> v & 1 else (second, first)
        reach2 = row | 1 << v
        for w in bits(row):
            reach2 |= out[w]
        if own & ~reach2:
            return False
        if c.nontrivial and not (row & other and into[v] & other):
            return False
    return True


def _window_injection(a: int, b: int) -> list[frozenset[int]]:
    """b distinct (a//2)-subsets of range(a); entry i < a is the cyclic window at i."""
    size = a // 2
    windows = [frozenset((i + t) % a for t in range(size)) for i in range(a)]
    if b <= a:
        return windows[:b]
    seen = set(windows)
    extra = []
    for combo in combinations(range(a), size):
        s = frozenset(combo)
        if s not in seen:
            extra.append(s)
            seen.add(s)
        if len(windows) + len(extra) >= b:
            break
    return (windows + extra)[:b]


def window_sizes_ok(a: int, b: int) -> bool:
    return 1 <= a <= b <= comb(a, a // 2)


def split_sizes_ok(a: int, b: int) -> bool:
    """Whether `split_cert` can certify some split with sides of sizes ``a <= b``.

    The window needs ``2 <= a <= b <= C(a, a//2)`` and the clique pair
    ``3 <= a <= b <= 2a``; other sizes never get a certificate.
    """
    return a >= 2 and window_sizes_ok(a, b) or 3 <= a <= b <= 2 * a


def window_cert(world: Graph, side_x: Sequence[int], side_y: Sequence[int]) -> GoodOrientationCert | None:
    """Certificate for a world that spans the complete bipartite graph on the two sides.

    ``side_x`` plays the windowed role and must be the smaller side: the
    i-th vertex of ``side_y`` points at the ``side_x`` vertices of the i-th
    window and every other ``side_x`` vertex points at it.  World edges
    inside a class are oriented low label to high; they can only shorten
    distances.  Returns None when the size bounds fail or a cross pair is
    missing.
    """
    xs, ys = list(side_x), list(side_y)
    a, b = len(xs), len(ys)
    if not window_sizes_ok(a, b) or _cross_gap(world, xs, _mask(ys)) is not None:
        return None
    rows = [0] * world.n
    x_mask = _mask(xs)
    for y, window in zip(ys, _window_injection(a, b)):
        to_window = _mask(xs[j] for j in window)
        rows[y] |= to_window
        for x in bits(x_mask & ~to_window):
            rows[x] |= 1 << y
    cert = GoodOrientationCert(world, _orient_rest(world, rows), tuple(xs), tuple(ys), a >= 2)
    return cert if verify_cert(cert) else None


def _embed_into_matchjoin(pattern_blue: Graph, a: int, k: int) -> list[int] | None:
    """Injective map of pattern vertices onto clique-pair positions.

    Positions 0..a-1 form one clique, a..a+k-1 the other, and position i is
    matched with a+i for i < k.  Every pattern edge must land on a clique
    edge or a matching pair.  Deterministic backtracking, components first.
    """
    b = a + k
    if pattern_blue.n > b:
        return None
    # the target has C(a,2) + C(k,2) + k edges and largest degree at most a
    degrees = [row.bit_count() for row in pattern_blue.adj]
    if max(degrees, default=0) > a or sum(degrees) > a * (a - 1) + k * (k + 1):
        return None
    target = matchjoin_graph(a, k)
    # order: within each component walk from its smallest vertex so every
    # later vertex has an already-placed neighbor when possible
    order: list[int] = []
    seen: set[int] = set()
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

    def extend(order: list[int], idx: int, free: int) -> bool:
        """Place ``order[idx:]`` on the positions of the mask ``free``, lowest first."""
        if idx == len(order):
            return True
        v = order[idx]
        options = free
        for w in bits(pattern_blue.adj[v]):
            if placement[w] >= 0:
                options &= target.adj[placement[w]]
        while options:
            low = options & -options
            placement[v] = low.bit_length() - 1
            if extend(order, idx + 1, free ^ low):
                return True
            options ^= low
        placement[v] = -1
        return False

    # an isolated vertex fits any free position, so the other vertices alone
    # decide whether an embedding exists; the first one found is the full search's
    core = [v for v in order if degrees[v]]
    if len(core) < len(order):
        if not extend(core, 0, (1 << b) - 1):
            return None
        placement[:] = [-1] * pattern_blue.n
    return placement if extend(order, 0, (1 << b) - 1) else None


def matchjoin_cert(world: Graph, side_x: Sequence[int], side_y: Sequence[int]) -> GoodOrientationCert | None:
    """Certificate for a world spanning K_{a,b} whose missing edges on the y side
    fit inside a clique pair with a matching.

    Requires 3 <= a <= b <= 2a where a = |side_x|, b = |side_y|.  The missing
    edges among ``side_y`` (its complement within the world) are embedded into
    the clique-pair pattern; no embedding means no certificate.
    """
    xs, ys = list(side_x), list(side_y)
    a, b = len(xs), len(ys)
    if not 3 <= a <= b <= 2 * a or _cross_gap(world, xs, _mask(ys)) is not None:
        return None
    missing_y = complement(world.induced(ys))  # labels follow sorted(ys)
    ys_sorted = sorted(ys)
    placement = _embed_into_matchjoin(missing_y, a, b - a)
    if placement is None:
        return None
    # at_pos[p] = actual vertex sitting at clique-pair position p
    at_pos = [-1] * b
    for local, pos in enumerate(placement):
        at_pos[pos] = ys_sorted[local]
    x_mask = _mask(xs)
    first_clique = _mask(at_pos[:a])
    rows = [0] * world.n
    for x, y in zip(xs, at_pos[:a]):
        rows[x] |= 1 << y
        rows[y] |= x_mask & ~(1 << x)
    # second-clique position a + i points at x_i and at the first clique
    # wherever the world has the edge, except its match (left to the fill)
    for x, y, match in zip(xs, at_pos[a:], at_pos):
        rows[y] |= 1 << x | world.adj[y] & first_clique & ~(1 << match)
        for other in bits(x_mask & ~(1 << x)):
            rows[other] |= 1 << y
    cert = GoodOrientationCert(world, _orient_rest(world, rows), tuple(xs), tuple(ys), True)
    return cert if verify_cert(cert) else None


def split_cert(world: Graph, side_a: Sequence[int], side_b: Sequence[int]) -> GoodOrientationCert | None:
    """First non-trivial certificate for the given two-class split, if any.

    Tries the rotating window with the smaller side in the windowed role,
    then the clique-pair construction with either side as the x class.
    """
    small, large = (side_a, side_b) if len(side_a) <= len(side_b) else (side_b, side_a)
    if not split_sizes_ok(len(small), len(large)):
        return None
    cert = window_cert(world, small, large)
    if cert is not None:
        return cert
    for xs, ys in ((side_a, side_b), (side_b, side_a)):
        cert = matchjoin_cert(world, xs, ys)
        if cert is not None:
            return cert
    return None


def _lay_out(
    rows: list[int], red: Graph, cert: GoodOrientationCert, labels: Sequence[int], others: Sequence[int]
) -> tuple[int, int]:
    """Add ``cert``'s arcs to ``rows`` with its vertex i at ``labels[i]``, the
    i-th label outside the sorted ``others``; returns the certificate's two
    classes as masks over those labels.  Raises ValueError unless ``cert`` is
    a verified non-trivial certificate of ``red``'s graph on ``labels``."""
    inside = _mask(labels)
    world = cert.world.adj
    if len(world) != len(labels) or any(
        _spread(row, others) != red.adj[label] & inside for label, row in zip(labels, world)
    ):
        raise ValueError("certificate world does not match its part of the red graph")
    if not cert.nontrivial or not verify_cert(cert):
        raise ValueError("a certified part needs a verified non-trivial certificate")
    for label, row in zip(labels, cert.rows):
        rows[label] |= _spread(row, others)
    return _spread(_mask(cert.first), others), _spread(_mask(cert.second), others)


def _point(rows: list[int], sources: int, targets: int) -> None:
    """Add an arc from every vertex of the mask ``sources`` to every vertex of ``targets``."""
    for u in bits(sources):
        rows[u] |= targets


def combine(
    red: Graph,
    cert_w: GoodOrientationCert,
    z: Sequence[int],
    cert_z: GoodOrientationCert | None = None,
) -> tuple[int, ...]:
    """Extend a certified subset to a diameter-2 orientation of all of ``red``;
    returns its out-rows.

    ``z`` lists the leftover vertices; the rest of ``red`` is the certified
    set W and must match ``cert_w.world`` under sorted relabeling.  Every
    edge between the two parts must be present in ``red``.  The leftover's
    two classes are those of ``cert_z``, a non-trivial certificate of the
    red graph on ``z``, or without it the two vertices of ``z``; any other
    leftover raises ValueError.  The four classes are joined in the cycle
    W1 -> Z1 -> W2 -> Z2 -> W1.  A pair inside a certified part is within
    distance 2 by its certificate; every other pair is by the cycle,
    since each vertex of W has an in- and an out-neighbour in W's other
    class.  The inputs are checked; the rows are not, since the
    construction makes them a diameter-2 orientation.  A caller that
    hands them across a trust boundary checks them there.
    """
    z_sorted = sorted(set(z))
    w_sorted = sorted(set(range(red.n)) - set(z_sorted))
    if not z_sorted or not w_sorted:
        raise ValueError("both the certified set and the leftover set must be nonempty")
    if cert_z is None and len(z_sorted) != 2:
        raise ValueError(f"{len(z_sorted)} leftover vertices need a certificate")
    gap = _cross_gap(red, w_sorted, _mask(z_sorted))
    if gap is not None:
        raise ValueError(f"missing edge {gap[0]}-{gap[1]} between the certified set and the rest")

    rows = [0] * red.n
    first_w, second_w = _lay_out(rows, red, cert_w, w_sorted, z_sorted)
    if cert_z is None:
        first_z, second_z = 1 << z_sorted[0], 1 << z_sorted[1]
    else:
        first_z, second_z = _lay_out(rows, red, cert_z, z_sorted, w_sorted)
    _point(rows, first_w, first_z)
    _point(rows, first_z, second_w)
    _point(rows, second_w, second_z)
    _point(rows, second_z, first_w)
    return _orient_rest(red, rows)
