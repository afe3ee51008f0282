"""graph6 / digraph6 text codecs (n <= 258,047) and an edge-list reader.

graph6 packs the upper triangle of the adjacency matrix in column order
(0,1), (0,2), (1,2), (0,3), ... into big-endian 6-bit groups offset by 63.
digraph6 is '&' plus the full n*n matrix in row-major order.  The order
comes first: one byte n + 63 for n <= 62, else '~' and three bytes
holding n as an 18-bit big-endian number (B. McKay, *formats.txt*).
"""

from __future__ import annotations

from .graphs import Digraph, Graph, Orientation, _unchecked, in_rows

GRAPH6_HEADER = ">>graph6<<"
DIGRAPH6_HEADER = ">>digraph6<<"

SHORT_ORDER_MAX = 62
MAX_VERTICES = 258047  # largest order with a four-byte header; the eight-byte form is not read


class GraphFormatError(ValueError):
    """Raised for malformed graph6/digraph6/edge-list input."""


# one graph6 byte per 6-bit group, most significant bit first
_SEXTETS = {chr(code + 63): format(code, "06b") for code in range(64)}
_BYTES = {sextet: byte for byte, sextet in _SEXTETS.items()}


def _byte(ch: str) -> int:
    """The byte read as ``ch``; a byte that is not ASCII arrives as its surrogate escape."""
    code = ord(ch)
    return code - 0xDC00 if 0xDC80 <= code <= 0xDCFF else code


def _shown(text: str) -> str:
    """``text`` quoted, each character outside printable ASCII as ``\\x`` and the hex of its `_byte`."""
    return "'" + "".join([ch if " " <= ch <= "~" else f"\\x{_byte(ch):02x}" for ch in text]) + "'"


def _pack_bits(bitstring: str) -> str:
    bitstring += "0" * (-len(bitstring) % 6)
    return "".join([_BYTES[bitstring[i : i + 6]] for i in range(0, len(bitstring), 6)])


def _unpack_bits(payload: str, nbits: int) -> str:
    """The first ``nbits`` bits of ``payload`` as a string of '0' and '1'."""
    expected_chars = (nbits + 5) // 6
    if len(payload) != expected_chars:
        raise GraphFormatError(
            f"payload holds {len(payload)} bytes, expected {expected_chars} for {nbits} bits"
        )
    try:
        bitstring = "".join([_SEXTETS[ch] for ch in payload])
    except KeyError as exc:
        raise GraphFormatError(f"byte {_byte(exc.args[0])!r} outside printable graph6 range 63..126") from None
    if "1" in bitstring[nbits:]:
        raise GraphFormatError("nonzero padding bits")
    return bitstring[:nbits]


def _encode_order(n: int) -> str:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"only graphs with at most {MAX_VERTICES} vertices are supported")
    if n <= SHORT_ORDER_MAX:
        return chr(n + 63)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def _decode_order(text: str) -> tuple[int, str]:
    if not text:
        raise GraphFormatError("empty input")
    if text[0] != "~":
        code = ord(text[0])
        if not 63 <= code <= 125:
            raise GraphFormatError(f"bad length byte {_byte(text[0])!r}")
        return code - 63, text[1:]
    if text[1:2] == "~":
        raise GraphFormatError(f"graphs with more than {MAX_VERTICES} vertices are not supported")
    head = text[1:4]
    if len(head) < 3 or not all(63 <= ord(ch) <= 126 for ch in head):
        raise GraphFormatError(f"bad long order header {_shown(text[:4])}")
    n = 0
    for ch in head:
        n = n << 6 | ord(ch) - 63
    return n, text[4:]


def emit_graph6(g: Graph) -> str:
    # column v of the upper triangle is row v's bits 0..v-1, lowest first
    columns = (format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    return _encode_order(g.n) + _pack_bits("".join(columns))


def parse_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER) :]
    n, payload = _decode_order(data)
    bitstring = _unpack_bits(payload, n * (n - 1) // 2)
    # row v's neighbours below v are column v of the upper triangle, reversed
    lower = [int("0" + bitstring[v * (v - 1) // 2 : v * (v + 1) // 2][::-1], 2) for v in range(n)]
    upper = in_rows(lower)
    return _unchecked(n, tuple([low | up for low, up in zip(lower, upper)]))


def emit_digraph6(d: Digraph) -> str:
    rows = (format(row, f"0{d.n}b")[::-1] for row in d.out)
    return "&" + _encode_order(d.n) + _pack_bits("".join(rows))


def parse_digraph6(text: str) -> Digraph:
    data = text.strip()
    if data.startswith(DIGRAPH6_HEADER):
        data = data[len(DIGRAPH6_HEADER) :]
    if not data.startswith("&"):
        raise GraphFormatError("digraph6 input must start with '&'")
    n, payload = _decode_order(data[1:])
    bitstring = _unpack_bits(payload, n * n)
    rows = tuple([int(bitstring[u * n : (u + 1) * n][::-1], 2) for u in range(n)])
    for u, row in enumerate(rows):
        if row >> u & 1:
            raise GraphFormatError(f"self-arc at vertex {u}")
    return Digraph(n, rows)


def emit_orientation(o: Orientation) -> str:
    return emit_digraph6(o.dir)


def parse_edgelist(text: str) -> Graph:
    """Read the plain format ``n m`` on the first line then one ``u v`` per edge line, each edge once."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs at least 'n m' header values")
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise GraphFormatError(f"non-integer token in edge list: {_shown(token)}") from None
    n, m = values[0], values[1]
    if n < 0 or m < 0:
        raise GraphFormatError("negative vertex or edge count")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graphs with more than {MAX_VERTICES} vertices are not supported")
    if len(values) != 2 + 2 * m:
        raise GraphFormatError(f"expected {2 * m} endpoint values, found {len(values) - 2}")
    pairs = list(zip(values[2::2], values[3::2]))
    try:
        g = Graph.from_edges(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    if g.m < m:  # some edge came twice; name the first repeat
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise GraphFormatError(f"edge list repeats edge {edge[0]}-{edge[1]}")
            seen.add(edge)
    return g


def is_edge_list(text: str) -> bool:
    """Whether ``text`` is read as an edge list: its first token is an
    integer, optionally negative.  graph6 and digraph6 text never starts
    with a digit or '-'."""
    tokens = text.split(maxsplit=1)
    return bool(tokens) and tokens[0].removeprefix("-").isdecimal()


def parse_graph(text: str) -> Graph:
    """Accept graph6 (with optional header) or the plain edge-list format."""
    stripped = text.strip()
    if not stripped:
        raise GraphFormatError("empty input")
    if is_edge_list(stripped):
        return parse_edgelist(stripped)
    return parse_graph6(stripped)
