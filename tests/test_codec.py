import random

import pytest
from hypothesis import given, strategies as st

from conftest import complete_graph, petersen
from orient2.codec import (
    GraphFormatError,
    _decode_order,
    _encode_order,
    emit_digraph6,
    emit_graph6,
    emit_orientation,
    is_edge_list,
    parse_digraph6,
    parse_edgelist,
    parse_graph,
    parse_graph6,
)
from orient2.graphs import Digraph, Graph, Orientation


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs) if pairs else st.nothing(), max_size=len(pairs)))
    return Graph.from_edges(n, edges)


class TestGraph6:
    def test_k2_encoding(self):
        assert emit_graph6(complete_graph(2)) == "A_"

    def test_single_vertex(self):
        assert emit_graph6(Graph.from_edges(1, [])) == "@"

    def test_known_roundtrip(self):
        assert emit_graph6(parse_graph6("D?{")) == "D?{"

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")

    def test_star_decodes_correctly(self):
        g = parse_graph6("D?{")
        assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]

    @given(graphs())
    def test_roundtrip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_trailing_bytes_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D?{?")

    def test_truncated_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D?")

    def test_characters_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D?\x19")

    def test_too_many_vertices_rejected(self):
        with pytest.raises(GraphFormatError):
            emit_graph6(Graph.from_edges(258048, []))

    def test_long_order_header(self):
        # B. McKay, formats.txt: N(12345) = ~B?x
        assert _encode_order(12345) == "~B?x"
        assert _decode_order("~B?x") == (12345, "")
        assert emit_graph6(Graph.from_edges(62, []))[0] == chr(62 + 63)
        assert emit_graph6(Graph.from_edges(63, [])).startswith("~??~")

    @pytest.mark.parametrize("n", [62, 63, 100])
    def test_roundtrip_across_the_long_header(self, n):
        rng = random.Random(n)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        text = emit_graph6(g)
        assert text.startswith("~") == (n > 62)
        assert parse_graph6(text) == g
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        d = Digraph.from_arcs(n, arcs)
        assert parse_digraph6(emit_digraph6(d)) == d

    @pytest.mark.parametrize("text", ["~", "~B", "~B?", "~B\x19x", "~~??????"])
    def test_bad_long_header_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph6(text)

    def test_escaped_payload_byte_is_reported_as_read(self):
        # a byte that is not ASCII arrives as its surrogate escape, U+DC80..U+DCFF
        with pytest.raises(GraphFormatError, match="byte 195 outside"):
            parse_graph6("D\udcc3?")

    def test_lying_header_rejected_by_length(self):
        # a 12345-vertex header over a one-byte payload fails the length check
        with pytest.raises(GraphFormatError, match="expected"):
            parse_graph6("~B?x?")

    def test_empty_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")


# The bit-list codecs as first written, kept as references for the
# row-based ones: one list entry per matrix bit, packed six at a time.


def ref_pack(bitlist):
    chars = []
    for start in range(0, len(bitlist), 6):
        group = bitlist[start : start + 6]
        group += [0] * (6 - len(group))
        value = 0
        for b in group:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def ref_unpack(payload, nbits):
    expected_chars = (nbits + 5) // 6
    if len(payload) != expected_chars:
        raise GraphFormatError(
            f"payload holds {len(payload)} bytes, expected {expected_chars} for {nbits} bits"
        )
    out = []
    for ch in payload:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise GraphFormatError(f"byte {code!r} outside printable graph6 range 63..126")
        out.extend((code - 63) >> shift & 1 for shift in range(5, -1, -1))
    if any(out[nbits:]):
        raise GraphFormatError("nonzero padding bits")
    return out[:nbits]


def ref_emit_graph6(g):
    bitlist = [1 if g.has_edge(u, v) else 0 for v in range(1, g.n) for u in range(v)]
    return _encode_order(g.n) + ref_pack(bitlist)


def ref_parse_graph6(text):
    n, payload = _decode_order(text)
    bitlist = iter(ref_unpack(payload, n * (n - 1) // 2))
    return Graph.from_edges(n, [(u, v) for v in range(1, n) for u in range(v) if next(bitlist)])


def ref_emit_digraph6(d):
    bitlist = [d.out[u] >> v & 1 for u in range(d.n) for v in range(d.n)]
    return "&" + _encode_order(d.n) + ref_pack(bitlist)


def ref_parse_digraph6(text):
    n, payload = _decode_order(text[1:])
    bitlist = ref_unpack(payload, n * n)
    arcs = []
    for i, bit in enumerate(bitlist):
        if bit:
            u, v = divmod(i, n)
            if u == v:
                raise GraphFormatError(f"self-arc at vertex {u}")
            arcs.append((u, v))
    return Digraph.from_arcs(n, arcs)


def outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


class TestAgainstBitListReference:
    def test_seeded_roundtrips_across_the_long_header(self):
        rng = random.Random(1470)
        for n in range(71):
            for density in (0.0, 0.3, 1.0, rng.random()):
                pairs = [(u, v) for v in range(n) for u in range(v)]
                g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
                text = emit_graph6(g)
                assert text == ref_emit_graph6(g)
                assert parse_graph6(text) == ref_parse_graph6(text) == g
                arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
                d = Digraph.from_arcs(n, arcs)
                text = emit_digraph6(d)
                assert text == ref_emit_digraph6(d)
                assert parse_digraph6(text) == ref_parse_digraph6(text) == d

    @pytest.mark.parametrize(
        "text",
        [
            "D?{?",  # wrong length
            "D?",
            "~??~" + "?" * 10,
            "D?\x19",  # byte out of range
            "D\x7f{",
            "B\x80",
            "A`",  # nonzero padding
            "B~",
            "~??~" + "?" * 325 + "@",
        ],
    )
    def test_graph6_errors_unchanged(self, text):
        expected = outcome(ref_parse_graph6, text)
        assert isinstance(expected, str)
        assert outcome(parse_graph6, text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "&B?",  # wrong length
            "&B????",
            "&B?\x19",  # byte out of range
            "&B_?",  # self-arc at vertex 0
            "&BQ?",  # the arc 0->1, then a self-arc at vertex 1
            "&B?G",  # self-arc at vertex 2
            "&A_",
            "&A@",  # nonzero padding
        ],
    )
    def test_digraph6_errors_unchanged(self, text):
        expected = outcome(ref_parse_digraph6, text)
        assert isinstance(expected, str)
        assert outcome(parse_digraph6, text) == expected


class TestDigraph6:
    def test_roundtrip_petersen_orientation(self):
        g = petersen()
        arcs = [(u, v) for u, v in g.edges()]
        o = Orientation.from_arcs(g, arcs)
        encoded = emit_orientation(o)
        assert encoded.startswith("&")
        assert parse_digraph6(encoded) == o.dir

    @given(graphs(max_n=9), st.randoms(use_true_random=False))
    def test_roundtrip_random_digraphs(self, g, rng):
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        d = Digraph.from_arcs(g.n, arcs)
        assert parse_digraph6(emit_digraph6(d)) == d

    def test_header_accepted(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        encoded = emit_digraph6(d)
        assert parse_digraph6(">>digraph6<<" + encoded) == d

    def test_missing_amp_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_digraph6("D?{")


class TestEdgeList:
    def test_basic(self):
        g = parse_edgelist("3 2\n0 1\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_autodetect(self):
        assert parse_graph("3 2\n0 1\n1 2") == parse_edgelist("3 2\n0 1\n1 2")
        assert parse_graph("D?{") == parse_graph6("D?{")

    @pytest.mark.parametrize("text", ["5", "-5 1\n0 1", "5 0 x", " 7\n"])
    def test_a_leading_integer_makes_an_edge_list(self, text):
        assert is_edge_list(text)
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert "length byte" not in str(exc.value)

    @pytest.mark.parametrize("text", ["", "D?{", "&D?????", ">>graph6<<D?{", "~??~", "-", "x 1"])
    def test_graph6_and_digraph6_are_not_edge_lists(self, text):
        assert not is_edge_list(text)

    @given(graphs())
    def test_emitted_text_is_never_an_edge_list(self, g):
        assert not is_edge_list(emit_graph6(g))
        assert not is_edge_list(emit_digraph6(Digraph(g.n, g.adj)))

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("3 2\n0 1\n")

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("3 x\n0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 1\n0 1", "edge list repeats edge 0-1"),
            ("3 2\n0 1\n1 0", "edge list repeats edge 0-1"),
            ("4 3\n2 3\n0 1\n3 2", "edge list repeats edge 2-3"),
            ("3 1\n0 0", "self-loop at vertex 0"),
            ("3 1\n0 5", "edge 0-5 outside 0..2"),
        ],
    )
    def test_bad_edges_rejected(self, text, message):
        for parse in (parse_edgelist, parse_graph):
            with pytest.raises(GraphFormatError) as exc:
                parse(text)
            assert str(exc.value) == message

    def test_order_limit_matches_graph6(self):
        assert parse_edgelist("63 1\n0 62\n").edges() == [(0, 62)]
        with pytest.raises(GraphFormatError, match="258047"):
            parse_edgelist("258048 0\n")
