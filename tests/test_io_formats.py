import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from alliances import generators
from alliances.graph_core import MAX_ORDER, Graph
from alliances.io_formats import (
    ParseError,
    parse_edgelist,
    parse_graph,
    parse_graph6,
    write_edgelist,
    write_graph6,
)

from corpus import edgeless_graph6
from strategies import graphs


class TestEdgelist:
    def test_path_with_labels(self):
        g, labels = parse_edgelist("a b\nb c\n")
        assert g == generators.path(3)
        assert labels == ("a", "b", "c")

    def test_duplicate_edge_collapses(self):
        g, _ = parse_edgelist("a b\na b\n")
        assert (g.n, g.m) == (2, 1)

    def test_isolated_vertex_line(self):
        g, labels = parse_edgelist("a b\nc\n")
        assert (g.n, g.m) == (3, 1)
        assert labels == ("a", "b", "c")

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edgelist("a b\nc c\n")

    def test_too_many_tokens_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edgelist("a b c\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no vertices"):
            parse_edgelist("\n\n")

    def test_round_trip_with_isolated_vertices(self):
        # indices are reassigned by appearance order, but the label map
        # carries the original identity of every vertex
        g = generators.gnp(9, 0.25, seed=5)
        parsed, labels = parse_edgelist(write_edgelist(g))
        assert parsed.n == g.n
        mapped = {tuple(sorted((int(labels[u]), int(labels[v])))) for u, v in parsed.edges()}
        assert mapped == set(g.edges())


class TestGraph6:
    def test_k2_reference_encoding(self):
        # 'A_' is the standard single-edge graph on 2 vertices
        assert parse_graph6("A_") == generators.complete(2)
        assert write_graph6(generators.complete(2)) == "A_"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == generators.complete(2)

    def test_k4(self):
        assert parse_graph6("C~") == generators.complete(4)

    def test_round_trip_corpus(self, corpus):
        for name, g in corpus.items():
            assert parse_graph6(write_graph6(g)) == g, name

    def test_round_trip_large_order_form(self):
        g = generators.gnp(80, 0.1, seed=12)  # needs the '~' 18-bit order form
        encoded = write_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g

    def test_padding_bits_are_ignored(self):
        # '`' is the sextet 100001: the edge (0, 1), then five padding bits, the last set
        assert parse_graph6("A`") == generators.complete(2)
        # n = 63 takes 1953 bits: three padding bits in the last sextet
        g = generators.gnp(63, 0.1, seed=63)
        encoded = write_graph6(g)
        padded = encoded[:-1] + chr(63 + ((ord(encoded[-1]) - 63) | 0b111))
        assert encoded.startswith("~") and padded != encoded
        assert parse_graph6(padded) == g

    def test_round_trip_at_the_ceiling(self):
        g = generators.path(MAX_ORDER)
        assert parse_graph6(write_graph6(g)) == g

    def test_invalid_byte_offset_reported(self):
        with pytest.raises(ParseError, match="offset 1"):
            parse_graph6("A!")

    def test_truncated_body(self):
        with pytest.raises(ParseError, match="needs"):
            parse_graph6("D?")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_graph6("   ")


class TestParseGraphDispatch:
    def test_edgelist(self):
        g, labels = parse_graph("x y\n", "edgelist")
        assert g.m == 1 and labels == ("x", "y")

    def test_graph6_has_no_labels(self):
        g, labels = parse_graph("A_", "graph6")
        assert g.m == 1 and labels is None

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_graph("A_", "gml")

    @pytest.mark.parametrize(
        ("text", "name", "n", "labels"),
        [
            ("IheA@GUAo\n", "", 10, None),
            (">>graph6<<IheA@GUAo\n", "", 10, None),
            ("\n  IheA@GUAo  \r\n\n", "", 10, None),
            ("C~\n", "k4.graph6", 4, None),
            ("v\n", "", 1, ("v",)),
            ("?\n", "", 1, ("?",)),  # order 0 is not a graph6 layout
            ("a b\nb c\n", "", 3, ("a", "b", "c")),
            ("A_ C~\n", "", 2, ("A_", "C~")),  # two graph6 tokens on a line
            ("IheA@GUAo\nv\n", "", 2, ("IheA@GUAo", "v")),
            ("a b\n~~~~~~~~\n", "", 3, ("a", "b", "~~~~~~~~")),
        ],
        ids=(
            "bare-line", "header", "blank-lines", "named", "lone-token", "order-zero",
            "edgelist", "two-tokens", "one-line-not-graph6", "lone-token-among-edges",
        ),
    )
    def test_auto(self, text, name, n, labels):
        g, got = parse_graph(text, name=name)
        assert g.n == n and got == labels

    @pytest.mark.parametrize(
        ("text", "name", "message"),
        [
            (edgeless_graph6(MAX_ORDER + 1), "", f"order {MAX_ORDER + 1} exceeds the ceiling"),
            ("~~" + "~" * 6 + "?", "", "ceiling"),
            ("IheA@GUAo\nA_\n", "", "holds 2 graphs"),
            ("IheA@GUAo\nA_\n", "two.g6", "holds 2 graphs"),
            ("A!\n", "bad.g6", "offset 1"),
            (">>graph6<<D?\n", "", "needs"),
        ],
        ids=("above-ceiling", "eight-byte-order", "two-graphs", "two-graphs-named", "named-bad-byte", "headed-short-body"),
    )
    def test_auto_graph6_errors_reach_the_caller(self, text, name, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text, name=name)

    def test_forced_graph6_counts_graphs(self):
        with pytest.raises(ParseError, match="holds 3 graphs"):
            parse_graph("A_\nA_\nA_\n", "graph6")

    def test_forced_edgelist_never_reads_graph6(self):
        g, labels = parse_graph(edgeless_graph6(MAX_ORDER + 1), "edgelist")
        assert g.n == 1 and labels is not None

    @pytest.mark.parametrize("fmt", ["auto", "edgelist"])
    def test_byte_order_mark_is_dropped(self, fmt):
        _, labels = parse_graph("\ufeffa b\nb c\n", fmt)
        assert labels == ("a", "b", "c")

    def test_byte_order_mark_before_graph6(self):
        g, labels = parse_graph("\ufeffIheA@GUAo\n")
        assert g == generators.petersen() and labels is None


# graph6 bytes, digits, blanks and the header, plus graph6 lines whole and
# one byte short: enough to reach every branch of the format rule and of
# both decoders.
_GRAPH6_LINE = graphs(min_n=1, max_n=12).map(write_graph6)
_FUZZ_TEXT = st.lists(
    st.one_of(
        _GRAPH6_LINE,
        _GRAPH6_LINE.map(lambda line: line[:-1]),
        st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=12),
        st.sampled_from(["0", "1", "17", " ", "\t", "\n", "\r\n", ">>graph6<<", "~", "~~", "\ufeff"]),
    ),
    max_size=6,
).map("".join)


class TestParseGraphFuzz:
    @given(_FUZZ_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_graph_or_parse_error(self, text):
        try:
            g, _ = parse_graph(text)
        except ParseError:
            return
        assert isinstance(g, Graph)

    @given(graphs(min_n=1))
    @settings(max_examples=40, deadline=None)
    def test_graph6_round_trip(self, g):
        assert parse_graph(write_graph6(g)) == (g, None)

    @given(graphs(min_n=1))
    @settings(max_examples=40, deadline=None)
    def test_edgelist_keeps_order_and_size(self, g):
        parsed, _ = parse_graph(write_edgelist(g))
        assert (parsed.n, parsed.m) == (g.n, g.m)


def test_write_edgelist_uses_labels():
    g = Graph(3, [(0, 1), (1, 2)])
    text = write_edgelist(g, labels=("x", "y", "z"))
    assert text.splitlines() == ["x y", "y z"]
