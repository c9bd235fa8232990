"""Graph ingestion and serialization: whitespace edge lists and graph6.

Edge lists: one edge per line as two whitespace-separated labels (arbitrary
tokens). A line with a single token declares an isolated vertex, which keeps
the format lossless for disconnected graphs. Duplicate edges collapse
silently; self-loops are a parse error.

graph6: the standard printable 6-bit encoding (B. D. McKay, "graph6 and
sparse6 graph formats", distributed with nauty) with its 1-byte order form
for n <= 62, its 4-byte form for 63 <= n <= MAX_ORDER and the optional
``>>graph6<<`` header. The 8-byte form starts at n = 258048, above
``MAX_ORDER``, and is refused. The order field and the body are bit strings
packed six bits to a character, most significant first, each sextet offset
by 63. The body lists the pairs column by column: column j holds the pairs
(i, j) with i < j, in increasing i. Its last character is zero-padded, and
padding bits are ignored on reading.

``parse_graph`` is the one place that decides which of the two formats an
input is in.
"""

from __future__ import annotations

from .graph_core import MAX_ORDER, Graph

__all__ = [
    "ParseError",
    "parse_edgelist",
    "parse_graph6",
    "parse_graph",
    "write_edgelist",
    "write_graph6",
]

GRAPH6_HEADER = ">>graph6<<"
FORMATS = ("auto", "edgelist", "graph6")


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_edgelist(text: str) -> tuple[Graph, tuple[str, ...]]:
    """Parse a whitespace edge list; returns the graph and its label table.

    Vertex indices follow first appearance order of the labels.
    """
    labels: dict[str, int] = {}

    def vertex(token: str) -> int:
        if token not in labels:
            labels[token] = len(labels)
        return labels[token]

    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            vertex(tokens[0])
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected one or two tokens, got {len(tokens)}", line=lineno)
        u, v = vertex(tokens[0]), vertex(tokens[1])
        if u == v:
            raise ParseError(f"self-loop at vertex {tokens[0]!r}", line=lineno)
        edges.append((u, v))
    if not labels:
        raise ParseError("no vertices found in edge list input")
    return Graph(len(labels), edges), tuple(labels)


def _bits(text: str) -> str:
    """Six bits per graph6 character, most significant first."""
    return "".join(format(ord(ch) - 63, "06b") for ch in text)


def _chars(bits: str) -> str:
    """One graph6 character per six bits, zero-padded to whole sextets."""
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))


def _graph6_layout(token: str) -> tuple[int, str] | str:
    """Split one graph6 token, header removed, into its order and body, or
    return why it is not laid out as graph6. An order field above
    ``MAX_ORDER`` raises: the token is graph6, but too large to build."""
    if not token:
        return "empty graph6 input"
    for offset, ch in enumerate(token):
        if not 63 <= ord(ch) <= 126:
            return f"invalid graph6 byte {ch!r} at offset {offset}"
    if token.startswith("~~"):  # the 8-byte form starts at n = 258048
        raise ParseError(f"graph6 order field '~~' names n >= 258048, above the ceiling of {MAX_ORDER} vertices")
    if token[0] == "~":
        if len(token) < 4:
            return "truncated graph6 order field"
        field, body = token[1:4], token[4:]
    else:
        field, body = token[0], token[1:]
    n = int(_bits(field), 2)
    if n > MAX_ORDER:
        raise ParseError(f"graph6 order {n} exceeds the ceiling of {MAX_ORDER} vertices")
    if n < 1:
        return f"graph6 order {n} is not supported (need n >= 1)"
    chars_needed = (n * (n - 1) // 2 + 5) // 6
    if len(body) != chars_needed:
        return f"graph6 body for n={n} needs {chars_needed} characters, got {len(body)}"
    return n, body


def _graph6_decode(layout: tuple[int, str] | str) -> Graph:
    if isinstance(layout, str):
        raise ParseError(layout)
    n, body = layout
    bits = _bits(body)
    edges: list[tuple[int, int]] = []
    for j in range(1, n):
        column = bits[j * (j - 1) // 2 : j * (j + 1) // 2]
        edges += [(i, j) for i, bit in enumerate(column) if bit == "1"]
    return Graph(n, edges)


def parse_graph6(data: str) -> Graph:
    """Decode one graph6 line (header optional)."""
    return _graph6_decode(_graph6_layout(data.strip().removeprefix(GRAPH6_HEADER)))


def parse_graph(data: str, fmt: str = "auto", name: str = "") -> tuple[Graph, tuple[str, ...] | None]:
    """Parse ``data`` as ``fmt``, one of ``FORMATS``; labels exist only for
    edge lists. ``name`` is the input's file name, if it has one.

    One leading byte-order mark is dropped first. ``auto`` reads graph6 when
    the name ends in ``.g6`` or ``.graph6``, when the text opens with the
    ``>>graph6<<`` header, or when every non-blank line is one token laid out
    as graph6; anything else is an edge list. A graph6 input must hold
    exactly one graph.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}")
    data = data.removeprefix("\ufeff")
    if fmt == "edgelist":
        return parse_edgelist(data)
    text = data.strip()
    lines = [line.strip() for line in text.removeprefix(GRAPH6_HEADER).splitlines() if line.strip()]
    layouts = None
    if fmt == "auto" and not (text.startswith(GRAPH6_HEADER) or name.endswith((".g6", ".graph6"))):
        # Every line must be a lone token before any is read as graph6, so
        # an edge list never meets the order-field ceiling.
        if not lines or any(len(line.split()) > 1 for line in lines):
            return parse_edgelist(data)
        layouts = [_graph6_layout(line) for line in lines]
        if any(isinstance(layout, str) for layout in layouts):
            return parse_edgelist(data)
    if len(lines) > 1:
        raise ParseError(f"graph6 input holds {len(lines)} graphs, one per line; analyze reads one graph")
    if not lines:
        raise ParseError("empty graph6 input")
    return _graph6_decode(layouts[0] if layouts else _graph6_layout(lines[0])), None


def write_edgelist(g: Graph, labels: tuple[str, ...] | None = None) -> str:
    """Serialize a graph as an edge list (isolated vertices as single tokens)."""
    if labels is None:
        labels = tuple(str(v) for v in range(g.n))
    lines = [f"{labels[u]} {labels[v]}" for u, v in g.edges()]
    lines += [labels[v] for v in range(g.n) if not g.adjacency[v]]
    return "\n".join(lines) + "\n"


def write_graph6(g: Graph) -> str:
    """Serialize a graph in graph6 form."""
    n = g.n
    # n <= MAX_ORDER, so the 4-byte form always suffices
    head = _chars(format(n, "06b")) if n < 63 else "~" + _chars(format(n, "018b"))
    columns = (format(g.masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    return head + _chars("".join(columns))
