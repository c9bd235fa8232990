"""Graph ingestion and serialization: whitespace edge lists and graph6.

Edge lists: one edge per line as two whitespace-separated labels (arbitrary
tokens). A line with a single token declares an isolated vertex, which keeps
the format lossless for disconnected graphs. Duplicate edges collapse
silently; self-loops are a parse error.

graph6: the standard printable 6-bit encoding, including the 4-byte and
8-byte order forms for n >= 63 and the optional ``>>graph6<<`` header.
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


def _graph6_order(data: str) -> tuple[int, str]:
    """Decode the leading order field; returns (n, remaining characters)."""
    if data[0] != "~":
        return ord(data[0]) - 63, data[1:]
    if len(data) >= 2 and data[1] != "~":
        if len(data) < 4:
            raise ParseError("truncated graph6 order field")
        n = 0
        for ch in data[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        return n, data[4:]
    if len(data) < 8:
        raise ParseError("truncated graph6 order field")
    n = 0
    for ch in data[2:8]:
        n = (n << 6) | (ord(ch) - 63)
    return n, data[8:]


def parse_graph6(data: str | bytes) -> Graph:
    """Decode one graph6 line (header optional)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph6 input is not ASCII: {exc}") from None
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data:
        raise ParseError("empty graph6 input")
    for offset, ch in enumerate(data):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 byte {ch!r} at offset {offset}")
    n, body = _graph6_order(data)
    if n < 1:
        raise ParseError(f"graph6 order {n} is not supported (need n >= 1)")
    if n > MAX_ORDER:
        raise ParseError(f"graph6 order {n} exceeds the ceiling of {MAX_ORDER} vertices")
    bits_needed = n * (n - 1) // 2
    chars_needed = (bits_needed + 5) // 6
    if len(body) != chars_needed:
        raise ParseError(
            f"graph6 body for n={n} needs {chars_needed} characters, got {len(body)}"
        )
    edges: list[tuple[int, int]] = []
    index = 0  # position in the bit stream: pairs (i, j), j ascending, i < j
    for j in range(1, n):
        for i in range(j):
            char_value = ord(body[index // 6]) - 63
            if (char_value >> (5 - index % 6)) & 1:
                edges.append((i, j))
            index += 1
    return Graph(n, edges)


def parse_graph(data: str | bytes, fmt: str) -> tuple[Graph, tuple[str, ...] | None]:
    """Parse ``data`` as ``fmt`` ('edgelist' or 'graph6'); labels only exist
    for edge lists."""
    if fmt == "edgelist":
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        graph, labels = parse_edgelist(data)
        return graph, labels
    if fmt == "graph6":
        return parse_graph6(data), None
    raise ValueError(f"unknown graph format {fmt!r}")


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
    if n < 63:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0))
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
                  | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]))
        for k in range(0, len(bits), 6)
    )
    return head + body
