"""Immutable simple graphs and vertex subsets, and the graph facts (girth, connectivity, degrees) built on them."""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Graph",
    "VertexSet",
    "DegreeStats",
    "girth",
    "is_connected",
    "degree_stats",
    "MAX_ORDER",
]

# The largest order any graph may have. An ``analyze`` holds three dense
# float64 n x n arrays, about 400 MB at this order.
MAX_ORDER = 4096


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the ceiling of {MAX_ORDER} vertices")


class Graph:
    """Simple undirected graph on vertex indices ``0..n-1``.

    Adjacency is stored twice: as sorted tuples for iteration and as
    per-vertex bitmasks so that counting a vertex's neighbors inside a
    subset is a single AND plus popcount. Instances are immutable after
    construction and safe to share between threads.

    Duplicate edges collapse silently; self-loops are rejected, and so is
    an order above ``MAX_ORDER``.
    """

    __slots__ = ("n", "m", "adjacency", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError(f"graph must have at least one vertex, got n={n}")
        _check_order(n)
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.m = sum(len(s) for s in neighbor_sets) // 2
        self.adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        self.masks = tuple(sum(1 << u for u in nbrs) for nbrs in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.masks[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class VertexSet:
    """Immutable subset of vertex indices backed by a bitmask.

    Complements are never stored; operations that need the outside of a
    set derive it from the graph's order.
    """

    __slots__ = ("mask", "size")

    def __init__(self, members: Iterable[int] = ()) -> None:
        mask = 0
        for v in members:
            if v < 0:
                raise ValueError(f"negative vertex index {v}")
            mask |= 1 << v
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        vs = cls.__new__(cls)
        vs.mask = mask
        vs.size = mask.bit_count()
        return vs

    def __contains__(self, v: int) -> bool:
        return v >= 0 and bool((self.mask >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}})"


class DegreeStats(NamedTuple):
    min_degree: int
    max_degree: int
    regular: int | None  # the common degree when the graph is regular


def _check_set(g: Graph, s: VertexSet) -> None:
    if s.mask >> g.n:
        raise ValueError(f"vertex set {s!r} contains indices >= n={g.n}")


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or ``math.inf`` for forests.

    BFS from every vertex; each non-tree edge met at distance d closes a
    walk of length ``dist[u] + dist[w] + 1`` through the root, which is an
    upper bound on the girth and exact for roots lying on a shortest cycle.
    """
    best: int | float = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue: deque[int] = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du >= best:  # any candidate from here is >= 2*du
                continue
            for w in g.adjacency[u]:
                if dist[w] == -1:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        if best == 3:
            break
    return best


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all vertices."""
    seen = [False] * g.n
    seen[0] = True
    queue: deque[int] = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def degree_stats(g: Graph) -> DegreeStats:
    """Minimum and maximum degree, plus the common degree for regular graphs."""
    degrees = [len(nbrs) for nbrs in g.adjacency]
    lo, hi = min(degrees), max(degrees)
    return DegreeStats(lo, hi, lo if lo == hi else None)
