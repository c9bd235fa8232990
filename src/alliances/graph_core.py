"""Immutable simple graphs and vertex subsets, and the graph facts built on them.

A ``Graph`` computes its degree extremes, its common degree when regular,
its number of connected components and, when it is bipartite, the first of
its two colour classes once, at construction: they are the fields
``min_degree``, ``max_degree``, ``regular``, ``components`` and
``first_class``. The girth is a function that runs when called."""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "VertexSet",
    "girth",
    "MAX_ORDER",
]

# The largest order any graph may have. The spectral summary peaks at about
# five dense float64 n x n arrays, about 670 MB at this order.
MAX_ORDER = 4096


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the ceiling of {MAX_ORDER} vertices")


class Graph:
    """Simple undirected graph on vertex indices ``0..n-1``.

    Adjacency is stored twice: as sorted tuples for iteration and as
    per-vertex bitmasks so that counting a vertex's neighbors inside a
    subset is a single AND plus popcount. Instances are immutable after
    construction.

    Besides ``n`` and ``m``, construction computes ``min_degree``,
    ``max_degree``, ``regular`` (the common degree of a regular graph, else
    None), ``components`` (the number of connected components) and
    ``first_class``, once. ``first_class`` is None when the graph has an odd
    cycle; otherwise it is the bitmask of the smaller colour class of each
    component (the side of its least vertex on a tie), so it holds at most
    half of each component and no isolated vertex.

    Duplicate edges collapse silently; self-loops are rejected, and so is
    an order above ``MAX_ORDER``.
    """

    __slots__ = ("n", "m", "adjacency", "masks", "min_degree", "max_degree", "regular", "components", "first_class")

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
        degrees = [len(s) for s in neighbor_sets]
        self.n = n
        self.m = sum(degrees) // 2
        self.adjacency = adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        self.masks = masks = tuple(sum(1 << u for u in nbrs) for nbrs in adjacency)
        self.min_degree, self.max_degree = lo, hi = min(degrees), max(degrees)
        self.regular = lo if lo == hi else None
        # One BFS from each unseen vertex counts the components and colours
        # each vertex by the parity of its depth. Until an odd cycle is met,
        # sides[c] is the mask of the component's colour-c vertices found so
        # far. A vertex is popped only once every vertex of its depth has
        # been found, so a neighbour on its own side is an edge inside one
        # depth, which closes an odd cycle; from then on first_class is None
        # and the BFS only counts.
        colour = [-1] * n
        count = 0
        first_class: int | None = 0
        for root in range(n):
            if colour[root] != -1:
                continue
            count += 1
            colour[root] = 0
            component = [root]
            sides = [1 << root, 0]
            for u in component:  # grows as the BFS appends to it
                cu = colour[u]
                other = 1 - cu
                if first_class is not None and masks[u] & sides[cu]:
                    first_class = None
                for w in adjacency[u]:
                    if colour[w] == -1:
                        colour[w] = other
                        component.append(w)
                        if first_class is not None:
                            sides[other] |= 1 << w
            if first_class is not None:
                # The smaller side, the root's on a tie.
                first_class |= sides[1] if 2 * sides[1].bit_count() < len(component) else sides[0]
        self.components = count
        self.first_class = first_class

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

