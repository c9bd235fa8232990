"""Deterministic constructors for named graphs plus parametric and random families."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

from .graph_core import Graph

__all__ = [
    "FAMILIES",
    "GraphFamilySpec",
    "build",
    "complete",
    "complete_bipartite",
    "cycle",
    "path",
    "grid",
    "hypercube",
    "petersen",
    "icosahedron",
    "complete_minus_matching",
    "bowtie",
    "join",
    "disjoint_union",
    "gnp",
    "random_regular",
]


@dataclass(frozen=True)
class GraphFamilySpec:
    """Recipe for a deterministic graph construction.

    ``join`` and ``disjoint_union`` combine two child specs; every other
    family takes numeric parameters. ``seed`` only matters for the random
    families and is part of the recipe's identity.
    """

    family: str
    params: tuple[int | float, ...] = ()
    seed: int | None = None
    children: tuple["GraphFamilySpec", ...] = ()


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite graph needs both parts >= 1, got ({a}, {b})")
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def grid(rows: int, cols: int) -> Graph:
    """Cartesian product of two paths: the rows x cols grid."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs positive dimensions, got ({rows}, {cols})")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube: vertices are bitstrings, edges flip one bit."""
    if d < 0:
        raise ValueError(f"hypercube dimension must be >= 0, got {d}")
    n = 1 << d
    return Graph(n, ((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)))


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


# Icosahedron with apexes 0 and 11, upper ring 1..5, lower ring 6..10.
# Each upper vertex i is joined to lower vertices i+5 and (i mod 5)+6,
# forming the pentagonal antiprism between the rings.
_ICOSAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
    (11, 6), (11, 7), (11, 8), (11, 9), (11, 10),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (1, 7), (2, 8), (3, 9), (4, 10), (5, 6),
)


def icosahedron() -> Graph:
    """Icosahedral graph: 12 vertices, 30 edges, 5-regular."""
    return Graph(12, _ICOSAHEDRON_EDGES)


def complete_minus_matching(n: int) -> Graph:
    """Complete graph on even n with the perfect matching {0-1, 2-3, ...} removed.

    All matchings of K_n are equivalent up to relabeling; this one is fixed
    for reproducibility. The result is (n-2)-regular.
    """
    if n < 2 or n % 2:
        raise ValueError(f"complete_minus_matching needs even n >= 2, got {n}")
    removed = {(i, i + 1) for i in range(0, n, 2)}
    return Graph(n, (e for e in combinations(range(n), 2) if e not in removed))


def join(g: Graph, h: Graph) -> Graph:
    """Join of two graphs: disjoint union plus every edge between the two sides."""
    edges = list(g.edges())
    edges += [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges())
    edges += [(g.n + u, g.n + v) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def bowtie() -> Graph:
    """Two triangles sharing one vertex: a single vertex joined to two disjoint edges."""
    return join(complete(1), disjoint_union(complete(2), complete(2)))


def gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """Erdos-Renyi random graph: each pair is an edge independently with probability p.

    Deterministic for a fixed seed: pairs are visited in lexicographic
    order and decided by Python's Mersenne Twister (``random.Random``).
    """
    if n < 1:
        raise ValueError(f"gnp needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    return Graph(n, ((u, v) for u, v in combinations(range(n), 2) if rng.random() < p))


def random_regular(n: int, d: int, seed: int | None = None, max_tries: int = 2000) -> Graph:
    """Random d-regular graph via the configuration model.

    Pairings with loops or repeated edges are rejected and resampled, which
    is fast at the small orders used here. Requires n*d even and d < n.
    """
    if d < 0 or d >= n or (n * d) % 2:
        raise ValueError(f"infeasible regular graph parameters n={n}, d={d} (need n*d even, 0 <= d < n)")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        seen = set()
        ok = True
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, pairs)
    raise ValueError(f"configuration model failed to produce a simple graph after {max_tries} tries")


class Family(NamedTuple):
    """A buildable family: its constructor and the type of each numeric parameter."""

    constructor: Callable[..., Graph]
    param_types: tuple[type, ...] = ()
    seeded: bool = False


# Name -> family, in the order error messages list them. ``join`` and
# ``disjoint_union`` combine child specs and are handled by ``build`` itself.
FAMILIES: dict[str, Family] = {
    "complete": Family(complete, (int,)),
    "complete_bipartite": Family(complete_bipartite, (int, int)),
    "cycle": Family(cycle, (int,)),
    "path": Family(path, (int,)),
    "grid": Family(grid, (int, int)),
    "hypercube": Family(hypercube, (int,)),
    "petersen": Family(petersen),
    "icosahedron": Family(icosahedron),
    "complete_minus_matching": Family(complete_minus_matching, (int,)),
    "bowtie": Family(bowtie),
    "gnp": Family(gnp, (int, float), seeded=True),
    "random_regular": Family(random_regular, (int, int), seeded=True),
}

_COMBINATORS = {"join": join, "disjoint_union": disjoint_union}


def _typed_params(spec: GraphFamilySpec, types: tuple[type, ...]) -> list[int | float]:
    if len(spec.params) != len(types):
        raise ValueError(f"family {spec.family!r} takes {len(types)} parameter(s), got {len(spec.params)}")
    out: list[int | float] = []
    for p, kind in zip(spec.params, types):
        if kind is int and isinstance(p, float) and not p.is_integer():
            raise ValueError(f"family {spec.family!r} takes integer parameters, got {p}")
        out.append(kind(p))
    return out


def build(spec: GraphFamilySpec) -> Graph:
    """Construct the graph described by a family spec; deterministic for fixed spec."""
    if spec.family in _COMBINATORS:
        if len(spec.children) != 2:
            raise ValueError(f"family {spec.family!r} combines exactly two child specs")
        return _COMBINATORS[spec.family](*(build(c) for c in spec.children))
    family = FAMILIES.get(spec.family)
    if family is None:
        raise ValueError(f"unknown graph family {spec.family!r}")
    params = _typed_params(spec, family.param_types)
    if family.seeded:
        return family.constructor(*params, seed=spec.seed)
    return family.constructor(*params)
