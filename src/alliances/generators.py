"""Deterministic constructors for named graphs plus parametric and random families."""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .graph_core import MAX_ORDER, Graph, _check_order

__all__ = [
    "FAMILIES",
    "GraphFamilySpec",
    "build",
    "parse_family",
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
    "gnp",
    "random_regular",
]


@dataclass(frozen=True)
class GraphFamilySpec:
    """Recipe for a deterministic graph construction: a family name from
    ``FAMILIES`` and its numeric parameters. ``seed`` only matters for the
    random families, where the default 0 is a seed like any other, and is
    part of the recipe's identity.
    """

    family: str
    params: tuple[int | float, ...] = ()
    seed: int = 0

    def __str__(self) -> str:
        """The spec string ``name:p1:...:seed=S`` that ``parse_family`` reads back."""
        return ":".join((self.family, *map(str, self.params), f"seed={self.seed}"))


def parse_family(text: str) -> GraphFamilySpec:
    """Parse a family spec string ``name[:p1[:p2]][:seed=S]``; a missing seed
    means 0, and a repeated one is an error."""
    parts = text.split(":")
    name = parts[0]
    if name not in FAMILIES:
        raise ValueError(f"unknown graph family {name!r}; known: {', '.join(FAMILIES)}")
    params: list[int | float] = []
    seed: int | None = None
    for part in parts[1:]:
        if part.startswith("seed="):
            if seed is not None:
                raise ValueError(f"repeated seed= in {text!r}")
            try:
                seed = int(part[5:])
            except ValueError:
                raise ValueError(f"bad seed {part[5:]!r} in {text!r}") from None
            continue
        try:
            params.append(int(part))
        except ValueError:
            try:
                params.append(float(part))
            except ValueError:
                raise ValueError(f"bad family parameter {part!r} in {text!r}") from None
    return GraphFamilySpec(name, tuple(params), seed=0 if seed is None else seed)


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
    _check_order(rows * cols)
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
    if d >= MAX_ORDER.bit_length():  # 2**d > MAX_ORDER, checked before 2**d is built
        raise ValueError(f"order 2**{d} exceeds the ceiling of {MAX_ORDER} vertices")
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
    _check_order(n)
    removed = {(i, i + 1) for i in range(0, n, 2)}
    return Graph(n, (e for e in combinations(range(n), 2) if e not in removed))


def bowtie() -> Graph:
    """Two triangles sharing one vertex: vertex 0 adjacent to the edges 1-2 and 3-4."""
    return Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)))


def gnp(n: int, p: float, seed: int = 0) -> Graph:
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


_REGULAR_TRIES = 2000
_SWITCHES_PER_EDGE = 10


def random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-regular graph via the configuration model.

    Pairings with loops or repeated edges are rejected and resampled, which
    is fast at the small orders and degrees used here. If all
    ``_REGULAR_TRIES`` pairings fail, which becomes likely from d = 5 on,
    the same generator goes on to randomize a circulant d-regular graph by
    double-edge switches. Requires n*d even and d < n.
    """
    if d < 0 or d >= n or (n * d) % 2:
        raise ValueError(f"infeasible regular graph parameters n={n}, d={d} (need n*d even, 0 <= d < n)")
    _check_order(n)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_REGULAR_TRIES):
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
    return Graph(n, _switched_circulant(n, d, rng))


def _switched_circulant(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a d-regular graph: the circulant joining each vertex to the
    d//2 next ones around a cycle (and, for odd d, to the opposite one),
    then ``_SWITCHES_PER_EDGE`` switch attempts per edge. A switch replaces
    edges {a, b} and {c, e} by {a, c} and {b, e}, and is not made when that
    would make a loop or a repeated edge, so every degree stays d."""
    edges = [(v, (v + step) % n) for v in range(n) for step in range(1, d // 2 + 1)]
    if d % 2:
        edges += [(v, v + n // 2) for v in range(n // 2)]
    edges = [(min(e), max(e)) for e in edges]
    present = set(edges)
    for _ in range(_SWITCHES_PER_EDGE * len(edges)):
        i = rng.randrange(len(edges))
        j = rng.randrange(len(edges))
        a, b = edges[i]
        c, e = edges[j] if rng.random() < 0.5 else edges[j][::-1]
        ac, be = (min(a, c), max(a, c)), (min(b, e), max(b, e))
        if len({a, b, c, e}) < 4 or ac in present or be in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {ac, be}
        edges[i], edges[j] = ac, be
    return edges


# Name -> constructor, in the order error messages list them. A family's
# parameters are its constructor's: ``build`` coerces each to the type its
# signature names, and passes ``seed`` to a constructor that takes one.
FAMILIES: dict[str, Callable[..., Graph]] = {
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "cycle": cycle,
    "path": path,
    "grid": grid,
    "hypercube": hypercube,
    "petersen": petersen,
    "icosahedron": icosahedron,
    "complete_minus_matching": complete_minus_matching,
    "bowtie": bowtie,
    "gnp": gnp,
    "random_regular": random_regular,
}

# Name -> its constructor's parameters, and the types of all but ``seed``,
# read once.
_PARAMETERS = {
    name: inspect.signature(constructor, eval_str=True).parameters for name, constructor in FAMILIES.items()
}
_TYPES = {
    name: tuple(parameter.annotation for key, parameter in parameters.items() if key != "seed")
    for name, parameters in _PARAMETERS.items()
}


def build(spec: GraphFamilySpec) -> Graph:
    """Construct the graph described by a family spec; deterministic for fixed spec."""
    constructor = FAMILIES.get(spec.family)
    if constructor is None:
        raise ValueError(f"unknown graph family {spec.family!r}")
    types = _TYPES[spec.family]
    if len(spec.params) != len(types):
        raise ValueError(f"family {spec.family!r} takes {len(types)} parameter(s), got {len(spec.params)}")
    params: list[int | float] = []
    for p, kind in zip(spec.params, types):
        if kind is int and isinstance(p, float) and not p.is_integer():
            raise ValueError(f"family {spec.family!r} takes integer parameters, got {p}")
        params.append(kind(p))
    if "seed" in _PARAMETERS[spec.family]:
        return constructor(*params, seed=spec.seed)
    return constructor(*params)
