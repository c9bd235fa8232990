"""The named-graph corpus used across the suite."""

import random

from alliances import generators
from alliances.graph_core import Graph


def named_graphs() -> dict[str, Graph]:
    corpus = {
        "petersen": generators.petersen(),
        "icosahedron": generators.icosahedron(),
        "cube3": generators.hypercube(3),
        "k6_minus_matching": generators.complete_minus_matching(6),
        "grid_2x3": generators.grid(2, 3),
        "bowtie": generators.bowtie(),
        "k33": generators.complete_bipartite(3, 3),
        "k36": generators.complete_bipartite(3, 6),
        "star_1_8": generators.complete_bipartite(1, 8),
        "c4": generators.cycle(4),
        "c6": generators.cycle(6),
        "p5": generators.path(5),
    }
    for n in range(2, 9):
        corpus[f"k{n}"] = generators.complete(n)
    return corpus


def regular_graphs() -> dict[str, Graph]:
    """Regular graphs whose adjacency spectral radius is read off their
    degree: vertex-transitive, random, disconnected and edgeless ones."""
    corpus = {
        spec: generators.build(generators.parse_family(spec))
        for spec in (
            "petersen",
            "icosahedron",
            "hypercube:4",
            "cycle:24",
            "complete_minus_matching:14",
            "random_regular:22:3:seed=5",
        )
    }
    corpus["two_c5"] = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    corpus["edgeless_3"] = Graph(3)
    return corpus


def random_connected_graphs(count: int, seed: int, min_n: int = 4, max_n: int = 10):
    """Seeded connected random graphs; rejection-samples density until connected."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        n = rng.randint(min_n, max_n)
        p = rng.uniform(0.2, 0.9)
        g = generators.gnp(n, p, seed=seed * 100003 + attempt)
        if g.components == 1:
            out.append(g)
    return out


def edgeless_graph6(n: int) -> str:
    """A well-formed graph6 line for the edgeless graph of order n (4-byte
    order form), built without a Graph, so n may exceed the ceiling."""
    head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    return head + "?" * ((n * (n - 1) // 2 + 5) // 6)
