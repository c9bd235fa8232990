"""Cross-checks against networkx, an implementation that shares no code
with this package: girth, connected components, degrees, two-colouring, the graph6
encoding, order fields included, every graph of order 1-6 in its atlas and
every tree of order 9-11 through ``analyze``, with the bounds' tightness
census over each pinned. Test-only; skipped where networkx is not
installed."""

import random
import re
from pathlib import Path

import pytest

from alliances import generators, report
from alliances.alliance_solver import VARIANTS, AllianceSpec, min_alliance_number
from alliances.graph_core import (
    MAX_ORDER,
    Graph,
    VertexSet,
    girth,
)
from alliances.io_formats import ParseError, parse_graph6, write_graph6

from corpus import named_graphs
from naive import naive_minimum_witness

nx = pytest.importorskip("networkx")


def _to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _seeded_graphs():
    out = {}
    for n in (5, 12, 25, 40, 60):
        for seed in range(3):
            out[f"gnp:{n}:0.15:seed={seed}"] = generators.gnp(n, 0.15, seed=seed)
    for n, d in ((10, 3), (24, 3), (30, 4), (60, 3)):
        for seed in range(3):
            out[f"random_regular:{n}:{d}:seed={seed}"] = generators.random_regular(n, d, seed=seed)
    out["path:7"] = generators.path(7)  # acyclic: both report infinite girth
    return out


CASES = {**named_graphs(), **_seeded_graphs()}


@pytest.mark.parametrize("name", list(CASES))
def test_girth_matches_networkx(name):
    g = CASES[name]
    assert girth(g) == nx.girth(_to_nx(g))


def test_components_and_degrees_match_networkx_on_the_atlas():
    # The component count decides how many Laplacian eigenvalues
    # ``spectral_summary`` sets to exactly 0.0, and the degree fields decide
    # which theorems apply and whether the spectral radius is read off the
    # degree, so check them on every graph of order 1-6.
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    disconnected = regular = 0
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        count = nx.number_connected_components(h)
        degrees = [d for _, d in h.degree()]
        assert g.components == count, nx.to_graph6_bytes(h)
        assert g.min_degree == min(degrees), nx.to_graph6_bytes(h)
        assert g.max_degree == max(degrees), nx.to_graph6_bytes(h)
        assert g.regular == (degrees[0] if nx.is_regular(h) else None), nx.to_graph6_bytes(h)
        disconnected += count > 1
        regular += g.regular is not None
    assert len(atlas) == 208
    assert disconnected == 208 - 143  # 1, 1, 2, 6, 21 and 112 connected (OEIS A001349)
    assert regular == 20  # 1, 2, 2, 4, 3 and 8 regular (OEIS A005176)


def _check_first_class(g: Graph, h) -> bool:
    """``g.first_class`` is set exactly when networkx finds ``h`` bipartite,
    and then it meets every edge once and holds the smaller side of each
    component, the side of its least vertex on a tie. Returns whether ``h``
    is bipartite."""
    label = nx.to_graph6_bytes(h)
    bipartite = nx.is_bipartite(h)
    assert (g.first_class is not None) == bipartite, label
    if bipartite:
        first = set(VertexSet.from_mask(g.first_class))
        assert all((u in first) != (v in first) for u, v in g.edges()), label
        assert all(g.degree(v) for v in first), label
        for component in nx.connected_components(h):
            inside = len(first & component)
            assert inside <= len(component) // 2, label
            if 2 * inside == len(component):
                assert min(component) in first, label
    return bipartite


def test_two_colouring_matches_is_bipartite_on_the_atlas():
    # Every graph of order 1-6.
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    bipartite = sum(_check_first_class(Graph(h.number_of_nodes(), h.edges()), h) for h in atlas)
    assert len(atlas) == 208
    assert bipartite == 61  # 1, 2, 3, 7, 13 and 35 of orders 1-6 (OEIS A033995)


def _seeded_multi_component_graph(rng: random.Random):
    """A graph of order 8-40 with 1-4 components. Each is a random tree plus
    random edges across its two sides, and about 40 % of them also get 1-3
    edges inside one side, each closing an odd cycle. Vertex labels are
    shuffled, so the components interleave in index order and the least
    vertex of a component, where its BFS starts, is any vertex of its tree."""
    n = rng.randint(8, 40)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 4) - 1))
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        part = labels[lo:hi]
        side = {part[0]: 0}
        for i in range(1, len(part)):
            parent = part[rng.randrange(i)]
            side[part[i]] = 1 - side[parent]
            edges.append((parent, part[i]))
        same = [(u, v) for u in part for v in part if u < v and side[u] == side[v]]
        across = [(u, v) for u in part for v in part if u < v and side[u] != side[v]]
        edges += rng.sample(across, min(len(across), rng.randint(0, len(part))))
        if same and rng.random() < 0.4:
            edges += rng.sample(same, rng.randint(1, min(len(same), 3)))
    return Graph(n, edges), edges


def test_first_class_matches_is_bipartite_on_seeded_multi_component_graphs():
    rng = random.Random(20061)
    bipartite = multi = mixed = 0
    for _ in range(200):
        g, edges = _seeded_multi_component_graph(rng)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(edges)
        parts = [nx.is_bipartite(h.subgraph(c)) for c in nx.connected_components(h)]
        assert g.components == len(parts)
        multi += len(parts) > 1
        mixed += any(parts) and not all(parts)
        bipartite += _check_first_class(g, h)
    # Both outcomes, several components, and bipartite components beside
    # odd-cycle ones are each well represented.
    assert (bipartite, multi, mixed) == (83, 140, 90)


@pytest.mark.parametrize("n", [1, 2, 30, 62, 63, 64, 100, 300, 1000])
def test_graph6_round_trips_match_networkx(n):
    # 62 is the last one-byte order field; from 63 on the order takes the
    # four-byte form "~" plus three 6-bit digits.
    g = generators.gnp(n, 0.1, seed=n)
    ours = write_graph6(g)
    assert ours.encode() == nx.to_graph6_bytes(_to_nx(g), header=False).rstrip(b"\n")
    assert (ours[0] == "~") == (n >= 63)
    assert parse_graph6(ours) == g
    back = nx.from_graph6_bytes(ours.encode())
    assert sorted(back.nodes) == list(range(n))
    assert sorted(tuple(sorted(e)) for e in back.edges) == list(g.edges())


@pytest.mark.parametrize("n", [MAX_ORDER + 1, 258048, 2**36 - 1])
def test_eight_byte_order_above_the_ceiling_is_a_parse_error(n):
    # "~~" plus six 6-bit digits: the order field alone names a graph
    # larger than any this package builds, so nothing of it is decoded.
    header = "~~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0))
    with pytest.raises(ParseError, match="ceiling"):
        parse_graph6(header + "?")


# Sums of ``nodes_explored`` over the 208 atlas graphs of order 1-6, each
# solved for all nine variants, chained in ``VARIANTS`` order as ``analyze``
# chains them: the shape of the search tree on every small graph, not just
# the corpus.
ATLAS_NODE_SUMS = {
    "defensive": 2633,
    "strong_defensive": 3534,
    "global_defensive": 3385,
    "global_strong_defensive": 2021,
    "global_offensive": 2482,
    "global_strong_offensive": 2698,
    "global_dual": 1805,
    "global_strong_dual": 2251,
    "domination": 1579,
}

# The tightness census over the same 208 graphs: per (theorem, target), the
# applicable rows, the tight ones (gap 0) and the sum of the bound values.
# The 130 degenerate rows (def-mu on a disconnected graph) are left out.
ATLAS_CENSUS = {
    ("def-mu", "defensive"): (142, 112, 211),
    ("def-mu", "strong_defensive"): (142, 81, 332),
    ("strongdef-mu-delta", "strong_defensive"): (142, 16, 76),
    ("globdef-lambda", "global_defensive"): (207, 32, 388),
    ("globdef-lambda", "global_strong_defensive"): (207, 9, 438),
    ("globdef-degree", "global_defensive"): (208, 47, 439),
    ("globdef-degree", "global_strong_defensive"): (208, 40, 526),
    ("globdef-degree-prior", "global_defensive"): (208, 57, 452),
    ("girth-regular-mu", "girth"): (6, 6, 19),
    ("globoff-laplacian", "global_offensive"): (202, 81, 427),
    ("globoff-laplacian", "global_strong_offensive"): (202, 60, 533),
    ("globoff-quadratic", "global_offensive"): (208, 61, 396),
    ("globoff-quadratic", "global_strong_offensive"): (208, 42, 471),
    ("globdual-lambda", "global_dual"): (207, 4, 392),
    ("globdual-lambda", "global_strong_dual"): (207, 7, 517),
    ("globdual-size", "global_dual"): (208, 94, 548),
    ("globdual-size", "global_strong_dual"): (208, 46, 642),
    ("dom-laplacian", "domination"): (202, 157, 344),
}


def test_every_graph_of_order_one_to_six_matches_the_naive_oracle():
    # ``analyze`` certifies every theorem on each graph (it raises on a
    # bound above its exact value); each value and witness must equal the
    # lexicographically first minimum that plain enumeration finds.
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    sums = dict.fromkeys(VARIANTS, 0)
    census: dict[tuple[str, str], tuple[int, int, int]] = {}
    degenerate = 0
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        result = report.analyze(g, specs=tuple(VARIANTS), deterministic=True)
        for name, entry in result["exact"].items():
            expected = naive_minimum_witness(g, name)
            assert (entry["value"], tuple(entry["witness"])) == expected, (nx.to_graph6_bytes(h), name)
        known = {}
        for name in VARIANTS:
            known[name] = min_alliance_number(g, AllianceSpec(name), _known=known)
            sums[name] += known[name].nodes_explored
        for row in result["bounds"]:
            if row.get("degenerate"):
                degenerate += 1
            elif row["applicable"]:
                applicable, tight, total = census.get((row["theorem"], row["target"]), (0, 0, 0))
                census[row["theorem"], row["target"]] = (applicable + 1, tight + (row["gap"] == 0), total + row["value"])
    assert len(atlas) == 208
    assert sums == ATLAS_NODE_SUMS
    assert sum(sums.values()) == 22388
    assert census == ATLAS_CENSUS
    assert degenerate == 130


def test_readme_census_table_is_the_pinned_census():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (\d+) \| (\d+) \|$", readme, re.MULTILINE)
    pinned = [(theorem, target, applicable, tight) for (theorem, target), (applicable, tight, _) in ATLAS_CENSUS.items()]
    assert [(theorem, target, int(applicable), int(tight)) for theorem, target, applicable, tight in table] == pinned


# The tightness census over all 388 trees of order 9-11, as ``ATLAS_CENSUS``.
# ``girth-regular-mu`` applies to no tree, and no tree is disconnected, so no
# row is degenerate. ``def-mu`` on ``defensive`` is tight on every tree for a
# trivial reason: a leaf is a defensive alliance, and a tree's algebraic
# connectivity is at most 1, so the bound is 1.
TREE_CENSUS = {
    ("def-mu", "defensive"): (388, 388, 388),
    ("def-mu", "strong_defensive"): (388, 336, 776),
    ("strongdef-mu-delta", "strong_defensive"): (388, 0, 0),
    ("globdef-lambda", "global_defensive"): (388, 3, 1159),
    ("globdef-lambda", "global_strong_defensive"): (388, 0, 1460),
    ("globdef-degree", "global_defensive"): (388, 24, 1347),
    ("globdef-degree", "global_strong_defensive"): (388, 33, 1663),
    ("globdef-degree-prior", "global_defensive"): (388, 36, 1394),
    ("globoff-laplacian", "global_offensive"): (388, 34, 961),
    ("globoff-laplacian", "global_strong_offensive"): (388, 4, 1708),
    ("globoff-quadratic", "global_offensive"): (388, 24, 773),
    ("globoff-quadratic", "global_strong_offensive"): (388, 0, 776),
    ("globdual-lambda", "global_dual"): (388, 1, 1117),
    ("globdual-lambda", "global_strong_dual"): (388, 0, 1566),
    ("globdual-size", "global_dual"): (388, 3, 1164),
    ("globdual-size", "global_strong_dual"): (388, 0, 1552),
    ("dom-laplacian", "domination"): (388, 79, 961),
}

# Per lambda row, the orders with a tree on which it is tight, and how many.
TREE_LAMBDA_TIGHT = {
    ("globdef-lambda", "global_defensive"): {9: 2, 10: 1},
    ("globdual-lambda", "global_dual"): {10: 1},
}


def test_every_tree_of_order_nine_to_eleven():
    # ``analyze`` certifies every theorem on each tree. Each tree of order
    # >= 3 is bipartite and irregular, so its spectral radius comes from the
    # half-order matrix BB^T.
    census: dict[tuple[str, str], tuple[int, int, int]] = {}
    lambda_tight: dict[tuple[str, str], dict[int, int]] = {}
    trees = {}
    for n in (9, 10, 11):
        trees[n] = 0
        for h in nx.nonisomorphic_trees(n):
            trees[n] += 1
            g = Graph(n, h.edges())
            assert g.first_class is not None and g.regular is None
            result = report.analyze(g, specs=tuple(VARIANTS), deterministic=True)
            for row in result["bounds"]:
                assert not row.get("degenerate")
                if not row["applicable"]:
                    continue
                key = row["theorem"], row["target"]
                applicable, tight, total = census.get(key, (0, 0, 0))
                census[key] = (applicable + 1, tight + (row["gap"] == 0), total + row["value"])
                if key in TREE_LAMBDA_TIGHT and row["gap"] == 0:
                    orders = lambda_tight.setdefault(key, {})
                    orders[n] = orders.get(n, 0) + 1
    assert trees == {9: 47, 10: 106, 11: 235}
    assert census == TREE_CENSUS
    assert lambda_tight == TREE_LAMBDA_TIGHT
