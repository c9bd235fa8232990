"""Cross-checks against networkx, an implementation that shares no code
with this package: girth, automorphism orbits, two-colouring, the graph6
encoding, order fields included, every graph of order 1-6 in its atlas and
every tree of order 9-11 through ``analyze``, with the bounds' tightness
census over each pinned. Test-only; skipped where networkx is not
installed."""

import re
from pathlib import Path

import pytest

from alliances import generators, graph_core, report
from alliances.alliance_solver import VARIANTS
from alliances.graph_core import MAX_ORDER, Graph, _automorphism_orbits, _two_colouring, degree_stats, girth
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


def _orbits_by_matching(g: Graph) -> tuple[int, ...]:
    """Orbit masks from networkx's VF2 matcher: v and w share an orbit iff
    some isomorphism of the graph onto itself maps v to w. One match per
    pair not already joined, so no automorphism group is listed."""
    h = _to_nx(g)
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v in range(g.n):
        for w in range(v + 1, g.n):
            if find(v) != find(w):
                nx.set_node_attributes(h, {x: x == v for x in h}, "source")
                nx.set_node_attributes(h, {x: x == w for x in h}, "target")
                matcher = nx.isomorphism.GraphMatcher(h, h, node_match=lambda a, b: a["source"] == b["target"])
                if matcher.is_isomorphic():
                    parent[find(w)] = find(v)
    orbit = [0] * g.n
    for v in range(g.n):
        orbit[find(v)] |= 1 << v
    return tuple(orbit[find(v)] for v in range(g.n))


ORBIT_CASES = {
    **named_graphs(),
    "hypercube:4": generators.hypercube(4),
    # Its group has 2^7 * 7! = 645,120 elements: far too many to list.
    "complete_minus_matching:14": generators.complete_minus_matching(14),
    "grid:4:5": generators.grid(4, 5),
    "grid:3:7": generators.grid(3, 7),
    # 3-regular with a trivial group: one refinement cell, twelve orbits.
    "frucht": Graph(12, nx.frucht_graph().edges()),
}


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbits_match_networkx(name):
    g = ORBIT_CASES[name]
    assert _automorphism_orbits(g) == _orbits_by_matching(g)


def test_orbit_examples():
    corners = (1 << 0) | (1 << 4) | (1 << 15) | (1 << 19)
    assert _automorphism_orbits(ORBIT_CASES["grid:4:5"])[0] == corners
    assert set(_automorphism_orbits(ORBIT_CASES["complete_minus_matching:14"])) == {(1 << 14) - 1}
    frucht = ORBIT_CASES["frucht"]
    assert len({len(nbrs) for nbrs in frucht.adjacency}) == 1
    assert _automorphism_orbits(frucht) == tuple(1 << v for v in range(12))


@pytest.mark.parametrize("name", ["hypercube:4", "complete_minus_matching:14", "grid:4:5", "frucht"])
@pytest.mark.parametrize("budget", [0, 1, 5])
def test_a_spent_budget_leaves_orbits_within_the_true_ones(name, budget, monkeypatch):
    g = ORBIT_CASES[name]
    true = _orbits_by_matching(g)
    monkeypatch.setattr(graph_core, "ORBIT_BUDGET", budget)
    orbits = _automorphism_orbits(g)
    for v in range(g.n):
        assert (orbits[v] >> v) & 1 and not orbits[v] & ~true[v]
        assert all(orbits[w] == orbits[v] for w in range(g.n) if (orbits[v] >> w) & 1)


def test_two_colouring_matches_is_bipartite_on_the_atlas():
    # Every graph of order 1-6: a colouring exactly when networkx finds the
    # graph bipartite, and then two independent classes covering V, the
    # first of at most n // 2 vertices.
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    bipartite = 0
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        colouring = _two_colouring(g)
        assert (colouring is not None) == nx.is_bipartite(h), nx.to_graph6_bytes(h)
        if colouring is not None:
            bipartite += 1
            assert sorted(colouring[0] + colouring[1]) == list(range(g.n))
            assert len(colouring[0]) <= g.n // 2
            for cls in colouring:
                assert not any(g.has_edge(u, v) for u in cls for v in cls)
    assert len(atlas) == 208
    assert bipartite == 61  # 1, 2, 3, 7, 13 and 35 of orders 1-6 (OEIS A033995)


@pytest.mark.parametrize("n", [1, 2, 30, 62, 63, 64, 100, 300])
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
# analyzed with all nine variants: the shape of the search tree on every
# small graph, not just the corpus.
ATLAS_NODE_SUMS = {
    "defensive": 2207,
    "strong_defensive": 2968,
    "global_defensive": 2904,
    "global_strong_defensive": 1795,
    "global_offensive": 2312,
    "global_strong_offensive": 2581,
    "global_dual": 1585,
    "global_strong_dual": 2135,
    "domination": 1499,
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
            sums[name] += entry["nodes_explored"]
        for row in result["bounds"]:
            if row.get("degenerate"):
                degenerate += 1
            elif row["applicable"]:
                applicable, tight, total = census.get((row["theorem"], row["target"]), (0, 0, 0))
                census[row["theorem"], row["target"]] = (applicable + 1, tight + (row["gap"] == 0), total + row["value"])
    assert len(atlas) == 208
    assert sums == ATLAS_NODE_SUMS
    assert sum(sums.values()) == 19986
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
            assert _two_colouring(g) is not None and degree_stats(g).regular is None
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
