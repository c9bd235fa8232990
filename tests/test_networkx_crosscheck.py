"""Cross-checks against networkx, an implementation that shares no code
with this package: girth and the graph6 encoding, order fields included,
and every graph of order 1-6 in its atlas through ``analyze``.
Test-only; skipped where networkx is not installed."""

import pytest

from alliances import generators, report
from alliances.alliance_solver import VARIANTS
from alliances.graph_core import MAX_ORDER, Graph, girth
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


# Sums of ``nodes_explored`` over the 208 atlas graphs of order 1-6: the
# shape of the search tree on every small graph, not just the corpus.
ATLAS_NODE_SUMS = {
    "defensive": 2633,
    "strong_defensive": 5040,
    "global_defensive": 4219,
    "global_strong_defensive": 5873,
    "global_offensive": 2482,
    "global_strong_offensive": 3473,
    "global_dual": 3461,
    "global_strong_dual": 4152,
    "offensive": 4760,
    "strong_offensive": 6744,
    "domination": 1579,
}


def test_every_graph_of_order_one_to_six_matches_the_naive_oracle():
    # ``analyze`` certifies every theorem on each graph (it raises on a
    # bound above its exact value); each value and witness must equal the
    # lexicographically first minimum that plain enumeration finds.
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    sums = dict.fromkeys(VARIANTS, 0)
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        exact = report.analyze(g, specs=tuple(VARIANTS), deterministic=True)["exact"]
        for name, entry in exact.items():
            expected = naive_minimum_witness(g, name)
            assert (entry["value"], tuple(entry["witness"])) == expected, (nx.to_graph6_bytes(h), name)
            sums[name] += entry["nodes_explored"]
    assert len(atlas) == 208
    assert sums == ATLAS_NODE_SUMS
    assert sum(sums.values()) == 44416
