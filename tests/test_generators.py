import pytest

from alliances import generators
from alliances.generators import GraphFamilySpec, build
from alliances.graph_core import degree_stats, girth, is_connected


def test_complete():
    g = generators.complete(6)
    assert (g.n, g.m) == (6, 15)
    assert degree_stats(g).regular == 5


def test_complete_bipartite():
    g = generators.complete_bipartite(3, 6)
    assert (g.n, g.m) == (9, 18)
    assert degree_stats(g) == (3, 6, None)


def test_cycle_and_path():
    assert girth(generators.cycle(7)) == 7
    assert generators.path(5).m == 4
    with pytest.raises(ValueError):
        generators.cycle(2)


def test_grid_2x3():
    g = generators.grid(2, 3)
    assert (g.n, g.m) == (6, 7)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_hypercube_counts(d):
    g = generators.hypercube(d)
    assert g.n == 2**d
    assert g.m == (d * 2 ** (d - 1) if d else 0)
    if d >= 2:
        assert girth(g) == 4  # bipartite, so no triangle; every 2-face is a 4-cycle


def test_hypercube_is_bipartite():
    g = generators.hypercube(4)
    # parity of popcount 2-colors the cube
    for u, v in g.edges():
        assert u.bit_count() % 2 != v.bit_count() % 2


def test_petersen_shape():
    g = generators.petersen()
    assert (g.n, g.m) == (10, 15)
    assert degree_stats(g).regular == 3
    assert girth(g) == 5


def test_icosahedron_shape():
    g = generators.icosahedron()
    assert (g.n, g.m) == (12, 30)
    assert degree_stats(g).regular == 5
    assert is_connected(g)
    assert girth(g) == 3


def test_complete_minus_matching():
    g = generators.complete_minus_matching(6)
    assert (g.n, g.m) == (6, 12)
    assert degree_stats(g).regular == 4
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3) and not g.has_edge(4, 5)
    with pytest.raises(ValueError):
        generators.complete_minus_matching(5)


def test_bowtie_is_one_vertex_joined_to_two_edges():
    g = generators.bowtie()
    assert (g.n, g.m) == (5, 6)
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 2, 4]
    assert girth(g) == 3


def test_join_and_disjoint_union_counts():
    left = generators.complete(2)
    right = generators.cycle(3)
    assert generators.disjoint_union(left, right).m == 1 + 3
    assert generators.join(left, right).m == 1 + 3 + 2 * 3


def test_gnp_extremes_and_determinism():
    assert generators.gnp(5, 0.0, seed=3).m == 0
    assert generators.gnp(5, 1.0, seed=3) == generators.complete(5)
    assert generators.gnp(8, 0.5, seed=42) == generators.gnp(8, 0.5, seed=42)
    assert generators.gnp(8, 0.5, seed=42) != generators.gnp(8, 0.5, seed=43)
    with pytest.raises(ValueError):
        generators.gnp(5, 1.5)


def test_random_regular():
    g = generators.random_regular(10, 3, seed=7)
    assert degree_stats(g).regular == 3
    assert generators.random_regular(10, 3, seed=7) == g
    with pytest.raises(ValueError):
        generators.random_regular(5, 3)  # n*d odd
    with pytest.raises(ValueError):
        generators.random_regular(4, 4)  # d >= n


def test_build_dispatch():
    assert build(GraphFamilySpec("petersen")) == generators.petersen()
    assert build(GraphFamilySpec("complete", (6,))) == generators.complete(6)


def test_build_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown graph family"):
        build(GraphFamilySpec("moebius"))
    with pytest.raises(ValueError, match="parameter"):
        build(GraphFamilySpec("complete", (2, 3)))
    with pytest.raises(ValueError, match="integer"):
        build(GraphFamilySpec("cycle", (3.5,)))
    with pytest.raises(ValueError, match="takes integer parameters"):
        build(GraphFamilySpec("gnp", (10.5, 0.5), seed=1))


def test_build_gnp_deterministic_with_seed():
    spec = GraphFamilySpec("gnp", (8, 0.5), seed=42)
    assert build(spec) == build(spec)
