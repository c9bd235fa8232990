import hashlib

import pytest

from alliances import generators
from alliances.generators import FAMILIES, GraphFamilySpec, build, parse_family
from alliances.graph_core import girth
from alliances.io_formats import write_graph6


def test_complete():
    g = generators.complete(6)
    assert (g.n, g.m) == (6, 15)
    assert g.regular == 5


def test_complete_bipartite():
    g = generators.complete_bipartite(3, 6)
    assert (g.n, g.m) == (9, 18)
    assert (g.min_degree, g.max_degree, g.regular) == (3, 6, None)


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
    assert g.regular == 3
    assert girth(g) == 5


def test_icosahedron_shape():
    g = generators.icosahedron()
    assert (g.n, g.m) == (12, 30)
    assert g.regular == 5
    assert g.components == 1
    assert girth(g) == 3


def test_complete_minus_matching():
    g = generators.complete_minus_matching(6)
    assert (g.n, g.m) == (6, 12)
    assert g.regular == 4
    assert all(v not in g.adjacency[u] for u, v in ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(ValueError):
        generators.complete_minus_matching(5)


def test_bowtie_is_one_vertex_joined_to_two_edges():
    g = generators.bowtie()
    assert (g.n, g.m) == (5, 6)
    assert sorted(len(a) for a in g.adjacency) == [2, 2, 2, 2, 4]
    assert girth(g) == 3


def test_gnp_extremes_and_determinism():
    assert generators.gnp(5, 0.0, seed=3).m == 0
    assert generators.gnp(5, 1.0, seed=3) == generators.complete(5)
    assert generators.gnp(8, 0.5, seed=42) == generators.gnp(8, 0.5, seed=42)
    assert generators.gnp(8, 0.5, seed=42) != generators.gnp(8, 0.5, seed=43)
    with pytest.raises(ValueError):
        generators.gnp(5, 1.5)


def test_random_regular():
    g = generators.random_regular(10, 3, seed=7)
    assert g.regular == 3
    assert generators.random_regular(10, 3, seed=7) == g
    with pytest.raises(ValueError):
        generators.random_regular(5, 3)  # n*d odd
    with pytest.raises(ValueError):
        generators.random_regular(4, 4)  # d >= n


@pytest.mark.parametrize("draw", [lambda: generators.gnp(10, 0.5, seed=-1), lambda: generators.random_regular(12, 3, seed=-1)])
def test_random_families_refuse_a_negative_seed(draw):
    # random.Random seeds from the absolute value, so seed -1 would build
    # the graph of seed 1 under another name.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        draw()


@pytest.mark.parametrize(
    ("n", "d", "digest"),
    [
        (22, 3, "9a0e1bf861e6a3884f14fa38b3d95b10f18e32539f87b0939e27196382a363c8"),
        (120, 4, "c5f8c0f2a37009b00970b7fbafa2504fe28ff6b446972ce6dc1cd2fd8f28685f"),
    ],
)
def test_random_regular_configuration_draws_are_pinned(n, d, digest):
    # Seeds 0-49 at the benchmark's orders: the configuration model succeeds
    # for each, and the switch fallback must not move a single draw.
    h = hashlib.sha256()
    for seed in range(50):
        h.update(write_graph6(generators.random_regular(n, d, seed=seed)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(("n", "d"), [(30, 6), (24, 8), (16, 5)])
def test_random_regular_dense_degrees(n, d):
    # The configuration model fails on most of these seeds; the switch
    # fallback gives a simple d-regular graph (Graph collapses repeated
    # edges, so m = n*d/2 rules them out) that depends on the seed.
    drawn = set()
    for seed in range(10):
        g = generators.random_regular(n, d, seed=seed)
        assert g.regular == d
        assert g.m == n * d // 2
        drawn.add(g)
    assert len(drawn) > 1
    assert generators.random_regular(n, d, seed=3) == generators.random_regular(n, d, seed=3)


def test_build_dispatch():
    assert build(GraphFamilySpec("petersen")) == generators.petersen()
    assert build(GraphFamilySpec("complete", (6,))) == generators.complete(6)


def test_spec_coerces_each_parameter_to_its_constructors_type():
    assert GraphFamilySpec("complete", (6.0,)) == GraphFamilySpec("complete", (6,))
    assert str(GraphFamilySpec("complete", (6.0,))) == "complete:6:seed=0"
    assert build(GraphFamilySpec("complete", (6.0,))) == generators.complete(6)
    assert build(GraphFamilySpec("gnp", (8, 1), seed=0)) == generators.gnp(8, 1.0, seed=0)


def test_build_passes_the_seed_only_to_seeded_families():
    assert build(GraphFamilySpec("petersen", (), seed=5)) == generators.petersen()


def test_spec_rejects_bad_specs_when_made():
    # Each check runs when the spec is made, not when it is built.
    cases = [
        (("moebius",), "unknown graph family 'moebius'; known: complete, "),
        (("petersen", (3,)), r"takes 0 parameter\(s\), got 1"),
        (("complete", (2, 3)), r"takes 1 parameter\(s\), got 2"),
        (("cycle", (3.5,)), "takes integer parameters, got 3.5"),
        (("gnp", (10.5, 0.5), 1), "takes integer parameters, got 10.5"),
        (("petersen", (), -1), "seed must be >= 0, got -1"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            GraphFamilySpec(*args)


def test_build_gnp_deterministic_with_seed():
    spec = GraphFamilySpec("gnp", (8, 0.5), seed=42)
    assert build(spec) == build(spec)


# One spec per family; str() writes the grammar parse_family reads.
ONE_SPEC_PER_FAMILY = (
    GraphFamilySpec("complete", (6,)),
    GraphFamilySpec("complete_bipartite", (3, 4)),
    GraphFamilySpec("cycle", (5,)),
    GraphFamilySpec("path", (4,)),
    GraphFamilySpec("grid", (2, 3)),
    GraphFamilySpec("hypercube", (3,)),
    GraphFamilySpec("petersen"),
    GraphFamilySpec("icosahedron"),
    GraphFamilySpec("complete_minus_matching", (6,)),
    GraphFamilySpec("bowtie"),
    GraphFamilySpec("gnp", (20, 0.3), seed=7),
    GraphFamilySpec("random_regular", (10, 3), seed=2),
)


def test_family_spec_round_trips_through_its_string():
    assert [spec.family for spec in ONE_SPEC_PER_FAMILY] == list(FAMILIES)
    for spec in ONE_SPEC_PER_FAMILY:
        assert parse_family(str(spec)) == spec
        assert build(spec).n > 0
