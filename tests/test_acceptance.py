"""Acceptance gate: the full contract, one test per criterion.

Each criterion prints a single status line so a `pytest -v -s` run reads as
a checklist. Numeric tolerances: 1e-6 on reals, exact on integers, unless a
criterion states otherwise.
"""

import math
import random

import pytest

from alliances import generators
from alliances.alliance_solver import VARIANTS, min_alliance_number, spec_from_name
from alliances.bounds import (
    defensive_connectivity,
    evaluate_all,
    girth_regular_connectivity,
    global_defensive_degree,
    global_defensive_spectral_radius,
    global_dual_size,
    global_offensive_laplacian_radius,
    global_offensive_quadratic,
    strong_defensive_connectivity_degree,
)
from alliances.graph_core import VertexSet, girth
from alliances.spectral import adjacency_matrix, jacobi_spectrum, spectral_summary

from corpus import named_graphs, random_connected_graphs
from naive import naive_minimum
from spectral_oracle import power_iteration_radius, rayleigh_indicator

REAL_TOL = 1e-6

EXACT_TARGET_NAMES = (
    "defensive",
    "strong_defensive",
    "global_defensive",
    "global_strong_defensive",
    "global_offensive",
    "global_strong_offensive",
    "global_dual",
    "global_strong_dual",
    "domination",
)


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPT {criterion}: PASS ({detail})")


def _exact_values(g) -> dict[str, int]:
    values = {name: min_alliance_number(g, spec_from_name(name)).value for name in EXACT_TARGET_NAMES}
    g_girth = girth(g)
    if not math.isinf(g_girth):
        values["girth"] = int(g_girth)
    return values


def test_criterion_01_complete_graph_defensive_numbers():
    for n in range(2, 11):
        g = generators.complete(n)
        expected_plain = math.ceil(n / 2)
        expected_strong = math.ceil((n + 1) / 2)
        assert min_alliance_number(g, spec_from_name("defensive")).value == expected_plain
        assert min_alliance_number(g, spec_from_name("strong_defensive")).value == expected_strong
        mu = spectral_summary(g).algebraic_connectivity
        assert defensive_connectivity(n, mu) == (expected_plain, expected_strong)
    _ok("01", "complete graphs n=2..10: solver and connectivity bound agree exactly")


def test_criterion_02_icosahedron_defensive():
    g = generators.icosahedron()
    assert min_alliance_number(g, spec_from_name("defensive")).value == 3
    mu = spectral_summary(g).algebraic_connectivity
    assert mu == pytest.approx(5 - math.sqrt(5), abs=REAL_TOL)
    assert defensive_connectivity(12, mu)[0] == 3
    _ok("02", "icosahedron: defensive number 3, bound 3")


def test_criterion_03_petersen_panel():
    g = generators.petersen()
    s = spectral_summary(g)
    assert s.algebraic_connectivity == pytest.approx(2.0, abs=REAL_TOL)
    assert s.laplacian_radius == pytest.approx(5.0, abs=REAL_TOL)
    assert s.spectral_radius == pytest.approx(3.0, abs=REAL_TOL)
    assert girth(g) == 5
    assert girth_regular_connectivity(10, s.algebraic_connectivity, 3) == 5
    assert global_offensive_laplacian_radius(10, 3, s.laplacian_radius) == (4, 6)
    assert global_defensive_degree(10, 3)[1] == 5
    assert min_alliance_number(g, spec_from_name("global_strong_defensive")).value == 5
    _ok("03", "Petersen: mu=2, mu*=5, lambda=3, girth bound 5, offensive bounds (4,6), gamma-hat 5")


def test_criterion_04_k6_minus_matching_girth():
    g = generators.complete_minus_matching(6)
    mu = spectral_summary(g).algebraic_connectivity
    assert mu == pytest.approx(4.0, abs=REAL_TOL)
    assert girth_regular_connectivity(6, mu, 4) == 3 == girth(g)
    _ok("04", "K6 minus a perfect matching: mu=4, girth bound 3 = girth")


def test_criterion_05_cube_strong_defensive():
    g = generators.hypercube(3)
    s = spectral_summary(g)
    assert strong_defensive_connectivity_degree(8, s.algebraic_connectivity, 3) == 4
    assert min_alliance_number(g, spec_from_name("strong_defensive")).value == 4 == girth(g)
    _ok("05", "3-cube: strong defensive bound 4 attained, equals girth")


def test_criterion_06_grid_global_defensive():
    g = generators.grid(2, 3)
    s = spectral_summary(g)
    assert s.spectral_radius == pytest.approx(1 + math.sqrt(2), abs=REAL_TOL)
    assert global_defensive_spectral_radius(6, s.spectral_radius)[0] == 2
    assert min_alliance_number(g, spec_from_name("global_defensive")).value == 2
    _ok("06", "2x3 grid: lambda=1+sqrt(2), global defensive bound 2 attained")


def test_criterion_07_offensive_quadratic_tightness():
    k36 = generators.complete_bipartite(3, 6)
    assert global_offensive_quadratic(9, 18, 6)[0] == 3
    assert min_alliance_number(k36, spec_from_name("global_offensive")).value == 3
    k33 = generators.complete_bipartite(3, 3)
    assert global_offensive_quadratic(6, 9, 3)[1] == 3
    assert min_alliance_number(k33, spec_from_name("global_strong_offensive")).value == 3
    _ok("07", "quadratic offensive bounds tight on K_{3,6} (plain) and K_{3,3} (strong)")


def test_criterion_08_dual_size_tightness():
    for n in range(2, 9):
        g = generators.complete(n)
        expected = math.ceil(n / 2)
        assert global_dual_size(n, g.m)[0] == expected
        assert min_alliance_number(g, spec_from_name("global_dual")).value == expected
    b = generators.bowtie()
    assert global_dual_size(5, 6)[1] == 3
    assert min_alliance_number(b, spec_from_name("global_strong_dual")).value == 3
    _ok("08", "dual size bounds tight on complete graphs n=2..8 and the bowtie graph")


def test_criterion_09_regular_girth_facts():
    for g in (generators.petersen(), generators.hypercube(3), generators.complete_minus_matching(6)):
        assert min_alliance_number(g, spec_from_name("strong_defensive")).value == girth(g)
    ico = generators.icosahedron()
    assert min_alliance_number(ico, spec_from_name("defensive")).value == girth(ico)
    _ok("09", "strong defensive = girth on 3/4-regular cases; defensive = girth on the icosahedron")


def test_criterion_10_soundness_sweep():
    graphs = list(named_graphs().values())
    graphs += random_connected_graphs(200, seed=1105, min_n=4, max_n=10)
    checked = 0
    for g in graphs:
        exact = _exact_values(g)
        for row in evaluate_all(g, spectral_summary(g)):
            if row.applicable and row.target in exact:
                assert row.value <= exact[row.target], (g, row, exact[row.target])
                checked += 1
    _ok("10", f"{checked} applicable bound evaluations over {len(graphs)} graphs, zero violations")


def test_criterion_11_counting_claims_bulk():
    rng = random.Random(314159)
    for trial in range(1000):
        n = rng.randint(2, 10)
        g = generators.gnp(n, rng.uniform(0.05, 0.95), seed=trial)
        size = rng.randint(1, n - 1)
        s = VertexSet(rng.sample(range(n), size))
        inside_in = sum((g.masks[v] & s.mask).bit_count() for v in s)
        inside_out = sum((g.masks[v] & ~s.mask).bit_count() for v in s)
        comp = [v for v in range(g.n) if v not in s]
        outside_in = sum((g.masks[v] & s.mask).bit_count() for v in comp)
        outside_out = sum((g.masks[v] & ~s.mask).bit_count() for v in comp)
        assert 2 * g.m == inside_in + 2 * inside_out + outside_out
        assert inside_out == outside_in
        assert inside_in <= s.size * (s.size - 1)
    _ok("11", "counting identities hold on 1000 random (graph, subset) pairs")


def test_criterion_12_rayleigh_sandwich_bulk():
    rng = random.Random(271828)
    for trial in range(1000):
        n = rng.randint(2, 10)
        g = generators.gnp(n, rng.uniform(0.05, 0.95), seed=10_000 + trial)
        size = rng.randint(1, n - 1)
        s = VertexSet(rng.sample(range(n), size))
        summary = spectral_summary(g)
        value = rayleigh_indicator(g, s)
        assert summary.algebraic_connectivity - REAL_TOL <= value
        assert value <= summary.laplacian_radius + REAL_TOL
    _ok("12", "indicator Rayleigh value always between mu and mu* on 1000 pairs")


def test_criterion_13_eigensolver_cross_validation():
    corpus = named_graphs()
    for name, g in corpus.items():
        s = spectral_summary(g)
        assert abs(s.spectral_radius - power_iteration_radius(g, "adjacency")) < REAL_TOL, name
        assert abs(s.laplacian_radius - power_iteration_radius(g, "laplacian")) < REAL_TOL, name
        assert sum(s.laplacian_spectrum) == pytest.approx(2 * g.m, abs=g.n * 1e-9)
        adjacency_eigs, _, _ = jacobi_spectrum(adjacency_matrix(g))
        assert sum(adjacency_eigs) == pytest.approx(0.0, abs=g.n * 1e-9)
    _ok("13", f"Jacobi and power iteration agree within 1e-6 on {len(corpus)} named graphs")


def test_criterion_14_solver_oracle_equivalence():
    rng = random.Random(6174)
    for trial in range(50):
        n = rng.randint(2, 8)
        g = generators.gnp(n, rng.uniform(0.1, 0.95), seed=20_000 + trial)
        for name in VARIANTS:
            expected = naive_minimum(g, name)
            assert min_alliance_number(g, spec_from_name(name)).value == expected, (trial, name)
    _ok("14", "pruned solver equals naive full enumeration on 50 random graphs, all variants")
