import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from alliances import generators, spectral
from alliances.graph_core import Graph, VertexSet, is_connected
from alliances.spectral import (
    ConvergenceError,
    UndefinedQuantityError,
    adjacency_matrix,
    jacobi_spectrum,
    spectral_summary,
)

from spectral_oracle import power_iteration_radius, rayleigh_indicator
from strategies import graph_and_proper_subset, graphs

TOL = 1e-6


class TestKnownSpectra:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graph_connectivity_is_n(self, n):
        s = spectral_summary(generators.complete(n))
        assert s.algebraic_connectivity == pytest.approx(n, abs=TOL)
        assert s.spectral_radius == pytest.approx(n - 1, abs=TOL)
        assert s.laplacian_radius == pytest.approx(n, abs=TOL)

    def test_petersen(self):
        s = spectral_summary(generators.petersen())
        assert s.spectral_radius == pytest.approx(3.0, abs=TOL)
        assert s.algebraic_connectivity == pytest.approx(2.0, abs=TOL)
        assert s.laplacian_radius == pytest.approx(5.0, abs=TOL)

    def test_icosahedron(self):
        s = spectral_summary(generators.icosahedron())
        assert s.algebraic_connectivity == pytest.approx(5 - math.sqrt(5), abs=TOL)

    def test_grid_2x3_radius(self):
        s = spectral_summary(generators.grid(2, 3))
        assert s.spectral_radius == pytest.approx(1 + math.sqrt(2), abs=TOL)

    def test_k6_minus_matching_connectivity(self):
        s = spectral_summary(generators.complete_minus_matching(6))
        assert s.algebraic_connectivity == pytest.approx(4.0, abs=TOL)

    def test_cube_connectivity(self):
        s = spectral_summary(generators.hypercube(3))
        assert s.algebraic_connectivity == pytest.approx(2.0, abs=TOL)

    def test_c4_laplacian_spectrum(self):
        # 4-cycle Laplacian eigenvalues worked out by hand: {0, 2, 2, 4}
        s = spectral_summary(generators.cycle(4))
        assert s.laplacian_spectrum == pytest.approx((0.0, 2.0, 2.0, 4.0), abs=TOL)

    def test_complete_bipartite_radius_is_geometric_mean(self):
        for a, b in [(3, 3), (3, 6)]:
            s = spectral_summary(generators.complete_bipartite(a, b))
            assert s.spectral_radius == pytest.approx(math.sqrt(a * b), abs=TOL)


class TestSummaryInvariants:
    def test_order_one_has_no_connectivity(self):
        with pytest.raises(UndefinedQuantityError):
            spectral_summary(Graph(1))

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_shape_and_traces(self, g):
        s = spectral_summary(g)
        spectrum = s.laplacian_spectrum
        assert len(spectrum) == g.n
        assert list(spectrum) == sorted(spectrum)
        assert abs(spectrum[0]) < 1e-8
        assert sum(spectrum) == pytest.approx(2 * g.m, abs=g.n * 1e-9)
        adj_eigs, _, _ = jacobi_spectrum(adjacency_matrix(g))
        assert sum(adj_eigs) == pytest.approx(0.0, abs=g.n * 1e-9)
        max_degree = max(len(a) for a in g.adjacency)
        assert s.spectral_radius <= max_degree + 1e-8
        assert -1e-8 <= s.algebraic_connectivity <= s.laplacian_radius + 1e-12
        assert s.laplacian_radius <= min(2 * max_degree, g.n) + 1e-8

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_iff_positive_second_eigenvalue(self, g):
        s = spectral_summary(g)
        assert (s.algebraic_connectivity > 1e-8) == is_connected(g)


class TestRayleighIndicator:
    def test_complete_graph_value_is_n(self):
        g = generators.complete(7)
        assert rayleigh_indicator(g, VertexSet([0, 2, 4])) == pytest.approx(7.0)

    def test_zero_cut(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert rayleigh_indicator(g, VertexSet([0, 1])) == 0.0

    def test_petersen_single_vertex(self):
        g = generators.petersen()
        assert rayleigh_indicator(g, VertexSet([0])) == pytest.approx(10 * 3 / 9)

    def test_rejects_empty_and_full(self):
        g = generators.complete(3)
        with pytest.raises(ValueError):
            rayleigh_indicator(g, VertexSet())
        with pytest.raises(ValueError):
            rayleigh_indicator(g, VertexSet([0, 1, 2]))

    @given(graph_and_proper_subset())
    @settings(max_examples=80, deadline=None)
    def test_sandwich(self, pair):
        g, s = pair
        summary = spectral_summary(g)
        value = rayleigh_indicator(g, s)
        assert summary.algebraic_connectivity - TOL <= value <= summary.laplacian_radius + TOL


class TestPowerIteration:
    def test_complete_adjacency(self):
        assert power_iteration_radius(generators.complete(5), "adjacency") == pytest.approx(4.0, abs=TOL)

    def test_c4_laplacian(self):
        assert power_iteration_radius(generators.cycle(4), "laplacian") == pytest.approx(4.0, abs=TOL)

    def test_petersen_adjacency(self):
        assert power_iteration_radius(generators.petersen(), "adjacency") == pytest.approx(3.0, abs=TOL)

    def test_bipartite_adjacency_needs_the_shift(self):
        # C_6 has eigenvalues +-2; an unshifted iteration would oscillate
        assert power_iteration_radius(generators.cycle(6), "adjacency") == pytest.approx(2.0, abs=TOL)

    def test_edgeless(self):
        assert power_iteration_radius(Graph(3), "laplacian") == 0.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            power_iteration_radius(generators.complete(3), "hessian")

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError):
            power_iteration_radius(generators.petersen(), "laplacian", tol=1e-12, max_iter=2)

    def test_agrees_with_jacobi_on_corpus(self, corpus):
        for name, g in corpus.items():
            summary = spectral_summary(g)
            lam_power = power_iteration_radius(g, "adjacency")
            mu_star_power = power_iteration_radius(g, "laplacian")
            assert abs(summary.spectral_radius - lam_power) < 1e-6, name
            assert abs(summary.laplacian_radius - mu_star_power) < 1e-6, name


class TestJacobiSolver:
    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9):
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            ours, _, residual = jacobi_spectrum(m)
            assert residual < 1e-10
            assert np.allclose(ours, np.linalg.eigvalsh(m), atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_spectrum(np.zeros((2, 3)))

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
        a = adjacency_matrix(generators.petersen())
        with pytest.raises(ConvergenceError) as exc_info:
            jacobi_spectrum(np.diag(a.sum(axis=1)) - a)
        assert exc_info.value.residual > 0


def test_random_subset_sandwich_bulk():
    # direct seeded sweep, heavier than the hypothesis version above
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = generators.gnp(n, rng.uniform(0.1, 0.9), seed=rng.randrange(2**32))
        size = rng.randint(1, n - 1)
        s = VertexSet(rng.sample(range(n), size))
        summary = spectral_summary(g)
        value = rayleigh_indicator(g, s)
        assert summary.algebraic_connectivity - TOL <= value <= summary.laplacian_radius + TOL
