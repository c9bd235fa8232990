import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from alliances import generators, spectral
from alliances.graph_core import Graph, VertexSet
from alliances.spectral import (
    ConvergenceError,
    UndefinedQuantityError,
    adjacency_matrix,
    jacobi_spectrum,
    spectral_summary,
)

from corpus import named_graphs, regular_graphs
from spectral_oracle import power_iteration_radius, rayleigh_indicator
from strategies import graph_and_proper_subset, graphs

TOL = 1e-6
# sha256 of every bit jacobi_spectrum returns in
# TestJacobiSolver.test_arithmetic_is_pinned.
JACOBI_DIGEST = "b06102a487fc6b325f460eb6d6f5a639f5df67d8937ed41f0d00e5cfb54d5248"


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


class TestRegularGraphs:
    # A d-regular graph's spectral radius is d exactly, with no adjacency solve.
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in regular_graphs().items()])
    def test_radius_is_the_degree_and_only_the_laplacian_is_solved(self, g):
        d = g.regular
        s = spectral_summary(g)
        assert s.spectral_radius.hex() == float(d).hex()
        a = adjacency_matrix(g)
        assert abs(s.spectral_radius - max(np.linalg.eigvalsh(a))) < 1e-12
        assert s.sweeps == jacobi_spectrum(np.diag(a.sum(axis=1)) - a)[1]

    def test_irregular_graph_solves_both_matrices(self):
        # The bowtie has triangles, so neither shortcut applies.
        g = generators.bowtie()
        a = adjacency_matrix(g)
        s = spectral_summary(g)
        assert s.sweeps == jacobi_spectrum(np.diag(a.sum(axis=1)) - a)[1] + jacobi_spectrum(a)[1]


BIPARTITE = {
    **{f"path:{n}": generators.path(n) for n in (3, 4, 7, 24)},
    **{f"grid:{r}:{c}": generators.grid(r, c) for r, c in ((2, 3), (3, 3), (3, 4), (4, 7))},
    **{f"star:{k}": generators.complete_bipartite(1, k) for k in (2, 4, 9)},
    "complete_bipartite:3:7": generators.complete_bipartite(3, 7),
    "complete_bipartite:5:2": generators.complete_bipartite(5, 2),
    "path:5+star:3": Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 7), (5, 8)]),
    "isolated+path:4+isolated:2": Graph(7, [(1, 2), (2, 3), (3, 4)]),
    "k2": generators.complete(2),
}


class TestBipartiteGraphs:
    # An irregular bipartite graph's spectral radius is the square root of the
    # top eigenvalue of BB^T, the common-neighbour counts of one colour class.
    def test_grid_solves_its_laplacian_and_the_half_order_matrix(self):
        # grid(3, 3): the class of 1, 3, 5, 7 is the smaller one. Each has
        # three neighbours; 1 and 7, and 3 and 5, share only the centre, and
        # every other pair shares two.
        g = generators.grid(3, 3)
        a = adjacency_matrix(g)
        common = np.array([[3, 2, 2, 1], [2, 3, 1, 2], [2, 1, 3, 2], [1, 2, 2, 3]], dtype=float)
        s = spectral_summary(g)
        assert s.sweeps == jacobi_spectrum(np.diag(a.sum(axis=1)) - a)[1] + jacobi_spectrum(common)[1]
        assert s.spectral_radius == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("name", list(BIPARTITE))
    def test_radius_matches_eigvalsh(self, name):
        g = BIPARTITE[name]
        assert abs(spectral_summary(g).spectral_radius - np.linalg.eigvalsh(adjacency_matrix(g))[-1]) < 1e-12

    def test_perfect_square_star_radius_is_exact(self):
        # BB^T of K_{1,9} is the 1x1 matrix [9], which needs no rotation.
        assert spectral_summary(generators.complete_bipartite(1, 9)).spectral_radius == 3.0


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
        assert spectrum[0] == 0.0
        assert sum(spectrum) == pytest.approx(2 * g.m, abs=g.n * 1e-9)
        adj_eigs, _, _ = jacobi_spectrum(adjacency_matrix(g))
        assert sum(adj_eigs) == pytest.approx(0.0, abs=g.n * 1e-9)
        max_degree = max(len(a) for a in g.adjacency)
        assert s.spectral_radius <= max_degree + 1e-8
        assert 0.0 <= s.algebraic_connectivity <= s.laplacian_radius + 1e-12
        assert s.laplacian_radius <= min(2 * max_degree, g.n) + 1e-8

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_iff_positive_second_eigenvalue(self, g):
        s = spectral_summary(g)
        if g.components == 1:
            assert s.algebraic_connectivity > 0.0
        else:
            assert s.algebraic_connectivity == 0.0

    @pytest.mark.parametrize(
        "g, components",
        [
            # Two triangles (graph6 EJaG): Jacobi alone reads mu as -9.06e-17.
            (Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 2),
            (BIPARTITE["isolated+path:4+isolated:2"], 4),
            (Graph(3), 3),
        ],
    )
    def test_one_exact_zero_per_component(self, g, components):
        spectrum = spectral_summary(g).laplacian_spectrum
        assert spectrum[:components] == (0.0,) * components
        assert all(x > 1e-8 for x in spectrum[components:])


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

    def test_arithmetic_is_pinned(self):
        # A faster kernel must apply the same rotations in the same order with
        # the same float64 operations, so every eigenvalue bit, sweep count and
        # residual stays as recorded here.
        specs = [f"gnp:10:0.5:seed={seed}" for seed in range(20)]
        specs += ["grid:4:6", "gnp:22:0.25:seed=0", "gnp:60:0.1:seed=0"]
        built = [generators.build(generators.parse_family(spec)) for spec in specs]
        digest = hashlib.sha256()
        for g in [*named_graphs().values(), *built]:
            a = adjacency_matrix(g)
            for matrix in (np.diag(a.sum(axis=1)) - a, a):
                eigenvalues, sweeps, residual = jacobi_spectrum(matrix)
                hexes = ",".join(x.hex() for x in eigenvalues.tolist())
                digest.update(f"{hexes} {sweeps} {residual.hex()}\n".encode())
        assert digest.hexdigest() == JACOBI_DIGEST


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
