import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alliances import generators
from alliances.bounds import (
    THEOREM_IDS,
    defensive_connectivity,
    domination_laplacian_radius,
    evaluate_all,
    girth_regular_connectivity,
    global_defensive_degree,
    global_defensive_degree_prior,
    global_defensive_spectral_radius,
    global_dual_size,
    global_dual_spectral_radius,
    global_offensive_laplacian_radius,
    global_offensive_quadratic,
    safe_ceil,
    strong_defensive_connectivity_degree,
)
from alliances.graph_core import Graph
from alliances.spectral import spectral_summary


class TestSafeCeil:
    def test_snaps_from_below(self):
        assert safe_ceil(4.9999999997) == 5

    def test_snaps_from_above(self):
        assert safe_ceil(5.0000000004) == 5

    def test_plain_ceiling(self):
        assert safe_ceil(2.2474) == 3

    def test_exact_integer(self):
        assert safe_ceil(3.0) == 3

    def test_negative_values(self):
        assert safe_ceil(-1.5) == -1
        assert safe_ceil(-2.00000000004) == -2

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                safe_ceil(bad)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert safe_ceil(lo) <= safe_ceil(hi)

    @given(st.floats(-1e6, 1e6))
    def test_equals_ceil_away_from_integers(self, x):
        if abs(x - round(x)) >= 1e-7:
            assert safe_ceil(x) == math.ceil(x)


class TestDefensiveConnectivity:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graph_values(self, n):
        assert defensive_connectivity(n, float(n)) == (math.ceil(n / 2), math.ceil((n + 1) / 2))

    def test_icosahedron(self):
        plain, _ = defensive_connectivity(12, 5 - math.sqrt(5))
        assert plain == 3

    def test_degenerate_zero_connectivity(self):
        assert defensive_connectivity(8, 0.0) == (0, 1)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            defensive_connectivity(1, 0.5)


class TestStrongDefensiveConnectivityDegree:
    def test_petersen(self):
        assert strong_defensive_connectivity_degree(10, 2.0, 3) == 5

    def test_cube(self):
        assert strong_defensive_connectivity_degree(8, 2.0, 3) == 4

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete(self, n):
        assert strong_defensive_connectivity_degree(n, float(n), n - 1) == math.ceil((n + 1) / 2)

    def test_clamped_at_zero(self):
        # star: mu = 1, max degree 8 makes the raw formula negative
        assert strong_defensive_connectivity_degree(9, 1.0, 8) == 0

    def test_rejects_zero_connectivity(self):
        with pytest.raises(ValueError):
            strong_defensive_connectivity_degree(4, 0.0, 2)


class TestGlobalDefensive:
    def test_grid_spectral_radius(self):
        plain, _ = global_defensive_spectral_radius(6, 1 + math.sqrt(2))
        assert plain == 2

    def test_complete_graph_is_trivial(self):
        assert global_defensive_spectral_radius(6, 5.0)[0] == 1

    def test_petersen_strong(self):
        assert global_defensive_spectral_radius(10, 3.0)[1] == 3

    def test_degree_bounds(self):
        assert global_defensive_degree(10, 3) == (4, 5)
        assert global_defensive_degree(4, 3)[0] == 2
        assert global_defensive_degree(9, 8)[0] == 2

    def test_degree_prior(self):
        assert global_defensive_degree_prior(9, 8) == 2
        assert global_defensive_degree_prior(10, 3) == 4


class TestGirthRegular:
    def test_petersen(self):
        assert girth_regular_connectivity(10, 2.0, 3) == 5

    def test_k6_minus_matching(self):
        assert girth_regular_connectivity(6, 4.0, 4) == 3

    def test_icosahedron(self):
        assert girth_regular_connectivity(12, 5 - math.sqrt(5), 5) == 3

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            girth_regular_connectivity(8, 2.0, 6)


class TestGlobalOffensive:
    def test_petersen_laplacian(self):
        assert global_offensive_laplacian_radius(10, 3, 5.0) == (4, 6)

    def test_k2(self):
        assert global_offensive_laplacian_radius(2, 1, 2.0)[0] == 1

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            global_offensive_laplacian_radius(3, 0, 0.0)

    def test_quadratic_k36(self):
        assert global_offensive_quadratic(9, 18, 6)[0] == 3

    def test_quadratic_k33_strong(self):
        assert global_offensive_quadratic(6, 9, 3)[1] == 3

    def test_quadratic_rejects_inconsistent_inputs(self):
        with pytest.raises(ValueError, match="discriminant"):
            global_offensive_quadratic(3, 50, 1)


class TestGlobalDual:
    def test_lambda_bounds(self):
        assert global_dual_spectral_radius(4, 6, 3.0)[0] == 1
        assert global_dual_spectral_radius(10, 15, 3.0)[0] == 3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_size_bound_on_complete(self, n):
        assert global_dual_size(n, n * (n - 1) // 2)[0] == math.ceil(n / 2)

    def test_size_bound_strong_bowtie(self):
        assert global_dual_size(5, 6)[1] == 3

    def test_size_bound_k2(self):
        assert global_dual_size(2, 1)[0] == 1


class TestDominationBound:
    def test_petersen(self):
        assert domination_laplacian_radius(10, 5.0) == 2

    def test_complete(self):
        assert domination_laplacian_radius(8, 8.0) == 1

    def test_c4(self):
        assert domination_laplacian_radius(4, 4.0) == 1


class TestEvaluateAll:
    def test_every_theorem_reports_once_per_target(self, corpus):
        rows = evaluate_all(corpus["petersen"], spectral_summary(corpus["petersen"]))
        assert [(row.theorem, row.target) for row in rows] == [
            ("def-mu", "defensive"),
            ("def-mu", "strong_defensive"),
            ("strongdef-mu-delta", "strong_defensive"),
            ("globdef-lambda", "global_defensive"),
            ("globdef-lambda", "global_strong_defensive"),
            ("globdef-degree", "global_defensive"),
            ("globdef-degree", "global_strong_defensive"),
            ("globdef-degree-prior", "global_defensive"),
            ("girth-regular-mu", "girth"),
            ("globoff-laplacian", "global_offensive"),
            ("globoff-laplacian", "global_strong_offensive"),
            ("globoff-quadratic", "global_offensive"),
            ("globoff-quadratic", "global_strong_offensive"),
            ("globdual-lambda", "global_dual"),
            ("globdual-lambda", "global_strong_dual"),
            ("globdual-size", "global_dual"),
            ("globdual-size", "global_strong_dual"),
            ("dom-laplacian", "domination"),
        ]
        assert THEOREM_IDS == tuple(dict.fromkeys(row.theorem for row in rows))
        assert all(row.applicable for row in rows)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            evaluate_all(generators.complete(3), None, theorems=["def-mu", "globdef-mu"])

    def test_theorem_filter(self):
        rows = evaluate_all(generators.complete(4), spectral_summary(generators.complete(4)), theorems=["globdual-size"])
        assert {row.theorem for row in rows} == {"globdual-size"}

    def test_irregular_graph_skips_girth_bound(self, corpus):
        rows = evaluate_all(corpus["k36"], spectral_summary(corpus["k36"]))
        girth_row = next(row for row in rows if row.theorem == "girth-regular-mu")
        assert not girth_row.applicable
        assert "not regular" in girth_row.reason

    def test_wrong_degree_skips_girth_bound(self, corpus):
        rows = evaluate_all(corpus["c6"], spectral_summary(corpus["c6"]))
        girth_row = next(row for row in rows if row.theorem == "girth-regular-mu")
        assert not girth_row.applicable
        assert "degree 2" in girth_row.reason

    def test_disconnected_graph_flags(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rows = evaluate_all(g, spectral_summary(g))
        by_id = {(row.theorem, row.target): row for row in rows}
        assert by_id[("def-mu", "defensive")].degenerate
        assert by_id[("def-mu", "defensive")].value == 0
        assert not by_id[("strongdef-mu-delta", "strong_defensive")].applicable
        assert not by_id[("girth-regular-mu", "girth")].applicable

    def test_edgeless_graph_skips_laplacian_quotients(self):
        g = Graph(3)
        rows = evaluate_all(g, spectral_summary(g))
        by_id = {(row.theorem, row.target): row for row in rows}
        assert not by_id[("globoff-laplacian", "global_offensive")].applicable
        assert not by_id[("dom-laplacian", "domination")].applicable
        assert by_id[("globoff-quadratic", "global_offensive")].applicable

    def test_order_one_graph_skips_spectral_theorems(self):
        rows = evaluate_all(Graph(1), None)
        spectral_free = {"globdef-degree", "globdef-degree-prior", "globoff-quadratic", "globdual-size"}
        for row in rows:
            assert row.applicable == (row.theorem in spectral_free), row

    def test_values_never_negative(self, corpus):
        for g in corpus.values():
            for row in evaluate_all(g, spectral_summary(g)):
                if row.applicable:
                    assert row.value >= 0
                else:
                    assert row.value is None and row.reason


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bounds_sound_on_random_graphs(seed):
    """Light randomized soundness check; the acceptance suite runs the big one."""
    import random

    from alliances.alliance_solver import domination_number, min_alliance_number, spec_from_name
    from alliances.graph_core import girth as girth_of

    rng = random.Random(seed)
    g = generators.gnp(rng.randint(2, 8), rng.uniform(0.2, 0.9), seed=seed)
    rows = evaluate_all(g, spectral_summary(g))
    exact = {
        name: min_alliance_number(g, spec_from_name(name)).value
        for name in (
            "defensive",
            "strong_defensive",
            "global_defensive",
            "global_strong_defensive",
            "global_offensive",
            "global_strong_offensive",
            "global_dual",
            "global_strong_dual",
        )
    }
    exact["domination"] = domination_number(g).value
    g_girth = girth_of(g)
    if not math.isinf(g_girth):
        exact["girth"] = g_girth
    for row in rows:
        if row.applicable and row.target in exact:
            assert row.value <= exact[row.target], (row, exact[row.target])
