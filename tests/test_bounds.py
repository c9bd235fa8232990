import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alliances import bounds, generators
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

from corpus import regular_graphs


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

    @pytest.mark.parametrize(
        "formula, args",
        [
            pytest.param(strong_defensive_connectivity_degree, (4, 0.0, 2), id="strongdef-mu-delta"),
            pytest.param(girth_regular_connectivity, (10, 0.0, 3), id="girth-degree-3"),
            pytest.param(girth_regular_connectivity, (10, 0.0, 4), id="girth-degree-4"),
        ],
    )
    def test_rejects_zero_connectivity(self, formula, args):
        # mu is a denominator here; mu = 0 is a clean ValueError, not a ZeroDivisionError.
        with pytest.raises(ValueError, match="positive algebraic connectivity"):
            formula(*args)


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

    def test_degree_row_never_above_the_prior_row(self):
        # ceil(2n/(Delta+3)) <= ceil(n/(ceil(Delta/2)+1)): for odd Delta the
        # two quotients are equal, and for even Delta ceil(Delta/2)+1 is below
        # (Delta+3)/2. So globdef-degree never beats globdef-degree-prior on
        # global_defensive.
        pairs = equal = 0
        for n in range(1, 600):
            for delta in range(n):
                plain, prior = global_defensive_degree(n, delta)[0], global_defensive_degree_prior(n, delta)
                assert plain <= prior, (n, delta)
                pairs += 1
                equal += plain == prior
        assert (pairs, equal) == (179_700, 167_126)

    @given(st.integers(600, 10**15).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    def test_degree_row_never_above_the_prior_row_at_large_orders(self, case):
        n, delta = case
        assert global_defensive_degree(n, delta)[0] <= global_defensive_degree_prior(n, delta)


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


def _assert_lambda_rows_exact(g, monkeypatch):
    # On a d-regular graph lambda = d exactly, so each lambda row is a ceiling
    # of a rational in n, m and d. The rows must not move with SNAP set to 0:
    # SNAP decides none of them.
    n, m, d = g.n, g.m, g.regular
    expected = {
        ("globdef-lambda", "global_defensive"): math.ceil(Fraction(n, d + 2)),
        ("globdef-lambda", "global_strong_defensive"): math.ceil(Fraction(n, d + 1)),
        ("globdual-lambda", "global_dual"): math.ceil(Fraction(2 * m + n, 4 * (d + 1))),
        ("globdual-lambda", "global_strong_dual"): math.ceil(Fraction(m + n, 2 * d + 1)),
    }
    summary = spectral_summary(g)
    for snap in (bounds.SNAP, 0.0):
        monkeypatch.setattr(bounds, "SNAP", snap)
        rows = evaluate_all(g, summary, theorems=("globdef-lambda", "globdual-lambda"))
        assert {(row.theorem, row.target): row.value for row in rows} == expected


class TestLambdaRowsExactOnRegularGraphs:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in regular_graphs().items()])
    def test_named(self, g, monkeypatch):
        _assert_lambda_rows_exact(g, monkeypatch)

    def test_atlas_orders_two_to_seven(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        atlas = [h for h in nx.graph_atlas_g() if 2 <= h.number_of_nodes() <= 7 and nx.is_regular(h)]
        assert len(atlas) == 25
        for h in atlas:
            _assert_lambda_rows_exact(Graph(h.number_of_nodes(), h.edges()), monkeypatch)


def test_rows_snap_decides_on_the_atlas_of_orders_two_to_six(monkeypatch):
    # The applicable rows whose value moves when SNAP is set to 0: the
    # ceilings the 1e-7 snapping decides rather than exact arithmetic. A
    # theorem that raises with SNAP at 0 moves all of its rows. A change to
    # the spectral quantities must not raise this count. All 59 come from
    # eigenvalue error, an eigenvalue read just off the value that makes its
    # theorem an integer: dom-laplacian 14, globoff-laplacian 29,
    # strongdef-mu-delta 12, def-mu 2 and globdef-lambda 2. A disconnected
    # graph's mu is exactly 0 (one zero per component), so no row moves
    # because a noise-negative mu is rejected once SNAP is 0.
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if 2 <= h.number_of_nodes() <= 6]
    moved = rows = 0
    for h in atlas:
        g = Graph(h.number_of_nodes(), h.edges())
        summary = spectral_summary(g)
        for theorem in THEOREM_IDS:
            values = [row.value for row in evaluate_all(g, summary, theorems=(theorem,))]
            monkeypatch.setattr(bounds, "SNAP", 0.0)
            try:
                unsnapped = [row.value for row in evaluate_all(g, summary, theorems=(theorem,))]
            except ValueError:
                unsnapped = [None] * len(values)
            monkeypatch.undo()
            applicable = [(a, b) for a, b in zip(values, unsnapped) if a is not None]
            rows += len(applicable)
            moved += sum(a != b for a, b in applicable)
    assert len(atlas) == 207
    assert rows == 3445
    assert moved == 59


def _least(holds, value):
    """``value`` is the least integer k >= 0 for which ``holds(k)``."""
    return holds(value) and (value == 0 or not holds(value - 1))


def test_integer_ceilings_are_least_solutions_and_match_float_reference():
    # Every (n, m, max degree) a simple graph of order n <= 30 can have, up to
    # the degree range ceil(2m/n) .. min(n-1, m). Each degree-only value must
    # be the least integer satisfying the inequality it rounds up, and equal
    # the float-and-snap value these theorems used to take (the reference).
    for n in range(1, 31):
        for delta in range(n):
            plain, strong = global_defensive_degree(n, delta)
            prior = global_defensive_degree_prior(n, delta)
            assert _least(lambda k: k * (delta + 3) >= 2 * n, plain)
            assert _least(lambda k: k * (delta // 2 + 1) >= n, strong)
            assert _least(lambda k: k * ((delta + 1) // 2 + 1) >= n, prior)
            assert (plain, strong, prior) == (
                safe_ceil(2.0 * n / (delta + 3)),
                safe_ceil(n / (delta // 2 + 1)),
                safe_ceil(n / ((delta + 1) // 2 + 1)),
            )
        for m in range(n * (n - 1) // 2 + 1):
            plain, strong = global_dual_size(n, m)
            assert _least(lambda k: (2 * k) ** 2 >= 2 * m + n, plain)
            assert _least(lambda k: 4 * k - 1 >= 0 and (4 * k - 1) ** 2 >= 1 + 8 * (n + m), strong)
            assert (plain, strong) == (
                safe_ceil(math.sqrt(2 * m + n) / 2.0),
                safe_ceil((1.0 + math.sqrt(1.0 + 8.0 * (n + m))) / 4.0),
            )
            for delta in range(-(-2 * m // n), min(n - 1, m) + 1):
                # k is at least the smaller root of 2k^2 - b k + c = 0,
                # i.e. b - 4k <= sqrt(b^2 - 8c).
                b_plain, c_plain = 2 * n + delta + 1, 2 * m + n
                b_strong, c_strong = 2 * n + delta + 2, 2 * (m + n)
                plain, strong = global_offensive_quadratic(n, m, delta)
                for value, b, c in ((plain, b_plain, c_plain), (strong, b_strong, c_strong)):
                    assert _least(lambda k: b - 4 * k <= 0 or (b - 4 * k) ** 2 <= b * b - 8 * c, value)
                assert (plain, strong) == (
                    safe_ceil((b_plain - math.sqrt(b_plain * b_plain - 8 * c_plain)) / 4.0),
                    safe_ceil((b_strong - math.sqrt(b_strong * b_strong - 8 * c_strong)) / 4.0),
                )


def _half_up(k):
    return math.ceil(Fraction(k, 2))


# The seven spectral formulas against their docstrings in exact arithmetic,
# the girth theorem once per degree. Each entry calls the formula on (n, m,
# min degree, max degree, x) and gives the docstring's value for each target,
# or None where a denominator is 0.
_SPECTRAL_FORMULAS = {
    "def-mu": (
        lambda n, m, lo, hi, x: defensive_connectivity(n, x),
        lambda n, m, lo, hi, x: (n * x / (n + x), n * (x + 1) / (n + x)),
    ),
    "strongdef-mu-delta": (
        lambda n, m, lo, hi, x: (strong_defensive_connectivity_degree(n, x, hi),),
        lambda n, m, lo, hi, x: (n * (x - hi // 2) / x,) if x else None,
    ),
    "globdef-lambda": (
        lambda n, m, lo, hi, x: global_defensive_spectral_radius(n, x),
        lambda n, m, lo, hi, x: (n / (x + 2), n / (x + 1)),
    ),
    "girth-regular-mu-3": (
        lambda n, m, lo, hi, x: (girth_regular_connectivity(n, x, 3),),
        lambda n, m, lo, hi, x: (n * (x - 1) / x,) if x else None,
    ),
    "girth-regular-mu-4": (
        lambda n, m, lo, hi, x: (girth_regular_connectivity(n, x, 4),),
        lambda n, m, lo, hi, x: (n * (x - 2) / x,) if x else None,
    ),
    "girth-regular-mu-5": (
        lambda n, m, lo, hi, x: (girth_regular_connectivity(n, x, 5),),
        lambda n, m, lo, hi, x: (n * x / (n + x),),
    ),
    "globoff-laplacian": (
        lambda n, m, lo, hi, x: global_offensive_laplacian_radius(n, lo, x),
        lambda n, m, lo, hi, x: (n / x * _half_up(lo + 1), n / x * (_half_up(lo) + 1)) if x else None,
    ),
    "globdual-lambda": (
        lambda n, m, lo, hi, x: global_dual_spectral_radius(n, m, x),
        lambda n, m, lo, hi, x: ((2 * m + n) / (4 * (x + 1)), (m + n) / (2 * x + 1)),
    ),
    "dom-laplacian": (
        lambda n, m, lo, hi, x: (domination_laplacian_radius(n, x),),
        lambda n, m, lo, hi, x: (n / x,) if x else None,
    ),
}


@pytest.mark.parametrize("theorem", list(_SPECTRAL_FORMULAS))
def test_spectral_formulas_transcribe_their_docstrings(theorem):
    # The normal form _spectral_ceil evaluates hides each theorem's formula,
    # so this checks every coefficient. The x values are dyadic, exact in
    # binary; a value within 1e-6 of an integer is left to SNAP.
    formula, exact = _SPECTRAL_FORMULAS[theorem]
    checked = 0
    for n in (2, 3, 5, 8, 12):
        dyadic = [Fraction(k, 8) for k in range(8 * n + 9)] + [Fraction(1, 1024)]
        for hi in range(n):
            for lo in sorted({0, hi // 2, hi}):
                for m in sorted({-(-n * lo // 2), n * hi // 2}):
                    for x in dyadic:
                        values = exact(n, m, lo, hi, x)
                        if values is None:
                            with pytest.raises(ValueError, match="requires a positive"):
                                formula(n, m, lo, hi, float(x))
                            continue
                        got = formula(n, m, lo, hi, float(x))
                        for value, v in zip(got, values, strict=True):
                            if abs(v - round(v)) >= Fraction(1, 10**6):
                                assert value == max(0, math.ceil(v)), (n, m, lo, hi, x)
                                checked += 1
    assert checked > 1000


class TestDominationBound:
    def test_petersen(self):
        assert domination_laplacian_radius(10, 5.0) == 2

    def test_complete(self):
        assert domination_laplacian_radius(8, 8.0) == 1

    def test_c4(self):
        assert domination_laplacian_radius(4, 4.0) == 1

    def test_never_above_the_counting_bound_on_the_atlas(self):
        # mu* >= Delta + 1 on every graph with an edge (Grone & Merris 1994),
        # so ceil(n/mu*) <= ceil(n/(Delta+1)), the classical counting bound
        # on domination.
        nx = pytest.importorskip("networkx")
        atlas = [h for h in nx.graph_atlas_g() if 2 <= h.number_of_nodes() <= 6 and h.number_of_edges()]
        for h in atlas:
            g = Graph(h.number_of_nodes(), h.edges())
            summary = spectral_summary(g)
            assert summary.laplacian_radius >= g.max_degree + 1 - 1e-9, nx.to_graph6_bytes(h)
            (row,) = evaluate_all(g, summary, theorems=("dom-laplacian",))
            assert row.value <= -(-g.n // (g.max_degree + 1)), nx.to_graph6_bytes(h)
        assert len(atlas) == 202

    def test_never_above_the_counting_bound_on_the_corpus(self, corpus):
        graphs = [g for g in corpus.values() if g.m]
        for g in graphs:
            summary = spectral_summary(g)
            assert summary.laplacian_radius >= g.max_degree + 1 - 1e-9, g.adjacency
            (row,) = evaluate_all(g, summary, theorems=("dom-laplacian",))
            assert row.value <= -(-g.n // (g.max_degree + 1)), g.adjacency
        assert len(graphs) == 19


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

    def test_summary_is_required_above_order_one(self, corpus):
        # Without a summary, an order-10 graph would read "spectral summary
        # unavailable (order < 2)" on every spectral row.
        with pytest.raises(ValueError, match="order 10 needs its spectral summary"):
            evaluate_all(corpus["petersen"], None)

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

    def test_inputs_are_passed_by_name(self, monkeypatch):
        # The formula's parameters name the quantities it reads, in any order:
        # a row taking (m, n) gets each by name, never n where m belongs.
        planted = bounds._Theorem("globdual-size", ("global_dual",), lambda m, n: 100 * m + n)
        assert planted.inputs == ("m", "n")
        monkeypatch.setattr(bounds, "_THEOREMS", (planted,))
        g = generators.path(5)
        (row,) = evaluate_all(g, spectral_summary(g))
        assert row.value == 405

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

    from alliances.alliance_solver import min_alliance_number, spec_from_name
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
            "domination",
        )
    }
    g_girth = girth_of(g)
    if not math.isinf(g_girth):
        exact["girth"] = g_girth
    for row in rows:
        if row.applicable and row.target in exact:
            assert row.value <= exact[row.target], (row, exact[row.target])
