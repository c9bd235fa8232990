import dataclasses
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from alliances import generators
from alliances.generators import GraphFamilySpec, build
from alliances.alliance_solver import (
    AllianceSpec,
    ResourceLimitError,
    SearchBudgetExceeded,
    SearchLimits,
    VARIANTS,
    domination_number,
    is_alliance,
    is_dominating_set,
    min_alliance_number,
    spec_from_name,
    _search_exact,
    _tables,
)
from alliances.graph_core import Graph, VertexSet, degree_stats, girth

from naive import naive_minimum, naive_minimum_witness
from strategies import graph_and_proper_subset, graphs

DEFENSIVE = spec_from_name("defensive")
STRONG_DEFENSIVE = spec_from_name("strong_defensive")
GLOBAL_DEFENSIVE = spec_from_name("global_defensive")
GLOBAL_STRONG_DEFENSIVE = spec_from_name("global_strong_defensive")
GLOBAL_OFFENSIVE = spec_from_name("global_offensive")
GLOBAL_STRONG_OFFENSIVE = spec_from_name("global_strong_offensive")
GLOBAL_DUAL = spec_from_name("global_dual")
GLOBAL_STRONG_DUAL = spec_from_name("global_strong_dual")

class TestAllianceSpec:
    def test_names_round_trip(self):
        for name in VARIANTS:
            assert spec_from_name(name).name == name

    def test_dual_requires_global(self):
        with pytest.raises(ValueError):
            AllianceSpec("dual")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AllianceSpec("diplomatic")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            spec_from_name("defensive-ish")

    def test_domination_is_not_an_alliance(self):
        # It is a row of the same table, though, and so a spec like the
        # others: the centre of a star dominates it without defending itself.
        star = generators.complete_bipartite(1, 8)
        assert is_alliance(star, VertexSet([0]), AllianceSpec("domination"))
        assert not is_alliance(star, VertexSet([0]), DEFENSIVE)

    def test_name_is_the_only_field(self):
        assert [field.name for field in dataclasses.fields(AllianceSpec)] == ["name"]


class TestPredicates:
    def test_triangle_pair_is_defensive(self):
        g = generators.complete(3)
        assert is_alliance(g, VertexSet([0, 1]), DEFENSIVE)

    def test_triangle_singleton_is_not(self):
        g = generators.complete(3)
        assert not is_alliance(g, VertexSet([0]), DEFENSIVE)

    def test_path_center_is_global_offensive(self):
        g = generators.path(3)
        assert is_alliance(g, VertexSet([1]), GLOBAL_OFFENSIVE)

    def test_no_small_global_strong_offensive_in_petersen(self):
        # every outsider has degree 3 and would need 2*in >= 5
        g = generators.petersen()
        assert not any(
            is_alliance(g, VertexSet(c), GLOBAL_STRONG_OFFENSIVE)
            for c in combinations(range(10), 4)
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_alliance(generators.complete(3), VertexSet(), DEFENSIVE)
        with pytest.raises(ValueError):
            is_dominating_set(generators.complete(3), VertexSet())

    def test_set_beyond_the_order_rejected(self):
        with pytest.raises(ValueError, match="contains indices >= n=3"):
            is_alliance(generators.complete(3), VertexSet([0, 7]), DEFENSIVE)

    def test_full_set_satisfies_everything(self, corpus):
        for g in corpus.values():
            full = VertexSet(range(g.n))
            for name in VARIANTS:
                assert is_alliance(g, full, spec_from_name(name))

    def test_component_is_offensive_with_empty_boundary(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        # {3, 4} has an empty boundary, so the offensive condition is vacuous
        assert is_alliance(g, VertexSet([3, 4]), spec_from_name("offensive"))
        assert is_alliance(g, VertexSet([3, 4]), spec_from_name("strong_offensive"))

    @given(graph_and_proper_subset())
    @settings(max_examples=100, deadline=None)
    def test_strong_implies_plain(self, pair):
        g, s = pair
        for plain, strong in [
            (DEFENSIVE, STRONG_DEFENSIVE),
            (GLOBAL_OFFENSIVE, GLOBAL_STRONG_OFFENSIVE),
            (GLOBAL_DUAL, GLOBAL_STRONG_DUAL),
        ]:
            if is_alliance(g, s, strong):
                assert is_alliance(g, s, plain)

    @given(graph_and_proper_subset())
    @settings(max_examples=100, deadline=None)
    def test_global_alliances_dominate(self, pair):
        g, s = pair
        for spec in (GLOBAL_DEFENSIVE, GLOBAL_OFFENSIVE, GLOBAL_DUAL):
            if is_alliance(g, s, spec):
                assert is_dominating_set(g, s)


class TestKnownMinima:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_defensive(self, n):
        g = generators.complete(n)
        assert min_alliance_number(g, DEFENSIVE).value == math.ceil(n / 2)
        assert min_alliance_number(g, STRONG_DEFENSIVE).value == math.ceil((n + 1) / 2)

    def test_icosahedron_defensive(self):
        assert min_alliance_number(generators.icosahedron(), DEFENSIVE).value == 3

    def test_grid_global_defensive(self):
        assert min_alliance_number(generators.grid(2, 3), GLOBAL_DEFENSIVE).value == 2

    def test_petersen_family(self):
        g = generators.petersen()
        assert min_alliance_number(g, GLOBAL_STRONG_DEFENSIVE).value == 5
        assert min_alliance_number(g, GLOBAL_OFFENSIVE).value == 4
        assert min_alliance_number(g, GLOBAL_STRONG_OFFENSIVE).value == 6
        assert min_alliance_number(g, GLOBAL_DUAL).value == 6
        assert min_alliance_number(g, GLOBAL_STRONG_DUAL).value == 9

    def test_k36_global_offensive(self):
        assert min_alliance_number(generators.complete_bipartite(3, 6), GLOBAL_OFFENSIVE).value == 3

    def test_k33_global_strong_offensive(self):
        assert min_alliance_number(generators.complete_bipartite(3, 3), GLOBAL_STRONG_OFFENSIVE).value == 3

    def test_bowtie_duals(self):
        g = generators.bowtie()
        assert min_alliance_number(g, GLOBAL_STRONG_DUAL).value == 3
        assert min_alliance_number(g, GLOBAL_DUAL).value == 3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_global_dual(self, n):
        g = generators.complete(n)
        assert min_alliance_number(g, GLOBAL_DUAL).value == math.ceil(n / 2)

    def test_domination(self):
        assert domination_number(generators.complete(7)).value == 1
        assert domination_number(generators.cycle(6)).value == 2
        assert domination_number(generators.petersen()).value == 3


class TestRegularGirthFacts:
    def test_strong_defensive_equals_girth_for_degree_3_and_4(self):
        for g in (
            generators.petersen(),
            generators.hypercube(3),
            generators.complete(5),
            generators.complete_minus_matching(6),
        ):
            assert min_alliance_number(g, STRONG_DEFENSIVE).value == girth(g)

    def test_defensive_equals_girth_for_degree_5(self):
        g = generators.icosahedron()
        assert min_alliance_number(g, DEFENSIVE).value == girth(g)


class TestWitnesses:
    def test_witness_satisfies_and_matches_value(self, corpus):
        for g in corpus.values():
            for name in ("defensive", "global_offensive", "global_strong_dual"):
                spec = spec_from_name(name)
                result = min_alliance_number(g, spec)
                assert result.witness.size == result.value
                assert is_alliance(g, result.witness, spec)

    def test_witness_is_lexicographically_smallest(self):
        # Unequal degrees: a search that tried high-degree vertices first
        # would find a different minimum set first on these graphs.
        candidates = [generators.path(n) for n in range(2, 10)]
        candidates += [generators.grid(2, 3), generators.grid(2, 4), generators.grid(3, 3)]
        rng = random.Random(99)
        candidates += [generators.gnp(rng.randint(5, 9), rng.uniform(0.25, 0.8), seed=trial) for trial in range(20)]
        irregular = [g for g in candidates if degree_stats(g).regular is None]
        assert len(irregular) >= 25
        for g in irregular:
            for name in VARIANTS:
                value, witness = naive_minimum_witness(g, name)
                result = min_alliance_number(g, spec_from_name(name))
                assert (result.value, tuple(result.witness)) == (value, witness), (g.n, g.m, name)


class TestOracleEquivalence:
    def test_pruned_solver_matches_naive_enumeration(self):
        rng = random.Random(4242)
        for trial in range(20):
            n = rng.randint(2, 8)
            g = generators.gnp(n, rng.uniform(0.15, 0.9), seed=1000 + trial)
            for name in VARIANTS:
                expected = naive_minimum(g, name)
                assert min_alliance_number(g, spec_from_name(name)).value == expected, (trial, name)

    def test_naive_oracle_knows_domination_and_refuses_unknown_names(self):
        assert naive_minimum(generators.cycle(6), "domination") == 2
        assert naive_minimum(generators.petersen(), "domination") == 3
        for name in ("bogus", "defensive-ish", "globl_defensive", "dual", "strong_domination"):
            with pytest.raises(ValueError, match="unknown variant"):
                naive_minimum(generators.cycle(6), name)


class TestValueMonotonicity:
    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_known_inequalities(self, g):
        values = {
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
        gamma = values["domination"]
        assert values["defensive"] <= values["strong_defensive"]
        assert values["global_defensive"] <= values["global_strong_defensive"]
        assert values["global_offensive"] <= values["global_strong_offensive"]
        assert values["global_dual"] >= max(values["global_defensive"], values["global_offensive"])
        assert values["global_defensive"] >= gamma
        assert values["global_offensive"] >= gamma
        assert all(v <= g.n for v in values.values())


class TestLimits:
    def test_ceiling_enforced(self):
        g = generators.path(30)
        with pytest.raises(ResourceLimitError):
            min_alliance_number(g, DEFENSIVE)

    def test_custom_ceiling(self):
        g = generators.path(30)
        assert min_alliance_number(g, DEFENSIVE, SearchLimits(max_n=30)).value == 1

    def test_node_budget(self):
        g = generators.petersen()
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            min_alliance_number(g, GLOBAL_STRONG_DUAL, SearchLimits(max_nodes=50))
        assert exc_info.value.nodes_explored > 50 - 2
        assert exc_info.value.cardinality >= 1

    @pytest.mark.parametrize("limits", [{"max_n": 0}, {"max_n": -1}, {"max_nodes": 0}, {"max_nodes": -5}])
    def test_nonpositive_limits_are_rejected(self, limits):
        with pytest.raises(ValueError):
            SearchLimits(**limits)

    def test_deep_path_needs_no_recursion(self):
        # The search depth equals the order, beyond the default recursion limit of 1000.
        result = min_alliance_number(generators.path(1200), DEFENSIVE, SearchLimits(max_n=2000))
        assert result.value == 1
        assert list(result.witness) == [0]


class TestSearchTree:
    def test_corpus_node_counts_are_pinned(self, corpus):
        # Totals over the named corpus of the index-order, in-branch-first
        # search with the deficit and packing bounds; a change to the tree
        # walk or its pruning shows here.
        expected = {
            "defensive": 441,
            "strong_defensive": 1003,
            "global_defensive": 1386,
            "global_strong_defensive": 1257,
            "offensive": 1016,
            "strong_offensive": 1482,
            "global_offensive": 455,
            "global_strong_offensive": 823,
            "global_dual": 485,
            "global_strong_dual": 536,
            "domination": 167,
        }
        totals = dict.fromkeys(expected, 0)
        for g in corpus.values():
            for name in VARIANTS:
                totals[name] += min_alliance_number(g, spec_from_name(name)).nodes_explored
        assert totals == expected

    @pytest.mark.parametrize(
        ("spec", "expected"),
        [
            (
                GraphFamilySpec("gnp", (22, 0.25), seed=0),
                {
                    "defensive": 22,
                    "strong_defensive": 22,
                    "global_defensive": 7051,
                    "global_strong_defensive": 7795,
                    "offensive": 22,
                    "strong_offensive": 22,
                    "global_offensive": 2786,
                    "global_strong_offensive": 3975,
                    "global_dual": 6955,
                    "global_strong_dual": 6479,
                    "domination": 130,
                },
            ),
            (
                GraphFamilySpec("random_regular", (22, 3), seed=1),
                {
                    "defensive": 80,
                    "strong_defensive": 167,
                    "global_defensive": 4508,
                    "global_strong_defensive": 38697,
                    "offensive": 72,
                    "strong_offensive": 15850,
                    "global_offensive": 2441,
                    "global_strong_offensive": 1281,
                    "global_dual": 19664,
                    "global_strong_dual": 5233,
                    "domination": 50,
                },
            ),
            (
                GraphFamilySpec("grid", (4, 6)),
                {
                    "defensive": 71,
                    "strong_defensive": 305,
                    "global_defensive": 1151,
                    "global_strong_defensive": 6342,
                    "offensive": 7598,
                    "strong_offensive": 8421,
                    "global_offensive": 5953,
                    "global_strong_offensive": 680,
                    "global_dual": 2621,
                    "global_strong_dual": 3736,
                    "domination": 408,
                },
            ),
            (
                GraphFamilySpec("hypercube", (4,)),
                {
                    "defensive": 157,
                    "strong_defensive": 157,
                    "global_defensive": 3536,
                    "global_strong_defensive": 3536,
                    "offensive": 451,
                    "strong_offensive": 451,
                    "global_offensive": 216,
                    "global_strong_offensive": 216,
                    "global_dual": 1204,
                    "global_strong_dual": 1204,
                    "domination": 28,
                },
            ),
            (
                GraphFamilySpec("cycle", (24,)),
                {
                    "defensive": 71,
                    "strong_defensive": 71,
                    "global_defensive": 2158,
                    "global_strong_defensive": 2158,
                    "offensive": 12598,
                    "strong_offensive": 12598,
                    "global_offensive": 35,
                    "global_strong_offensive": 35,
                    "global_dual": 59,
                    "global_strong_dual": 59,
                    "domination": 38,
                },
            ),
            (
                GraphFamilySpec("grid", (4, 5)),
                {
                    "defensive": 59,
                    "strong_defensive": 252,
                    "global_defensive": 1284,
                    "global_strong_defensive": 1787,
                    "offensive": 1875,
                    "strong_offensive": 2738,
                    "global_offensive": 1710,
                    "global_strong_offensive": 325,
                    "global_dual": 1587,
                    "global_strong_dual": 779,
                    "domination": 339,
                },
            ),
            (
                GraphFamilySpec("complete_minus_matching", (14,)),
                {
                    "defensive": 714,
                    "strong_defensive": 714,
                    "global_defensive": 847,
                    "global_strong_defensive": 847,
                    "offensive": 2545,
                    "strong_offensive": 2545,
                    "global_offensive": 2360,
                    "global_strong_offensive": 2360,
                    "global_dual": 1864,
                    "global_strong_dual": 1864,
                    "domination": 14,
                },
            ),
            (
                GraphFamilySpec("grid", (3, 7)),
                {
                    "defensive": 62,
                    "strong_defensive": 157,
                    "global_defensive": 648,
                    "global_strong_defensive": 518,
                    "offensive": 2271,
                    "strong_offensive": 2124,
                    "global_offensive": 1485,
                    "global_strong_offensive": 315,
                    "global_dual": 1731,
                    "global_strong_dual": 1833,
                    "domination": 191,
                },
            ),
            (
                GraphFamilySpec("path", (24,)),
                {
                    "defensive": 24,
                    "strong_defensive": 71,
                    "global_defensive": 2492,
                    "global_strong_defensive": 2179,
                    "offensive": 24874,
                    "strong_offensive": 24943,
                    "global_offensive": 35,
                    "global_strong_offensive": 37,
                    "global_dual": 63,
                    "global_strong_dual": 62,
                    "domination": 39,
                },
            ),
            (
                GraphFamilySpec("grid", (3, 8)),
                {
                    "defensive": 71,
                    "strong_defensive": 180,
                    "global_defensive": 1178,
                    "global_strong_defensive": 678,
                    "offensive": 9372,
                    "strong_offensive": 4930,
                    "global_offensive": 2368,
                    "global_strong_offensive": 793,
                    "global_dual": 4053,
                    "global_strong_dual": 3655,
                    "domination": 219,
                },
            ),
        ],
        ids=str,
    )
    def test_benchmark_order_node_counts_are_pinned(self, spec, expected):
        # The graphs the benchmark times (n = 14-24), which the small named
        # corpus does not reach: the tree walked there must not change.
        g = build(spec)
        nodes = {name: min_alliance_number(g, spec_from_name(name)).nodes_explored for name in VARIANTS}
        assert nodes == expected

    @pytest.mark.parametrize(
        ("cond", "optimum"),
        [
            # 24 undominated vertices, and a member dominates at most 3
            (VARIANTS["domination"], 8),
            # each outsider needs both neighbors, 48 in all, and a member
            # adds at most 2 and removes a need of at most 2
            (VARIANTS["global_offensive"], 12),
        ],
    )
    def test_deficit_bound_rejects_infeasible_k_at_the_root(self, cond, optimum):
        g = generators.cycle(24)
        for k in range(1, optimum):
            counter = {"nodes": 0}
            assert _search_exact(_tables(g, cond), k, counter, None) is None
            assert counter["nodes"] == 0, k
        counter = {"nodes": 0}
        assert _search_exact(_tables(g, cond), optimum, counter, None) is not None
        assert counter["nodes"] > 0

    def test_packing_bound_rejects_infeasible_k_at_the_root(self):
        # A comb: pendants 0-7, each hanging off its own vertex of the path
        # 8-15. Each pendant needs itself or its path vertex, and these
        # candidate pairs are disjoint, so gamma = 8; the deficit bound alone
        # reaches only 16/(3+1) = 4.
        g = Graph(16, [(i, 8 + i) for i in range(8)] + [(8 + i, 9 + i) for i in range(7)])
        for k in range(1, 8):
            counter = {"nodes": 0}
            assert _search_exact(_tables(g, VARIANTS["domination"]), k, counter, None) is None
            assert counter["nodes"] == 0, k
        assert domination_number(g).value == 8
