import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from alliances import generators
from alliances.alliance_solver import (
    AllianceSpec,
    ResourceLimitError,
    SearchBudgetExceeded,
    SearchLimits,
    SPEC_NAMES,
    domination_number,
    is_alliance,
    is_dominating_set,
    min_alliance_number,
    spec_from_name,
)
from alliances.graph_core import Graph, VertexSet, degree_stats, girth

from naive import naive_domination, naive_domination_witness, naive_minimum, naive_minimum_witness
from strategies import graph_and_proper_subset, graphs

DEFENSIVE = spec_from_name("defensive")
STRONG_DEFENSIVE = spec_from_name("strong_defensive")
GLOBAL_DEFENSIVE = spec_from_name("global_defensive")
GLOBAL_STRONG_DEFENSIVE = spec_from_name("global_strong_defensive")
GLOBAL_OFFENSIVE = spec_from_name("global_offensive")
GLOBAL_STRONG_OFFENSIVE = spec_from_name("global_strong_offensive")
GLOBAL_DUAL = spec_from_name("global_dual")
GLOBAL_STRONG_DUAL = spec_from_name("global_strong_dual")

_KIND_FIELDS = {name: (spec_from_name(name).kind, spec_from_name(name).strong, spec_from_name(name).global_) for name in SPEC_NAMES}


class TestAllianceSpec:
    def test_names_round_trip(self):
        for name in SPEC_NAMES:
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

    def test_full_set_satisfies_everything(self, corpus):
        for g in corpus.values():
            full = VertexSet(range(g.n))
            for name in SPEC_NAMES:
                assert is_alliance(g, full, spec_from_name(name))
            assert is_dominating_set(g, full)

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
            for name in SPEC_NAMES:
                kind, strong, global_ = _KIND_FIELDS[name]
                value, witness = naive_minimum_witness(g, kind, strong, global_)
                result = min_alliance_number(g, spec_from_name(name))
                assert (result.value, tuple(result.witness)) == (value, witness), (g.n, g.m, name)
            result = domination_number(g)
            assert (result.value, tuple(result.witness)) == naive_domination_witness(g), (g.n, g.m)


class TestOracleEquivalence:
    def test_pruned_solver_matches_naive_enumeration(self):
        rng = random.Random(4242)
        for trial in range(20):
            n = rng.randint(2, 8)
            g = generators.gnp(n, rng.uniform(0.15, 0.9), seed=1000 + trial)
            for name in SPEC_NAMES:
                kind, strong, global_ = _KIND_FIELDS[name]
                expected = naive_minimum(g, kind, strong, global_)
                assert min_alliance_number(g, spec_from_name(name)).value == expected, (trial, name)
            assert domination_number(g).value == naive_domination(g)


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
            )
        }
        gamma = domination_number(g).value
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

    def test_ceiling_override(self):
        g = generators.path(30)
        result = min_alliance_number(g, DEFENSIVE, SearchLimits(allow_large=True))
        assert result.value == 1  # a path endpoint defends itself

    def test_custom_ceiling(self):
        g = generators.path(30)
        assert min_alliance_number(g, DEFENSIVE, SearchLimits(max_n=30)).value == 1

    def test_node_budget(self):
        g = generators.petersen()
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            min_alliance_number(g, GLOBAL_STRONG_DUAL, SearchLimits(max_nodes=50))
        assert exc_info.value.nodes_explored > 50 - 2
        assert exc_info.value.cardinality >= 1

    def test_deep_path_needs_no_recursion(self):
        # The search depth equals the order, beyond the default recursion limit of 1000.
        result = min_alliance_number(generators.path(1200), DEFENSIVE, SearchLimits(max_n=2000))
        assert result.value == 1
        assert list(result.witness) == [0]


class TestSearchTree:
    def test_corpus_node_counts_are_pinned(self, corpus):
        # Totals over the named corpus of the index-order, in-branch-first
        # search; a change to the tree walk or its pruning shows here.
        expected = {
            "defensive": 1683,
            "strong_defensive": 3170,
            "global_defensive": 4883,
            "global_strong_defensive": 4264,
            "offensive": 3318,
            "strong_offensive": 4113,
            "global_offensive": 3140,
            "global_strong_offensive": 3522,
            "global_dual": 4095,
            "global_strong_dual": 3395,
            "domination": 682,
        }
        totals = dict.fromkeys(expected, 0)
        for g in corpus.values():
            for name in SPEC_NAMES:
                totals[name] += min_alliance_number(g, spec_from_name(name)).nodes_explored
            totals["domination"] += domination_number(g).nodes_explored
        assert totals == expected
