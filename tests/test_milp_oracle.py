"""Cross-check the exact solver against an integer program at orders the
naive 2^n enumeration cannot reach."""

import pytest

pytest.importorskip("scipy")

from alliances import generators
from alliances.alliance_solver import (
    SearchLimits,
    domination_number,
    is_alliance,
    is_dominating_set,
    min_alliance_number,
    spec_from_name,
)
from alliances.graph_core import VertexSet

from milp_oracle import ORACLE_SPECS, milp_minimum

GRAPHS = {
    "gnp:14:0.3:seed=1": generators.gnp(14, 0.3, seed=1),
    "gnp:16:0.2:seed=2": generators.gnp(16, 0.2, seed=2),
    "gnp:18:0.15:seed=3": generators.gnp(18, 0.15, seed=3),
    "random_regular:16:3:seed=4": generators.random_regular(16, 3, seed=4),
    "random_regular:20:3:seed=5": generators.random_regular(20, 3, seed=5),
    "grid:4:5": generators.grid(4, 5),
    "grid:3:7": generators.grid(3, 7),
    "random_regular:22:3:seed=6": generators.random_regular(22, 3, seed=6),
    "gnp:26:0.2:seed=8": generators.gnp(26, 0.2, seed=8),
    "grid:4:7": generators.grid(4, 7),
}
# Above the solver's default ceiling of 24.
LIMITS = SearchLimits(max_n=28)


@pytest.mark.parametrize("label", GRAPHS)
def test_solver_matches_milp(label):
    g = GRAPHS[label]
    assert 14 <= g.n <= 28
    for name in ORACLE_SPECS:
        value, members = milp_minimum(g, name)
        if name == "domination":
            result = domination_number(g, LIMITS)
            assert is_dominating_set(g, VertexSet(members))
            assert is_dominating_set(g, result.witness)
        else:
            spec = spec_from_name(name)
            result = min_alliance_number(g, spec, LIMITS)
            assert is_alliance(g, VertexSet(members), spec)
            assert is_alliance(g, result.witness, spec)
        assert result.value == result.witness.size
        assert result.value == value, (label, name)
