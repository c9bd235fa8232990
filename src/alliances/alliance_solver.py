"""Alliance predicates and exact minimum-cardinality solvers.

Every per-vertex condition reduces to an integer comparison between twice
the vertex's in-neighbor count and its degree:

  * member of a defensive alliance: 2*in >= deg - 1 (strong: 2*in >= deg)
  * outsider facing an offensive alliance: 2*in >= deg + 1 (strong: deg + 2)

Offensive conditions apply to the whole outside for global alliances and
only to boundary vertices otherwise. A dual alliance is a defensive
alliance that is also a global offensive alliance (domination follows).
All universally quantified conditions are vacuously true over empty
ranges, so the full vertex set satisfies every variant and minima exist.

Nothing here requires an alliance to induce a connected subgraph; the
definitions do not ask for it.

Each variant is one row of ``VARIANTS``: its name and these thresholds,
with domination as a last row of the same form. An ``AllianceSpec`` is
just the name of an alliance row; ``SPEC_NAMES``, its validation, the
predicates and the search all read that table.

The exact search decides vertices in index order and, besides the
per-vertex thresholds, prunes with a counting bound taken from the same
conditions (never from the paper's theorems, which the survey checks
against these values). Let D be the total shortfall of in-neighbors over
all vertices, members measured against their member threshold and
non-members against their outsider one, T the largest outsider need and Δ
the maximum degree. A new member lowers D by at most Δ+T: at most Δ
neighbors gain one in-neighbor, and the member drops its own outsider need.
So with r members still to place, D > r*(Δ+T) cannot be fixed.

Where every outsider needs a member neighbor, each non-member without one
adds at least 1 to D. For domination D counts exactly those vertices and
T = 1, so the bound is the coverage argument gamma >= n/(Δ+1) applied at
every node: more than r*(Δ+1) undominated vertices cannot be fixed.

The bound never discards a satisfying set, so values and witnesses are the
same as without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, VertexSet, _check_set

__all__ = [
    "AllianceSpec",
    "AllianceResult",
    "SearchLimits",
    "ResourceLimitError",
    "SearchBudgetExceeded",
    "VARIANTS",
    "SPEC_NAMES",
    "spec_from_name",
    "is_alliance",
    "is_dominating_set",
    "min_alliance_number",
    "domination_number",
]


@dataclass(frozen=True)
class _Conditions:
    """Per-vertex integer thresholds for one alliance variant."""

    member_slack: int | None  # member v needs 2*in >= deg(v) + member_slack
    outside_need: int | None  # constrained outsider v needs 2*in >= deg(v) + outside_need
    outside_all: bool  # outsider condition applies to all of V\S, not just the boundary
    dominate: bool  # every outsider needs at least one neighbor in S


# Every variant the solver knows, in the order ``analyze --all`` reports
# them. A global offensive (or dual) outsider needs 2*in >= deg+1, which
# already forces a member neighbor, so only the global defensive rows set
# ``dominate``. Domination is not an alliance and comes last.
VARIANTS: dict[str, _Conditions] = {
    "defensive": _Conditions(-1, None, False, False),
    "strong_defensive": _Conditions(0, None, False, False),
    "global_defensive": _Conditions(-1, None, False, True),
    "global_strong_defensive": _Conditions(0, None, False, True),
    "global_offensive": _Conditions(None, 1, True, False),
    "global_strong_offensive": _Conditions(None, 2, True, False),
    "global_dual": _Conditions(-1, 1, True, False),
    "global_strong_dual": _Conditions(0, 2, True, False),
    "offensive": _Conditions(None, 1, False, False),
    "strong_offensive": _Conditions(None, 2, False, False),
    "domination": _Conditions(None, None, False, True),
}

SPEC_NAMES: tuple[str, ...] = tuple(name for name in VARIANTS if name != "domination")


@dataclass(frozen=True)
class AllianceSpec:
    """One alliance variant, named by its row of ``VARIANTS``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in SPEC_NAMES:
            raise ValueError(f"unknown alliance spec {self.name!r}; valid names: {', '.join(SPEC_NAMES)}")


def spec_from_name(name: str) -> AllianceSpec:
    return AllianceSpec(name)


@dataclass(frozen=True)
class AllianceResult:
    """Exact minimum with a witness; the witness is the lexicographically
    smallest satisfying set of minimum cardinality."""

    value: int
    witness: VertexSet
    nodes_explored: int


@dataclass(frozen=True)
class SearchLimits:
    """Solver guard rails: graphs above ``max_n`` are refused, and
    ``max_nodes`` caps the search tree size."""

    max_n: int = 24
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ValueError(f"max_n must be at least 1, got {self.max_n}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")


class ResourceLimitError(RuntimeError):
    pass


class SearchBudgetExceeded(ResourceLimitError):
    def __init__(self, message: str, cardinality: int, nodes_explored: int) -> None:
        super().__init__(message)
        self.cardinality = cardinality
        self.nodes_explored = nodes_explored


def _satisfies(g: Graph, smask: int, cond: _Conditions) -> bool:
    masks = g.masks
    for v in range(g.n):
        inside = (masks[v] & smask).bit_count()
        if (smask >> v) & 1:
            if cond.member_slack is not None and 2 * inside < len(g.adjacency[v]) + cond.member_slack:
                return False
        else:
            if cond.dominate and inside == 0:
                return False
            if cond.outside_need is not None and (cond.outside_all or inside > 0):
                if 2 * inside < len(g.adjacency[v]) + cond.outside_need:
                    return False
    return True


def is_alliance(g: Graph, s: VertexSet, spec: AllianceSpec) -> bool:
    """Evaluate the exact conjunction of per-vertex conditions for ``spec``."""
    _check_set(g, s)
    if s.size == 0:
        raise ValueError("alliances are nonempty by definition")
    return _satisfies(g, s.mask, VARIANTS[spec.name])


def is_dominating_set(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside ``s`` has a neighbor inside ``s``."""
    _check_set(g, s)
    if s.size == 0:
        raise ValueError("dominating sets are nonempty by definition")
    return _satisfies(g, s.mask, VARIANTS["domination"])


_UNDECIDED, _IN, _OUT = 0, 1, 2


def _search_exact(
    g: Graph,
    k: int,
    cond: _Conditions,
    counter: dict[str, int],
    max_nodes: int | None,
) -> int | None:
    """Lexicographically smallest satisfying k-subset, or None.

    Vertices are decided in/out in index order, in-branch first, so the
    first hit is the lexicographically smallest satisfying k-subset. Each
    vertex's thresholds are turned into in-neighbor counts once:
    ``need_in`` as a member, ``need_out`` as a non-member and
    ``need_touched`` as a non-member with a member neighbor. A branch is
    pruned as soon as some decided vertex falls short of its count even if
    every undecided neighbor joined. The decided prefix ``status[:u]`` is the
    search stack, so the depth (the graph order) is not bounded by the
    recursion limit.

    A deficit bound prunes at the root and after every join. D sums
    ``max(0, need_v - in_v)`` over all vertices, where ``need_v`` is
    ``need_in`` for a member and ``need_out`` otherwise. A new member
    raises ``in`` of at most Δ (the maximum degree) vertices by one and
    drops its own non-member need of at most T (the largest one), so with
    ``r = k - chosen`` members still to place, ``D > r*(Δ+T)`` is hopeless.
    For domination this is the coverage bound: D is the number of
    undominated vertices and T = 1.

    The bound only discards subtrees with no satisfying k-set, so the first
    hit and the witness are unchanged; only the node count drops. An out
    decision changes neither D nor r, so its node needs no check.
    """
    n = g.n
    adjacency = g.adjacency
    degree = [len(a) for a in adjacency]
    status = [_UNDECIDED] * n
    in_count = [0] * n
    undecided = list(degree)
    member_slack = cond.member_slack
    outside_need = cond.outside_need
    dominate = int(cond.dominate)
    # 2*in >= deg + c is in >= ceil((deg + c) / 2).
    need_in = [0 if member_slack is None else max(0, -(-(d + member_slack) // 2)) for d in degree]
    need_touched = [max(dominate, 0 if outside_need is None else -(-(d + outside_need) // 2)) for d in degree]
    need_out = need_touched if cond.outside_all else [dominate] * n
    deficit = sum(need_out)  # every vertex starts as a non-member
    per_member = max(degree, default=0) + max(need_out, default=0)

    def vertex_ok(v: int) -> bool:
        potential = in_count[v] + undecided[v]
        if status[v] == _IN:
            return potential >= need_in[v]
        return potential >= (need_touched[v] if in_count[v] else need_out[v])

    def retract(v: int) -> bool:
        nonlocal deficit
        joined = status[v] == _IN
        status[v] = _UNDECIDED
        if not joined:
            for w in adjacency[v]:
                undecided[w] += 1
            return False
        for w in adjacency[v]:
            undecided[w] += 1
            c = in_count[w] - 1
            in_count[w] = c
            if c < (need_in[w] if status[w] == _IN else need_out[w]):
                deficit += 1
        c = in_count[v]
        deficit += max(0, need_out[v] - c) - max(0, need_in[v] - c)
        return True

    if deficit > k * per_member:
        return None
    chosen = 0
    smask = 0
    u = 0
    joins = True  # the branch to try next at vertex u
    while True:
        if u == n:
            return smask
        if (chosen < k) if joins else (chosen + n - u - 1 >= k):
            counter["nodes"] += 1
            if max_nodes is not None and counter["nodes"] > max_nodes:
                raise SearchBudgetExceeded(
                    f"node budget {max_nodes} exhausted while searching cardinality {k};"
                    f" no satisfying set of size < {k} exists",
                    cardinality=k,
                    nodes_explored=counter["nodes"],
                )
            if joins:
                status[u] = _IN
                c = in_count[u]
                deficit += max(0, need_in[u] - c) - max(0, need_out[u] - c)
                for w in adjacency[u]:
                    undecided[w] -= 1
                    c = in_count[w]
                    in_count[w] = c + 1
                    if c < (need_in[w] if status[w] == _IN else need_out[w]):
                        deficit -= 1
                ok = deficit <= (k - chosen - 1) * per_member and vertex_ok(u)
            else:
                status[u] = _OUT
                for w in adjacency[u]:
                    undecided[w] -= 1
                ok = vertex_ok(u)
            if ok:
                for w in adjacency[u]:
                    if status[w] != _UNDECIDED and not vertex_ok(w):
                        ok = False
                        break
            if ok:
                if joins:
                    chosen += 1
                    smask |= 1 << u
                u += 1
                joins = True
                continue
            retract(u)
        if joins:
            joins = False
            continue
        # Both branches at u are spent: pop decisions up to the nearest
        # member and try it as an outsider.
        while True:
            u -= 1
            if u < 0:
                return None
            if retract(u):
                chosen -= 1
                smask ^= 1 << u
                joins = False
                break


def _minimize(g: Graph, cond: _Conditions, limits: SearchLimits | None) -> AllianceResult:
    """Search k = 1, 2, ... once each. The first hit is the minimum, and
    its witness is already canonical because vertices are decided in index
    order."""
    limits = limits or SearchLimits()
    if g.n > limits.max_n:
        raise ResourceLimitError(f"order {g.n} exceeds the solver ceiling {limits.max_n}; raise max_n to search anyway")
    counter = {"nodes": 0}
    for k in range(1, g.n + 1):
        mask = _search_exact(g, k, cond, counter, limits.max_nodes)
        if mask is not None:
            return AllianceResult(
                value=k,
                witness=VertexSet.from_mask(mask),
                nodes_explored=counter["nodes"],
            )
    raise AssertionError("unreachable: the full vertex set satisfies every variant")


def min_alliance_number(g: Graph, spec: AllianceSpec, limits: SearchLimits | None = None) -> AllianceResult:
    """Exact minimum cardinality of an alliance of the given variant.

    Searches cardinalities 1, 2, ... in turn, so the first satisfiable size
    is the minimum. Each size is searched once, deciding vertices in index
    order, so the witness is the lexicographically smallest minimum set.
    Always terminates: the full vertex set qualifies.
    """
    return _minimize(g, VARIANTS[spec.name], limits)


def domination_number(g: Graph, limits: SearchLimits | None = None) -> AllianceResult:
    """Exact minimum cardinality of a dominating set."""
    return _minimize(g, VARIANTS["domination"], limits)
