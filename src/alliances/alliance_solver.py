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
    "SPEC_NAMES",
    "spec_from_name",
    "is_alliance",
    "is_dominating_set",
    "min_alliance_number",
    "domination_number",
]

_KINDS = ("defensive", "offensive", "dual")


@dataclass(frozen=True)
class AllianceSpec:
    """Which alliance variant is meant: kind x strong x global."""

    kind: str
    strong: bool = False
    global_: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "dual" and not self.global_:
            raise ValueError("dual alliance numbers are defined for the global variant only")

    @property
    def name(self) -> str:
        parts = []
        if self.global_:
            parts.append("global")
        if self.strong:
            parts.append("strong")
        parts.append(self.kind)
        return "_".join(parts)


SPEC_NAMES: tuple[str, ...] = (
    "defensive",
    "strong_defensive",
    "global_defensive",
    "global_strong_defensive",
    "offensive",
    "strong_offensive",
    "global_offensive",
    "global_strong_offensive",
    "global_dual",
    "global_strong_dual",
)

_SPECS_BY_NAME = {
    spec.name: spec
    for spec in (
        AllianceSpec(kind, strong, global_)
        for kind in ("defensive", "offensive")
        for strong in (False, True)
        for global_ in (False, True)
    )
}
_SPECS_BY_NAME["global_dual"] = AllianceSpec("dual", strong=False, global_=True)
_SPECS_BY_NAME["global_strong_dual"] = AllianceSpec("dual", strong=True, global_=True)


def spec_from_name(name: str) -> AllianceSpec:
    try:
        return _SPECS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown alliance spec {name!r}; valid names: {', '.join(SPEC_NAMES)}") from None


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


class ResourceLimitError(RuntimeError):
    pass


class SearchBudgetExceeded(ResourceLimitError):
    def __init__(self, message: str, cardinality: int, nodes_explored: int) -> None:
        super().__init__(message)
        self.cardinality = cardinality
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class _Conditions:
    """Per-vertex integer thresholds for one alliance variant."""

    member_slack: int | None  # member v needs 2*in >= deg(v) + member_slack
    outside_need: int | None  # constrained outsider v needs 2*in >= deg(v) + outside_need
    outside_all: bool  # outsider condition applies to all of V\S, not just the boundary
    dominate: bool  # every outsider needs at least one neighbor in S


def _conditions(spec: AllianceSpec) -> _Conditions:
    if spec.kind == "defensive":
        return _Conditions(0 if spec.strong else -1, None, False, spec.global_)
    if spec.kind == "offensive":
        # The global variant already forces domination: 2*in >= deg+1 implies in >= 1.
        return _Conditions(None, 2 if spec.strong else 1, spec.global_, False)
    return _Conditions(0 if spec.strong else -1, 2 if spec.strong else 1, True, False)


_DOMINATION = _Conditions(None, None, False, True)


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
    return _satisfies(g, s.mask, _conditions(spec))


def is_dominating_set(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside ``s`` has a neighbor inside ``s``."""
    _check_set(g, s)
    if s.size == 0:
        raise ValueError("dominating sets are nonempty by definition")
    return _satisfies(g, s.mask, _DOMINATION)


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
    first hit is the lexicographically smallest satisfying k-subset. A
    branch is pruned as soon as some decided vertex can no longer meet its
    threshold even if every undecided neighbor joined, or a decided outsider
    can no longer be dominated. The decided prefix ``status[:u]`` is the
    search stack, so the depth (the graph order) is not bounded by the
    recursion limit.
    """
    n = g.n
    adjacency = g.adjacency
    degree = [len(a) for a in adjacency]
    status = [_UNDECIDED] * n
    in_count = [0] * n
    undecided = list(degree)
    member_slack = cond.member_slack
    outside_need = cond.outside_need
    outside_all = cond.outside_all
    dominate = cond.dominate

    def vertex_ok(v: int) -> bool:
        potential = in_count[v] + undecided[v]
        if status[v] == _IN:
            return member_slack is None or 2 * potential >= degree[v] + member_slack
        if dominate and potential == 0:
            return False
        if outside_need is not None and (outside_all or in_count[v] > 0):
            if 2 * potential < degree[v] + outside_need:
                return False
        return True

    def retract(v: int) -> bool:
        joined = status[v] == _IN
        for w in adjacency[v]:
            undecided[w] += 1
            if joined:
                in_count[w] -= 1
        status[v] = _UNDECIDED
        return joined

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
            status[u] = _IN if joins else _OUT
            for w in adjacency[u]:
                undecided[w] -= 1
                if joins:
                    in_count[w] += 1
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
    return _minimize(g, _conditions(spec), limits)


def domination_number(g: Graph, limits: SearchLimits | None = None) -> AllianceResult:
    """Exact minimum cardinality of a dominating set."""
    return _minimize(g, _DOMINATION, limits)
