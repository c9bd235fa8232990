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
just the name of a row, domination included; its validation, the
predicates and the search all read that table.

The exact search decides vertices in index order and, besides the
per-vertex thresholds, prunes with two counting bounds taken from the same
conditions (never from the paper's theorems, which the survey checks
against these values). The deficit bound: the total shortfall of
in-neighbors cannot exceed what the members still to place can supply.
For domination this is gamma >= n/(Δ+1). The packing bound: vertices
whose candidate members are disjoint draw on disjoint future members, so
their needs add up. For domination this is gamma >= rho (Meir & Moon,
1975). Both run, with the per-vertex checks, in one pass after every join;
``_search_exact`` has the detail. Neither bound discards a satisfying set,
so values and witnesses are the same as without them. The thresholds are
built once per graph and variant and shared by every cardinality searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph_core import Graph, VertexSet, _check_set

__all__ = [
    "AllianceSpec",
    "AllianceResult",
    "SearchLimits",
    "ResourceLimitError",
    "SearchBudgetExceeded",
    "VARIANTS",
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
# ``dominate``. Domination is not an alliance, but a row of the same form,
# and comes last.
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


@dataclass(frozen=True)
class AllianceSpec:
    """One variant, named by its row of ``VARIANTS`` (domination included)."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in VARIANTS:
            raise ValueError(f"unknown alliance spec {self.name!r}; valid names: {', '.join(VARIANTS)}")


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
    """Solver guard rails: ``max_nodes`` caps the search tree size, and a
    graph above ``max_n`` is refused with :class:`ResourceLimitError`
    before any search. The solver is the one place that order is compared
    with ``max_n``; ``analyze`` and ``survey`` rely on its refusal."""

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
        raise ValueError(f"{spec.name} sets are nonempty by definition")
    return _satisfies(g, s.mask, VARIANTS[spec.name])


def is_dominating_set(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside ``s`` has a neighbor inside ``s``:
    ``is_alliance`` on the domination row."""
    return is_alliance(g, s, AllianceSpec("domination"))


class _Tables(NamedTuple):
    """What the search reads of one graph and variant, built once by
    ``_tables`` and shared by every k; the search never writes to it."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    need_in: list[int]  # in-neighbors a member needs
    need_touched: list[int]  # ... a non-member with a member neighbor
    need_out: list[int]  # ... a non-member without one
    per_member: int  # Δ + T, the most one new member lowers the deficit
    earlier: list[tuple[int, ...]]  # neighbors below v: decided when v is


def _tables(g: Graph, cond: _Conditions) -> _Tables:
    n = g.n
    adjacency = g.adjacency
    masks = g.masks
    degree = [len(a) for a in adjacency]
    member_slack = cond.member_slack
    outside_need = cond.outside_need
    dominate = int(cond.dominate)
    # 2*in >= deg + c is in >= ceil((deg + c) / 2).
    need_in = [0 if member_slack is None else max(0, -(-(d + member_slack) // 2)) for d in degree]
    need_touched = [max(dominate, 0 if outside_need is None else -(-(d + outside_need) // 2)) for d in degree]
    need_out = need_touched if cond.outside_all else [dominate] * n
    return _Tables(
        n=n,
        adjacency=adjacency,
        masks=masks,
        need_in=need_in,
        need_touched=need_touched,
        need_out=need_out,
        per_member=max(degree) + max(need_touched),
        earlier=[tuple(w for w in adjacency[v] if w < v) for v in range(n)],
    )


def _search_exact(t: _Tables, k: int, counter: dict[str, int], max_nodes: int | None) -> int | None:
    """Lexicographically smallest satisfying k-subset, or None.

    Vertices are decided in/out in index order, in-branch first, so the
    first hit is the lexicographically smallest satisfying k-subset. Each
    vertex's thresholds are turned into in-neighbor counts once per variant
    (``_tables``): ``need_in`` as a member, ``need_touched`` as a non-member
    with a member neighbor and ``need_out`` as one without. A vertex's
    *need* is the one of these that fits its membership, less its
    in-count; an undecided vertex counts as a non-member. The search stack
    is the decided prefix ``v < u`` together with ``member``, the one
    record of which vertices joined, so the depth (the graph order) is not
    bounded by the recursion limit.

    A decided vertex passes its check when its *potential*, ``in`` plus its
    undecided neighbors, reaches its current need. Invariant: at every node
    the search stands on, every decided vertex passes. Once u is decided,
    the undecided neighbors of u and of any other vertex w are those above
    u, ``(masks[w] >> u + 1).bit_count()``; u's decided neighbors are
    ``earlier[u]``.

    An out decision changes no in-count, no need and not r, the number of
    members still to place, and writes nothing: it lowers the potential of
    u and of each of ``earlier[u]`` by one, so it checks just those, and
    taking it back is only ``u -= 1``. A join sets ``member[u]`` and adds
    one in-count per neighbor, and ``leave`` undoes both; ``bounds_ok``
    runs one pass over all vertices, at the root and after every join, and
    fails at the first of three tests:

    * the potential check of every decided vertex. A join moves no decided
      neighbor's potential (one more member neighbor, one fewer undecided),
      so only u and, for ``offensive`` and ``strong_offensive``, a
      non-member it touches for the first time (whose need rises to
      ``need_touched``) can fail it;
    * the deficit bound: D sums the positive needs. A new member raises
      ``in`` of at most Δ (the maximum degree) vertices by one and drops its
      own non-member need of at most T (the largest ``need_touched``), so
      ``D > r*(Δ+T)`` is hopeless. For domination D is the number of
      undominated vertices and T = 1, the coverage bound gamma >= n/(Δ+1);
    * the packing bound: a vertex's candidates are its undecided neighbors,
      plus itself while undecided. Greedily, in index order, pack vertices
      with a positive need whose candidate sets are pairwise disjoint; an
      undecided vertex counts the smaller of its need and ``1 + max(0,
      need_in - in)`` (itself, then its member need). Each future member
      serves at most one of them, so packed needs summing to more than r
      are hopeless. For domination this is the 2-packing bound gamma >= rho
      (Meir & Moon, 1975).

    The bounds only discard subtrees with no satisfying k-set, so the first
    hit and the witness are unchanged; only the node count drops.
    """
    n, adjacency, masks, need_in, need_touched, need_out, per_member, earlier = t
    member = [False] * n
    in_count = [0] * n
    full = (1 << n) - 1

    def bounds_ok(first: int, r: int) -> bool:
        # Vertices before ``first`` are decided, the rest undecided.
        rest = full >> first << first
        cap = r * per_member
        deficit = 0
        used = 0
        packed = 0
        for v in range(first):
            c = in_count[v]
            if member[v]:
                need = need_in[v] - c
            else:
                need = (need_touched[v] if c else need_out[v]) - c
            if need > 0:
                candidates = masks[v] & rest
                deficit += need
                if need > candidates.bit_count() or deficit > cap:
                    return False
                if not candidates & used:
                    used |= candidates
                    packed += need
                    if packed > r:
                        return False
        for v in range(first, n):
            c = in_count[v]
            need = (need_touched[v] if c else need_out[v]) - c
            if need > 0:
                deficit += need
                if deficit > cap:
                    return False
                candidates = masks[v] & rest | 1 << v
                if not candidates & used:
                    used |= candidates
                    packed += min(need, 1 + max(0, need_in[v] - c))
                    if packed > r:
                        return False
        return True

    def leave(v: int) -> None:
        member[v] = False
        for w in adjacency[v]:
            in_count[w] -= 1

    if not bounds_ok(0, k):
        return None
    chosen = 0
    u = 0
    joins = True  # the branch to try next at vertex u
    while True:
        if u == n:
            return sum(1 << v for v in range(n) if member[v])
        if (chosen < k) if joins else (chosen + n - u - 1 >= k):
            counter["nodes"] += 1
            if max_nodes is not None and counter["nodes"] > max_nodes:
                raise SearchBudgetExceeded(
                    f"node budget {max_nodes} exhausted while searching cardinality {k};"
                    f" no satisfying set of size < {k} exists",
                    cardinality=k,
                    nodes_explored=counter["nodes"],
                )
            shift = u + 1
            if joins:
                member[u] = True
                for w in adjacency[u]:
                    in_count[w] += 1
                if bounds_ok(shift, k - chosen - 1):
                    chosen += 1
                    u = shift
                    continue
                leave(u)
            else:
                # Only u and its decided neighbors lose potential.
                c = in_count[u]
                ok = c + (masks[u] >> shift).bit_count() >= (need_touched[u] if c else need_out[u])
                if ok:
                    for w in earlier[u]:
                        c = in_count[w]
                        if member[w]:
                            need = need_in[w]
                        else:
                            need = need_touched[w] if c else need_out[w]
                        if c + (masks[w] >> shift).bit_count() < need:
                            ok = False
                            break
                if ok:
                    u = shift
                    joins = True
                    continue
        if joins:
            joins = False
            continue
        # Both branches at u are spent: pop decisions up to the nearest
        # member and try it as an outsider.
        while True:
            u -= 1
            if u < 0:
                return None
            if member[u]:
                leave(u)
                chosen -= 1
                joins = False
                break


def min_alliance_number(g: Graph, spec: AllianceSpec, limits: SearchLimits | None = None) -> AllianceResult:
    """Exact minimum cardinality of a set of the given variant.

    Searches cardinalities 1, 2, ... once each, over one set of tables, so
    the first satisfiable size is the minimum. Vertices are decided in
    index order, so the witness is the lexicographically smallest minimum
    set. Always terminates: the full vertex set qualifies.
    """
    limits = limits or SearchLimits()
    if g.n > limits.max_n:
        raise ResourceLimitError(
            f"order {g.n} exceeds the solver ceiling {limits.max_n}; raise max_n (--max-n) to search anyway,"
            " or evaluate the bounds alone (analyze --bounds-only)"
        )
    tables = _tables(g, VARIANTS[spec.name])
    counter = {"nodes": 0}
    for k in range(1, g.n + 1):
        mask = _search_exact(tables, k, counter, limits.max_nodes)
        if mask is not None:
            return AllianceResult(
                value=k,
                witness=VertexSet.from_mask(mask),
                nodes_explored=counter["nodes"],
            )
    raise AssertionError("unreachable: the full vertex set satisfies every variant")


def domination_number(g: Graph, limits: SearchLimits | None = None) -> AllianceResult:
    """Exact minimum cardinality of a dominating set: ``min_alliance_number``
    on the domination row."""
    return min_alliance_number(g, AllianceSpec("domination"), limits)
