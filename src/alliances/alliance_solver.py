"""Alliance predicates and exact minimum-cardinality solvers.

Every per-vertex condition reduces to an integer comparison between twice
the vertex's in-neighbor count and its degree:

  * member of a defensive alliance: 2*in >= deg - 1 (strong: 2*in >= deg)
  * outsider facing an offensive alliance: 2*in >= deg + 1 (strong: deg + 2)

The computed offensive forms are the global ones, whose condition applies
to the whole outside; they are the ones the paper bounds. A dual alliance
is a defensive alliance that is also a global offensive alliance
(domination follows).
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

One more pruning uses what is already known, and it changes no value or
witness either: implication-order starts. ``_IMPLIES`` is derived from the
thresholds: X implies Y when each of Y's conditions follows from one of
X's, so every X-set is a Y-set and X's minimum is at least Y's. Given the
results already found for a graph, ``min_alliance_number`` starts at the
largest value among the rows X implies. If such a row's witness W has that
value and is an X-set, W is the answer: it is the lexicographically
smallest Y-set of its size, every X-set of that size is a Y-set, so none
comes before W. Nothing is taken from the paper's theorems, which the
survey checks against these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
    outside_need: int | None  # every outsider v needs 2*in >= deg(v) + outside_need
    dominate: bool  # every outsider needs at least one neighbor in S


# Every variant the solver knows, in the order ``analyze`` reports them;
# each is the target of some theorem in ``bounds``. A global offensive (or
# dual) outsider needs 2*in >= deg+1, which already forces a member
# neighbor, so only the global defensive rows set ``dominate``. Domination
# is not an alliance, but a row of the same form, and comes last.
VARIANTS: dict[str, _Conditions] = {
    "defensive": _Conditions(-1, None, False),
    "strong_defensive": _Conditions(0, None, False),
    "global_defensive": _Conditions(-1, None, True),
    "global_strong_defensive": _Conditions(0, None, True),
    "global_offensive": _Conditions(None, 1, False),
    "global_strong_offensive": _Conditions(None, 2, False),
    "global_dual": _Conditions(-1, 1, False),
    "global_strong_dual": _Conditions(0, 2, False),
    "domination": _Conditions(None, None, True),
}


def _implies(x: _Conditions, y: _Conditions) -> bool:
    """Whether every set that meets ``x``'s conditions meets ``y``'s."""
    # An outsider that needs 2*in >= deg + c with c > 0 has a member
    # neighbor, so such a condition dominates.
    dominates = x.dominate or (x.outside_need is not None and x.outside_need > 0)
    return (
        (y.member_slack is None or (x.member_slack is not None and x.member_slack >= y.member_slack))
        and (y.outside_need is None or (x.outside_need is not None and x.outside_need >= y.outside_need))
        and (dominates or not y.dominate)
    )


# Per row, the other rows that each of its sets also satisfies, so its
# minimum is at least theirs: "every global dual alliance is a global
# defensive and a global offensive alliance", and so on.
_IMPLIES: dict[str, tuple[str, ...]] = {
    x: tuple(y for y in VARIANTS if y != x and _implies(VARIANTS[x], VARIANTS[y])) for x in VARIANTS
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
            if cond.outside_need is not None and 2 * inside < len(g.adjacency[v]) + cond.outside_need:
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
    closed: list[int]  # masks[v] | 1 << v: an undecided vertex's candidates
    need_in: list[int]  # in-neighbors a member needs
    need_out: list[int]  # ... a non-member
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
    need_out = [max(dominate, 0 if outside_need is None else -(-(d + outside_need) // 2)) for d in degree]
    return _Tables(
        n=n,
        adjacency=adjacency,
        masks=masks,
        closed=[m | 1 << v for v, m in enumerate(masks)],
        need_in=need_in,
        need_out=need_out,
        per_member=g.max_degree + max(need_out),
        earlier=[tuple(w for w in adjacency[v] if w < v) for v in range(n)],
    )


def _search_exact(t: _Tables, k: int, counter: dict[str, int], max_nodes: int | None) -> int | None:
    """Lexicographically smallest satisfying k-subset, or None.

    Vertices are decided in/out in index order, in-branch first, so the
    first hit is the lexicographically smallest satisfying k-subset. Each
    vertex's thresholds are turned into in-neighbor counts once per variant
    (``_tables``): ``need_in`` as a member and ``need_out`` as a non-member.
    A vertex's *need* is the one of these that fits its membership, less
    its in-count; an undecided vertex counts as a non-member. The search writes
    only two values per vertex, its in-count and its ``member`` flag; the
    tables are read-only. The search stack is the decided prefix ``v < u``
    together with ``member``, the one record of which vertices joined, so
    the depth (the graph order) is not bounded by the recursion limit.

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
    one in-count per neighbor, and taking it back undoes both; ``bounds_ok``
    runs one pass over all vertices, at the root and after every join, and
    fails at the first of three tests:

    * the potential check of every decided vertex. A join moves no decided
      neighbor's potential (one more member neighbor, one fewer undecided)
      and no need but u's, so only u can fail it;
    * the deficit bound: D sums the positive needs. A new member raises
      ``in`` of at most Δ (the maximum degree) vertices by one and drops its
      own non-member need of at most T (the largest ``need_out``), so
      ``D > r*(Δ+T)`` is hopeless. For domination D is the number of
      undominated vertices and T = 1, the coverage bound gamma >= n/(Δ+1);
    * the packing bound: a vertex's candidates are its undecided neighbors,
      plus itself while undecided (``closed[v] & rest``, with ``closed``
      the closed neighborhoods). Greedily, in index order, pack vertices
      with a positive need whose candidate sets are pairwise disjoint; an
      undecided vertex counts the smaller of its need and ``1 + max(0,
      need_in - in)`` (itself, then its member need). Each future member
      serves at most one of them, so packed needs summing to more than r
      are hopeless. For domination this is the 2-packing bound gamma >= rho
      (Meir & Moon, 1975).

    The bounds only discard subtrees with no satisfying k-set, so the first
    hit and the witness are unchanged; only the node count drops.
    """
    n, adjacency, masks, closed, need_in, need_out, per_member, earlier = t
    member = [False] * n
    in_count = [0] * n

    # Everything the pass reads is bound as a default argument, which makes
    # it a fast local, and taking back a join is written out where it
    # happens. A name that a nested function reads from this scope becomes
    # a closure cell, in the main loop too, and cell loads sit in the
    # per-vertex loops. The node count is a local, written back on exit.
    def bounds_ok(
        first: int, r: int, n=n, full=(1 << n) - 1, in_count=in_count, member=member, masks=masks,
        closed=closed, need_in=need_in, need_out=need_out, per_member=per_member,
    ) -> bool:
        # Vertices before ``first`` are decided, the rest undecided.
        rest = full >> first << first
        cap = r * per_member
        deficit = 0
        used = 0
        packed = 0
        for v in range(first):
            c = in_count[v]
            need = (need_in[v] if member[v] else need_out[v]) - c
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
            need = need_out[v] - c
            if need > 0:
                deficit += need
                if deficit > cap:
                    return False
                candidates = closed[v] & rest
                if not candidates & used:
                    used |= candidates
                    # The smaller of its need and 1 + max(0, need_in - in).
                    own = need_in[v] - c + 1
                    packed += need if need < own else own if own > 1 else 1
                    if packed > r:
                        return False
        return True

    if not bounds_ok(0, k):
        return None
    nodes = counter["nodes"]
    chosen = 0
    u = 0
    joins = True  # the branch to try next at vertex u
    while True:
        if u == n:
            counter["nodes"] = nodes
            return sum(1 << v for v in range(n) if member[v])
        if (chosen < k) if joins else (chosen + n - u - 1 >= k):
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                counter["nodes"] = nodes
                raise SearchBudgetExceeded(
                    f"node budget {max_nodes} exhausted while searching cardinality {k};"
                    f" no satisfying set of size < {k} exists",
                    cardinality=k,
                    nodes_explored=nodes,
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
                member[u] = False
                for w in adjacency[u]:
                    in_count[w] -= 1
            else:
                # Only u and its decided neighbors lose potential.
                ok = in_count[u] + (masks[u] >> shift).bit_count() >= need_out[u]
                if ok:
                    for w in earlier[u]:
                        need = need_in[w] if member[w] else need_out[w]
                        if in_count[w] + (masks[w] >> shift).bit_count() < need:
                            ok = False
                            break
                if ok:
                    u = shift
                    joins = True
                    continue
        if joins:
            joins = False
        else:
            # Both branches at u are spent: pop decisions up to the nearest
            # member and try it as an outsider.
            while True:
                u -= 1
                if u < 0:
                    counter["nodes"] = nodes
                    return None
                if member[u]:
                    member[u] = False
                    for w in adjacency[u]:
                        in_count[w] -= 1
                    chosen -= 1
                    break


def min_alliance_number(
    g: Graph,
    spec: AllianceSpec,
    limits: SearchLimits | None = None,
    *,
    _known: Mapping[str, AllianceResult] | None = None,
) -> AllianceResult:
    """Exact minimum cardinality of a set of the given variant.

    Searches cardinalities from a start up, once each, over one set of
    tables, so the first satisfiable size is the minimum. Vertices are
    decided in index order, so the witness is the lexicographically
    smallest minimum set. Always terminates: the full vertex set qualifies.

    ``_known`` is private to ``report.analyze``, and is trusted unchecked:
    it holds results this function already returned for this same ``g``,
    by variant name. Results of another graph can make the start too
    large and the value wrong. The search starts at the largest value
    among the rows ``spec`` implies (``_IMPLIES``), since each of its sets
    is a set of theirs; with none it starts at 1. If such a row's witness has that
    value and is a ``spec`` set, it is returned with ``nodes_explored`` 0:
    it is the smallest set of the implied row of that size, and every
    ``spec`` set of that size is one of them, so no ``spec`` set of that
    size comes before it.
    """
    limits = limits or SearchLimits()
    if g.n > limits.max_n:
        raise ResourceLimitError(
            f"order {g.n} exceeds the solver ceiling {limits.max_n}; raise max_n (--max-n) to search anyway,"
            " or evaluate the bounds alone (analyze --bounds-only)"
        )
    cond = VARIANTS[spec.name]
    implied = [_known[name] for name in _IMPLIES[spec.name] if name in _known] if _known else []
    start = max((result.value for result in implied), default=1)
    for result in implied:
        if result.value == start and _satisfies(g, result.witness.mask, cond):
            return AllianceResult(value=start, witness=result.witness, nodes_explored=0)
    tables = _tables(g, cond)
    counter = {"nodes": 0}
    for k in range(start, g.n + 1):
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
