"""Naive reference oracle: plain-set arithmetic over all 2^n subsets.

Deliberately independent of the package internals (no bitmasks, no pruning,
no shared predicate code) so it can arbitrate the production solver.
"""

from itertools import combinations


def _neighbors(g, v):
    return set(g.adjacency[v])


def naive_satisfies(g, members: set, kind: str, strong: bool, global_: bool) -> bool:
    everyone = set(range(g.n))
    outside = everyone - members
    if kind in ("defensive", "dual"):
        for v in members:
            inside = len(_neighbors(g, v) & members)
            out = len(_neighbors(g, v) & outside)
            if inside + (0 if strong else 1) < out:
                return False
        if kind == "defensive" and global_:
            for v in outside:
                if not _neighbors(g, v) & members:
                    return False
    if kind in ("offensive", "dual"):
        need = 2 if strong else 1
        if global_ or kind == "dual":
            scope = outside
        else:
            scope = {v for v in outside if _neighbors(g, v) & members}
        for v in scope:
            inside = len(_neighbors(g, v) & members)
            out = len(_neighbors(g, v) & outside)
            if inside < out + need:
                return False
    return True


def naive_dominates(g, members: set) -> bool:
    return all(_neighbors(g, v) & members for v in set(range(g.n)) - members)


def naive_minimum(g, kind: str, strong: bool, global_: bool) -> int:
    return naive_minimum_witness(g, kind, strong, global_)[0]


def naive_minimum_witness(g, kind: str, strong: bool, global_: bool) -> tuple[int, tuple[int, ...]]:
    """Minimum value plus the first witness in combinations order (lex smallest)."""
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            if naive_satisfies(g, set(subset), kind, strong, global_):
                return k, subset
    raise AssertionError("the full vertex set always qualifies")


def naive_domination(g) -> int:
    return naive_domination_witness(g)[0]


def naive_domination_witness(g) -> tuple[int, tuple[int, ...]]:
    """Domination number plus the first dominating set in combinations order."""
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            if naive_dominates(g, set(subset)):
                return k, subset
    raise AssertionError("the full vertex set always dominates")
