"""Naive reference oracle: plain-set arithmetic over all 2^n subsets.

Deliberately independent of the package internals (no bitmasks, no pruning,
no shared predicate code, not even the variant table: each variant name is
split into its kind and flags here) so it can arbitrate the production
solver.
"""

from itertools import combinations


def _neighbors(g, v):
    return set(g.adjacency[v])


# kind -> the flag prefixes its names take
_KINDS = {
    "defensive": ((), ("strong",), ("global",), ("global", "strong")),
    "offensive": (("global",), ("global", "strong")),
    "dual": (("global",), ("global", "strong")),
    "domination": ((),),
}


def _flags(name: str) -> tuple[str, bool, bool]:
    """Split a variant name such as ``global_strong_dual`` into (kind, strong, global)."""
    *flags, kind = name.split("_")
    if tuple(flags) not in _KINDS.get(kind, ()):
        raise ValueError(f"unknown variant {name!r}")
    return kind, "strong" in flags, "global" in flags


def naive_satisfies(g, members: set, name: str) -> bool:
    kind, strong, global_ = _flags(name)
    everyone = set(range(g.n))
    outside = everyone - members
    if kind == "domination":
        return all(_neighbors(g, v) & members for v in outside)
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
        for v in outside:
            inside = len(_neighbors(g, v) & members)
            out = len(_neighbors(g, v) & outside)
            if inside < out + need:
                return False
    return True


def naive_minimum(g, name: str) -> int:
    return naive_minimum_witness(g, name)[0]


def naive_minimum_witness(g, name: str) -> tuple[int, tuple[int, ...]]:
    """Minimum value plus the first witness in combinations order (lex smallest)."""
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            if naive_satisfies(g, set(subset), name):
                return k, subset
    raise AssertionError("the full vertex set always qualifies")

