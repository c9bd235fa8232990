"""Lower-bound evaluators for alliance numbers, domination, and girth.

Each evaluator substitutes graph quantities (order n, size m, degree
extremes, algebraic connectivity, adjacency spectral radius, Laplacian
spectral radius) into one closed-form theorem and takes a tolerance-aware
integer ceiling.

``evaluate_all`` walks one ordered table, ``_THEOREMS``. An entry names the
theorem (a stable id used in reports), the targets it bounds, the graph
quantities its formula reads (in argument order; they are also the row's
``inputs``), its hypotheses in the order they are checked, each with the
reason reported when it fails, and whether its value is degenerate on
disconnected graphs. A theorem whose hypotheses fail yields no number, only
the first failing reason; ``THEOREM_IDS`` lists the table's ids in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .graph_core import Graph, degree_stats, is_connected
from .spectral import SpectralSummary

__all__ = [
    "BoundResult",
    "THEOREM_IDS",
    "TARGETS",
    "safe_ceil",
    "defensive_connectivity",
    "strong_defensive_connectivity_degree",
    "global_defensive_spectral_radius",
    "global_defensive_degree",
    "global_defensive_degree_prior",
    "girth_regular_connectivity",
    "global_offensive_laplacian_radius",
    "global_offensive_quadratic",
    "global_dual_spectral_radius",
    "global_dual_size",
    "domination_laplacian_radius",
    "evaluate_all",
]

SNAP = 1e-7  # three orders of magnitude above the eigensolver residual


@dataclass(frozen=True)
class BoundResult:
    """One theorem applied to one target quantity.

    ``value`` is an integer lower bound on the target when ``applicable``,
    otherwise absent with a reason. ``degenerate`` flags bounds that hold
    but are vacuous (connectivity-based bounds on disconnected graphs).
    """

    theorem: str
    target: str
    value: int | None
    applicable: bool = True
    reason: str | None = None
    degenerate: bool = False
    inputs: dict = field(default_factory=dict)


def safe_ceil(x: float) -> int:
    """Ceiling that snaps values within 1e-7 of an integer to that integer."""
    if not math.isfinite(x):
        raise ValueError(f"cannot take the ceiling of {x!r}")
    nearest = round(x)
    if abs(x - nearest) < SNAP:
        return int(nearest)
    return math.ceil(x)


def _nonnegative(value: float, label: str) -> float:
    """Clamp tiny negative eigensolver noise to zero; reject real negatives."""
    if value < -SNAP:
        raise ValueError(f"{label} must be nonnegative, got {value}")
    return max(value, 0.0)


def defensive_connectivity(n: int, algebraic_connectivity: float) -> tuple[int, int]:
    """Bounds ceil(n*mu/(n+mu)) on the defensive and ceil(n*(mu+1)/(n+mu))
    on the strong defensive alliance number, mu the algebraic connectivity."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    mu = _nonnegative(algebraic_connectivity, "algebraic connectivity")
    return (
        safe_ceil(n * mu / (n + mu)),
        safe_ceil(n * (mu + 1.0) / (n + mu)),
    )


def strong_defensive_connectivity_degree(n: int, algebraic_connectivity: float, max_degree: int) -> int:
    """Bound ceil(n*(mu - floor(Delta/2))/mu) on the strong defensive alliance
    number; only meaningful for connected graphs, where mu > 0."""
    mu = _nonnegative(algebraic_connectivity, "algebraic connectivity")
    if mu <= 0:
        raise ValueError("bound requires positive algebraic connectivity (connected graph)")
    return max(0, safe_ceil(n * (mu - max_degree // 2) / mu))


def global_defensive_spectral_radius(n: int, spectral_radius: float) -> tuple[int, int]:
    """Bounds ceil(n/(lambda+2)) and ceil(n/(lambda+1)) on the global (strong)
    defensive alliance numbers, lambda the adjacency spectral radius."""
    lam = _nonnegative(spectral_radius, "spectral radius")
    return safe_ceil(n / (lam + 2.0)), safe_ceil(n / (lam + 1.0))


def global_defensive_degree(n: int, max_degree: int) -> tuple[int, int]:
    """Bounds ceil(2n/(Delta+3)) and ceil(n/(floor(Delta/2)+1)) on the global
    (strong) defensive alliance numbers."""
    return (
        safe_ceil(2.0 * n / (max_degree + 3)),
        safe_ceil(n / (max_degree // 2 + 1)),
    )


def global_defensive_degree_prior(n: int, max_degree: int) -> int:
    """Earlier degree-only bound n/(ceil(Delta/2)+1) on the global defensive
    alliance number; kept alongside the sharper globdef-degree bound."""
    return safe_ceil(n / ((max_degree + 1) // 2 + 1))


def girth_regular_connectivity(n: int, algebraic_connectivity: float, degree: int) -> int:
    """Girth bound for connected regular graphs of degree 3, 4, or 5:
    ceil(n*(mu-1)/mu), ceil(n*(mu-2)/mu), ceil(n*mu/(n+mu)) respectively."""
    mu = _nonnegative(algebraic_connectivity, "algebraic connectivity")
    if degree == 3:
        return max(0, safe_ceil(n * (mu - 1.0) / mu))
    if degree == 4:
        return max(0, safe_ceil(n * (mu - 2.0) / mu))
    if degree == 5:
        return max(0, safe_ceil(n * mu / (n + mu)))
    raise ValueError(f"girth bound applies to regular degrees 3, 4, 5 only, got {degree}")


def global_offensive_laplacian_radius(n: int, min_degree: int, laplacian_radius: float) -> tuple[int, int]:
    """Bounds ceil((n/mu*) * ceil((delta+1)/2)) and ceil((n/mu*) * (ceil(delta/2)+1))
    on the global (strong) offensive alliance numbers."""
    mu_star = _nonnegative(laplacian_radius, "Laplacian spectral radius")
    if mu_star <= 0:
        raise ValueError("bound requires a positive Laplacian spectral radius (at least one edge)")
    return (
        safe_ceil(n / mu_star * ((min_degree + 2) // 2)),
        safe_ceil(n / mu_star * ((min_degree + 1) // 2 + 1)),
    )


def global_offensive_quadratic(n: int, m: int, max_degree: int) -> tuple[int, int]:
    """Quadratic-root bounds on the global (strong) offensive alliance numbers
    from order, size, and maximum degree alone."""
    b_plain = 2 * n + max_degree + 1
    b_strong = 2 * n + max_degree + 2
    disc_plain = b_plain * b_plain - 8 * (2 * m + n)
    disc_strong = b_strong * b_strong - 16 * (m + n)
    # Nonnegative by derivation; a negative value means the inputs are not
    # from a simple graph and deserves a hard error rather than a clamp.
    if disc_plain < 0 or disc_strong < 0:
        raise ValueError(
            f"negative discriminant for n={n}, m={m}, max_degree={max_degree}; inputs are inconsistent"
        )
    return (
        safe_ceil((b_plain - math.sqrt(disc_plain)) / 4.0),
        safe_ceil((b_strong - math.sqrt(disc_strong)) / 4.0),
    )


def global_dual_spectral_radius(n: int, m: int, spectral_radius: float) -> tuple[int, int]:
    """Bounds ceil((2m+n)/(4(lambda+1))) and ceil((m+n)/(2*lambda+1)) on the
    global (strong) dual alliance numbers."""
    lam = _nonnegative(spectral_radius, "spectral radius")
    return (
        safe_ceil((2 * m + n) / (4.0 * (lam + 1.0))),
        safe_ceil((m + n) / (2.0 * lam + 1.0)),
    )


def global_dual_size(n: int, m: int) -> tuple[int, int]:
    """Bounds ceil(sqrt(2m+n)/2) and ceil((1+sqrt(1+8(n+m)))/4) on the global
    (strong) dual alliance numbers."""
    return (
        safe_ceil(math.sqrt(2 * m + n) / 2.0),
        safe_ceil((1.0 + math.sqrt(1.0 + 8.0 * (n + m))) / 4.0),
    )


def domination_laplacian_radius(n: int, laplacian_radius: float) -> int:
    """Bound n/mu* on the domination number, rounded up."""
    mu_star = _nonnegative(laplacian_radius, "Laplacian spectral radius")
    if mu_star <= 0:
        raise ValueError("bound requires a positive Laplacian spectral radius (at least one edge)")
    return safe_ceil(n / mu_star)


# A hypothesis is a test on the graph quantities and the reason reported
# when it fails; ``{degree}`` in a reason is filled from the quantities.
_Hypothesis = tuple[Callable[[dict], bool], str]
_SPECTRUM: _Hypothesis = (lambda q: q["spectral_radius"] is not None, "spectral summary unavailable (order < 2)")
_CONNECTED: _Hypothesis = (lambda q: q["connected"], "graph is disconnected")
_REGULAR: _Hypothesis = (lambda q: q["degree"] is not None, "graph is not regular")
_DEGREE_345: _Hypothesis = (lambda q: q["degree"] in (3, 4, 5), "regular of degree {degree}; theorem covers degrees 3, 4, 5")
_HAS_EDGES: _Hypothesis = (lambda q: q["laplacian_radius"] > SNAP, "Laplacian spectral radius is zero (edgeless graph)")


@dataclass(frozen=True)
class _Theorem:
    id: str
    targets: tuple[str, ...]
    formula: Callable[..., int | tuple[int, int]]  # one value per target
    inputs: tuple[str, ...]
    requires: tuple[_Hypothesis, ...] = ()
    degenerate_if_disconnected: bool = False  # holds, but vacuous when mu ~ 0


_DEF = ("defensive", "strong_defensive")
_GLOBDEF = ("global_defensive", "global_strong_defensive")
_GLOBOFF = ("global_offensive", "global_strong_offensive")
_GLOBDUAL = ("global_dual", "global_strong_dual")

_THEOREMS: tuple[_Theorem, ...] = (
    # (strong) defensive vs algebraic connectivity
    _Theorem("def-mu", _DEF, defensive_connectivity, ("n", "algebraic_connectivity"), (_SPECTRUM,), True),
    # strong defensive vs connectivity and maximum degree
    _Theorem(
        "strongdef-mu-delta",
        ("strong_defensive",),
        strong_defensive_connectivity_degree,
        ("n", "algebraic_connectivity", "max_degree"),
        (_SPECTRUM, _CONNECTED),
    ),
    # global (strong) defensive vs spectral radius
    _Theorem("globdef-lambda", _GLOBDEF, global_defensive_spectral_radius, ("n", "spectral_radius"), (_SPECTRUM,)),
    # global (strong) defensive vs maximum degree
    _Theorem("globdef-degree", _GLOBDEF, global_defensive_degree, ("n", "max_degree")),
    # earlier degree-only global defensive bound
    _Theorem("globdef-degree-prior", ("global_defensive",), global_defensive_degree_prior, ("n", "max_degree")),
    # girth of connected 3/4/5-regular graphs vs connectivity
    _Theorem(
        "girth-regular-mu",
        ("girth",),
        girth_regular_connectivity,
        ("n", "algebraic_connectivity", "degree"),
        (_REGULAR, _DEGREE_345, _CONNECTED, _SPECTRUM),
    ),
    # global (strong) offensive vs Laplacian spectral radius
    _Theorem(
        "globoff-laplacian",
        _GLOBOFF,
        global_offensive_laplacian_radius,
        ("n", "min_degree", "laplacian_radius"),
        (_SPECTRUM, _HAS_EDGES),
    ),
    # global (strong) offensive vs order, size, maximum degree
    _Theorem("globoff-quadratic", _GLOBOFF, global_offensive_quadratic, ("n", "m", "max_degree")),
    # global (strong) dual vs spectral radius
    _Theorem("globdual-lambda", _GLOBDUAL, global_dual_spectral_radius, ("n", "m", "spectral_radius"), (_SPECTRUM,)),
    # global (strong) dual vs order and size
    _Theorem("globdual-size", _GLOBDUAL, global_dual_size, ("n", "m")),
    # domination vs Laplacian spectral radius
    _Theorem(
        "dom-laplacian",
        ("domination",),
        domination_laplacian_radius,
        ("n", "laplacian_radius"),
        (_SPECTRUM, _HAS_EDGES),
    ),
)

THEOREM_IDS: tuple[str, ...] = tuple(theorem.id for theorem in _THEOREMS)
TARGETS: frozenset[str] = frozenset(target for theorem in _THEOREMS for target in theorem.targets)


def evaluate_all(
    g: Graph,
    summary: SpectralSummary | None = None,
    theorems: Iterable[str] | None = None,
) -> list[BoundResult]:
    """Evaluate every requested theorem on one graph, in table order.

    ``summary`` may be None (order-1 graphs have no algebraic connectivity);
    spectral theorems are then reported inapplicable. Values are clamped at
    zero: a negative lower bound carries no information.
    """
    if theorems is None:
        selected = set(THEOREM_IDS)
    else:
        selected = set(theorems)
        unknown = selected.difference(THEOREM_IDS)
        if unknown:
            raise ValueError(f"unknown theorem id(s): {', '.join(sorted(unknown))}")

    stats = degree_stats(g)
    quantities = {
        "n": g.n,
        "m": g.m,
        "min_degree": stats.min_degree,
        "max_degree": stats.max_degree,
        "degree": stats.regular,
        "connected": summary.connected if summary is not None else is_connected(g),
        "algebraic_connectivity": summary.algebraic_connectivity if summary is not None else None,
        "spectral_radius": summary.spectral_radius if summary is not None else None,
        "laplacian_radius": summary.laplacian_radius if summary is not None else None,
    }

    results: list[BoundResult] = []
    for theorem in _THEOREMS:
        if theorem.id not in selected:
            continue
        failed = next((reason for holds, reason in theorem.requires if not holds(quantities)), None)
        if failed is not None:
            reason = failed.format(**quantities)
            results.extend(
                BoundResult(theorem.id, target, None, applicable=False, reason=reason) for target in theorem.targets
            )
            continue
        inputs = {name: quantities[name] for name in theorem.inputs}
        values = theorem.formula(*inputs.values())
        if len(theorem.targets) == 1:
            values = (values,)
        degenerate = theorem.degenerate_if_disconnected and not quantities["connected"]
        results.extend(
            BoundResult(theorem.id, target, max(0, value), degenerate=degenerate, inputs=dict(inputs))
            for target, value in zip(theorem.targets, values)
        )
    return results
