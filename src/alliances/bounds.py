"""Lower-bound evaluators for alliance numbers, domination, and girth.

Each evaluator substitutes graph quantities (order n, size m, degree
extremes, algebraic connectivity, adjacency spectral radius, Laplacian
spectral radius) into one closed-form theorem and rounds it up. The
theorems on n, m and degrees alone take exact integer ceilings
(``-(-a // b)`` and ``math.isqrt``). Each spectral theorem is a Möbius map
(a*x + b)/(c*x + d) of one eigenvalue x, with integer coefficients from n,
m and the degrees; ``_spectral_ceil`` is the one place that rounds them. It
evaluates the normal form a/c + (b*c - a*d)/(c*(c*x + d)), which reads x
once, so eigensolver error enters one division rather than a numerator and
a denominator that could err apart, and takes the tolerance-aware
``safe_ceil``. The one spectral input without that error is the spectral
radius of a d-regular graph, which :mod:`spectral` reports as d exactly, so
the lambda theorems there stay ceilings of exact quotients that ``SNAP``
never decides.

``evaluate_all`` walks one ordered table, ``_THEOREMS``. An entry names the
theorem (a stable id used in reports), the targets it bounds, its formula,
its hypotheses in the order they are checked, each with the reason reported
when it fails, and whether its value is degenerate on disconnected graphs. A
formula's parameter names are the graph quantities it reads, and each is
passed by name. A theorem whose hypotheses fail yields no number, only the
first failing reason; ``THEOREM_IDS`` lists the table's ids in order.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .graph_core import Graph
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
    "select_theorems",
    "evaluate_all",
]

SNAP = 1e-7  # three orders of magnitude above spectral.DEFAULT_TOL, the fixed eigensolver residual


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


def safe_ceil(x: float) -> int:
    """Ceiling that snaps values within 1e-7 of an integer to that integer."""
    if not math.isfinite(x):
        raise ValueError(f"cannot take the ceiling of {x!r}")
    nearest = round(x)
    if abs(x - nearest) < SNAP:
        return int(nearest)
    return math.ceil(x)


def _ceil_div(a: int, b: int) -> int:
    """Exact ceil(a/b) for integers, b > 0."""
    return -(-a // b)


def _ceil_sqrt(x: int) -> int:
    """Exact ceil(sqrt(x)) for an integer x >= 1."""
    return math.isqrt(x - 1) + 1


def _spectral_ceil(x: float, label: str, a: int, b: int, c: int, d: int) -> int:
    """ceil((a*x + b)/(c*x + d)) for one eigenvalue x, clamped at zero.

    Rejects x < -SNAP and reads a smaller negative (eigensolver noise) as 0;
    rejects a denominator c*x + d <= 0. Evaluates the normal form of the
    module docstring; c is 1, 2 or 4, so a/c and c*x are exact.
    """
    if x < -SNAP:
        raise ValueError(f"{label} must be nonnegative, got {x}")
    denominator = c * max(x, 0.0) + d
    if denominator <= 0:
        raise ValueError(f"bound requires a positive {label}")
    return max(0, safe_ceil(a / c + (b * c - a * d) / (c * denominator)))


def defensive_connectivity(n: int, algebraic_connectivity: float) -> tuple[int, int]:
    """Bounds ceil(n*mu/(n+mu)) on the defensive and ceil(n*(mu+1)/(n+mu))
    on the strong defensive alliance number, mu the algebraic connectivity."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    mu, label = algebraic_connectivity, "algebraic connectivity"
    return _spectral_ceil(mu, label, n, 0, 1, n), _spectral_ceil(mu, label, n, n, 1, n)


def strong_defensive_connectivity_degree(n: int, algebraic_connectivity: float, max_degree: int) -> int:
    """Bound ceil(n*(mu - floor(Delta/2))/mu) on the strong defensive alliance
    number; only meaningful for connected graphs, where mu > 0."""
    return _spectral_ceil(algebraic_connectivity, "algebraic connectivity", n, -n * (max_degree // 2), 1, 0)


def global_defensive_spectral_radius(n: int, spectral_radius: float) -> tuple[int, int]:
    """Bounds ceil(n/(lambda+2)) and ceil(n/(lambda+1)) on the global (strong)
    defensive alliance numbers, lambda the adjacency spectral radius."""
    lam, label = spectral_radius, "spectral radius"
    return _spectral_ceil(lam, label, 0, n, 1, 2), _spectral_ceil(lam, label, 0, n, 1, 1)


def global_defensive_degree(n: int, max_degree: int) -> tuple[int, int]:
    """Bounds ceil(2n/(Delta+3)) and ceil(n/(floor(Delta/2)+1)) on the global
    (strong) defensive alliance numbers."""
    return _ceil_div(2 * n, max_degree + 3), _ceil_div(n, max_degree // 2 + 1)


def global_defensive_degree_prior(n: int, max_degree: int) -> int:
    """Earlier degree-only bound n/(ceil(Delta/2)+1) on the global defensive
    alliance number. It is never below globdef-degree's 2n/(Delta+3): the
    denominators agree for odd Delta, and for even Delta
    ceil(Delta/2)+1 < (Delta+3)/2."""
    return _ceil_div(n, (max_degree + 1) // 2 + 1)


def girth_regular_connectivity(n: int, algebraic_connectivity: float, degree: int) -> int:
    """Girth bound for connected regular graphs of degree 3, 4, or 5:
    ceil(n*(mu-1)/mu), ceil(n*(mu-2)/mu), ceil(n*mu/(n+mu)) respectively."""
    coefficients = {3: (n, -n, 1, 0), 4: (n, -2 * n, 1, 0), 5: (n, 0, 1, n)}
    if degree not in coefficients:
        raise ValueError(f"girth bound applies to regular degrees 3, 4, 5 only, got {degree}")
    return _spectral_ceil(algebraic_connectivity, "algebraic connectivity", *coefficients[degree])


def global_offensive_laplacian_radius(n: int, min_degree: int, laplacian_radius: float) -> tuple[int, int]:
    """Bounds ceil((n/mu*) * ceil((delta+1)/2)) and ceil((n/mu*) * (ceil(delta/2)+1))
    on the global (strong) offensive alliance numbers."""
    mu_star, label = laplacian_radius, "Laplacian spectral radius"
    return (
        _spectral_ceil(mu_star, label, 0, n * ((min_degree + 2) // 2), 1, 0),
        _spectral_ceil(mu_star, label, 0, n * ((min_degree + 1) // 2 + 1), 1, 0),
    )


def global_offensive_quadratic(n: int, m: int, max_degree: int) -> tuple[int, int]:
    """Quadratic-root bounds on the global (strong) offensive alliance numbers
    from order, size, and maximum degree alone: ceil((b - sqrt(d))/4), the
    smaller root of a quadratic rounded up, which equals ceil((b - isqrt(d))/4)."""
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
        _ceil_div(b_plain - math.isqrt(disc_plain), 4),
        _ceil_div(b_strong - math.isqrt(disc_strong), 4),
    )


def global_dual_spectral_radius(n: int, m: int, spectral_radius: float) -> tuple[int, int]:
    """Bounds ceil((2m+n)/(4(lambda+1))) and ceil((m+n)/(2*lambda+1)) on the
    global (strong) dual alliance numbers."""
    lam, label = spectral_radius, "spectral radius"
    return _spectral_ceil(lam, label, 0, 2 * m + n, 4, 4), _spectral_ceil(lam, label, 0, m + n, 2, 1)


def global_dual_size(n: int, m: int) -> tuple[int, int]:
    """Bounds ceil(sqrt(2m+n)/2) and ceil((1+sqrt(1+8(n+m)))/4) on the global
    (strong) dual alliance numbers; rounding the square root up first
    leaves each ceiling unchanged."""
    return _ceil_div(_ceil_sqrt(2 * m + n), 2), _ceil_div(1 + _ceil_sqrt(1 + 8 * (n + m)), 4)


def domination_laplacian_radius(n: int, laplacian_radius: float) -> int:
    """Bound n/mu* on the domination number, rounded up."""
    return _spectral_ceil(laplacian_radius, "Laplacian spectral radius", 0, n, 1, 0)


# A hypothesis is a test on the graph quantities and the reason reported
# when it fails; ``{degree}`` in a reason is filled from the quantities.
_Hypothesis = tuple[Callable[[dict], bool], str]
_SPECTRUM: _Hypothesis = (lambda q: q["spectral_radius"] is not None, "spectral summary unavailable (order < 2)")
_CONNECTED: _Hypothesis = (lambda q: q["connected"], "graph is disconnected")
_REGULAR: _Hypothesis = (lambda q: q["degree"] is not None, "graph is not regular")
_DEGREE_345: _Hypothesis = (lambda q: q["degree"] in (3, 4, 5), "regular of degree {degree}; theorem covers degrees 3, 4, 5")
_HAS_EDGES: _Hypothesis = (lambda q: q["m"] > 0, "Laplacian spectral radius is zero (edgeless graph)")


@dataclass(frozen=True)
class _Theorem:
    id: str
    targets: tuple[str, ...]
    formula: Callable[..., int | tuple[int, int]]  # one value per target
    requires: tuple[_Hypothesis, ...] = ()
    degenerate_if_disconnected: bool = False  # holds, but vacuous when mu ~ 0
    inputs: tuple[str, ...] = field(init=False)  # the formula's parameter names, read once

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(inspect.signature(self.formula).parameters))


_DEF = ("defensive", "strong_defensive")
_GLOBDEF = ("global_defensive", "global_strong_defensive")
_GLOBOFF = ("global_offensive", "global_strong_offensive")
_GLOBDUAL = ("global_dual", "global_strong_dual")

_THEOREMS: tuple[_Theorem, ...] = (
    _Theorem("def-mu", _DEF, defensive_connectivity, (_SPECTRUM,), True),
    _Theorem("strongdef-mu-delta", ("strong_defensive",), strong_defensive_connectivity_degree, (_SPECTRUM, _CONNECTED)),
    _Theorem("globdef-lambda", _GLOBDEF, global_defensive_spectral_radius, (_SPECTRUM,)),
    _Theorem("globdef-degree", _GLOBDEF, global_defensive_degree),
    _Theorem("globdef-degree-prior", ("global_defensive",), global_defensive_degree_prior),
    _Theorem("girth-regular-mu", ("girth",), girth_regular_connectivity, (_REGULAR, _DEGREE_345, _CONNECTED, _SPECTRUM)),
    _Theorem("globoff-laplacian", _GLOBOFF, global_offensive_laplacian_radius, (_SPECTRUM, _HAS_EDGES)),
    _Theorem("globoff-quadratic", _GLOBOFF, global_offensive_quadratic),
    _Theorem("globdual-lambda", _GLOBDUAL, global_dual_spectral_radius, (_SPECTRUM,)),
    _Theorem("globdual-size", _GLOBDUAL, global_dual_size),
    _Theorem("dom-laplacian", ("domination",), domination_laplacian_radius, (_SPECTRUM, _HAS_EDGES)),
)

THEOREM_IDS: tuple[str, ...] = tuple(theorem.id for theorem in _THEOREMS)
TARGETS: frozenset[str] = frozenset(target for theorem in _THEOREMS for target in theorem.targets)


def select_theorems(theorems: Iterable[str] | None) -> set[str]:
    """The ids to evaluate, every one in ``THEOREM_IDS`` when ``theorems`` is
    None; an id outside the table raises ``ValueError``."""
    if theorems is None:
        return set(THEOREM_IDS)
    selected = set(theorems)
    unknown = selected.difference(THEOREM_IDS)
    if unknown:
        raise ValueError(f"unknown theorem id(s): {', '.join(sorted(unknown))}")
    return selected


def evaluate_all(
    g: Graph,
    summary: SpectralSummary | None,
    theorems: Iterable[str] | None = None,
) -> list[BoundResult]:
    """Evaluate every requested theorem on one graph, in table order.

    ``summary`` is ``spectral.spectral_summary(g)``. It is None only at order
    1, which has no algebraic connectivity, and the spectral theorems are
    then reported inapplicable; a None summary at a larger order raises
    ``ValueError``, after the theorem ids are checked.
    """
    selected = select_theorems(theorems)
    if summary is None and g.n > 1:
        raise ValueError(f"a graph of order {g.n} needs its spectral summary; only order 1 has none")
    quantities = {
        "n": g.n,
        "m": g.m,
        "min_degree": g.min_degree,
        "max_degree": g.max_degree,
        "degree": g.regular,
        "connected": g.components == 1,
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
        values = theorem.formula(**{name: quantities[name] for name in theorem.inputs})
        if len(theorem.targets) == 1:
            values = (values,)
        degenerate = theorem.degenerate_if_disconnected and not quantities["connected"]
        results.extend(
            BoundResult(theorem.id, target, value, degenerate=degenerate)
            for target, value in zip(theorem.targets, values)
        )
    return results
