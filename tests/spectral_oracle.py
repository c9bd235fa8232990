"""Spectral reference oracles: power iteration and indicator Rayleigh values.

Independent of the package's Jacobi eigensolver, like ``naive.py`` is of the
search: it reads only ``g.n`` and ``g.adjacency`` and builds its own
matrices, so comparing it with ``spectral_summary`` compares two unrelated
methods.
"""

import numpy as np

from alliances.spectral import ConvergenceError


def _matrices(g):
    adjacency = np.zeros((g.n, g.n))
    for v, neighbors in enumerate(g.adjacency):
        adjacency[v, list(neighbors)] = 1.0
    return adjacency, np.diag(adjacency.sum(axis=1)) - adjacency


def rayleigh_indicator(g, s) -> float:
    """Rayleigh value of the indicator vector of ``s``: n * cut(s) / (|s| * (n - |s|)).

    For every proper nonempty subset this lies between the algebraic
    connectivity and the Laplacian spectral radius.
    """
    members = set(s)
    if not 0 < len(members) < g.n:
        raise ValueError("rayleigh_indicator needs a proper nonempty subset")
    cut = sum(1 for v in members for w in g.adjacency[v] if w not in members)
    return g.n * cut / (len(members) * (g.n - len(members)))


def power_iteration_radius(g, which: str = "adjacency", tol: float = 1e-10, max_iter: int = 50000) -> float:
    """Dominant eigenvalue of the adjacency or Laplacian matrix by power iteration.

    Both matrices are shifted to make all eigenvalues nonnegative (adjacency
    by the maximum degree, Laplacian by twice the maximum degree) so that the
    target eigenvalue is the strictly dominant one; the shift is removed from
    the returned value. Stops when the Rayleigh-quotient residual drops below
    ``tol``. Adjacency mode assumes a connected graph.
    """
    max_degree = max((len(a) for a in g.adjacency), default=0)
    adjacency, laplacian = _matrices(g)
    if which == "adjacency":
        base, shift = adjacency, float(max_degree)
    elif which == "laplacian":
        base, shift = laplacian, 2.0 * max_degree
    else:
        raise ValueError(f"which must be 'adjacency' or 'laplacian', got {which!r}")
    matrix = base + shift * np.eye(g.n)
    if not matrix.any():
        return -shift  # zero matrix: only happens for edgeless graphs, shift is 0
    rng = np.random.default_rng(0x5EED)
    x = rng.standard_normal(g.n)
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(max_iter):
        y = matrix @ x
        norm = float(np.linalg.norm(y))
        if norm < 1e-300:
            x = rng.standard_normal(g.n)
            x /= np.linalg.norm(x)
            continue
        rho = float(x @ y)
        if float(np.linalg.norm(y - rho * x)) <= tol * max(1.0, abs(rho)):
            return rho - shift
        x = y / norm
    residual = float(np.linalg.norm(matrix @ x - rho * x))
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )
