"""Dense symmetric eigensolving for the three spectral quantities the bounds consume.

The solver is cyclic Jacobi: simple, robust for symmetric matrices, and
accurate far below the integer-snapping threshold used downstream. It always
solves to the off-diagonal residual ``DEFAULT_TOL`` within ``MAX_SWEEPS``
sweeps. The suite checks it against an independent power iteration kept with
the tests. Connectivity is a graph fact, read from ``graph_core.is_connected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph

__all__ = [
    "SpectralSummary",
    "ConvergenceError",
    "UndefinedQuantityError",
    "adjacency_matrix",
    "jacobi_spectrum",
    "spectral_summary",
]

DEFAULT_TOL = 1e-10
MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


class UndefinedQuantityError(ValueError):
    """The requested spectral quantity is undefined for this graph."""


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral radius, algebraic connectivity, Laplacian spectral radius.

    ``laplacian_spectrum`` is sorted ascending; its first entry is 0 up to
    the solver tolerance, and ``algebraic_connectivity`` is the second entry
    (positive iff the graph is connected).
    """

    spectral_radius: float
    algebraic_connectivity: float
    laplacian_radius: float
    laplacian_spectrum: tuple[float, ...]
    sweeps: int
    residual: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in g.adjacency[v]:
            a[v, u] = 1.0
    return a


def jacobi_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair until all off-diagonal entries
    have magnitude below ``DEFAULT_TOL``, and raise :class:`ConvergenceError`
    after ``MAX_SWEEPS`` sweeps. Returns (sorted eigenvalues, sweeps used,
    final off-diagonal residual).
    """
    tol, max_sweeps = DEFAULT_TOL, MAX_SWEEPS
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n == 1:
        return a.diagonal().copy(), 0, 0.0
    upper = np.triu_indices(n, 1)
    skip = tol * 1e-2  # entries this small cannot push the sweep residual over tol
    for sweep in range(max_sweeps + 1):
        off = float(np.max(np.abs(a[upper])))
        if off < tol:
            return np.sort(a.diagonal()), sweep, off
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi did not reach off-diagonal residual {tol} within {max_sweeps} sweeps"
                f" (residual {off:.3e})",
                residual=off,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
    raise AssertionError("unreachable")


def spectral_summary(g: Graph) -> SpectralSummary:
    """Compute the full Laplacian spectrum and adjacency spectral radius.

    Both matrices are solved to the fixed off-diagonal residual
    ``DEFAULT_TOL``, which the integer snapping in :mod:`bounds` relies on.

    Raises :class:`UndefinedQuantityError` for graphs of order 1, where the
    algebraic connectivity does not exist. Disconnected graphs are fine: the
    second Laplacian eigenvalue is then ~0.
    """
    if g.n < 2:
        raise UndefinedQuantityError("algebraic connectivity is undefined for graphs of order < 2")
    adjacency = adjacency_matrix(g)
    lap_spectrum, lap_sweeps, lap_residual = jacobi_spectrum(np.diag(adjacency.sum(axis=1)) - adjacency)
    adj_spectrum, adj_sweeps, adj_residual = jacobi_spectrum(adjacency)
    # For a nonnegative symmetric matrix the largest eigenvalue is the spectral radius.
    return SpectralSummary(
        spectral_radius=float(adj_spectrum[-1]),
        algebraic_connectivity=float(lap_spectrum[1]),
        laplacian_radius=float(lap_spectrum[-1]),
        laplacian_spectrum=tuple(float(x) for x in lap_spectrum),
        sweeps=lap_sweeps + adj_sweeps,
        residual=max(lap_residual, adj_residual),
    )
