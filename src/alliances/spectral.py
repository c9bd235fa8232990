"""Dense symmetric eigensolving for the three spectral quantities the bounds consume.

The solver is cyclic Jacobi: simple, robust for symmetric matrices, and
accurate far below the integer-snapping threshold used downstream. It always
solves to the off-diagonal residual ``DEFAULT_TOL`` within ``MAX_SWEEPS``
sweeps. The suite checks it against an independent power iteration kept with
the tests. Connectivity is a graph fact: the Laplacian's eigenvalue 0 has
multiplicity the number of connected components, the graph's ``components``
field, and those leading entries of the spectrum are set to 0.0 exactly
rather than left at solver noise.

A d-regular graph takes one eigensolve, of its Laplacian: its adjacency
spectral radius is d exactly (Perron–Frobenius; the all-ones vector is an
eigenvector and no eigenvalue exceeds the maximum degree), so it is reported
as ``float(d)`` without solving the adjacency matrix. Regularity is read from
the graph's ``regular`` field.

Any other bipartite graph solves a half-order matrix in place of its
adjacency matrix. With the vertices ordered by colour class, A = [[0, B],
[Bᵀ, 0]], and λ(A)² is the largest eigenvalue of BBᵀ (Brouwer & Haemers,
*Spectra of Graphs*, 2012, §1.3). BBᵀ is the integer matrix of
common-neighbour counts between the vertices of the graph's ``first_class``,
the smaller colour class of each component, so its order is at most n // 2;
λ is the square root of its top eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, VertexSet

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

    ``laplacian_spectrum`` is sorted ascending; its first c entries are
    exactly 0.0, where c is the number of connected components, and
    ``algebraic_connectivity`` is the second entry: exactly 0.0 on a
    disconnected graph and positive on a connected one.

    ``sweeps`` is the number of Jacobi sweeps over the solves that ran; it is
    not in the report, and perfbench's trace reads it from here. On a
    regular graph only the Laplacian is solved, and ``spectral_radius`` is
    the degree exactly. On any other bipartite graph the second solve is of
    the common-neighbour matrix BBᵀ, whose top eigenvalue is λ².
    """

    spectral_radius: float
    algebraic_connectivity: float
    laplacian_radius: float
    laplacian_spectrum: tuple[float, ...]
    sweeps: int


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

    The arithmetic is fixed: the rotations, their order and every float64
    operation in them, so the eigenvalues, sweeps and residual are the same
    bits however the kernel is made faster.
    ``tests/test_spectral.py::TestJacobiSolver::test_arithmetic_is_pinned``
    hashes them. Each rotation reads its three entries as Python floats and
    builds both rotated rows, then both rotated columns, from views before
    writing them.
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
                apq = a.item(p, q)
                if abs(apq) <= skip:
                    continue
                tau = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Both new rows, then both new columns, are computed from
                # views before either is written, so nothing is copied.
                row_p, row_q = a[p], a[q]
                new_p, new_q = c * row_p - s * row_q, s * row_p + c * row_q
                a[p], a[q] = new_p, new_q
                col_p, col_q = a[:, p], a[:, q]
                new_p, new_q = c * col_p - s * col_q, s * col_p + c * col_q
                a[:, p], a[:, q] = new_p, new_q
                a[p, q] = a[q, p] = 0.0
    raise AssertionError("unreachable")


def spectral_summary(g: Graph) -> SpectralSummary:
    """Compute the full Laplacian spectrum and adjacency spectral radius.

    Every solve runs to the fixed off-diagonal residual
    ``DEFAULT_TOL``, which the integer snapping in :mod:`bounds` relies on.
    The spectral radius takes at most one more solve: none on a d-regular
    graph, whose spectral radius is d exactly; on any other bipartite graph
    one of BBᵀ, of order at most n // 2, where λ = √λ_max(BBᵀ); otherwise
    one of the adjacency matrix.

    Raises :class:`UndefinedQuantityError` for graphs of order 1, where the
    algebraic connectivity does not exist. Disconnected graphs are fine: the
    second Laplacian eigenvalue is then exactly 0.0.
    """
    if g.n < 2:
        raise UndefinedQuantityError("algebraic connectivity is undefined for graphs of order < 2")
    adjacency = adjacency_matrix(g)
    lap_spectrum, sweeps, _ = jacobi_spectrum(np.diag(adjacency.sum(axis=1)) - adjacency)
    # Eigenvalue 0 of the Laplacian has multiplicity the number of components.
    lap_spectrum[: g.components] = 0.0
    if g.regular is not None:
        radius = float(g.regular)
    elif g.first_class is not None:
        # Rows of A for the first class: their Gram matrix is BBᵀ.
        rows = adjacency[list(VertexSet.from_mask(g.first_class))]
        spectrum, more_sweeps, _ = jacobi_spectrum(rows @ rows.T)
        radius = math.sqrt(spectrum[-1])
        sweeps += more_sweeps
    else:
        spectrum, more_sweeps, _ = jacobi_spectrum(adjacency)
        # For a nonnegative symmetric matrix the largest eigenvalue is the spectral radius.
        radius = float(spectrum[-1])
        sweeps += more_sweeps
    return SpectralSummary(
        spectral_radius=radius,
        algebraic_connectivity=float(lap_spectrum[1]),
        laplacian_radius=float(lap_spectrum[-1]),
        laplacian_spectrum=tuple(float(x) for x in lap_spectrum),
        sweeps=sweeps,
    )
