"""Normalized Laplacian spectrum and spectral gap.

The eigensolver is a cyclic Jacobi iteration on a private matrix copy,
run until the off-diagonal Frobenius norm drops below tolerance.  An
optional LAPACK route (numpy.linalg.eigh) is kept for cross-checking and
for matrices where Jacobi is too slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ValidationError
from .graph import Graph

DENSE_CAP_DEFAULT = 2000
JACOBI_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues of the normalized Laplacian and the gap
    max(|1 - lambda_1|, |1 - lambda_{n-1}|)."""

    eigenvalues: np.ndarray
    gap: float


def normalized_laplacian(G: Graph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}, with the 0 convention for isolated
    vertices: their diagonal entry is 0."""
    n = G.n
    deg = G.degrees.astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    L = np.zeros((n, n))
    np.fill_diagonal(L, np.where(deg > 0, 1.0, 0.0))
    u, v = G.edges[:, 0] - 1, G.edges[:, 1] - 1
    w = -inv_sqrt[u] * inv_sqrt[v]
    L[u, v] = w
    L[v, u] = w
    return L


def _offdiag_norm(A: np.ndarray) -> float:
    # Summing squares of the off-diagonal entries directly; subtracting
    # diag^2 from the full Frobenius norm loses ~8 digits to cancellation.
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(A: np.ndarray, tol: float = JACOBI_TOL,
                       max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row, annihilating each off-diagonal entry, until the
    off-diagonal Frobenius norm is <= tol.  Returns eigenvalues sorted
    ascending.
    """
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError("matrix must be square")
    if n == 1:
        return A[0].copy()
    skip = tol / (2.0 * n)
    for _ in range(max_sweeps):
        if _offdiag_norm(A) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = A[p, p], A[q, q]
                theta = (aqq - app) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = A[p].copy()
                row_q = A[q].copy()
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                A[p] = new_p
                A[q] = new_q
                A[:, p] = new_p
                A[:, q] = new_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
    else:
        raise RuntimeError(f"Jacobi did not reach off-norm {tol} in {max_sweeps} sweeps")
    return np.sort(np.diag(A).copy())


def spectral_gap(G: Graph, cap: int = DENSE_CAP_DEFAULT,
                 method: str = "jacobi") -> SpectrumResult:
    """Full spectrum of the normalized Laplacian and the spectral gap."""
    if G.n > cap:
        raise CapExceeded("spectral_gap n", G.n, cap)
    if method not in ("jacobi", "lapack"):
        raise ValidationError(f"unknown eigensolver method {method!r}")
    L = normalized_laplacian(G)
    if method == "jacobi":
        eig = jacobi_eigenvalues(L)
    else:
        eig = np.sort(np.linalg.eigvalsh(L))
    if G.n == 1:
        gap = 0.0
    else:
        gap = float(max(abs(1.0 - eig[1]), abs(1.0 - eig[-1])))
    return SpectrumResult(eigenvalues=eig, gap=gap)
