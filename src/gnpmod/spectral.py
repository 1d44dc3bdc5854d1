"""Normalized Laplacian spectrum and spectral gap.

The spectrum comes from LAPACK's symmetric eigensolver
(numpy.linalg.eigvalsh) on the dense n x n Laplacian, so memory grows as
n^2 and time as n^3.  A cyclic Jacobi solver in tests/oracles.py is the
independent reference the tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ValidationError
from .graph import Graph

# spectral_gap refuses n above this.  At n = 4000 eigvalsh took 6.3 s
# with one BLAS thread, and the tracemalloc peak was 123 MiB (the
# Laplacian and LAPACK's copy); both grow as n^3 and n^2.
DENSE_CAP_MAX = 4000


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
    src = np.repeat(np.arange(n), G.degrees)  # row of each CSR entry
    L[src, G.indices] = -inv_sqrt[src] * inv_sqrt[G.indices]
    return L


def spectral_gap(G: Graph, method: str = "lapack") -> SpectrumResult:
    """Full spectrum of the normalized Laplacian and the spectral gap.

    `method` names the eigensolver; LAPACK is the only one.  n is
    refused above DENSE_CAP_MAX before the matrix is built.
    """
    if method != "lapack":
        raise ValidationError(f"unknown eigensolver method {method!r}")
    if G.n > DENSE_CAP_MAX:
        raise CapExceeded("spectral_gap n", G.n, DENSE_CAP_MAX)
    eig = np.linalg.eigvalsh(normalized_laplacian(G))
    if G.n == 1:
        gap = 0.0
    else:
        gap = float(max(abs(1.0 - eig[1]), abs(1.0 - eig[-1])))
    return SpectrumResult(eigenvalues=eig, gap=gap)
