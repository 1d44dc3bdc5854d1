import math
import tracemalloc

import numpy as np
import pytest

from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.graph import Graph, sample_gnp
from gnpmod.spectral import DENSE_CAP_MAX, normalized_laplacian, spectral_gap

from oracles import jacobi_eigenvalues


class TestLaplacian:
    def test_k2(self, k2):
        L = normalized_laplacian(k2)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_isolated_vertex_zero_diagonal(self):
        L = normalized_laplacian(Graph(3, [(1, 2)]))
        assert L[2, 2] == 0.0
        assert np.all(L[2, :2] == 0.0) and np.all(L[:2, 2] == 0.0)

    def test_symmetric(self):
        L = normalized_laplacian(sample_gnp(30, 0.2, 3))
        assert np.array_equal(L, L.T)


class TestJacobi:
    def test_diagonal_input(self):
        eig = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(eig, [-1.0, 2.0, 3.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            jacobi_eigenvalues(np.zeros((2, 3)))

    def test_agrees_with_lapack(self):
        # Independent route through a different algorithm entirely.
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2.0
            assert np.allclose(jacobi_eigenvalues(A),
                               np.sort(np.linalg.eigvalsh(A)), atol=1e-8)


class TestSpectrum:
    def test_complete_graph_eigenvalues(self):
        # K_n: eigenvalue 0 once and n/(n-1) with multiplicity n-1.
        for n in (2, 3, 5, 8):
            G = Graph(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])
            r = spectral_gap(G)
            expect = np.array([0.0] + [n / (n - 1)] * (n - 1))
            assert np.allclose(r.eigenvalues, expect, atol=1e-9)
            assert abs(r.gap - 1.0 / (n - 1)) < 1e-9

    def test_cycle6(self, cycle6):
        # C_n eigenvalues are 1 - cos(2 pi k / n).
        r = spectral_gap(cycle6)
        expect = np.sort([1.0 - math.cos(2.0 * math.pi * k / 6) for k in range(6)])
        assert np.allclose(r.eigenvalues, expect, atol=1e-9)
        assert abs(r.gap - 1.0) < 1e-9

    def test_k2_gap(self, k2):
        r = spectral_gap(k2)
        assert np.allclose(r.eigenvalues, [0.0, 2.0], atol=1e-10)
        assert abs(r.gap - 1.0) < 1e-10

    def test_single_vertex(self):
        r = spectral_gap(Graph(1, []))
        assert r.eigenvalues.tolist() == [0.0]
        assert r.gap == 0.0

    def test_range_trace_and_method_agreement(self):
        # LAPACK against the Jacobi reference
        for s in range(5):
            G = sample_gnp(40, 0.15, s)
            a = spectral_gap(G)
            b = jacobi_eigenvalues(normalized_laplacian(G))
            assert np.allclose(a.eigenvalues, b, atol=1e-8)
            assert abs(a.gap - max(abs(1.0 - b[1]), abs(1.0 - b[-1]))) < 1e-8
            assert a.eigenvalues[0] >= -1e-10
            assert a.eigenvalues[-1] <= 2.0 + 1e-10
            nonisolated = sum(1 for v in range(1, 41) if G.degrees[v - 1])
            assert abs(a.eigenvalues.sum() - nonisolated) < 1e-8

    def test_gap_shrinks_with_density(self):
        dense = spectral_gap(sample_gnp(300, 0.5, 1)).gap
        sparse = spectral_gap(sample_gnp(300, 0.05, 1)).gap
        assert dense < sparse

    def test_only_lapack_method_accepted(self, k2):
        for method in ("powers", "jacobi"):
            with pytest.raises(ValidationError):
                spectral_gap(k2, method=method)
        assert spectral_gap(k2, method="lapack").gap == spectral_gap(k2).gap

    def test_ceiling_refuses_before_allocating(self):
        G = Graph(DENSE_CAP_MAX + 1, [(1, 2)])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                spectral_gap(G)
            assert exc.value.cap == DENSE_CAP_MAX
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
