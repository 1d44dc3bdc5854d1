import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.graph import (MAX_PAIRS, MAX_VERTICES, Graph, VertexSubset,
                          connected_components, degree, edge_counts, read_edge_list,
                          sample_gnp, subset_tables, write_edge_list)


def small_graphs(max_n=10):
    """Hypothesis strategy for small random graphs."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).map(
                lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1]),
        ).map(lambda edges: Graph(n, edges)))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 4)])

    def test_rejects_n_zero(self):
        with pytest.raises(ValidationError):
            Graph(0, [])

    def test_dedupes_orientation(self):
        G = Graph(3, [(1, 2), (2, 1)])
        assert G.m == 1


class TestSampling:
    def test_p_zero_empty(self):
        assert sample_gnp(5, 0.0, 123).m == 0

    def test_p_one_complete(self):
        assert sample_gnp(5, 1.0, 123).m == 10

    def test_deterministic(self):
        a = sample_gnp(40, 0.3, 7)
        b = sample_gnp(40, 0.3, 7)
        assert a == b

    def test_seed_sensitivity(self):
        assert sample_gnp(40, 0.3, 7) != sample_gnp(40, 0.3, 8)

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError):
            sample_gnp(5, 1.5, 0)
        with pytest.raises(ValidationError):
            sample_gnp(5, -0.1, 0)

    def test_pair_cap_refuses_before_allocating(self):
        assert 10_000 * 9_999 // 2 <= MAX_PAIRS < 10_001 * 10_000 // 2
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                sample_gnp(100_000, 5 / 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_vertex_cap_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            for n in (MAX_VERTICES + 1, 10**20):
                with pytest.raises(CapExceeded):
                    read_edge_list(io.StringIO(f"{n} 0\n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_edge_count_moments(self):
        # e(G) ~ Bin(4950, 0.1): mean 495, var 445.5
        counts = np.array([sample_gnp(100, 0.1, s).m for s in range(10_000)])
        mean_se = np.sqrt(445.5 / len(counts))
        assert abs(counts.mean() - 495.0) < 4 * mean_se
        # sample variance of a binomial: allow a wide but honest window
        assert 0.9 * 445.5 < counts.var(ddof=1) < 1.1 * 445.5


class TestDegree:
    def test_triangle(self, k3):
        assert degree(k3, 1) == 2

    def test_empty(self):
        assert degree(Graph(4, []), 3) == 0

    def test_star_center(self):
        star = Graph(5, [(1, v) for v in range(2, 6)])
        assert degree(star, 1) == 4

    def test_out_of_range(self, k3):
        with pytest.raises(ValidationError):
            degree(k3, 4)

    @given(small_graphs())
    def test_handshake(self, G):
        assert sum(degree(G, v) for v in range(1, G.n + 1)) == 2 * G.m


class TestEdgeCounts:
    def test_k3_pair(self, k3):
        ec = edge_counts(k3, VertexSubset.of([1, 2], 3))
        assert (ec.e_in, ec.e_cross, ec.e_out, ec.vol_S) == (1, 2, 0, 4)

    def test_full_subset(self, k4):
        ec = edge_counts(k4, VertexSubset.of(range(1, 5), 4))
        assert (ec.e_in, ec.e_cross, ec.e_out) == (k4.m, 0, 0)

    def test_exhaustive_partition_identity(self):
        G = sample_gnp(12, 0.5, 7)
        e_in, vol = subset_tables(G)
        full = (1 << 12) - 1
        for mask in range(full + 1):
            assert e_in[mask] + e_in[full ^ mask] <= G.m
            k_in = e_in[mask]
            cross = G.m - k_in - e_in[full ^ mask]
            assert vol[mask] == 2 * k_in + cross

    @given(small_graphs(), st.data())
    def test_invariants(self, G, data):
        members = data.draw(st.sets(st.integers(1, G.n)))
        S = VertexSubset.of(members, G.n)
        ec = edge_counts(G, S)
        assert ec.e_in + ec.e_out + ec.e_cross == G.m
        assert ec.vol_S == 2 * ec.e_in + ec.e_cross
        assert ec.vol_S + ec.vol_Sbar == 2 * G.m

    @given(small_graphs(), st.data())
    def test_complement_symmetry(self, G, data):
        members = data.draw(st.sets(st.integers(1, G.n)))
        S = VertexSubset.of(members, G.n)
        a = edge_counts(G, S)
        b = edge_counts(G, S.complement())
        assert (a.e_in, a.e_out) == (b.e_out, b.e_in)
        assert a.e_cross == b.e_cross
        assert (a.vol_S, a.vol_Sbar) == (b.vol_Sbar, b.vol_S)


class TestComponents:
    def test_two_edges(self, two_edges):
        assert connected_components(two_edges) == [frozenset({1, 2}), frozenset({3, 4})]

    def test_connected(self, k4):
        assert connected_components(k4) == [frozenset({1, 2, 3, 4})]

    def test_isolated_vertices(self):
        assert connected_components(Graph(3, [])) == [
            frozenset({1}), frozenset({2}), frozenset({3})]


class TestEdgeListFormat:
    def test_roundtrip(self):
        G = sample_gnp(20, 0.3, 5)
        buf = io.StringIO()
        write_edge_list(G, buf)
        buf.seek(0)
        assert read_edge_list(buf) == G

    @pytest.mark.parametrize("text", [
        "2 1\n1 1\n",            # self loop (u < v fails)
        "3 2\n1 2\n1 2\n",       # duplicate
        "3 1\n1 4\n",            # out of range
        "3 1\n2 1\n",            # wrong orientation
        "oops\n",                # bad header
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            read_edge_list(io.StringIO(text))
