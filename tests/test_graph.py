import hashlib
import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnpmod import graph
from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.graph import (MAX_EXPECTED_EDGES, MAX_VERTICES, SAMPLE_CHUNK,
                          EdgeCounts, Graph, component_roots, degree, edge_counts,
                          read_edge_list, sample_gnp, subset_edges, subset_volumes,
                          write_edge_list)
from gnpmod.rng import generator

import oracles
from conftest import subset

PER_CASE = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_csr_matches_reference(G):
    indptr, indices = oracles.csr_lexsort(G.n, G.edges)
    assert np.array_equal(G.indptr, indptr)
    assert np.array_equal(G.indices, indices)
    assert np.array_equal(G.degrees, np.diff(indptr))
    assert all(a.dtype == np.int64 and not a.flags.writeable
               for a in (G.edges, G.indptr, G.indices, G.degrees))


def traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


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

    @PER_CASE
    @given(st.integers(1, 30), st.data())
    def test_csr_from_shuffled_reversed_duplicated_pairs(self, n, data):
        pairs = sorted(data.draw(st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]))))
        given_pairs = [data.draw(st.sampled_from([(u, v), (v, u)])) for u, v in pairs]
        given_pairs += data.draw(st.lists(st.sampled_from(given_pairs), max_size=10)
                                 if given_pairs else st.just([]))
        given_pairs = data.draw(st.permutations(given_pairs))
        G = Graph(n, given_pairs)
        assert G.edges.tolist() == [list(e) for e in pairs]
        assert_csr_matches_reference(G)


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

    def test_sample_vertex_cap_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="vertex count"):
                sample_gnp(MAX_VERTICES + 1, 1e-9, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_expected_edge_cap_refuses_before_allocating(self):
        # 4.5e7 expected edges would hold about 1.1 GB at 25 bytes an edge
        assert 8 * 10**5 < MAX_EXPECTED_EDGES <= 2**30 // 80
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="expected edges"):
                sample_gnp(10_000, 0.9, 1)
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

    @PER_CASE
    @given(n=st.integers(1, 40), p=st.sampled_from([0.0, 1e-3, 0.5, 1.0]),
           seed=st.integers(0, 2**32), chunk=st.sampled_from([1, 7, graph.SAMPLE_CHUNK]))
    def test_streamed_draw_matches_one_draw(self, monkeypatch, n, p, seed, chunk):
        # chunks of 1 and 7 pairs end inside rows and across row boundaries
        monkeypatch.setattr(graph, "SAMPLE_CHUNK", chunk)
        G = sample_gnp(n, p, seed)
        assert np.array_equal(G.edges, oracles.gnp_edges_triu(n, p, seed))
        assert_csr_matches_reference(G)

    @pytest.mark.parametrize("p", [0.01, 0.5])
    def test_chunked_gaps_equal_one_call(self, p):
        # numpy draws geometric variates by inversion below p = 1/3 and by
        # search above it; either way each takes the stream's next draws
        rng = generator(5)
        parts = np.concatenate([rng.geometric(p, 3), rng.geometric(p, 2**16),
                                rng.geometric(p, 77)])
        assert np.array_equal(parts, generator(5).geometric(p, 3 + 2**16 + 77))

    # numpy's geometric saturates at 2^63 - 1 below p of about 1e-18, and
    # geometric(1) is always 1
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 1e-18, 1 - 1e-16, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("chunk", [1, 7, SAMPLE_CHUNK])
    def test_extreme_p(self, monkeypatch, n, p, chunk):
        monkeypatch.setattr(graph, "SAMPLE_CHUNK", chunk)
        G = sample_gnp(n, p, 11)
        assert np.array_equal(G.edges, oracles.gnp_edges_triu(n, p, 11))
        assert_csr_matches_reference(G)
        if p == 1.0:
            assert G.m == n * (n - 1) // 2
        if p <= 1e-18:
            assert G.m == 0

    def test_large_n_draws(self, monkeypatch):
        # 5 * 10^6 edges among 5 * 10^11 pairs: the draw's time follows the
        # edges
        G = sample_gnp(10**6, 10 / 10**6, 1)
        mean = 10 / 10**6 * (10**6 * (10**6 - 1) // 2)
        assert abs(G.m - mean) < 6 * np.sqrt(mean)
        assert G.indptr[-1] == 2 * G.m == G.degrees.sum()
        del G
        # the stream's chunks end where they like, the graph stays the same
        want = sample_gnp(10**5, 25 / 10**5, 2)
        monkeypatch.setattr(graph, "SAMPLE_CHUNK", 1000)
        assert sample_gnp(10**5, 25 / 10**5, 2) == want

    @pytest.mark.parametrize("n, p", [(20, 0.05), (12, 0.5)])
    def test_edge_count_is_binomial(self, n, p):
        """e(G) over 4000 fixed seeds against Binomial(n(n-1)/2, p): a
        chi-square test over the counts, the tails pooled until each bin
        expects at least 20 graphs, held to its 1e-6 quantile (by the
        Wilson-Hilferty approximation)."""
        npairs, trials = n * (n - 1) // 2, 4000
        counts = np.bincount([sample_gnp(n, p, s).m for s in range(trials)],
                             minlength=npairs + 1)
        expect = trials * np.array([math.comb(npairs, k) * p**k * (1 - p)**(npairs - k)
                                    for k in range(npairs + 1)])
        lo = int(np.searchsorted(np.cumsum(expect), 20))
        hi = npairs - int(np.searchsorted(np.cumsum(expect[::-1]), 20))
        seen = np.concatenate(([counts[:lo + 1].sum()], counts[lo + 1:hi], [counts[hi:].sum()]))
        want = np.concatenate(([expect[:lo + 1].sum()], expect[lo + 1:hi], [expect[hi:].sum()]))
        chi2 = float(((seen - want) ** 2 / want).sum())
        dof = len(seen) - 1
        z = 4.753  # the standard normal's 1 - 1e-6 quantile
        assert chi2 < dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_each_pair_is_an_edge_with_probability_p(self, p):
        """At n = 6 each of the 15 pairs is an edge in a share of 8000
        fixed seeds within five standard errors of p, the first and last
        pair too."""
        trials = 8000
        freq = np.zeros((6, 6))
        for s in range(trials):
            e = sample_gnp(6, p, s).edges - 1
            freq[e[:, 0], e[:, 1]] += 1
        share = freq[np.triu_indices(6, k=1)] / trials
        assert np.all(np.abs(share - p) < 5 * math.sqrt(p * (1 - p) / trials))

    # sha256 of edges.tobytes() for the two benchmark corridor graphs, taken
    # from the geometric skip draw.  A sampler that draws a different
    # stream must change these on purpose.
    CORRIDOR_DIGESTS = {
        25: "5f14f0c13637741acc92c02856cc7947f809399fece15add8d2b9a2a0d71f7d9",
        400: "0ad3e5bf80f479b44a61dfaa5340cdfd9c72fec0608e93f14b886dfe818f77b0",
    }

    @pytest.mark.parametrize("d", sorted(CORRIDOR_DIGESTS))
    def test_corridor_stream_pinned(self, d):
        G = sample_gnp(4000, d / 4000, 1)
        assert hashlib.sha256(G.edges.tobytes()).hexdigest() == self.CORRIDOR_DIGESTS[d]

    # tracemalloc peaks measured on the geometric skip draw with the sliced
    # CSR build: 16.8 MiB at d = 400 and 3.4 MiB at d = 25 (62 and 4 MiB
    # with the whole-array build, 221 and 145 MiB when the draw held a
    # uniform for every pair).
    @pytest.mark.parametrize("p, bound_mib", [(0.1, 96), (25 / 4000, 16)])
    def test_draw_memory_is_linear_in_edges(self, p, bound_mib):
        assert traced_peak_mib(sample_gnp, 4000, p, 3) < bound_mib

    def test_draw_memory_per_vertex(self):
        # one edge at n = 10^6, so the peak is the build's n-long int64
        # arrays: 46.4 MiB for its six, 61.7 MiB when degrees and end were
        # new arrays beside n_lo and n_hi
        assert traced_peak_mib(sample_gnp, 10**6, 1e-12, 1) <= 50

    def test_graph_holds_one_copy_of_its_edges(self):
        # 800k edges: the graph holds 13.0 MiB, 12.2 of them its 1.6M CSR
        # indices; with a stored (m, 2) edge array as well it held 25.2 MiB
        tracemalloc.start()
        try:
            G = sample_gnp(4000, 0.1, 1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(isinstance(a, np.ndarray) and a.shape == (G.m, 2)
                       for a in vars(G).values())
        assert held < 14 * 2**20

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
        ec = edge_counts(k3, subset([1, 2], 3))
        assert (ec.e_in, ec.e_cross, ec.e_out, ec.vol_S) == (1, 2, 0, 4)

    def test_full_subset(self, k4):
        ec = edge_counts(k4, subset(range(1, 5), 4))
        assert (ec.e_in, ec.e_cross, ec.e_out) == (k4.m, 0, 0)

    def test_exhaustive_partition_identity(self):
        G = sample_gnp(12, 0.5, 7)
        e_in, vol = subset_edges(G), subset_volumes(G)
        full = (1 << 12) - 1
        for mask in range(full + 1):
            assert e_in[mask] + e_in[full ^ mask] <= G.m
            k_in = e_in[mask]
            cross = G.m - k_in - e_in[full ^ mask]
            assert vol[mask] == 2 * k_in + cross

    @given(small_graphs(), st.data())
    def test_invariants(self, G, data):
        members = data.draw(st.sets(st.integers(1, G.n)))
        S = subset(members, G.n)
        ec = edge_counts(G, S)
        assert ec.e_in + ec.e_out + ec.e_cross == G.m
        assert ec.vol_S == 2 * ec.e_in + ec.e_cross
        assert ec.vol_S + ec.vol_Sbar == 2 * G.m

    @given(small_graphs(), st.data())
    def test_complement_symmetry(self, G, data):
        members = data.draw(st.sets(st.integers(1, G.n)))
        S = subset(members, G.n)
        a = edge_counts(G, S)
        b = edge_counts(G, ~S)
        assert (a.e_in, a.e_out) == (b.e_out, b.e_in)
        assert a.e_cross == b.e_cross
        assert (a.vol_S, a.vol_Sbar) == (b.vol_Sbar, b.vol_S)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])),
        st.sets(st.integers(1, n)))))
    def test_matches_a_count_over_the_pairs(self, case):
        """Every field against a loop over the drawn pairs, so the counts
        read from the CSR are checked against the edges themselves;
        vertices on no pair stay isolated."""
        n, pairs, members = case
        ec = edge_counts(Graph(n, pairs), subset(members, n))
        inside = [(u in members) + (v in members) for u, v in pairs]
        vol_S = sum(inside)
        assert ec == EdgeCounts(e_in=inside.count(2), e_out=inside.count(0),
                                e_cross=inside.count(1), vol_S=vol_S,
                                vol_Sbar=2 * len(pairs) - vol_S)

    @pytest.mark.parametrize("S", [
        [True, False, True],                      # a list, not an array
        np.array([1, 0, 1]),                      # integer dtype
        np.array([True, False]),                  # too short
        np.array([[True, False, True]]),          # two-dimensional
    ])
    def test_rejects_non_subset(self, k3, S):
        with pytest.raises(ValidationError):
            edge_counts(k3, S)


class TestComponents:
    def test_two_edges(self, two_edges):
        assert component_roots(two_edges).tolist() == [0, 0, 2, 2]

    def test_connected(self, k4):
        assert component_roots(k4).tolist() == [0, 0, 0, 0]

    def test_isolated_vertices(self):
        assert component_roots(Graph(3, [])).tolist() == [0, 1, 2]

    @staticmethod
    def assert_matches_dfs(G):
        comps = oracles.components_dfs(G)
        roots = np.empty(G.n, dtype=np.int64)
        for comp in comps:
            roots[np.array(sorted(comp)) - 1] = min(comp) - 1
        assert np.array_equal(component_roots(G), roots)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
    def test_reversed_path_and_star(self, n):
        self.assert_matches_dfs(Graph(n, [(v + 1, v) for v in range(n - 1, 0, -1)]))
        self.assert_matches_dfs(Graph(n + 3, [(n, v) for v in range(1, n)]))

    @PER_CASE
    @given(st.integers(1, 60), st.integers(1, 4), st.data())
    def test_relabelled_paths_and_stars(self, n, pieces, data):
        # disjoint paths and stars under a random vertex labelling, plus
        # isolated vertices; a randomly labelled path is the slow case of
        # plain min-label propagation
        perm = data.draw(st.permutations(range(1, n + 1)))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=pieces, max_size=pieces)))
        edges = []
        for a, b in zip([0] + cuts, cuts + [n]):
            part = perm[a:b]
            if data.draw(st.booleans()):
                edges += list(zip(part, part[1:]))
            else:
                edges += [(part[0], v) for v in part[1:]]
        self.assert_matches_dfs(Graph(n, edges))

    @PER_CASE
    @given(st.integers(1, 200), st.floats(0.0, 0.05), st.integers(0, 10**6))
    def test_gnp(self, n, p, seed):
        self.assert_matches_dfs(sample_gnp(n, p, seed))


class TestEdgeListFormat:
    def test_roundtrip(self):
        G = sample_gnp(20, 0.3, 5)
        buf = io.StringIO()
        write_edge_list(G, buf)
        buf.seek(0)
        assert read_edge_list(buf) == G

    def test_write_memory_is_bounded(self, monkeypatch):
        """The rows are formatted SAMPLE_CHUNK at a time: writing 799 716
        edges peaked at 119 MiB when every row became a Python list at
        once.  The chunk, the graph and the bound are all cut 16-fold, so
        tracemalloc traces a sixteenth of the allocations."""
        G = sample_gnp(1000, 0.1, 1)
        monkeypatch.setattr(graph, "SAMPLE_CHUNK", SAMPLE_CHUNK // 16)
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                write_edge_list(G, sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert G.m > 2 * graph.SAMPLE_CHUNK
        assert peak < 64 * 2**20 // 16

    @pytest.mark.parametrize("text, message", [
        ("2 1\n1 1\n", r"edge \(1,1\) violates 1 <= u < v <= 2"),  # self loop
        ("3 2\n1 2\n1 2\n", r"duplicate edge \(1,2\)"),
        ("3 1\n1 4\n", r"edge \(1,4\) violates 1 <= u < v <= 3"),  # out of range
        ("3 1\n2 1\n", r"edge \(2,1\) violates 1 <= u < v <= 3"),  # wrong orientation
        ("oops\n", "first line must be 'n m'"),
        ("3 2\n1 2\n", "expected 2 edge lines 'u v'"),
        ("3 1\n1 2\n2 3\n", "more than the 1 edge lines"),
        ("3 1\n1 x\n", "edge line '1 x' is not integers"),
        # the duplicate is found once every line has been read, so a later
        # malformed line is reported instead
        ("3 3\n1 2\n1 2\n2 x\n", "edge line '2 x' is not integers"),
    ])
    def test_rejects_malformed(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_edge_list(io.StringIO(text))

    @pytest.mark.parametrize("lines, first", [
        (["1 2", "3 4", "2 3", "3 4", "1 2", "2 3"], "3,4"),
        # the first repeating line, not the smallest repeated pair
        (["2 3", "1 2", "2 3", "1 2", "1 2"], "2,3"),
        (["4 5", "1 2", "3 4", "1 2"], "1,2"),
    ])
    def test_names_the_first_repeated_line(self, lines, first):
        text = f"5 {len(lines)}\n" + "\n".join(lines) + "\n"
        with pytest.raises(ValidationError, match=rf"duplicate edge \({first}\)"):
            read_edge_list(io.StringIO(text))
