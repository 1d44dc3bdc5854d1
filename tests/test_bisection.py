import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnpmod.bisection import (Bisection, _single_local_search,
                              bisection_modularity_certificate, error_decomposition,
                              exact_min_bisection, local_search_bisection)
from gnpmod.errors import ValidationError
from gnpmod.graph import Graph, edge_counts, sample_gnp
from gnpmod.modularity import score_edge_form
from gnpmod.rng import generator, trial_seed

import oracles
from conftest import recorded, subset


def members(S) -> list[int]:
    return (np.flatnonzero(S) + 1).tolist()


def brute_min_cut(G):
    """Independent oracle: scan all balanced subsets directly."""
    n = G.n
    best = None
    for S in itertools.combinations(range(1, n + 1), (n + 1) // 2):
        cut = edge_counts(G, subset(S, n)).e_cross
        if best is None or cut < best:
            best = cut
    return best


class TestExact:
    def test_two_edges(self, two_edges):
        r = exact_min_bisection(two_edges)
        assert r.cut == 0
        assert members(r.S) == [1, 2]

    def test_path4(self, path4):
        r = exact_min_bisection(path4)
        assert r.cut == 1
        assert members(r.S) == [1, 2]

    def test_k4(self, k4):
        assert exact_min_bisection(k4).cut == 4

    def test_cycle6(self, cycle6):
        assert exact_min_bisection(cycle6).cut == 2

    def test_odd_path5(self):
        P5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        r = exact_min_bisection(P5)
        assert r.cut == 1
        assert np.count_nonzero(r.S) == 3

    def test_balanced_invariant(self):
        for n in (7, 10, 13):
            r = exact_min_bisection(sample_gnp(n, 0.4, n))
            assert 2 * np.count_nonzero(r.S) - n in (0, 1)
            assert edge_counts(sample_gnp(n, 0.4, n),
                               r.S).e_cross == r.cut

    def test_matches_brute_force(self):
        for i in range(30):
            n = 6 + i % 7
            G = sample_gnp(n, 0.5, 7_000 + i)
            assert exact_min_bisection(G).cut == brute_min_cut(G)

    def test_unbalanced_rejected(self, k4):
        with pytest.raises(ValidationError):
            Bisection(subset([1], 4), 3)

    @pytest.mark.parametrize("S", [[True, True, False, False], np.array([1, 1, 0, 0])])
    def test_non_subset_rejected(self, S):
        with pytest.raises(ValidationError):
            Bisection(S, 0)

    def test_side_is_read_only(self, path4):
        S = exact_min_bisection(path4).S
        assert S.dtype == bool and not S.flags.writeable
        side = subset([1, 2], 4)
        assert not Bisection(side, 1).S.flags.writeable
        assert side.flags.writeable


class TestLocalSearch:
    def test_matches_exact_on_corpus(self):
        hits = 0
        for i in range(60):
            n = 8 + i % 7
            G = sample_gnp(n, 0.5, 8_000 + i)
            ex = exact_min_bisection(G).cut
            ls = local_search_bisection(G, seed=i, restarts=10)
            assert 2 * np.count_nonzero(ls.S) - n in (0, 1)
            assert ls.cut >= ex
            hits += ls.cut == ex
        assert hits >= 54  # at least 90 percent optimal

    def test_deterministic(self):
        G = sample_gnp(60, 0.2, 4)
        a = local_search_bisection(G, seed=5, restarts=8)
        b = local_search_bisection(G, seed=5, restarts=8)
        assert a.cut == b.cut and np.array_equal(a.S, b.S)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(4, 14), st.sampled_from([0.2, 0.35, 0.5]), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1), st.integers(20, 32))
    def test_restart_choice_matches_reference(self, n, p, graph_seed, seed, restarts):
        # small graphs with many restarts: distinct sides of the same cut are
        # common, so the lexicographic tie-break decides the answer
        G = sample_gnp(n, p, graph_seed)
        runs = [_single_local_search(G, generator(trial_seed(seed, r)))
                for r in range(restarts)]
        got = local_search_bisection(G, seed=seed, restarts=restarts)
        assert (got.cut, tuple(members(got.S))) == oracles.best_restart(n, runs)

    def test_cut_matches_side(self):
        G = sample_gnp(80, 0.1, 2)
        r = local_search_bisection(G, seed=0, restarts=5)
        assert edge_counts(G, r.S).e_cross == r.cut

    def test_cut_below_expected_minus_correction(self):
        # e(S,Sbar) should fall below nd/4 - sqrt(d) n / 4 on average.
        n, d = 400, 25
        vals = []
        for s in range(5):
            G = sample_gnp(n, d / n, 9_000 + s)
            d_emp = 2 * G.m / n
            cut = local_search_bisection(G, seed=s, restarts=5).cut
            vals.append(cut - (n * d_emp / 4 - math.sqrt(d_emp) * n / 4))
        assert sum(vals) / len(vals) < 0.0


def same_restart(G, seed: int) -> dict:
    """Check one restart's side, cut and swap count against the matrix
    oracle; return its stage record."""
    with recorded() as sink:
        side, cut = _single_local_search(G, generator(seed))
    want_side, want_cut, want_swaps = oracles.local_search_matrix(G, generator(seed))
    (restart,) = sink.of("restart")
    assert cut == restart["cut"] == want_cut
    assert restart["swaps"] == want_swaps
    assert np.array_equal(side, want_side)
    return restart


def shortcut_counts(p: float) -> tuple[int, int]:
    """(swaps, fallbacks) of the first corridor restart on G(4000, p)."""
    G = sample_gnp(4000, p, 1)
    with recorded() as sink:
        _single_local_search(G, generator(trial_seed(1, 0)))
    (restart,) = sink.of("restart")
    return restart["swaps"], restart["fallbacks"]


class TestSwapSelection:
    """Each restart's swaps are the first maxima of the full gain matrix
    in oracles.local_search_matrix, whichever way they are found."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 60), st.floats(0, 1), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_gnp_matches_matrix_reference(self, n, p, graph_seed, seeds):
        G = sample_gnp(n, p, graph_seed)
        for seed in seeds:
            same_restart(G, seed)

    @pytest.mark.parametrize("n,p", [(300, 0.3), (1000, 0.1), (2000, 0.1)])
    def test_large_gnp_matches_matrix_reference(self, n, p):
        # 59 to 462 swaps and 18 to 53 gain matrices a restart, while the sentinels
        # of both sides' D arrays drift with every swap
        G = sample_gnp(n, p, n)
        restarts = [same_restart(G, seed) for seed in range(3)]
        assert min(restart["swaps"] for restart in restarts) >= 50
        assert min(restart["fallbacks"] for restart in restarts) >= 10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.data(), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_isolated_vertices_match_matrix_reference(self, n, data, graph_seed, seed):
        # edges among the first k vertices only; k <= 1 gives m = 0
        k = data.draw(st.integers(0, n))
        H = sample_gnp(max(k, 1), data.draw(st.floats(0, 1)), graph_seed)
        G = Graph(n, H.edges)
        assert G.m == H.m
        same_restart(G, seed)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_complete_graph_uses_the_matrix(self, n):
        # in K_n every pair is adjacent and D[a] + D[b] = 2 on any balanced
        # split, so each restart builds the matrix at least once
        G = Graph(n, list(itertools.combinations(range(1, n + 1), 2)))
        for seed in range(5):
            assert same_restart(G, seed)["fallbacks"] >= 1

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 5), (2, 3), (3, 3), (4, 7), (10, 10), (6, 15)])
    def test_complete_bipartite_uses_the_matrix(self, a, b):
        G = Graph(a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)])
        assert sum(same_restart(G, seed)["fallbacks"] for seed in range(10)) >= 1

    def test_shortcut_skips_the_matrix(self):
        # outputs stay the same if the shortcut stops firing, so count: the
        # full matrix would be built at each of this restart's 722 swaps and
        # at its final check, and the two sides' first maxima are adjacent
        # at 4 of those
        assert shortcut_counts(25 / 4000) == (722, 4)

    def test_shortcut_skips_the_matrix_on_a_dense_graph(self):
        # the corridor-d400 graph: fallbacks are about one swap in eight
        assert shortcut_counts(0.1) == (924, 111)


class TestErrorDecomposition:
    def test_exact_residual(self):
        for i in range(20):
            n = 10 + 2 * (i % 5)
            G = sample_gnp(n, 0.4, 10_000 + i)
            S = exact_min_bisection(G).S
            dec = error_decomposition(G, S, 2 * G.m / n)
            assert dec.exact
            assert dec.residual == Fraction(0)

    def test_reconstruction_identity(self):
        G = sample_gnp(12, 0.5, 3)
        S = exact_min_bisection(G).S
        d = 2 * G.m / 12
        dec = error_decomposition(G, S, d)
        cut = edge_counts(G, S).e_cross
        assert abs(cut - (12 * d / 4 - dec.err1 - dec.err2)) < 1e-9

    def test_rejects_unbalanced(self, k4):
        with pytest.raises(ValidationError):
            error_decomposition(k4, subset([1], 4), 1.5)


class TestCertificate:
    def test_two_edges(self, two_edges):
        r = bisection_modularity_certificate(two_edges, seed=0)
        assert r.score == 0.5
        assert r.method == "bisection"

    def test_lower_bounds_and_nonnegative(self):
        for s in range(10):
            G = sample_gnp(100, 0.3, s)
            r = bisection_modularity_certificate(G, seed=s, restarts=3)
            assert r.score >= 0.0
            assert abs(r.score - score_edge_form(G, r.partition)) < 1e-15

    def test_dense_falls_back_to_trivial(self):
        # K8: every balanced split scores below zero.
        K8 = Graph(8, list(itertools.combinations(range(1, 9), 2)))
        r = bisection_modularity_certificate(K8, seed=0)
        assert r.score == 0.0
        assert r.method == "trivial"

    def test_corridor_certificate_pinned(self):
        # sha256 of the corridor-d25 certificate's labels on the geometric
        # skip draw's graph, taken with the restarts ranked by sorted member
        # tuples
        G = sample_gnp(4000, 25 / 4000, 1)
        r = bisection_modularity_certificate(G, seed=1, restarts=3)
        assert (hashlib.sha256(r.partition.labels.tobytes()).hexdigest()
                == "abc8955d031936dc131e52e89263961b5bd52ccb86c1d2450c6b12f988e2af1f")

    def test_corridor_d400_certificate_pinned(self):
        # sha256 of the corridor-d400 certificate's labels on the geometric
        # skip draw's graph; its restarts take the matrix path more often
        # than the corridor-d25 graph's
        G = sample_gnp(4000, 0.1, 1)
        r = bisection_modularity_certificate(G, seed=1, restarts=3)
        assert (hashlib.sha256(r.partition.labels.tobytes()).hexdigest()
                == "ef76c93eb50a75c41cb16d22f4b322769fc6d40e301daebdc61cd5357ff4f39e")

    def test_sqrt_d_scaling(self):
        n, d = 500, 64
        vals = []
        for s in range(5):
            G = sample_gnp(n, d / n, 11_000 + s)
            vals.append(bisection_modularity_certificate(G, seed=s, restarts=3).score)
        assert sum(vals) / len(vals) * math.sqrt(d) >= 0.5
