import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from gnpmod.bisection import bisection_modularity_certificate
from gnpmod.errors import ValidationError
from gnpmod.graph import Graph, sample_gnp
from gnpmod.modularity import (EXACT_CAP_MAX, Partition, exact_modularity,
                               heuristic_modularity, read_partition,
                               score_components, score_definition,
                               score_edge_form, write_partition)
from gnpmod.rng import generator

from oracles import brute_force_modularity


def random_partition(n, rng):
    labels = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
    blocks = {}
    for v, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(v)
    return Partition.of(blocks.values(), n)


class TestScoring:
    def test_one_block_is_zero(self, k4):
        assert score_definition(k4, Partition.trivial(4)) == 0.0

    def test_k2_singletons(self, k2):
        assert score_definition(k2, Partition.singletons(2)) == -0.5
        assert score_edge_form(k2, Partition.singletons(2)) == -0.5

    def test_path4_halves(self, path4):
        P = Partition.of([[1, 2], [3, 4]], 4)
        assert abs(score_definition(path4, P) - 1 / 6) < 1e-15

    def test_two_edges_edge_form(self, two_edges):
        P = Partition.of([[1, 2], [3, 4]], 4)
        assert score_edge_form(two_edges, P) == 0.5

    def test_zero_edge_graph_scores_zero(self):
        G = Graph(3, [])
        assert score_definition(G, Partition.singletons(3)) == 0.0
        assert score_edge_form(G, Partition.singletons(3)) == 0.0

    def test_formula_equivalence_corpus(self):
        rng = generator(99)
        for i in range(500):
            n = int(rng.integers(2, 11))
            G = sample_gnp(n, 0.5, 1_000 + i)
            P = random_partition(n, rng)
            assert abs(score_definition(G, P) - score_edge_form(G, P)) <= 1e-12

    def test_relabeling_invariance(self):
        rng = generator(5)
        for i in range(50):
            n = int(rng.integers(3, 10))
            G = sample_gnp(n, 0.5, i)
            P = random_partition(n, rng)
            perm = list(rng.permutation(n) + 1)
            mapping = {v: int(perm[v - 1]) for v in range(1, n + 1)}
            G2 = Graph(n, [(mapping[u], mapping[v]) for u, v in G.edges])
            P2 = Partition.of([[mapping[v] for v in b] for b in P.canonical_blocks()], n)
            assert abs(score_definition(G, P) - score_definition(G2, P2)) < 1e-14


class TestExact:
    def test_k2(self, k2):
        assert exact_modularity(k2).score == 0.0

    def test_k3(self, k3):
        assert exact_modularity(k3).score == 0.0

    def test_two_edges(self, two_edges):
        r = exact_modularity(two_edges)
        assert r.score == 0.5
        assert r.partition.canonical_blocks() == [[1, 2], [3, 4]]

    def test_matches_brute_force_rgs(self):
        # Independent oracle: direct enumeration of all partitions in
        # restricted-growth-string order, first maximizer wins.
        rng = generator(3)
        for i in range(80):
            n = int(rng.integers(2, 8))
            G = sample_gnp(n, 0.5, 2_000 + i)
            if G.m == 0:
                continue
            best_num, den, best_blocks = brute_force_modularity(n, G.edges)
            r = exact_modularity(G)
            assert abs(r.score - best_num / den) < 1e-15
            assert r.partition.canonical_blocks() == best_blocks

    def test_range_and_dominance(self):
        rng = generator(17)
        for i in range(40):
            n = int(rng.integers(2, 11))
            G = sample_gnp(n, 0.4, 3_000 + i)
            if G.m == 0:
                continue
            r = exact_modularity(G)
            assert 0.0 <= r.score < 1.0
            P = random_partition(n, rng)
            assert score_definition(G, P) <= r.score + 1e-12


class TestHeuristic:
    def test_two_edges(self, two_edges):
        assert heuristic_modularity(two_edges, seed=0, budget=2).score == 0.5

    def test_dominates_components_and_trivial(self):
        G = sample_gnp(200, 0.1, 1)
        r = heuristic_modularity(G, seed=1, budget=2)
        assert 0.0 <= r.score < 1.0
        assert r.score >= score_components(G).score
        assert r.score >= 0.0

    def test_never_exceeds_exact(self):
        hits = 0
        total = 0
        for i in range(60):
            G = sample_gnp(5 + i % 6, 0.4, 500 + i)
            if G.m == 0:
                continue
            ex = exact_modularity(G).score
            h = heuristic_modularity(G, seed=i, budget=5).score
            assert h <= ex + 1e-12
            hits += abs(h - ex) < 1e-12
            total += 1
        assert hits >= 0.9 * total

    def test_sqrt_d_corridor(self):
        scores = []
        for s in range(20):
            G = sample_gnp(500, 25 / 500, 4_000 + s)
            scores.append(heuristic_modularity(G, seed=s, budget=1).score)
        mean = sum(scores) / len(scores)
        assert 0.4 <= mean * math.sqrt(25) <= 2.92


# graphs without edges: empty ones and a G(n,p) draw that kept no pair
ZERO_EDGE_GRAPHS = ([pytest.param(Graph(n, []), id=f"empty-{n}") for n in (1, 2, 3, 40)]
                    + [pytest.param(sample_gnp(10, 0.01, 2), id="gnp-10-0.01-2")])


@pytest.mark.parametrize("G", ZERO_EDGE_GRAPHS)
def test_every_score_of_a_graph_without_edges_is_zero(G):
    """score_definition's zero-edge convention holds through every
    scoring entry point: each scores 0 on its own normal path."""
    n = G.n
    assert G.m == 0
    for P in (Partition.trivial(n), Partition.singletons(n)):
        assert score_definition(G, P) == score_edge_form(G, P) == 0.0
    if n <= EXACT_CAP_MAX:
        exact = exact_modularity(G)
        assert (exact.score, exact.method, exact.partition) == (0.0, "exact", Partition.trivial(n))
    comp = score_components(G)
    assert (comp.score, comp.partition) == (0.0, Partition.singletons(n))
    heur = heuristic_modularity(G, seed=3, budget=2)
    assert (heur.score, heur.method, heur.partition) == (0.0, "trivial", Partition.trivial(n))
    if n == 1:
        with pytest.raises(ValidationError, match="bisection needs n >= 2"):
            bisection_modularity_certificate(G)
        return
    cert = bisection_modularity_certificate(G, seed=3, restarts=2)
    assert (cert.score, cert.method, cert.partition.k) == (0.0, "bisection", 2)


class TestComponentsScore:
    def test_two_edges(self, two_edges):
        assert score_components(two_edges).score == 0.5

    def test_connected_zero(self, k4):
        assert score_components(k4).score == 0.0


class TestPartitionFormat:
    def test_roundtrip(self):
        P = Partition.of([[3, 1], [2], [4, 5]], 5)
        buf = io.StringIO()
        write_partition(P, buf)
        assert buf.getvalue() == "1 3\n2\n4 5\n"
        buf.seek(0)
        assert read_partition(buf, 5).canonical_blocks() == P.canonical_blocks()

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValidationError):
            Partition.of([[1, 2], [2, 3]], 3)
        with pytest.raises(ValidationError):
            Partition.of([[1, 2]], 3)
        with pytest.raises(ValidationError):
            Partition.of([[1, 2, 3], []], 3)
        with pytest.raises(ValidationError, match="repeats"):
            Partition.of([[1, 1, 2], [3]], 3)
