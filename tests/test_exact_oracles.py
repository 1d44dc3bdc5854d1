"""The vectorised exact routines against their references in oracles.py.

`exact_modularity` must give the score and the partition of the subset
DP run one mask at a time, and `exact_min_bisection` the cut and the S
of a scan over every balanced subset in lexicographic order, ties
included.  Tie-heavy families (edgeless graphs, a single edge, cliques,
cycles, stars, matchings) come at odd and even n.  The bisection also
runs with its subset tables narrowed to a few low vertices, so that
many high-vertex patterns are scored at small n.  Both read their chunk
size from modularity.EXACT_CELLS, and give the same answers with chunks
of a few cells.  Above their fixed ceilings both refuse before
allocating.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gnpmod import bisection, modularity
from gnpmod.bisection import EXACT_BISECTION_MAX, exact_min_bisection
from gnpmod.errors import CapExceeded
from gnpmod.graph import Graph, sample_gnp
from gnpmod.modularity import EXACT_CAP_MAX, exact_modularity

from oracles import exact_modularity_dp, min_bisection_combinations

FAMILIES = {
    "edgeless": lambda n: [],
    "single-edge": lambda n: [(1, 2)],
    "clique": lambda n: list(itertools.combinations(range(1, n + 1), 2)),
    "cycle": lambda n: [(i, i % n + 1) for i in range(1, n + 1)],
    "star": lambda n: [(1, v) for v in range(2, n + 1)],
    "matching": lambda n: [(v, v + 1) for v in range(1, n, 2)],
}
# bisection table widths: the default, and narrow ones that leave most
# vertices to the pattern loop
LOW_WIDTHS = pytest.mark.parametrize("low", [bisection.EXACT_BISECTION_LOW, 3, 1],
                                     ids=["default-low", "low-3", "low-1"])
# chunk sizes far below one row: at n <= 10 every popcount layer of the
# modularity DP spans several chunks, and so do the bisection's high
# patterns at n = 17, 18 (with tables of 3 low vertices, every popcount)
CELLS = pytest.mark.parametrize("cells", [1, 7, 64])


@st.composite
def gnp(draw, n_max):
    n = draw(st.integers(2, n_max))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    return sample_gnp(n, p, draw(st.integers(0, 2**32 - 1)))


def assert_modularity_matches(G):
    got = exact_modularity(G)
    num, blocks = exact_modularity_dp(G.n, G.edges.tolist())
    assert got.score == (num / (4 * G.m * G.m) if G.m else 0.0)
    assert got.partition.canonical_blocks() == blocks


def assert_bisection_matches(G):
    got = exact_min_bisection(G)
    cut, S = min_bisection_combinations(G.n, G.edges.tolist())
    assert (got.cut, tuple(v + 1 for v in range(G.n) if got.S[v])) == (cut, S)


class TestExactModularity:
    @settings(max_examples=60, deadline=None)
    @given(gnp(10))
    def test_gnp_matches_reference(self, G):
        assert_modularity_matches(G)

    @pytest.mark.parametrize("n", range(2, 12))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tie_heavy_families_match_reference(self, family, n):
        assert_modularity_matches(Graph(n, FAMILIES[family](n)))

    @pytest.mark.parametrize("n, p, seed", [(12, 0.3, 1), (13, 0.5, 2)])
    def test_gnp_sizes_12_and_13_match_reference(self, n, p, seed):
        assert_modularity_matches(sample_gnp(n, p, seed))

    def test_ceiling_refuses_before_allocating(self):
        G = Graph(EXACT_CAP_MAX + 1, [(1, 2)])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                exact_modularity(G)
            assert exc.value.cap == EXACT_CAP_MAX
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestExactBisection:
    @LOW_WIDTHS
    @settings(max_examples=40, deadline=None)
    @given(G=gnp(14))
    def test_gnp_matches_reference(self, low, G):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bisection, "EXACT_BISECTION_LOW", low)
            assert_bisection_matches(G)

    @LOW_WIDTHS
    @pytest.mark.parametrize("n", range(2, 15))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tie_heavy_families_match_reference(self, monkeypatch, family, n, low):
        monkeypatch.setattr(bisection, "EXACT_BISECTION_LOW", low)
        assert_bisection_matches(Graph(n, FAMILIES[family](n)))

    @pytest.mark.parametrize("n, p, seed", [(19, 0.3, 1), (20, 0.5, 2)])
    def test_beyond_the_default_table_width(self, n, p, seed):
        assert_bisection_matches(sample_gnp(n, p, seed))

    def test_ceiling_refuses_before_allocating(self):
        G = Graph(EXACT_BISECTION_MAX + 1, [(1, 2)])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                exact_min_bisection(G)
            assert exc.value.cap == EXACT_BISECTION_MAX
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestOneChunkRule:
    @CELLS
    @settings(max_examples=20, deadline=None)
    @given(G=gnp(10))
    def test_modularity_in_small_chunks(self, cells, G):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modularity, "EXACT_CELLS", cells)
            assert_modularity_matches(G)

    @CELLS
    @pytest.mark.parametrize("low", [bisection.EXACT_BISECTION_LOW, 3],
                             ids=["default-low", "low-3"])
    @pytest.mark.parametrize("n, p, seed", [(17, 0.3, 3), (18, 0.5, 4)])
    def test_bisection_in_small_chunks(self, monkeypatch, cells, low, n, p, seed):
        monkeypatch.setattr(modularity, "EXACT_CELLS", cells)
        monkeypatch.setattr(bisection, "EXACT_BISECTION_LOW", low)
        assert_bisection_matches(sample_gnp(n, p, seed))
