"""The O(m) passes that read a graph's CSR in slices of graph.CSR_SLICE
entries: the CSR build, component labels, the scores' block counts and
a local-search restart's first degrees and cut, and the edge list.

With the slice cut to a few entries every pass crosses many slices, and
each must still give what a one-shot reference gives: the CSR of
oracles.csr_lexsort, the components of a depth-first search, block
counts taken edge by edge, and the sides and cuts of
oracles.local_search_matrix.  On G(4000, p=0.1), 800 000 edges, each
pass's traced memory must follow the slice, not the edge count, and
building it from its pairs or its edge-list file must hold no m-long
copies beside the CSR.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gnpmod import graph, modularity
from gnpmod.bisection import _single_local_search, local_search_bisection
from gnpmod.errors import ValidationError
from gnpmod.graph import Graph, component_roots, read_edge_list, sample_gnp, write_edge_list
from gnpmod.modularity import Partition, score_definition, score_edge_form
from gnpmod.rng import generator

import oracles

SLICES = [1, 2, 7, 64]
PER_CASE = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def graphs(draw):
    """(n, sorted unique 1-indexed edges u < v): any density, with
    isolated vertices wherever no edge lands, and m = 0 among them."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


def sliced(slice_):
    return mock.patch.object(graph, "CSR_SLICE", slice_)


def block_stats_by_edge(n, edges, labels):
    """(e_in, e_cross, vol) per block, one edge at a time."""
    k = int(labels.max()) + 1
    e_in, cross, vol = (np.zeros(k, dtype=np.int64) for _ in range(3))
    for u, v in edges:
        a, b = labels[u - 1], labels[v - 1]
        vol[a] += 1
        vol[b] += 1
        if a == b:
            e_in[a] += 1
        else:
            cross[a] += 1
            cross[b] += 1
    return e_in, cross, vol


@pytest.mark.parametrize("slice_", SLICES)
def test_slices_follow_the_patch(slice_):
    """The two slicers read graph.CSR_SLICE when called, so patching it
    reaches every sliced pass."""
    G = sample_gnp(30, 0.3, 1)
    with sliced(slice_):
        rows = list(graph._row_slices(G.indptr))
        rs = graph._row_starts(G.n)
        keys = rs[G.edges[:, 0] - 1] + G.edges[:, 1] - G.edges[:, 0] - 1
        pairs = list(graph._key_slices(keys, rs, np.searchsorted(keys, rs)))
    assert [r0 for r0, _ in rows] == [0] + [r1 for _, r1 in rows[:-1]]
    assert rows[-1][1] == G.n
    for r0, r1 in rows:
        assert G.indptr[r1] - G.indptr[r0] <= slice_ or r1 == r0 + 1
    # last slice first, so the in-place build writes only over keys it has read
    assert [i0 for *_, i0 in pairs] == list(range(0, G.m, slice_))[::-1]
    lo = np.concatenate([lo for lo, _, _ in pairs[::-1]])
    hi = np.concatenate([hi for _, hi, _ in pairs[::-1]])
    assert np.array_equal(np.column_stack((lo, hi)) + 1, G.edges)


def complete(n):
    return n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def bipartite(a, b):
    """K_{a,b} with the side of a vertices first."""
    return a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)]


# Cases the in-place build must get right under every slice: n <= 2;
# complete graphs, where every pair is a key; graphs whose first rows have
# no smaller neighbours, so their larger ones land on their own keys'
# slots (indptr[r] + n_hi[r] - first[r] counts the edges among vertices
# 1..r+1): vertex 1 of K_n, the first side of K_{a,b}; isolated vertices
# first, last and between edges.
EDGE_CASES = [(1, []), (2, []), (2, [(1, 2)]), (5, []), complete(3), complete(9),
              complete(30), bipartite(4, 7), bipartite(10, 1),
              (12, [(2, 3), (2, 7), (3, 7), (5, 9), (9, 11)]), (10, [(1, 10)])]


# the pair containers Graph(n, pairs) takes: a list, or arrays of these
PAIR_TYPES = [list, np.int32, np.int64, np.uint16]


def every_edge_case(test):
    for case in EDGE_CASES:
        for slice_ in SLICES:
            for kind in (list, np.int32):
                test = example(case=case, slice_=slice_, kind=kind)(test)
    return test


@PER_CASE
@given(case=graphs(), slice_=st.sampled_from(SLICES), kind=st.sampled_from(PAIR_TYPES))
@every_edge_case
def test_sliced_build_matches_lexsort(case, slice_, kind):
    n, edges = case
    rng = np.random.default_rng(len(edges))

    def oriented(pairs):
        return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]

    # shuffled, either orientation, some pairs again in either orientation,
    # so duplicates fall within and across slices
    shuffled = oriented(edges) + oriented(edges[: len(edges) // 3])
    rng.shuffle(shuffled)
    pairs = shuffled if kind is list else np.array(shuffled, dtype=kind).reshape(-1, 2)
    with sliced(slice_):
        G = Graph(n, pairs)
        pairs = G.edges
    indptr, indices = oracles.csr_lexsort(n, edges)
    assert np.array_equal(G.indptr, indptr)
    assert np.array_equal(G.indices, indices)
    assert np.array_equal(G.degrees, np.diff(indptr))
    assert np.array_equal(pairs, np.array(edges, dtype=np.int64).reshape(-1, 2))
    # the room the duplicates took is not kept beside the CSR
    assert G.indices.base.nbytes == G.indices.nbytes


@pytest.mark.parametrize("pairs, slice_, message", [
    ([(1, 9), (2, 2)], 2, "self-loop at vertex 2"),
    ([(1, 9), (5, 6), (2, 2)], 2, r"edge \(1,9\) out of range 1..8"),
    ([(1, 9), (5, 6), (2, 2)], graph.CSR_SLICE, "self-loop at vertex 2"),
    ([(3, 4), (4, 3), (0, 1)], 1, r"edge \(0,1\) out of range 1..8"),
])
def test_build_reports_the_first_bad_slice(pairs, slice_, message):
    """The pairs are checked one slice at a time: within a slice a
    self-loop comes before an out-of-range pair, and an earlier slice's
    fault before a later one's."""
    with sliced(slice_), pytest.raises(ValidationError, match=message):
        Graph(8, pairs)


@PER_CASE
@given(n=st.integers(1, 40), p=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**32), slice_=st.sampled_from(SLICES))
def test_sliced_sample_matches_lexsort(n, p, seed, slice_):
    with sliced(slice_):
        G = sample_gnp(n, p, seed)
    indptr, indices = oracles.csr_lexsort(n, oracles.gnp_edges_triu(n, p, seed))
    assert np.array_equal(G.indptr, indptr)
    assert np.array_equal(G.indices, indices)


@pytest.mark.parametrize("n, p, seed", [(1, 0.5, 0), (2, 1.0, 0), (30, 1.0, 0),
                                        (40, 0.05, 3), (60, 0.3, 1), (200, 0.01, 2)])
@pytest.mark.parametrize("capacity", [1, 5])
def test_buffer_growth_matches_unpatched_draw(n, p, seed, capacity):
    """A draw that keeps more edges than sample_gnp made room for grows
    its pair-index buffer, several times over across chunks of 7 gaps,
    and still gives the graph of the unpatched draw."""
    want = sample_gnp(n, p, seed)
    with mock.patch.object(graph, "_edge_capacity", lambda npairs, p: capacity), \
            mock.patch.object(graph, "SAMPLE_CHUNK", 7), sliced(7):
        G = sample_gnp(n, p, seed)
    assert G == want
    assert np.array_equal(G.degrees, want.degrees)
    assert not G.indices.flags.writeable


@PER_CASE
@given(case=graphs(), slice_=st.sampled_from(SLICES))
@example(case=(4, []), slice_=1)
def test_sliced_roots_match_dfs(case, slice_):
    n, edges = case
    G = Graph(n, edges)
    want = np.empty(n, dtype=np.int64)
    for comp in oracles.components_dfs(G):
        want[np.array(sorted(comp)) - 1] = min(comp) - 1
    with sliced(slice_):
        assert np.array_equal(component_roots(G), want)


@PER_CASE
@given(case=graphs(), slice_=st.sampled_from(SLICES),
       raw=st.lists(st.integers(0, 5), min_size=30, max_size=30))
@example(case=(3, []), slice_=1, raw=[0] * 30)
def test_sliced_block_stats_match_edge_count(case, slice_, raw):
    n, edges = case
    G = Graph(n, edges)
    P = Partition(raw[:n])
    with sliced(slice_):
        got = modularity._block_stats(G, P)
    for g, w in zip(got, block_stats_by_edge(n, edges, P.labels)):
        assert g.dtype == np.int64 and np.array_equal(g, w)


@PER_CASE
@given(case=graphs(), slice_=st.sampled_from(SLICES),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
@example(case=(2, []), slice_=1, seeds=[0])
@example(case=(6, [(1, 2), (2, 3)]), slice_=1, seeds=[0, 1])
def test_sliced_restart_matches_matrix_reference(case, slice_, seeds):
    n, edges = case
    if n < 2:
        return
    G = Graph(n, edges)
    for seed in seeds:
        with sliced(slice_):
            side, cut = _single_local_search(G, generator(seed))
        want_side, want_cut, _ = oracles.local_search_matrix(G, generator(seed))
        assert cut == want_cut
        assert np.array_equal(side, want_side)


# ---------------------------------------------------------------------------
# Memory on G(4000, p=0.1): 800 000 edges, 1.6 million CSR entries, 12.2 MiB
# of CSR indices.  Measured: the draw peaked at 16.1 MiB with the CSR built
# in place over the drawn pair indices (16.2 when it drew a uniform for
# every pair, 22.1 with a second array of them beside the CSR, 62.0 when
# it built the CSR from whole lo/hi arrays and an argsort), the passes
# below at 0.7-1.7 MiB each (12.4 for
# component_roots' whole-CSR gather, 25.9 for each score and each
# restart).


def traced_peak_mib(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


@pytest.fixture(scope="module")
def corridor():
    return sample_gnp(4000, 0.1, 1)


def test_sample_memory():
    assert traced_peak_mib(sample_gnp, 4000, 0.1, 1) <= 18


def test_build_from_pairs_memory(corridor):
    """Graph(n, pairs) encodes the keys slice by slice straight into the
    buffer that becomes the CSR: 16.3 MiB traced beside the 12.2 MiB
    input (30.5 MiB when it held m-long lo, hi and key arrays too)."""
    pairs = corridor.edges
    tracemalloc.start()
    try:
        G = Graph(corridor.n, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G == corridor
    assert peak <= 20 * 2**20


def test_read_edge_list_memory(corridor, tmp_path):
    """The 7.2 MiB file of the corridor graph reads into one growable
    buffer at 29 MiB traced (206 MiB with a set and a list of tuples)."""
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        write_edge_list(corridor, fh)
    with open(path) as fh:
        tracemalloc.start()
        try:
            G = read_edge_list(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert G == corridor
    assert peak <= 64 * 2**20


def test_edges_memory(corridor):
    """The (m, 2) result is 12.2 MiB; the pairs are filled into it one row
    slice at a time (13.3 MiB traced; 38.1 from whole-CSR temporaries)."""
    assert traced_peak_mib(lambda: corridor.edges) <= 16


@pytest.mark.parametrize("call", [
    lambda G, P: component_roots(G),
    lambda G, P: score_definition(G, P),
    lambda G, P: score_edge_form(G, P),
    lambda G, P: local_search_bisection(G, seed=1, restarts=1),
], ids=["component_roots", "score_definition", "score_edge_form", "restart"])
def test_pass_memory_follows_the_slice(corridor, call):
    P = Partition(np.arange(corridor.n) % 7)
    assert traced_peak_mib(call, corridor, P) <= 4
