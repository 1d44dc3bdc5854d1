"""Louvain's CSR kernel against the dict-based reference in oracles.py.

Each case runs with every row on the numpy path (NUMPY_ROW_MIN = 0),
every row on the dict path (a huge threshold), and at the default
threshold, where long and short rows mix; and, for each of those, with
the stay table built from the first sweep of every level, never built,
and built when _stay_table_fits says so.  The labels and the chosen
partition must equal the reference's exactly, also with CSR_SLICE cut
to a few entries, so that every coarsening and table build crosses many
slices.  The sliced coarsening must return the same arrays as the
one-sort reference, and its memory must follow the slice, not the CSR.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnpmod import modularity
from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.graph import Graph, sample_gnp
from gnpmod.modularity import (ModularityResult, Partition, heuristic_modularity,
                               score_components, score_definition)
from gnpmod.rng import generator, trial_seed

import oracles

ROW_MODES = {"numpy": 0, "dict": 10**9, "mixed": modularity.NUMPY_ROW_MIN}
TABLE_MODES = {"": modularity._stay_table_fits, "-table": lambda *a: True,
               "-no-table": lambda *a: False}
MODES = pytest.mark.parametrize("row_min, fits", [
    pytest.param(row_min, fits, id=row_id + table_id)
    for row_id, row_min in ROW_MODES.items() for table_id, fits in TABLE_MODES.items()])
PER_CASE = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_heuristic(G, seed, budget):
    """heuristic_modularity's candidate choice over the reference labels."""
    candidates = [ModularityResult(0.0, Partition.trivial(G.n), "trivial"),
                  score_components(G)]
    for r in range(budget):
        P = Partition(oracles.louvain_labels(G, generator(trial_seed(seed, r))))
        candidates.append(ModularityResult(score_definition(G, P), P, "heuristic"))
    return max(candidates, key=lambda r: r.score)


def assert_matches_reference(G, seed, budget=2):
    for r in range(budget):
        rs = trial_seed(seed, r)
        got = modularity._louvain_labels(G, generator(rs))
        want = oracles.louvain_labels(G, generator(rs))
        assert got.tolist() == want
    got = heuristic_modularity(G, seed=seed, budget=budget)
    want = reference_heuristic(G, seed, budget)
    assert got.partition == want.partition
    assert got.score == want.score and got.method == want.method


def cycle(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def clique(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def star(n):
    return [(1, v) for v in range(2, n + 1)]


def matching(n):
    return [(v, v + 1) for v in range(1, n, 2)]


def grid(n):
    side = max(2, int(n ** 0.5))
    at = lambda r, c: r * side + c + 1  # noqa: E731
    return ([(at(r, c), at(r, c + 1)) for r in range(side) for c in range(side - 1)]
            + [(at(r, c), at(r + 1, c)) for r in range(side - 1) for c in range(side)])


FAMILIES = {"cycle": cycle, "clique": clique, "star": star, "matching": matching,
            "grid": grid}


@st.composite
def tie_heavy_graphs(draw):
    """A symmetric family, padded with isolated vertices."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    edges = family(draw(st.integers(3, 60)))
    used = max(max(e) for e in edges)
    return Graph(used + draw(st.integers(0, 5)), edges)


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(2, 90))
    p = draw(st.floats(0.02, 0.9))
    G = sample_gnp(n, p, draw(st.integers(0, 10**6)))
    if G.m == 0:
        G = Graph(n, [(1, 2)])
    return G


@MODES
@PER_CASE
@given(G=gnp_graphs(), seed=st.integers(0, 10**6))
def test_gnp_matches_reference(monkeypatch, row_min, fits, G, seed):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_fits", fits)
    assert_matches_reference(G, seed)


@MODES
@PER_CASE
@given(G=tie_heavy_graphs(), seed=st.integers(0, 10**6))
def test_tie_heavy_families_match_reference(monkeypatch, row_min, fits, G, seed):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_fits", fits)
    assert_matches_reference(G, seed)


@MODES
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(G=gnp_graphs(), seed=st.integers(0, 10**6), slice_=st.integers(1, 16))
def test_small_slices_match_reference(monkeypatch, row_min, fits, G, seed, slice_):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_fits", fits)
    monkeypatch.setattr(modularity, "CSR_SLICE", slice_)
    assert_matches_reference(G, seed)


@st.composite
def level_graphs(draw):
    """A level graph as Louvain holds it: CSR rows in arbitrary order, no
    self loops, int64 weights or None (all ones), strengths that count
    self loops, and a map `node` onto k coarse nodes."""
    nn = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, iv = np.triu_indices(nn, 1)
    keep = rng.random(len(iu)) < draw(st.floats(0, 1))
    w = rng.integers(1, 50, np.count_nonzero(keep))
    src = np.concatenate([iu[keep], iv[keep]])
    dst = np.concatenate([iv[keep], iu[keep]])
    wts = np.concatenate([w, w])
    # shuffle the entries, then group them by row, keeping the shuffle
    entries = rng.permutation(len(src))
    entries = entries[np.argsort(src[entries], kind="stable")]
    indptr = np.zeros(nn + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nn), out=indptr[1:])
    strength = np.bincount(src, wts, minlength=nn).astype(np.int64)
    strength += 2 * rng.integers(0, 5, nn)
    k = draw(st.integers(1, nn))
    node = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, nn - k)]))
    weights = None if draw(st.booleans()) else wts[entries]
    return indptr, dst[entries], weights, strength, node, k


@given(level=level_graphs(), slice_=st.sampled_from([1, 2, 7, 64, modularity.CSR_SLICE]))
def test_sliced_coarsen_matches_one_shot(level, slice_):
    want = oracles.coarsen_one_shot(*level)
    with mock.patch.object(modularity, "CSR_SLICE", slice_):
        got = modularity._coarsen(*level)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@given(level=level_graphs(), slice_=st.sampled_from([1, 2, 7, 64, modularity.CSR_SLICE]))
def test_sliced_stay_table_matches_dense_sum(level, slice_):
    indptr, indices, weights, strength, comm, _ = level
    with mock.patch.object(modularity, "CSR_SLICE", slice_):
        table = modularity._StayTable(indptr, indices, weights, strength, comm,
                                      strength.copy(), int(strength.sum()))
    want = np.zeros(table.K.shape, dtype=np.int64)
    row = np.repeat(np.arange(len(strength)), np.diff(indptr))
    np.add.at(want, (row, table.colmap[comm[indices]]), 1 if weights is None else weights)
    assert np.array_equal(table.cols, np.unique(comm))
    assert np.array_equal(table.K, want)


def test_louvain_memory_follows_the_slice():
    # per slice the coarsening holds about six int64 arrays of the
    # slice's length (50 bytes an entry, measured); the rest of a level
    # is O(nodes).  One pass over all 4e5 CSR entries at once peaked at
    # 18.8 MiB.
    G = sample_gnp(2000, 0.1, 1)
    for slice_ in (modularity.CSR_SLICE // 4, modularity.CSR_SLICE):
        with mock.patch.object(modularity, "CSR_SLICE", slice_):
            tracemalloc.start()
            try:
                modularity._louvain_labels(G, generator(1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 64 * slice_ + 2**20


def test_stay_table_start_rule():
    fits = modularity._stay_table_fits
    share = modularity.STAY_MOVED_SHARE
    assert fits(4000, 15, 1_600_000, 4000 // share)
    assert not fits(4000, 15, 1_600_000, 4000 // share + 1)
    assert not fits(4000, 15, 1_600_000, 4000)  # a level's first sweep
    assert fits(100, 10, 1000, 0) and not fits(100, 11, 1000, 0)


def test_mixed_rows_at_scale():
    # d=60 puts the degrees on both sides of the row-length threshold
    G = sample_gnp(2000, 60 / 2000, 1)
    assert G.degrees.min() < modularity.NUMPY_ROW_MIN <= G.degrees.max()
    assert_matches_reference(G, seed=1, budget=1)


def test_stay_table_at_scale(monkeypatch):
    # at d=200 level 0 soon has fewer communities than the mean degree
    fits, answers = modularity._stay_table_fits, []

    def spy(*args):
        answers.append(fits(*args))
        return answers[-1]

    monkeypatch.setattr(modularity, "_stay_table_fits", spy)
    G = sample_gnp(2000, 200 / 2000, 1)
    assert_matches_reference(G, seed=1, budget=1)
    assert any(answers)


def test_stay_table_flag_without_move_is_an_error(monkeypatch):
    # a table that flags a node the exact visit keeps in place is a bug
    monkeypatch.setattr(modularity, "_stay_table_fits", lambda *a: True)
    monkeypatch.setattr(modularity._StayTable, "unproven", lambda self, order: iter([0]))
    with pytest.raises(RuntimeError, match="stay table"):
        modularity._louvain_labels(Graph(3, [(1, 2), (2, 3)]), generator(0))


def test_budget_below_one_rejected(k4):
    with pytest.raises(ValidationError, match="budget"):
        heuristic_modularity(k4, budget=0)


def test_edge_cap_checked_before_work(monkeypatch, k4):
    monkeypatch.setattr(modularity, "SCORE_M_CAP", 5)
    monkeypatch.setattr(modularity, "_louvain_labels", None)  # never reached
    with pytest.raises(CapExceeded):
        heuristic_modularity(k4)

