"""Louvain's CSR kernel against the dict-based reference in oracles.py.

Each case runs with every row on the numpy path (NUMPY_ROW_MIN = 0),
every row on the dict path (a huge threshold), and at the default
threshold, where long and short rows mix; and, for each of those, with
the dense stay table or the slot table built from the first sweep of
every level, with no table, and with the table _stay_table_kind picks.
The labels and the chosen partition must equal the reference's exactly,
also with graph.CSR_SLICE cut to a few entries, so that every coarsening and
table build crosses many slices.  The sliced coarsening must return the
same arrays as the one-sort reference, both tables must match a recount
from the CSR after any moves, and memory must follow the slice, not the
CSR.
"""

import contextlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnpmod import graph, modularity
from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.graph import Graph, sample_gnp
from gnpmod.modularity import (ModularityResult, Partition, heuristic_modularity,
                               score_components, score_definition)
from gnpmod.rng import generator, trial_seed

import oracles
from conftest import recorded

ROW_MODES = {"numpy": 0, "dict": 10**9, "mixed": modularity.NUMPY_ROW_MIN}
TABLE_MODES = {"": modularity._stay_table_kind,
               "-table": lambda *a: modularity._StayTable,
               "-slots": lambda *a: modularity._SlotTable,
               "-no-table": lambda *a: None}
MODES = pytest.mark.parametrize("row_min, kind", [
    pytest.param(row_min, kind, id=row_id + table_id)
    for row_id, row_min in ROW_MODES.items() for table_id, kind in TABLE_MODES.items()])
PER_CASE = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_heuristic(G, runs):
    """heuristic_modularity's candidate choice over the reference labels
    of each restart."""
    candidates = [ModularityResult(0.0, Partition.trivial(G.n), "trivial"),
                  score_components(G)]
    for labels in runs:
        P = Partition(labels)
        candidates.append(ModularityResult(score_definition(G, P), P, "heuristic"))
    return max(candidates, key=lambda r: r.score)


def assert_matches_reference(G, seed, budget=2):
    runs = []  # the reference labels of each restart, computed once
    for r in range(budget):
        rs = trial_seed(seed, r)
        got = modularity._louvain_labels(G, generator(rs))
        runs.append(oracles.louvain_labels(G, generator(rs)))
        assert got.tolist() == runs[-1]
    got = heuristic_modularity(G, seed=seed, budget=budget)
    want = reference_heuristic(G, runs)
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
def test_gnp_matches_reference(monkeypatch, row_min, kind, G, seed):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_kind", kind)
    assert_matches_reference(G, seed)


@MODES
@PER_CASE
@given(G=tie_heavy_graphs(), seed=st.integers(0, 10**6))
def test_tie_heavy_families_match_reference(monkeypatch, row_min, kind, G, seed):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_kind", kind)
    assert_matches_reference(G, seed)


@contextlib.contextmanager
def sliced(slice_):
    """graph.CSR_SLICE cut to `slice_`, with every row range that
    Louvain's passes then read checked to hold at most that many entries
    (plus per_row a row), or one row."""
    row_slices = modularity._row_slices

    def checked(indptr, per_row=0):
        for r0, r1 in row_slices(indptr, per_row):
            assert r1 == r0 + 1 or indptr[r1] - indptr[r0] + per_row * (r1 - r0) <= slice_
            yield r0, r1

    with mock.patch.object(graph, "CSR_SLICE", slice_), \
            mock.patch.object(modularity, "_row_slices", checked):
        yield


@MODES
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(G=gnp_graphs(), seed=st.integers(0, 10**6), slice_=st.integers(1, 16))
def test_small_slices_match_reference(monkeypatch, row_min, kind, G, seed, slice_):
    monkeypatch.setattr(modularity, "NUMPY_ROW_MIN", row_min)
    monkeypatch.setattr(modularity, "_stay_table_kind", kind)
    with sliced(slice_):
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


@given(level=level_graphs(), slice_=st.sampled_from([1, 2, 7, 64, graph.CSR_SLICE]))
def test_sliced_coarsen_matches_one_shot(level, slice_):
    want = oracles.coarsen_one_shot(*level)
    with sliced(slice_):
        got = modularity._coarsen(*level)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@given(data=st.data())
def test_sum_by_key_matches_a_dict_loop(data):
    """Each distinct key in ascending order, with its smallest position and
    its exact weight sum (its entry count without weights), whatever the
    order of the positions."""
    pool = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=60))
    pos = data.draw(st.lists(st.integers(0, 2**40), min_size=len(keys),
                             max_size=len(keys), unique=True))
    wts = data.draw(st.none() | st.lists(st.integers(-2**56, 2**56), min_size=len(keys),
                                         max_size=len(keys)))
    want = {}
    for i, (key, p) in enumerate(zip(keys, pos)):
        first, total = want.get(key, (p, 0))
        want[key] = min(first, p), total + (1 if wts is None else wts[i])
    key, first, total = modularity._sum_by_key(
        np.array(keys, dtype=np.int64), np.array(pos, dtype=np.int64),
        None if wts is None else np.array(wts, dtype=np.int64))
    assert key.tolist() == sorted(want)
    assert first.tolist() == [want[k][0] for k in sorted(want)]
    assert total.tolist() == [want[k][1] for k in sorted(want)]


def recount(indptr, indices, weights, comm):
    """Each node's edge weight into each community, from the CSR."""
    rows = [{} for _ in range(len(indptr) - 1)]
    wts = [1] * len(indices) if weights is None else weights.tolist()
    for v, row in enumerate(rows):
        for e in range(indptr[v], indptr[v + 1]):
            c = int(comm[indices[e]])
            row[c] = row.get(c, 0) + wts[e]
    return rows


@given(level=level_graphs(), slice_=st.sampled_from([1, 2, 7, 64, graph.CSR_SLICE]),
       moves=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=30))
def test_sliced_stay_table_matches_dense_sum(level, slice_, moves):
    # both tables, built in slices and then kept current through moves to
    # a neighbour's community, hold each node's weight into each community
    indptr, indices, weights, strength, comm, _ = level
    comm = comm.copy()
    with sliced(slice_):
        args = (indptr, indices, weights, strength, comm, strength.copy(),
                int(strength.sum()))
        dense, slots = modularity._StayTable(*args), modularity._SlotTable(*args)
    assert np.array_equal(dense.cols, np.unique(comm))
    cap = np.minimum(np.diff(indptr), len(dense.cols))
    assert np.array_equal(np.diff(slots.sptr), cap)
    for x, y in [(None, None)] + moves:
        if x is not None:
            v = x % len(strength)
            s, e = indptr[v], indptr[v + 1]
            if e == s:
                continue
            a, b = int(comm[v]), int(comm[indices[s + y % (e - s)]])
            if a == b:
                continue
            comm[v] = b
            wts = 1 if weights is None else weights[s:e]
            dense.move(a, b, indices[s:e], wts)
            slots.move(a, b, indices[s:e], wts)
        want = recount(indptr, indices, weights, comm)
        K = np.zeros(dense.K.shape, dtype=np.int64)
        for v, row in enumerate(want):
            K[v, dense.colmap[list(row)]] = list(row.values())
        assert np.array_equal(dense.K, K)
        assert (slots.used <= cap).all()
        for v, row in enumerate(want):
            at = slice(slots.sptr[v], slots.sptr[v] + slots.used[v])
            got = dict(zip(slots.scomm[at].tolist(), slots.sw[at].tolist()))
            assert len(got) == slots.used[v] and 0 not in got.values()
            assert got == row


def test_louvain_memory_follows_the_slice():
    # per slice the coarsening holds about six int64 arrays of the
    # slice's length (50 bytes an entry, measured); the rest of a level
    # is O(nodes).  One pass over all 4e5 CSR entries at once peaked at
    # 18.8 MiB.
    G = sample_gnp(2000, 0.1, 1)
    for slice_ in (graph.CSR_SLICE // 4, graph.CSR_SLICE):
        with sliced(slice_):
            tracemalloc.start()
            try:
                modularity._louvain_labels(G, generator(1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 64 * slice_ + 2**20


def test_stay_table_start_rule():
    kind = modularity._stay_table_kind
    dense, slots = modularity._StayTable, modularity._SlotTable
    share, slot_share = modularity.STAY_MOVED_SHARE, modularity.SLOT_MOVED_SHARE
    assert kind(4000, 15, 1_600_000, 4000 // share) is dense
    assert kind(4000, 15, 1_600_000, 4000 // share + 1) is None
    assert kind(4000, 15, 1_600_000, 4000) is None  # a level's first sweep
    assert kind(100, 10, 1000, 0) is dense and kind(100, 11, 1000, 0) is slots
    # a level too wide for the dense table waits longer for the slot table
    assert kind(4000, 60, 100_000, 4000 // slot_share) is slots
    assert kind(4000, 60, 100_000, 4000 // slot_share + 1) is None
    assert kind(4000, 60, 100_000, 4000 // share) is None


def test_mixed_rows_at_scale():
    # d=60 puts the degrees on both sides of the row-length threshold
    G = sample_gnp(2000, 60 / 2000, 1)
    assert G.degrees.min() < modularity.NUMPY_ROW_MIN <= G.degrees.max()
    assert_matches_reference(G, seed=1, budget=1)


def table_kinds(G, nodes: int) -> set[str]:
    """The kinds of the stay tables that the levels of `nodes` nodes build
    while G matches the reference, read from their level records."""
    with recorded() as sink:
        assert_matches_reference(G, seed=1, budget=1)
    return {level["table"].split(":")[0] for level in sink.of("level")
            if level["nodes"] == nodes and "table" in level}


def test_stay_table_at_scale():
    # at d=200 level 0 soon has fewer communities than the mean degree
    assert "dense" in table_kinds(sample_gnp(2000, 200 / 2000, 1), 2000)


def test_slot_table_at_scale():
    # at d=25 level 0 keeps more communities than the mean degree
    kinds = table_kinds(sample_gnp(2000, 25 / 2000, 1), 2000)
    assert "slots" in kinds and "dense" not in kinds


def test_stay_table_flag_without_move_is_an_error(monkeypatch):
    # a table that flags a node the exact visit keeps in place is a bug
    for cls in (modularity._StayTable, modularity._SlotTable):
        with monkeypatch.context() as patch:
            patch.setattr(modularity, "_stay_table_kind", lambda *a: cls)
            patch.setattr(cls, "unproven", lambda self, order: iter([0]))
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

