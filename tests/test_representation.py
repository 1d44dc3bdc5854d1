"""Property tests of the array representation: Graph against a
set-based reference, input validation, and label-array partitions
against the brute-force oracle's scorer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnpmod.errors import ValidationError
from gnpmod.graph import Graph
from gnpmod.modularity import Partition, score_definition, score_edge_form

from oracles import score_numerators


def pairs_on(n):
    """Pairs of distinct vertices in 1..n, either orientation."""
    return st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])


@st.composite
def raw_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(pairs_on(n), max_size=40)) if n > 1 else []
    return n, pairs


def reference_edges(pairs):
    return sorted({(min(u, v), max(u, v)) for u, v in pairs})


@given(raw_graphs(), st.booleans())
def test_graph_matches_set_reference(case, as_array):
    n, pairs = case
    G = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs)
    ref = reference_edges(pairs)
    assert G.edges.dtype == np.int64 and G.edges.shape == (len(ref), 2)
    assert G.edges.tolist() == [list(e) for e in ref]
    nbrs = [set() for _ in range(n)]
    for u, v in ref:
        nbrs[u - 1].add(v - 1)
        nbrs[v - 1].add(u - 1)
    assert G.indptr[0] == 0 and G.indptr[-1] == len(G.indices) == 2 * G.m
    for v in range(n):
        assert G.indices[G.indptr[v]:G.indptr[v + 1]].tolist() == sorted(nbrs[v])
    ends = np.array(ref, dtype=np.int64).reshape(-1) - 1
    assert np.array_equal(G.degrees, np.bincount(ends, minlength=n))
    assert G == Graph(n, [(v, u) for u, v in reversed(ref)])


@given(st.integers(2, 10), st.data())
def test_rejects_non_integral_or_out_of_range(n, data):
    bad = data.draw(st.one_of(
        st.tuples(st.floats(1, n).filter(lambda x: x != int(x)), st.integers(1, n)),
        st.tuples(st.integers(1, n), st.integers(n + 1, 10 * n)),
        st.tuples(st.integers(-5, 0), st.integers(1, n)),
        st.integers(1, n).map(lambda v: (v, v)),
    ))
    pairs = [(1, 2), bad]
    with pytest.raises(ValidationError):
        Graph(n, pairs)
    with pytest.raises(ValidationError):
        Graph(n, np.array(pairs))


@given(st.lists(st.integers(-3, 6), min_size=1, max_size=10), st.data())
def test_from_labels_matches_oracle(labels, data):
    n = len(labels)
    groups = {}
    for v, lab in enumerate(labels, start=1):
        groups.setdefault(lab, []).append(v)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    P = Partition.from_labels(labels)
    assert P.canonical_blocks() == blocks
    assert P == Partition.of(reversed(blocks), n)
    pairs = data.draw(st.lists(pairs_on(n), max_size=30)) if n > 1 else []
    ref = reference_edges(pairs)
    G = Graph(n, pairs)
    if not ref:
        assert score_definition(G, P) == score_edge_form(G, P) == 0.0
        return
    definition, edge_form = score_numerators(ref, blocks)
    den = 4 * len(ref) ** 2
    assert score_definition(G, P) == definition / den
    assert score_edge_form(G, P) == edge_form / den
