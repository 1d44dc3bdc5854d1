"""Property tests of the array representation: Graph against a
set-based reference, input validation, label-array partitions against
the brute-force oracle's scorer, label numbering against a dict
reference, and the two text readers (round trips, and fuzzed text that
must parse or raise ValidationError)."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnpmod.errors import ValidationError
from gnpmod.graph import Graph, read_edge_list, write_edge_list
from gnpmod.modularity import (Partition, read_partition, score_definition,
                               score_edge_form, write_partition)

from oracles import first_appearance_labels, score_numerators


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
    P = Partition(labels)
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


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def label_arrays(draw):
    """Labels of one integer dtype: a few values from its whole range,
    each repeated at random positions."""
    info = np.iinfo(draw(st.sampled_from(INT_DTYPES)))
    pool = draw(st.lists(st.integers(int(info.min), int(info.max)),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks], dtype=info.dtype)


@given(label_arrays())
def test_label_numbering_matches_dict_reference(labels):
    P = Partition(labels)
    assert P.labels.dtype == np.int64 and not P.labels.flags.writeable
    assert P.labels.tolist() == first_appearance_labels(labels)


@given(raw_graphs())
def test_edge_list_round_trip(case):
    G = Graph(*case)
    buf = io.StringIO()
    write_edge_list(G, buf)
    buf.seek(0)
    assert read_edge_list(buf) == G


@given(st.lists(st.integers(0, 6), min_size=1, max_size=12))
def test_partition_round_trip(labels):
    P = Partition(labels)
    buf = io.StringIO()
    write_partition(P, buf)
    buf.seek(0)
    assert read_partition(buf, P.n) == P


# Small numbers, signs, junk tokens and odd whitespace, so that fuzzed
# text often comes close to a valid file.
TOKENS = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(
    ["", "x", "1.5", "-0", "+2", "1e3", "0x1", "\t", "2 3", "#", "\u00a0"]))
LINES = st.lists(TOKENS, max_size=4).map(" ".join)
TEXTS = st.one_of(st.lists(LINES, max_size=8).map("\n".join), st.text(max_size=40))


@given(TEXTS)
def test_edge_list_text_parses_or_fails_validation(text):
    try:
        G = read_edge_list(io.StringIO(text))
    except ValidationError:
        return
    assert isinstance(G, Graph)
    assert int(text.split()[1]) == G.m


@given(TEXTS, st.integers(1, 6))
def test_partition_text_parses_or_fails_validation(text, n):
    try:
        P = read_partition(io.StringIO(text), n)
    except ValidationError:
        return
    assert P.n == n


def test_negative_edge_count_rejected():
    with pytest.raises(ValidationError, match="m=-1"):
        read_edge_list(io.StringIO("3 -1\n"))
