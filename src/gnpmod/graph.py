"""Simple undirected graphs on [n], seeded G(n,p) sampling, connected
components, and subset edge/volume tables.

Vertices are labeled 1..n in the public interface and the edge-list
file format.  A Graph stores only its CSR, three read-only int64 arrays:

    indptr   (n+1,) CSR row offsets; the neighbours of vertex v are
    indices  indices[indptr[v-1]:indptr[v]], 0-indexed and ascending
    degrees  (n,) with degrees[v-1] = deg(v), equal to np.diff(indptr)

`G.edges` builds the (m, 2) pairs u < v, 1-indexed, in lexicographic
order, from the upper half of each row anew on every call.

Graphs are immutable after construction and safe to share between
parallel workers.  Every graph goes through one CSR builder fed the
sorted unique indices of its pairs in the lexicographic order (1,2),
(1,3), ..., (n-1,n), in a buffer with room for 2m entries, into which
it fills the CSR over the keys it has read.  `Graph(n, pairs)` checks
and encodes its pairs a slice at a time into that buffer, then sorts
and dedups it in place; `sample_gnp`'s geometric skip draw sums its
gaps there in place, at most SAMPLE_CHUNK at a time, into the ascending
indices of the pairs it keeps.

Every O(m) pass over a graph (the CSR build, component labels, the
per-vertex counts behind the scores and the bisection's degrees) reads
its input in slices of about CSR_SLICE entries (see _row_slices), so
besides the CSR's own 16 bytes an edge its temporaries are O(n +
CSR_SLICE).  So `sample_gnp` peaks at 16 bytes per kept edge, those of
the CSR, which holds the pair indices until it replaces them, plus about
48 bytes per vertex (the build's six n-long int64 arrays), one chunk
of gaps and the build's slices.  Tracemalloc: 16.1 MiB for the 799 076
edges of n = 4000, p = 0.1; 157.1 MiB for the 10^7 of n = 10 000,
p = 0.2; 126.8 MiB for the 5.0 10^6 of n = 10^6, d = 10, of which 46 MiB
is the per-vertex term.  Connected components are found by min-label
propagation over the CSR rows, so no step loops over vertices in Python.

A vertex subset S is a boolean array of length n, S[v-1] for vertex v.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import trace
from .errors import CapExceeded, ValidationError, require_ints
from .rng import generator

# Largest expected edge count p n(n-1)/2 that sample_gnp draws.  The draw
# traces 16 bytes per kept edge plus about 48 per vertex, so its peak at
# this cap follows n: 192 MiB at n = 10^5 (d = 240), 234 MiB at n = 10^6
# (d = 24), and by the same rates about 0.6 GiB at n = MAX_VERTICES.  The
# drawn m exceeds its expectation by more than a few standard deviations
# sqrt(m (1-p)) (about 3 500 edges here) only with negligible probability.
# The draw's time follows the edges, not the pairs: 1.4 s for the 1.2 10^7
# edges of n = 10^6, d = 24 on a 2-vCPU box.
MAX_EXPECTED_EDGES = 12_000_000
# Most geometric gaps sample_gnp draws at once: 2 MiB of int64.  A larger
# chunk can cost resident memory, since glibc's mmap threshold follows a
# freed chunk upward: the desk-oracles benchmark's max RSS was 142 MiB
# with a chunk of this size, 148 MiB with 2^20 entries.  write_edge_list
# formats this many edges at a time, so its Python lists stay bounded.
SAMPLE_CHUNK = 1 << 18
# Largest vertex count a Graph accepts.  Its CSR offsets, degrees and row
# counts take about 24 bytes per vertex, so a larger n (say from the
# header of an edge-list file) is refused before anything is allocated.
MAX_VERTICES = 10_000_000
# Every O(m) pass over a CSR, here and in the annealer's table build, reads it
# in slices of about this many entries (pairs, for the CSR build), so its
# temporaries stay O(CSR_SLICE) whatever the graph's size.
CSR_SLICE = 1 << 16


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pair_array(edges) -> np.ndarray:
    """The edges as an integer (m, 2) array, rejecting anything else:
    casting would silently truncate 2.7 to 2."""
    try:
        a = np.asarray(edges if isinstance(edges, (np.ndarray, list, tuple))
                       else list(edges))
    except ValueError as exc:
        raise ValidationError("edges must be (u, v) pairs") from exc
    if a.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValidationError("edges must be (u, v) pairs")
    if a.dtype.kind not in "iu":
        raise ValidationError(f"edge endpoints must be integers, got {a.dtype}")
    return a


def _row_starts(n: int) -> np.ndarray:
    """rs[r] = the index of the pair (r, r+1) among the n(n-1)/2 pairs in
    lexicographic order, 0-indexed, for r = 0..n; rs[n-1] = rs[n] =
    n(n-1)/2.  The pair (lo, hi) has index rs[lo] + hi - lo - 1."""
    r = np.arange(n + 1, dtype=np.int64)
    return r * (2 * n - r - 1) // 2


def _key_slices(keys: np.ndarray, rs: np.ndarray, first: np.ndarray):
    """(lo, hi, i0) of the pairs keys[i0:i0 + CSR_SLICE], one slice at a
    time from the last to the first, with rs = _row_starts(n) and
    keys[first[r]:first[r+1]] the pairs with lo = r."""
    for i0 in reversed(range(0, len(keys), CSR_SLICE)):
        i1 = min(i0 + CSR_SLICE, len(keys))
        a = int(np.searchsorted(first, i0, side="right")) - 1
        b = int(np.searchsorted(first, i1 - 1, side="right"))
        lo = np.repeat(np.arange(a, b), np.diff(np.clip(first[a:b + 1], i0, i1)))
        yield lo, keys[i0:i1] - rs[lo] + lo + 1, i0


def _row_slices(indptr: np.ndarray, per_row: int = 0):
    """Contiguous row ranges (r0, r1) of a CSR that together cover its
    rows, each holding at most CSR_SLICE entries plus `per_row` per row,
    or a single row that alone holds more."""
    nrows = len(indptr) - 1
    cost = indptr + per_row * np.arange(nrows + 1) if per_row else indptr
    r0 = 0
    while r0 < nrows:
        r1 = int(np.searchsorted(cost, cost[r0] + CSR_SLICE, side="right")) - 1
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _check_vertex_count(n: int) -> int:
    """n as an int, refused unless an integer in 1..MAX_VERTICES."""
    (n,) = require_ints(1, n=n)
    if n > MAX_VERTICES:
        raise CapExceeded("graph vertex count n", n, MAX_VERTICES)
    return n


class Graph:
    """Immutable simple undirected graph on vertex set {1, ..., n}.

    `edges` may be any array-like of (u, v) integer pairs in either
    orientation; duplicates collapse to one edge.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = _check_vertex_count(n)
        pairs = _pair_array(edges)
        buf = np.empty(2 * len(pairs), dtype=np.int64)
        rs = _row_starts(n)
        for i0 in range(0, len(pairs), CSR_SLICE):
            u, v = pairs[i0:i0 + CSR_SLICE, 0], pairs[i0:i0 + CSR_SLICE, 1]
            loops = np.flatnonzero(u == v)
            if loops.size:
                raise ValidationError(f"self-loop at vertex {u[loops[0]]}")
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            bad = np.flatnonzero((lo < 1) | (hi > n))
            if bad.size:
                raise ValidationError(f"edge ({u[bad[0]]},{v[bad[0]]}) out of range 1..{n}")
            np.add(rs[lo - 1], (hi - lo - 1).astype(np.int64), out=buf[i0:i0 + len(lo)])
        keys = buf[:len(pairs)]
        keys.sort()
        # dedup in place: a slice's keys unequal to their predecessor move down
        m = 0
        for i0 in range(0, len(keys), CSR_SLICE):
            s = keys[i0:i0 + CSR_SLICE]
            new = s[np.diff(s, prepend=keys[m - 1] if m else -1) != 0]
            keys[m:m + len(new)] = new
            m += len(new)
        self._build(n, buf if m == len(pairs) else buf[:2 * m].copy(), m)

    @classmethod
    def _from_pair_indices(cls, n: int, buf: np.ndarray, m: int) -> "Graph":
        """Trusted constructor: buf[:m] holds the int64 indices of the
        edges among the n(n-1)/2 pairs in lexicographic order, ascending
        and unique, and buf has room for 2m entries; skips validation and
        sorting, and takes buf over."""
        G = cls.__new__(cls)
        G._build(n, buf, m)
        return G

    def _build(self, n: int, buf: np.ndarray, m: int) -> None:
        """Set the CSR from the ascending unique pair indices buf[:m],
        filling it into buf[:2m] in place.

        Row r of the CSR is the lo's of the edges with hi = r, then the
        hi's of the edges with lo = r, both ascending.  The keys are read
        twice, CSR_SLICE at a time from the last to the first: once to
        count each row's smaller neighbours, once to fill the rows.  Key i
        with lo = r is the (i - first[r])-th of r's larger neighbours and
        goes to indptr[r] + n_hi[r] + i - first[r] >= i, as indptr[r] >=
        first[r]; as a smaller neighbour it goes to row hi at or after
        indptr[hi] >= first[hi] > i.  So a slice writes only at or after
        its own first key, over keys already read, and the CSR takes the
        keys' place with no second array of 2m entries beside them.  Each
        slice hands its lo's to their rows sorted by hi * n + lo, and lo
        never rises from one slice to the next, so each row's smaller
        neighbours arrive in descending runs that are each ascending;
        end[r] is where the run last placed in row r begins.
        """
        keys = buf[:m]
        rs = _row_starts(n)
        # the keys of the edges with lo = r are keys[first[r]:first[r+1]]
        first = np.searchsorted(keys, rs)
        n_lo = np.diff(first)
        n_hi = np.zeros(n, dtype=np.int64)
        for _, hi, _ in _key_slices(keys, rs, first):
            np.add.at(n_hi, hi, 1)
        # degrees and end take over the buffers of n_lo and n_hi
        degrees = n_lo
        degrees += n_hi
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = buf[:2 * m]
        end = n_hi
        end += indptr[:-1]
        upper = end - first[:-1]
        for lo, hi, i0 in _key_slices(keys, rs, first):
            indices[upper[lo] + np.arange(i0, i0 + len(lo))] = hi
            hs, ls = np.divmod(np.sort(hi * n + lo), n)
            starts = np.flatnonzero(np.diff(hs, prepend=-1))
            runs = np.diff(starts, append=len(hs))
            end[hs[starts]] -= runs
            indices[end[hs] + np.arange(len(hs)) - np.repeat(starts, runs)] = ls
        self.n = n
        self.indptr = _frozen(indptr)
        self.indices = _frozen(buf)[:2 * m]
        self.degrees = _frozen(degrees)

    @property
    def m(self) -> int:
        """Number of edges e(G)."""
        return len(self.indices) // 2

    @property
    def edges(self) -> np.ndarray:
        """A new read-only (m, 2) int64 array of the pairs u < v, 1-indexed,
        in lexicographic order: the upper half of each CSR row, filled in
        one row slice at a time."""
        out = np.empty((self.m, 2), dtype=np.int64)
        at = 0
        for r0, r1 in _row_slices(self.indptr):
            src = np.repeat(np.arange(r0 + 1, r1 + 1), self.degrees[r0:r1])
            dst = self.indices[self.indptr[r0]:self.indptr[r1]]
            upper = dst >= src
            k = np.count_nonzero(upper)
            out[at:at + k, 0] = src[upper]
            np.add(dst[upper], 1, out=out[at:at + k, 1])
            at += k
        return _frozen(out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.indptr, other.indptr))

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EdgeCounts:
    """Edge statistics of a subset S: e(S), e(S̄), e(S,S̄) and volumes."""

    e_in: int
    e_out: int
    e_cross: int
    vol_S: int
    vol_Sbar: int


def _edge_capacity(npairs: int, p: float) -> int:
    """How many pair indices sample_gnp makes room for before its draw:
    the expected edge count p npairs plus eight of its standard
    deviations, at most npairs.  A draw that needs more grows its buffer
    by a copy."""
    mean = p * npairs
    return min(npairs, math.ceil(mean + 8 * math.sqrt(mean * (1 - p))))


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample G(n,p): each of the n(n-1)/2 vertex pairs is an edge
    independently with probability p.

    Deterministic for fixed (n, p, seed), in O(n + m) time and memory: a
    geometric skip draw (Batagelj & Brandes 2005).  With the pairs in
    lexicographic order (1,2), (1,3), ..., (n-1,n), 0-based, the first
    edge is pair g_1 - 1 and each next one lies g_i pairs past the last,
    g_1, g_2, ... being the seed's stream of rng.geometric(p) draws; the
    draw ends at the first index >= n(n-1)/2.  The gaps are drawn in
    chunks that fill the buffer's free room, at most SAMPLE_CHUNK at a
    time; the stream is read in order, so the chunking leaves the graph
    unchanged.  Each chunk's gaps are clipped to n(n-1)/2 + 1, which
    reaches past the last pair from anywhere (numpy's geometric
    saturates at 2^63 - 1 for p below about 1e-18), and summed in place
    into one int64 buffer.  Room for _edge_capacity indices is doubled,
    at most to n(n-1)/2, whenever it fills; the buffer holds twice the
    room, in which Graph._build then lays out the CSR.
    More than MAX_EXPECTED_EDGES expected edges raise CapExceeded before
    anything is allocated.
    """
    n = _check_vertex_count(n)
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p={p} must lie in [0,1]")
    npairs = n * (n - 1) // 2
    if p * npairs > MAX_EXPECTED_EDGES:
        raise CapExceeded("sample_gnp expected edges p n(n-1)/2", round(p * npairs),
                          MAX_EXPECTED_EDGES)
    with trace.stage("sample") as record:
        if npairs == 0 or p == 0.0:
            G = Graph(n, [])
        else:
            rng = generator(seed)
            cap = _edge_capacity(npairs, p)
            buf = np.empty(2 * cap, dtype=np.int64)
            m, last = 0, -1
            while last < npairs - 1:
                if m == cap:
                    cap = min(npairs, 2 * cap)
                    grown = np.empty(2 * cap, dtype=np.int64)
                    grown[:m] = buf[:m]
                    buf = grown
                chunk = buf[m:min(cap, m + SAMPLE_CHUNK)]
                size = len(chunk)
                np.minimum(rng.geometric(p, size), npairs + 1, out=chunk)
                chunk[0] += last
                np.cumsum(chunk, out=chunk)
                # a chunk's sums ascend up to its first index >= npairs; past
                # that they may wrap around
                beyond = chunk >= npairs
                end = int(np.argmax(beyond))
                if beyond[end]:
                    m += end
                    break
                m += size
                last = int(chunk[-1])
            G = Graph._from_pair_indices(n, buf, m)
        record["m"] = G.m
    return G


def degree(G: Graph, v: int) -> int:
    """deg(v) = number of edges containing v."""
    (v,) = require_ints(1, vertex=v)
    if v > G.n:
        raise ValidationError(f"vertex {v} out of range 1..{G.n}")
    return int(G.degrees[v - 1])


def check_subset(S, n: int) -> None:
    """Refuse S unless it is a vertex subset of [n]: a boolean array of
    length n, True at position v-1 for each member v."""
    if not (isinstance(S, np.ndarray) and S.dtype == bool and S.shape == (n,)):
        raise ValidationError(f"a vertex subset of [{n}] is a boolean array of length {n}")


def edge_counts(G: Graph, S: np.ndarray) -> EdgeCounts:
    """Exact integer counts e(S), e(S̄), e(S,S̄), vol(S), vol(S̄) of the
    subset S, a boolean array of length n."""
    check_subset(S, G.n)
    # each edge inside S is seen from both ends
    e_in = int(_inner_degrees(G, S)[S].sum()) // 2
    vol_S = int(G.degrees[S].sum())
    e_cross = vol_S - 2 * e_in
    return EdgeCounts(e_in=e_in, e_out=G.m - e_in - e_cross, e_cross=e_cross,
                      vol_S=vol_S, vol_Sbar=2 * G.m - vol_S)


def bit_reversal(k: int) -> np.ndarray:
    """bit_reversal(k)[mask] = mask with its k bits in reverse order.

    Bit 0 becomes the most significant, so of two vertex sets the one
    holding the lowest vertex on which they differ has the larger
    reversal.  For sets of equal size that is the lexicographically
    smaller sorted member tuple, which is how the exact routines break
    ties.
    """
    rev = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):
        rev[1 << i:2 << i] = rev[:1 << i] | (1 << (k - 1 - i))
    return rev


def neighbour_masks(G: Graph, start: int, stop: int) -> np.ndarray:
    """Per vertex (0-indexed), the bit mask of its neighbours w with
    start <= w < stop, bit w - start for w."""
    if stop - start > 62:
        raise ValidationError(f"int64 bit masks hold at most 62 vertices, got {stop - start}")
    src = np.repeat(np.arange(G.n), G.degrees)
    keep = (G.indices >= start) & (G.indices < stop)
    nbr = np.zeros(G.n, dtype=np.int64)
    np.add.at(nbr, src[keep], np.left_shift(1, G.indices[keep] - start))
    return nbr


def subset_edges(G: Graph, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Table e_in[mask] of the edges inside each subset of the vertices
    start+1..stop (all n by default), bit i for vertex start+i+1; it
    holds 2^(stop-start) int64.

    Built one vertex at a time: for the masks whose highest vertex is i,
    e(S) = e(S - {i}) + |N(i) ∩ (S - {i})|, with the second term built
    in the table's new half itself, so the table is the only allocation.
    """
    stop = G.n if stop is None else stop
    k = stop - start
    nbr = neighbour_masks(G, start, stop)[start:stop]
    e_in = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):
        lo = 1 << i
        layer = e_in[lo:2 * lo]
        # layer[mask] = |N(i) ∩ mask|, one lower vertex j at a time, in place;
        # layer[0] = 0 from the zeroed table
        for j in range(i):
            np.add(layer[:1 << j], int(nbr[i]) >> j & 1, out=layer[1 << j:2 << j])
        layer += e_in[:lo]
    return e_in


def subset_volumes(G: Graph, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Table vol[mask] of the degree sums in G of the same subsets as
    subset_edges."""
    stop = G.n if stop is None else stop
    vol = np.zeros(1 << (stop - start), dtype=np.int64)
    for i in range(stop - start):
        lo = 1 << i
        vol[lo:2 * lo] = vol[:lo] + G.degrees[start + i]
    return vol


def component_roots(G: Graph) -> np.ndarray:
    """root[v-1] = the smallest vertex of v's component, 0-indexed.

    Min-label propagation with pointer jumping, after FastSV (Zhang, Azad
    & Hu 2020): each round every label is replaced by its label's label,
    and then each vertex with neighbours lowers its old label's label to
    the smallest of those among its neighbours (np.minimum.reduceat over
    the non-empty CSR rows, in row slices).  Lowering the label's label
    hooks a whole tree at once: a randomly labelled path of 10^5 vertices takes
    20 rounds, where lowering only the vertex's own label took 33 880.
    A label is always a vertex of the same component and never larger
    than its vertex, so at the fixed point, where every label is its own
    label's label and no edge joins unequal labels, each component
    carries its smallest vertex.
    """
    with trace.stage("components"):
        label = np.arange(G.n)
        rows = np.flatnonzero(G.degrees)
        # the non-empty rows' entries, row after row: row rows[j] is
        # indices[ptr[j]:ptr[j+1]]
        ptr = np.append(G.indptr[rows], G.indptr[-1])
        low = np.empty(len(rows), dtype=np.int64)
        while len(rows):
            new = label[label]
            for j0, j1 in _row_slices(ptr):
                s, e = ptr[j0], ptr[j1]
                low[j0:j1] = np.minimum.reduceat(new[G.indices[s:e]], ptr[j0:j1] - s)
            np.minimum.at(new, label[rows], low)
            if np.array_equal(new, label):
                break
            label = new
    return label


def _inner_degrees(G: Graph, labels: np.ndarray) -> np.ndarray:
    """Per vertex, 0-indexed, how many of its neighbours carry its own
    label, counted over the CSR in row slices."""
    inner = np.empty(G.n, dtype=np.int64)
    for r0, r1 in _row_slices(G.indptr):
        s, e = G.indptr[r0], G.indptr[r1]
        same = np.repeat(labels[r0:r1], G.degrees[r0:r1]) == labels[G.indices[s:e]]
        count = np.zeros(e - s + 1, dtype=np.int64)
        np.cumsum(same, out=count[1:])
        inner[r0:r1] = np.diff(count[G.indptr[r0:r1 + 1] - s])
    return inner


def _neighbours(G: Graph, X: np.ndarray) -> np.ndarray:
    """The neighbours of the replica vertices X, those of X[0] first: x = r n
    + v - 1 stands for vertex v of replica r, and so do its neighbours; a
    plain 0-indexed vertex is one of replica 0."""
    v = X % G.n
    count = G.degrees[v]
    start = G.indptr[v] - np.cumsum(count) + count
    return (G.indices[np.repeat(start, count) + np.arange(count.sum())]
            + np.repeat(X - v, count))


def write_edge_list(G: Graph, out: TextIO) -> None:
    """Write the `n m` / `u v` edge-list text format (1-indexed, u < v)."""
    out.write(f"{G.n} {G.m}\n")
    edges = G.edges
    for lo in range(0, len(edges), SAMPLE_CHUNK):
        out.writelines(f"{u} {v}\n" for u, v in edges[lo:lo + SAMPLE_CHUNK].tolist())


def _parse_ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValidationError(f"{what} {' '.join(tokens)!r} is not integers") from exc


def read_edge_list(inp: TextIO) -> Graph:
    """Parse the edge-list text format, rejecting malformed input: a bad
    header (a negative m, or an n a Graph refuses) or edge line, non-blank
    lines after the m declared edges, or a duplicate edge, looked for only
    once the Graph built from the lines holds fewer than m edges."""
    header = inp.readline().split()
    if len(header) != 2:
        raise ValidationError("first line must be 'n m'")
    n, m = _parse_ints(header, "header")
    if m < 0:
        raise ValidationError(f"edge count m={m} in the header is negative")
    _check_vertex_count(n)
    flat = array.array("q")
    for _ in range(m):
        parts = inp.readline().split()
        if len(parts) != 2:
            raise ValidationError(f"expected {m} edge lines 'u v'")
        u, v = _parse_ints(parts, "edge line")
        if not (1 <= u < v <= n):
            raise ValidationError(f"edge ({u},{v}) violates 1 <= u < v <= {n}")
        flat.extend((u, v))
    if any(line.strip() for line in inp):
        raise ValidationError(f"more than the {m} edge lines the header declares")
    pairs = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    G = Graph(n, pairs)
    if G.m < m:  # name the first line that is not its pair's first occurrence
        first = np.unique(pairs[:, 0] * (n + 1) + pairs[:, 1], return_index=True)[1]
        again = np.setdiff1d(np.arange(m), first)[0]
        raise ValidationError(f"duplicate edge ({pairs[again, 0]},{pairs[again, 1]})")
    return G
