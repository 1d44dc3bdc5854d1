"""Simple undirected graphs on [n], seeded G(n,p) sampling, and subset
edge/volume statistics.

Vertices are labeled 1..n in the public interface and the edge-list
file format.  A Graph holds four read-only int64 arrays and nothing else:

    edges    (m, 2) pairs u < v, 1-indexed, in lexicographic order
    indptr   (n+1,) CSR row offsets; the neighbours of vertex v are
    indices  indices[indptr[v-1]:indptr[v]], 0-indexed and ascending
    degrees  (n,) with degrees[v-1] = deg(v), equal to np.diff(indptr)

Graphs are immutable after construction and safe to share between
parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import CapExceeded, ValidationError
from .rng import generator

# Largest number of vertex pairs n(n-1)/2 that sample_gnp draws: n = 10 000
# is the largest accepted size.  The draw holds about 25 bytes per pair (an
# 8-byte uniform, a 1-byte keep mask and two 8-byte triu_indices entries),
# so the cap bounds its peak near 1.25 GiB.
MAX_PAIRS = 50_000_000
# Largest vertex count a Graph accepts.  Its CSR offsets, degrees and row
# counts take about 24 bytes per vertex, so a larger n (say from the
# header of an edge-list file) is refused before anything is allocated.
MAX_VERTICES = 10_000_000


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


class Graph:
    """Immutable simple undirected graph on vertex set {1, ..., n}.

    `edges` may be any array-like of (u, v) integer pairs in either
    orientation; duplicates collapse to one edge.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValidationError(f"n={n} must be a positive integer")
        if n > MAX_VERTICES:
            raise CapExceeded("graph vertex count n", n, MAX_VERTICES)
        pairs = _pair_array(edges)
        u, v = pairs[:, 0], pairs[:, 1]
        loops = np.nonzero(u == v)[0]
        if loops.size:
            raise ValidationError(f"self-loop at vertex {u[loops[0]]}")
        bad = np.nonzero((np.minimum(u, v) < 1) | (np.maximum(u, v) > n))[0]
        if bad.size:
            i = bad[0]
            raise ValidationError(f"edge ({u[i]},{v[i]}) out of range 1..{n}")
        lo = np.minimum(u, v).astype(np.int64) - 1
        hi = np.maximum(u, v).astype(np.int64) - 1
        keys = np.sort(lo * n + hi)
        lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        # CSR: every edge in both directions, sorted by (row, column)
        rows = np.concatenate((lo, hi))
        cols = np.concatenate((hi, lo))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self.n = n
        self.edges = _frozen(np.column_stack((lo + 1, hi + 1)))
        self.indptr = _frozen(indptr)
        self.indices = _frozen(cols[np.lexsort((cols, rows))])
        self.degrees = _frozen(np.diff(indptr))

    @property
    def m(self) -> int:
        """Number of edges e(G)."""
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edges, other.edges))

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexSubset:
    """A subset S of the vertices of a graph on [n]."""

    members: frozenset
    n: int

    def __post_init__(self):
        if not all(isinstance(v, int) and 1 <= v <= self.n for v in self.members):
            raise ValidationError(f"subset members must lie in 1..{self.n}")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "VertexSubset":
        return cls(frozenset(members), n)

    def complement(self) -> "VertexSubset":
        return VertexSubset(frozenset(range(1, self.n + 1)) - self.members, self.n)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def fraction(self) -> float:
        """s = |S| / n."""
        return len(self.members) / self.n

    def indicator(self) -> np.ndarray:
        """Boolean membership array, position v-1 for vertex v."""
        ind = np.zeros(self.n, dtype=bool)
        ind[np.fromiter(self.members, dtype=np.int64, count=self.size) - 1] = True
        return ind


@dataclass(frozen=True)
class EdgeCounts:
    """Edge statistics of a subset S: e(S), e(S̄), e(S,S̄) and volumes."""

    e_in: int
    e_out: int
    e_cross: int
    vol_S: int
    vol_Sbar: int

    @property
    def total(self) -> int:
        return self.e_in + self.e_out + self.e_cross


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample G(n,p): each of the n(n-1)/2 vertex pairs is an edge
    independently with probability p.

    Deterministic for fixed (n, p, seed); pairs are examined in
    lexicographic order (1,2), (1,3), ..., (n-1,n) so samples are
    bit-reproducible.  More than MAX_PAIRS pairs raise CapExceeded before
    anything is allocated.
    """
    if n < 1:
        raise ValidationError(f"n={n} must be a positive integer")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p={p} must lie in [0,1]")
    npairs = n * (n - 1) // 2
    if npairs > MAX_PAIRS:
        raise CapExceeded("sample_gnp pairs n(n-1)/2", npairs, MAX_PAIRS)
    if npairs == 0 or p == 0.0:
        return Graph(n, [])
    keep = generator(seed).random(npairs) < p
    iu, iv = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack((iu[keep] + 1, iv[keep] + 1)))


def degree(G: Graph, v: int) -> int:
    """deg(v) = number of edges containing v."""
    if not (1 <= v <= G.n):
        raise ValidationError(f"vertex {v} out of range 1..{G.n}")
    return int(G.degrees[v - 1])


def edge_counts(G: Graph, S: VertexSubset) -> EdgeCounts:
    """Exact integer counts e(S), e(S̄), e(S,S̄), vol(S), vol(S̄)."""
    if S.n != G.n:
        raise ValidationError(f"subset is over [{S.n}], graph over [{G.n}]")
    ind = S.indicator()
    inu = ind[G.edges[:, 0] - 1]
    inv = ind[G.edges[:, 1] - 1]
    e_in = int(np.count_nonzero(inu & inv))
    e_cross = int(np.count_nonzero(inu ^ inv))
    vol_S = 2 * e_in + e_cross
    return EdgeCounts(e_in=e_in, e_out=G.m - e_in - e_cross, e_cross=e_cross,
                      vol_S=vol_S, vol_Sbar=2 * G.m - vol_S)


def popcounts(k: int) -> np.ndarray:
    """popcounts(k)[mask] = the number of set bits of mask, 0 <= mask < 2^k."""
    pc = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):
        pc[1 << i:2 << i] = pc[:1 << i] + 1
    return pc


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


def subset_tables(G: Graph, start: int = 0,
                  stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tables e_in[mask], vol[mask] over the subsets of the vertices
    start+1..stop (all n by default), bit i for vertex start+i+1: e_in
    counts the edges inside the subset, vol sums its degrees in G.  The
    tables hold 2^(stop-start) int64 each.

    Built one vertex at a time: for the masks whose highest vertex is i,
    e(S) = e(S - {i}) + |N(i) ∩ (S - {i})|.
    """
    stop = G.n if stop is None else stop
    k = stop - start
    nbr = neighbour_masks(G, start, stop)[start:stop]
    pc = popcounts(k)
    e_in = np.zeros(1 << k, dtype=np.int64)
    vol = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):
        lo = 1 << i
        e_in[lo:2 * lo] = e_in[:lo] + pc[np.arange(lo) & nbr[i]]
        vol[lo:2 * lo] = vol[:lo] + G.degrees[start + i]
    return e_in, vol


def connected_components(G: Graph) -> list[frozenset]:
    """Connected components as vertex sets, ordered by smallest member."""
    indptr = G.indptr.tolist()
    indices = G.indices.tolist()
    seen = [False] * G.n
    comps = []
    for start in range(G.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v + 1)
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def write_edge_list(G: Graph, out: TextIO) -> None:
    """Write the `n m` / `u v` edge-list text format (1-indexed, u < v)."""
    out.write(f"{G.n} {G.m}\n")
    out.writelines(f"{u} {v}\n" for u, v in G.edges.tolist())


def _parse_ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValidationError(f"{what} {' '.join(tokens)!r} is not integers") from exc


def read_edge_list(inp: TextIO) -> Graph:
    """Parse the edge-list text format, rejecting malformed input: a bad
    header (including a negative m) or edge line, a duplicate edge, or
    non-blank lines after the m declared edges."""
    header = inp.readline().split()
    if len(header) != 2:
        raise ValidationError("first line must be 'n m'")
    n, m = _parse_ints(header, "header")
    if m < 0:
        raise ValidationError(f"edge count m={m} in the header is negative")
    edges = []
    seen = set()
    for _ in range(m):
        parts = inp.readline().split()
        if len(parts) != 2:
            raise ValidationError(f"expected {m} edge lines 'u v'")
        u, v = _parse_ints(parts, "edge line")
        if not (1 <= u < v <= n):
            raise ValidationError(f"edge ({u},{v}) violates 1 <= u < v <= {n}")
        if (u, v) in seen:
            raise ValidationError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    if any(line.strip() for line in inp):
        raise ValidationError(f"more than the {m} edge lines the header declares")
    return Graph(n, edges)
