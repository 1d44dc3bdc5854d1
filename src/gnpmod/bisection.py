"""Balanced minimum bisection: an exact search at desk scale, a
swap-based local search at experiment scale, the edge-count error
decomposition of a bisection, and the resulting two-block modularity
lower-bound certificate.

The exact search scores every balanced subset from subset tables of
edge counts and volumes, with numpy (n <= EXACT_BISECTION_MAX = 32).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import modularity, trace
from .errors import CapExceeded, ValidationError, require_ints, require_reals
from .graph import (Graph, _frozen, _inner_degrees, _neighbours, bit_reversal, check_subset,
                    edge_counts, neighbour_masks, subset_edges, subset_volumes)
from .modularity import ModularityResult, Partition, score_edge_form
from .rng import generator, trial_seed

# exact_min_bisection refuses n above this.  At n = 32 it took 3 s on a
# 2-vCPU box, with a tracemalloc peak of 32 MiB; the time about doubles
# with each further vertex.
EXACT_BISECTION_MAX = 32
# Vertices held in exact_min_bisection's subset tables (2^16 int64 each);
# the subsets of the remaining vertices are enumerated as patterns.
EXACT_BISECTION_LOW = 16


@dataclass(frozen=True, eq=False)
class Bisection:
    """A balanced split: |S| - |Sbar| in {0, 1}, cut = e(S, Sbar).  S is
    held as a read-only view of the boolean subset array."""

    S: np.ndarray
    cut: int

    def __post_init__(self):
        check_subset(self.S, np.size(self.S))
        if 2 * np.count_nonzero(self.S) - len(self.S) not in (0, 1):
            raise ValidationError("bisection must satisfy |S| - |Sbar| in {0,1}")
        object.__setattr__(self, "S", _frozen(self.S.view()))

    def partition(self) -> Partition:
        return Partition(self.S.astype(np.int64))


@dataclass(frozen=True)
class ErrorDecomposition:
    """Deviations of a bisection's edge counts from their nd-based
    targets: e(G) = nd/2 + err0, e(S) = nd/8 + err1 + err0,
    e(Sbar) = nd/8 + err2, so e(S,Sbar) = nd/4 - (err1 + err2)."""

    err0: float
    err1: float
    err2: float
    d: float
    residual: Fraction  # e(S,Sbar) - (nd/4 - err1 - err2), exact arithmetic

    @property
    def exact(self) -> bool:
        return self.residual == 0


def exact_min_bisection(G: Graph) -> Bisection:
    """Global minimum balanced cut, exactly.

    S is the half holding vertex 1 for even n and the larger half for
    odd n; ties go to the lexicographically smallest S.  With the first
    L = min(n, EXACT_BISECTION_LOW) vertices in subset tables and the
    others as a pattern P, a subset S = A + P has

        cut(S) = vol(S) - 2 e(S) = c_lo[A] + c_hi[P] - 2 sum_{h in P} |N(h) & A|,

    with c = vol - 2 e_in read from the tables of each part.  The
    balanced S are scored one popcount of P at a time, the last term as
    one matrix product, at most modularity.EXACT_CELLS subsets at once (or
    one pattern's, if that is more).
    The first minimum of cut * 2^n - bit_reversal(S) is the minimum cut
    with the lexicographically smallest S.  n is refused above
    EXACT_BISECTION_MAX.
    """
    n = G.n
    if n > EXACT_BISECTION_MAX:
        raise CapExceeded("exact_min_bisection n", n, EXACT_BISECTION_MAX)
    if n < 2:
        raise ValidationError("bisection needs n >= 2")
    size = (n + 1) // 2
    L = min(n, EXACT_BISECTION_LOW)
    H = n - L
    c_lo = subset_volumes(G, 0, L) - 2 * subset_edges(G, 0, L)
    c_hi = subset_volumes(G, L, n) - 2 * subset_edges(G, L, n)
    rev_lo, rev_hi = bit_reversal(L) << H, bit_reversal(H)
    lo_masks = np.arange(1 << L)
    pc_lo, pc_hi = np.bitwise_count(lo_masks), np.bitwise_count(np.arange(1 << H))
    # links[h, A] = |N(h) & A| for the high vertices h; bits[P, h] = [h in P].
    # Float products of these small counts are exact.
    links = np.bitwise_count(neighbour_masks(G, 0, L)[L:, None] & lo_masks).astype(float)
    bits = ((np.arange(1 << H)[:, None] >> np.arange(H)) & 1).astype(float)
    best_key, best_cut, best_mask = None, 0, 0
    for j in range(max(0, size - L), min(H, size) + 1):
        ok = pc_lo == size - j
        if n % 2 == 0:  # S holds vertex 1: half the work, the same answer
            ok &= (lo_masks & 1) == 1
        A = np.nonzero(ok)[0]
        if len(A) == 0:
            continue
        pats = np.nonzero(pc_hi == j)[0]
        rows = max(1, modularity.EXACT_CELLS // len(A))
        for lo in range(0, len(pats), rows):
            P = pats[lo:lo + rows]
            cut = (c_lo[A] + c_hi[P][:, None]
                   - 2 * (bits[P] @ links[:, A]).astype(np.int64))
            key = cut * (1 << n) - (rev_lo[A] | rev_hi[P][:, None])
            i = int(np.argmin(key))
            if best_key is None or key.flat[i] < best_key:
                best_key, best_cut = key.flat[i], int(cut.flat[i])
                best_mask = int(A[i % len(A)]) | int(P[i // len(A)]) << L
    return Bisection((best_mask >> np.arange(n)) & 1 == 1, best_cut)


def _canonical_side(side: np.ndarray, n: int) -> np.ndarray:
    """The S block: for even n the side holding vertex 1, for odd n the
    larger side."""
    if n % 2 == 0:
        return side if side[0] else ~side
    return side if 2 * np.count_nonzero(side) > n else ~side


def _swap_gains(G: Graph, cand_a: np.ndarray, Da: np.ndarray, cand_b: np.ndarray,
                Db: np.ndarray) -> np.ndarray:
    """gain[i, j] = Da[i] + Db[j] - 2*[a~b] for a = cand_a[i], b = cand_b[j]
    (Da, Db: their D values), with the adjacent pairs found from the CSR
    rows of cand_a.  cand_b must be ascending."""
    gain = Da[:, None] + Db[None, :]
    nbrs = _neighbours(G, cand_a)
    cols = np.minimum(np.searchsorted(cand_b, nbrs), len(cand_b) - 1)
    hit = cand_b[cols] == nbrs
    gain[np.repeat(np.arange(len(cand_a)), G.degrees[cand_a])[hit], cols[hit]] -= 2
    return gain


def _single_local_search(G: Graph, rng) -> tuple[np.ndarray, int]:
    """One run: random balanced start, then repeatedly apply the best
    cut-reducing swap until none improves.  The swap search is exact:
    gain(a,b) = D[a] + D[b] - 2*[a~b] with D = external - internal
    degree, and ties go to the first maximum in (a, b) order.

    Let a and b be the first vertex of each side with that side's
    largest D.  No gain exceeds D[a] + D[b], so the run stops when that
    is <= 0.  If a and b are not adjacent, (a, b) reaches the bound and
    no earlier row or column does, so it is the first maximum.  Only
    when they are adjacent is the gain matrix over the vertices within 2
    of each side's largest D built, as only they can host the best
    swap.

    DS holds D on the S side and DT on the other; each holds a sentinel
    far below any D (-2^40) at the other side's vertices.  A swap
    updates both only on the two swapped vertices' CSR rows, so it costs
    two argmax and O(degree) work.  An entry whose vertex is on the
    other side moves by at most 4 per swap (+-2 for each swapped
    neighbour), and each swap lowers the cut, so there are no more swaps
    than the first cut, at most m: a sentinel stays within 4m of its
    start, below every D in [-n, n] while 4m + n < 2^40."""
    with trace.stage("restart") as record:
        n = G.n
        perm = rng.permutation(n)
        side = np.zeros(n, dtype=bool)
        side[perm[: (n + 1) // 2]] = True
        # D = ext - int = deg - 2 int, and the cut entries number 2m - sum(int)
        inner = _inner_degrees(G, side)
        D = G.degrees - 2 * inner
        cut = (len(G.indices) - int(inner.sum())) // 2
        neg = np.int64(-(1 << 40))
        DS, DT = np.where(side, D, neg), np.where(side, neg, D)
        fallbacks = swaps = 0  # gain matrices built, swaps made
        while True:
            a, b = int(DS.argmax()), int(DT.argmax())
            if DS[a] + DT[b] <= 0:
                break
            row = G.indices[G.indptr[a]:G.indptr[a + 1]]
            k = int(np.searchsorted(row, b))
            if k < len(row) and row[k] == b:
                cand_a = np.nonzero(DS >= DS[a] - 2)[0]
                cand_b = np.nonzero(DT >= DT[b] - 2)[0]
                fallbacks += 1
                gain = _swap_gains(G, cand_a, DS[cand_a], cand_b, DT[cand_b])
                best = int(np.argmax(gain))
                if gain.flat[best] <= 0:
                    break
                i, j = divmod(best, len(cand_b))
                a, b = int(cand_a[i]), int(cand_b[j])
            swaps += 1
            # x leaves its side: its neighbours there gain 2, those across lose 2
            for x, mine, other in ((a, DS, DT), (b, DT, DS)):
                cut -= int(mine[x])
                ns = G.indices[G.indptr[x]:G.indptr[x + 1]]
                mine[ns] += 2
                other[ns] -= 2
                other[x], mine[x] = -mine[x], neg
                side[x] = not side[x]
        record.update(cut=cut, fallbacks=fallbacks, swaps=swaps)
    return side, cut


def local_search_bisection(G: Graph, seed: int = 0, restarts: int = 10) -> Bisection:
    """Best balanced cut over seeded local-search restarts.

    The reduction over restarts is a deterministic (cut, lexicographic-S)
    minimum, so parallel restart order cannot change the result; the
    bytes of ~S order equal cuts by the first vertex in one S only.
    """
    (restarts,) = require_ints(1, restarts=restarts)
    if G.n < 2:
        raise ValidationError("bisection needs n >= 2")
    with trace.stage("bisection") as record:
        runs = (_single_local_search(G, generator(trial_seed(seed, r)))
                for r in range(restarts))
        r, (cut, S) = min(enumerate((cut, _canonical_side(side, G.n)) for side, cut in runs),
                          key=lambda run: (run[1][0], (~run[1][1]).tobytes()))
        record["restart"] = r
    return Bisection(S, cut)


def error_decomposition(G: Graph, S: np.ndarray, d: float) -> ErrorDecomposition:
    """err0/err1/err2 for a balanced subset S (a boolean array of length
    n), with the reconstruction identity e(S,Sbar) = nd/4 - (err1 + err2)
    checked in exact rational arithmetic."""
    require_reals(d=d)
    check_subset(S, G.n)
    if 2 * np.count_nonzero(S) - G.n not in (0, 1):
        raise ValidationError("error_decomposition requires a balanced subset")
    ec = edge_counts(G, S)
    n = G.n
    dF = Fraction(d)  # exact value of the binary float
    err0 = ec.e_in + ec.e_out + ec.e_cross - n * dF / 2
    err1 = ec.e_in - n * dF / 8 - err0
    err2 = ec.e_out - n * dF / 8
    residual = ec.e_cross - (n * dF / 4 - (err1 + err2))
    return ErrorDecomposition(err0=float(err0), err1=float(err1),
                              err2=float(err2), d=d, residual=residual)


def bisection_modularity_certificate(G: Graph, seed: int = 0,
                                     restarts: int = 10) -> ModularityResult:
    """Modularity lower bound from the two-block bisection partition.

    Any partition's score lower-bounds the modularity; when the
    bisection scores below 0 the trivial partition (score 0) is the
    better certificate and is returned instead.  On a graph without
    edges the bisection scores 0, the zero-edge convention of the scores.
    """
    bis = local_search_bisection(G, seed=seed, restarts=restarts)
    P = bis.partition()
    score = score_edge_form(G, P)
    if score < 0.0:
        return ModularityResult(0.0, Partition.trivial(G.n), "trivial")
    return ModularityResult(score, P, "bisection")
