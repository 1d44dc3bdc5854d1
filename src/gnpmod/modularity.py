"""Modularity scoring and maximization.

A Partition is one canonical label array: `labels[v-1]` is the block of
vertex v, and blocks are numbered 0, 1, ... in order of their smallest
member, so equal partitions have equal arrays.  Scores are computed
from per-block counts (np.bincount over the CSR entries), accumulated as
exact integer numerators with a single final division so floating error
can never flip an argmax decision:

    definition form:  sum_S (4 e(S) e(G) - vol(S)^2) / (4 e(G)^2)
    edge form:        sum_S (4 e(S) e(Sbar) - e(S,Sbar)^2) / (4 e(G)^2)

Exact maximization is a dynamic program over vertex subsets, run with
numpy one popcount layer at a time (n <= EXACT_CAP_MAX = 20); the
heuristic anneals a k-label Potts model at resolution 1 (Reichardt &
Bornholdt 2006), whose ground state is the best partition into at most
k blocks, and always returns the score of a genuine partition, hence a
lower bound on the true modularity.

The annealer keeps each vertex's edge count into each label in an n x k
int64 table K, built in CSR row slices of about graph.CSR_SLICE entries
like every O(m) pass, and the label volumes vol.  Moving v from label a
to c changes the score numerator by the exact integer
dN = 4m (K[v,c] - K[v,a]) - 2 d_v (vol_c - vol_a + d_v).  Each term lies
within 4 m d_v, and the row scores the code compares (see _anneal_labels)
within 10 m d_v < 10 m n: below 2^58, inside int64, for every m <=
SCORE_M_CAP and n <= graph.MAX_VERTICES.  Each sweep cuts
a fresh permutation into batches, and a batch's moves are drawn at once
by Gumbel-max over dN / T, so the n-vertex Python loop of a local-move
heuristic becomes a few numpy calls per batch.  A batch holds about
8n / (mean degree) vertices, but at least n/16, so a dense graph is not
cut into so many batches that their fixed calls outweigh the arithmetic.
The noise is one n x k block of uniforms a sweep, turned in place into
Gumbel variates by rng.gumbel's own transform (see _gumbel).  T falls
geometrically over a fixed number of sweeps, so the run's cost follows
n and m, not the graph's structure.  A zero-temperature quench then
applies a batch's improving moves together only if they raise the exact
numerator jointly, and its single best move otherwise, so each quench
step raises an integer below 4m^2 and the quench ends.  The `budget` runs of one
call are replicas of the graph in one table, so each numpy call serves
every run; run r draws from its own generator only, so its labels are
those it would reach alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import trace
from .errors import CapExceeded, ValidationError, require_ints
from .graph import (Graph, _inner_degrees, _neighbours, _parse_ints, _row_slices,
                    bit_reversal, component_roots, subset_edges, subset_volumes)
from .rng import generator, trial_seed

# exact_modularity refuses n above this.  The DP's 3^n/2 candidate
# blocks took 32 s at n = 20 on a 2-vCPU box, with a tracemalloc peak of
# 82 MiB; each further vertex triples the time.
EXACT_CAP_MAX = 20
# Cells scored at once by the exact routines: candidate blocks in
# exact_modularity, balanced subsets in bisection.exact_min_bisection and
# subset masks in concentration.check_lemma32_events_exhaustive.  A
# chunk's arrays hold this many entries each, or one row if that is more
# (2^(n-1) blocks, or one pattern's subsets).
EXACT_CELLS = 1 << 18
# Every partial sum of a score numerator lies within +-4 m^2, which must
# fit in int64.  The annealer's move gains lie within 10 m n, which at
# this m and graph.MAX_VERTICES is below 2^58.
SCORE_M_CAP = 1_518_500_249  # largest m with 4 m^2 < 2^63
# The annealing schedule.  Measured on a 2-vCPU box on G(4000, d) at
# seeds 1 and 2, mean q*sqrt(d) at budget 1, and on the 60 desk graphs
# with n <= 13 of the benchmark (perfbench desk-oracles, seed 1), exact
# optima found at budget 3; each constant varied alone from these values.
# Labels per run: k = 3, 4, 6, 8, 12 read 0.871, 0.930, 0.964, 0.957,
# 0.925 at d = 25 and 0.801, 0.838, 0.837, 0.809, 0.795 at d = 400.
ANNEAL_K = 6
# Sweeps = ANNEAL_SWEEPS_PER_BIT * n.bit_length(): 48 at n = 4000, 16 at
# n = 12, so tiny graphs cost little.  2, 4, 8 read 0.935, 0.964, 0.981
# at d = 25 in 0.06, 0.09, 0.22 s a run, and found 51, 54, 55 desk optima.
ANNEAL_SWEEPS_PER_BIT = 4
# A batch holds about ANNEAL_BATCH_ENTRIES * n / (mean degree) vertices,
# whose rows hold that many times n CSR entries: 1283 vertices at d = 25,
# 80 at d = 400 (250 with the floor below).  At 2 a d = 400 run took
# 0.58 s against 0.23 s.  At 32, without the cap below, the d = 25 batch
# was the whole graph, whose moves all at once oscillate: the quench fell
# back to single moves for 3.6 s a run.
ANNEAL_BATCH_ENTRIES = 8
# So a batch holds at most half the graph, unless the graph has at most
# ANNEAL_BATCH_MIN vertices, which go in one batch: one sweep is then a
# few numpy calls, and a quench of single moves costs little.  With whole
# batches G(4000, d = 5) left 3198 of 4000 vertices moving in its last
# hot sweep and fell back to single moves 1210 times, reading 0.975 in
# 1.75 s; half batches read 1.008 in 0.09 s (1.003 against 0.961 at
# n = 1000, d = 4).
ANNEAL_BATCH_MIN = 64
# And at least ceil(n / ANNEAL_BATCH_SHARE) vertices, which binds only
# above a mean degree of about ANNEAL_BATCH_ENTRIES * ANNEAL_BATCH_SHARE
# = 128: at d = 400 a batch of 80 vertices paid more in its fixed numpy
# calls than in arithmetic.  On G(4000, d = 400), seeds 1-4, the mean of
# min-of-5 run times, q*sqrt(d) and quench rounds were, for no floor,
# n/32, n/24, n/16, n/12 and n/8: 0.164 s, 0.166, 0.123, 0.116, 0.102,
# 0.115; 0.8359, 0.8397, 0.8367, 0.8372, 0.8376, 0.8388; at most 26, 55,
# 8, 14, 10, 33 rounds.  heuristic_modularity's traced peak on G(4000,
# 0.1) grows with the batch: 1.89 MiB without a floor, 2.95 at n/16,
# and 3.67 at n/12, over the 3 MiB the tests allow.
ANNEAL_BATCH_SHARE = 16
# T falls geometrically from ANNEAL_T_HOT * 4m to ANNEAL_T_COLD * 4m, 4m
# being dN's worth of one edge.  A hot end of 0.5, 2, 8 read 0.953, 0.964,
# 0.951 at d = 25; a cold end of 0.005, 0.02, 0.08 read 0.950, 0.964,
# 0.972 at d = 25 but found 54, 54, 52 desk optima.
ANNEAL_T_HOT = 2.0
ANNEAL_T_COLD = 0.02


class Partition:
    """A decomposition of {1..n} into disjoint nonempty blocks, held as
    the canonical label array `labels` (read-only int64, length n)."""

    def __init__(self, labels):
        """Vertex v goes in the block labelled `labels[v-1]`; any integer
        labels, renumbered canonically."""
        lab = np.asarray(labels)
        if lab.ndim != 1 or lab.size == 0 or lab.dtype.kind not in "iu":
            raise ValidationError("a partition needs one integer label per vertex")
        # numbering labels by first appearance numbers blocks by smallest
        # member: each label becomes the rank of its first index
        _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        self.labels = rank[inverse]
        self.labels.flags.writeable = False
        self.n = len(lab)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Partition from its blocks, which must be nonempty, disjoint,
        free of repeated members and cover 1..n."""
        (n,) = require_ints(1, n=n)
        lab = np.full(n, -1, dtype=np.int64)
        for i, block in enumerate(blocks):
            members = list(block)
            if not members:
                raise ValidationError("empty block")
            if not all(isinstance(v, (int, np.integer)) and 1 <= v <= n
                       for v in members):
                raise ValidationError(f"block members must lie in 1..{n}")
            if len(set(members)) < len(members):
                raise ValidationError("a block repeats a vertex")
            idx = np.array(members, dtype=np.int64) - 1
            if (lab[idx] >= 0).any():
                raise ValidationError("blocks overlap")
            lab[idx] = i
        if (lab < 0).any():
            raise ValidationError("blocks do not cover 1..n")
        return cls(lab)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n))

    @property
    def k(self) -> int:
        """Number of blocks."""
        return int(self.labels.max()) + 1

    def canonical_blocks(self) -> list[list[int]]:
        """Blocks as sorted lists, ordered by smallest member."""
        # stable: members stay ascending within a block
        order = np.argsort(self.labels, kind="stable") + 1
        ends = np.cumsum(np.bincount(self.labels))
        return [b.tolist() for b in np.split(order, ends[:-1])]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash(self.labels.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class ModularityResult:
    score: float
    partition: Partition
    method: str  # exact | heuristic | components | bisection | trivial


def _block_stats(G: Graph, P: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e_in, e_cross, vol) per block as exact int64 arrays, from one
    sliced pass over the CSR entries, which see each edge from both ends:
    2 e(S) sums the vertices' neighbours in their own block over S,
    vol(S) sums their degrees and e(S,Sbar) = vol(S) - 2 e(S)."""
    if P.n != G.n:
        raise ValidationError(f"partition over [{P.n}], graph over [{G.n}]")
    if G.m > SCORE_M_CAP:
        raise CapExceeded("score edge count m", G.m, SCORE_M_CAP)
    e_in = np.zeros(P.k, dtype=np.int64)
    vol = np.zeros(P.k, dtype=np.int64)
    np.add.at(e_in, P.labels, _inner_degrees(G, P.labels))
    np.add.at(vol, P.labels, G.degrees)
    e_in //= 2
    return e_in, vol - 2 * e_in, vol


def _over_4m2(numerator, m: int) -> float:
    """A score from its exact integer numerator: numerator / (4 m^2), and
    0 for a graph without edges, the zero-edge convention of every score."""
    return int(numerator) / (4 * m * m) if m else 0.0


def score_definition(G: Graph, P: Partition) -> float:
    """Modularity score, definition form. Zero-edge graphs score 0."""
    with trace.stage("score_definition"):
        e_in, _, vol = _block_stats(G, P)
        return _over_4m2((4 * G.m * e_in - vol * vol).sum(), G.m)


def score_edge_form(G: Graph, P: Partition) -> float:
    """Modularity score, edge form: per-block (4 e(S)e(Sbar) - e(S,Sbar)^2)."""
    with trace.stage("score_edge_form"):
        e_in, cross, _ = _block_stats(G, P)
        e_out = G.m - e_in - cross
        return _over_4m2((4 * e_in * e_out - cross * cross).sum(), G.m)


def exact_modularity(G: Graph) -> ModularityResult:
    """True maximum modularity by a dynamic program over vertex subsets.

    f(S) is the best numerator sum over partitions of S: the block of S's
    lowest vertex, plus f of what is left (O(3^n) work in all).  Ties go
    to the first maximizer in restricted-growth-string order, i.e. to the
    block owning the lowest vertex on which two candidates differ.

    Masks are processed one popcount layer at a time, since a mask only
    reads masks with fewer members, in chunks of at most EXACT_CELLS
    candidate blocks.  Each chunk's candidates (low bit | every submask of
    the rest) are built by doubling, and one argmax over
    score * 2^n + bit_reversal(block) takes the best score and, among
    equal scores, the block RGS order reaches first.  n is refused above
    EXACT_CAP_MAX.
    """
    n = G.n
    if n > EXACT_CAP_MAX:
        raise CapExceeded("exact_modularity n", n, EXACT_CAP_MAX)
    m = G.m
    if m == 0:
        return ModularityResult(0.0, Partition.trivial(n), "exact")
    vol = subset_volumes(G)
    w = 4 * m * subset_edges(G) - vol * vol
    rev = bit_reversal(n)
    pc = np.bitwise_count(np.arange(1 << n))
    # stable: a radix sort on the 8-bit popcounts
    by_layer = np.argsort(pc, kind="stable")
    ends = np.cumsum(np.bincount(pc))
    f = np.zeros(1 << n, dtype=np.int64)
    choice = np.zeros(1 << n, dtype=np.int64)
    for k in range(1, n + 1):
        layer = by_layer[ends[k - 1]:ends[k]]
        width = 1 << (k - 1)
        rows = max(1, EXACT_CELLS // width)
        for lo in range(0, len(layer), rows):
            masks = layer[lo:lo + rows]
            rest = masks & (masks - 1)
            blk = np.empty((len(masks), width), dtype=np.int64)
            blk[:, 0] = masks ^ rest
            h = 1
            while h < width:
                bit = rest & -rest
                rest = rest ^ bit
                blk[:, h:2 * h] = blk[:, :h] | bit[:, None]
                h *= 2
            cand = w[blk] + f[masks[:, None] ^ blk]
            best = np.argmax(cand * (1 << n) + rev[blk], axis=1)
            r = np.arange(len(masks))
            f[masks] = cand[r, best]
            choice[masks] = blk[r, best]
    labels = np.empty(n, dtype=np.int64)
    mask = (1 << n) - 1
    while mask:
        blk = int(choice[mask])
        labels[[v for v in range(n) if blk >> v & 1]] = blk
        mask ^= blk
    return ModularityResult(_over_4m2(f[-1], m), Partition(labels), "exact")


def score_components(G: Graph) -> ModularityResult:
    """Score of the connected-components partition."""
    P = Partition(component_roots(G))
    return ModularityResult(score_definition(G, P), P, "components")


# ---------------------------------------------------------------------------
# Heuristic maximization: heat-bath annealing of k labels, then a quench.


def _gumbel(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel noise from the uniforms u in [0, 1), in place:
    numpy's own transform -log(-log(1 - u)), the one rng.gumbel applies to
    the same draws, as five whole-array ufuncs.  1 - u is exact for numpy's
    53-bit uniforms; the vectorised log may round differently from the
    scalar libm log rng.gumbel calls, which moves a value by at most about
    one unit in the last place of max(|value|, 1).  At u == 0 (probability
    2^-53 a draw) rng.gumbel draws again, but this gives +inf, which can
    only make its label the argmax."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    return np.negative(u, out=u)


def _anneal_batch(n: int, m: int) -> int:
    """Vertices per batch of the annealer's sweeps and quench on a graph of
    n vertices and m >= 1 edges: about ANNEAL_BATCH_ENTRIES n / (mean
    degree), but at least ceil(n / ANNEAL_BATCH_SHARE), at most half the
    graph, and the whole graph up to ANNEAL_BATCH_MIN vertices."""
    entries = round(ANNEAL_BATCH_ENTRIES * n * n / (2 * m))
    return max(min(max(entries, -(-n // ANNEAL_BATCH_SHARE)), (n + 1) // 2),
               min(n, ANNEAL_BATCH_MIN))


def _anneal_labels(G: Graph, rngs: list, run: dict) -> np.ndarray:
    """One annealing run per generator in `rngs`, side by side, on a
    graph with edges: an (R, n) array of labels, row r drawn from
    rngs[r] alone.  Writes the trace record `run`, whose lists hold one
    entry per run.

    The R runs are replicas of G, vertex v of replica r at x = r n + v - 1,
    so each numpy call serves every run.  Labels start uniform in
    0..k-1, k = min(ANNEAL_K, n).  `K[x, c]` is x's edge count into label c
    and `vol[r, c]` the volume of c in replica r.  Moving x from a to c
    changes its replica's score numerator by
    dN = 4m (K[x,c] - K[x,a]) - 2 d_x (vol_c - vol_a + d_x); dropping the
    terms that do not depend on c, x scores s_c = 4m K[x,c] - 2 d_x vol_c,
    plus 2 d_x^2 at c = a, so dN = s_c - s_a.  Each sweep cuts a fresh
    permutation per replica into batches of _anneal_batch(n, m) vertices.
    A batch's moves are drawn at once from the current K and vol, by
    Gumbel-max over s / T, and applied together.  T falls geometrically
    from ANNEAL_T_HOT 4m to ANNEAL_T_COLD 4m over the sweeps.  Each
    sweep's noise is rng.random((n, k)) from each run's generator, turned
    into Gumbel variates in place by _gumbel: the stream and formula of
    rng.gumbel, but for the last bit of the log's rounding.  A uniform of
    0, which rng.gumbel would draw again, gives +inf noise; that can only
    pick its label, and every score stays exact, since s is an integer and
    the labels are scored afresh.

    The quench that follows moves each vertex of a batch to its best
    label if that has dN > 0.  A replica's moves in a batch are applied
    together only if they raise its exact numerator jointly; otherwise
    just its single best move is.  So every quench step raises an integer
    numerator below 4m^2, and a replica's quench ends on its first sweep
    without a move.
    """
    R, n, m = len(rngs), G.n, G.m
    k = min(ANNEAL_K, n)
    deg = np.tile(G.degrees, R)
    labels = np.concatenate([rng.integers(k, size=n) for rng in rngs])
    K = np.empty((R * n, k), dtype=np.int64)
    for r0, r1 in _row_slices(G.indptr, k):
        s, e = G.indptr[r0], G.indptr[r1]
        cell = np.repeat(np.arange(0, (r1 - r0) * k, k), G.degrees[r0:r1])
        for x0 in range(0, R * n, n):
            K[x0 + r0:x0 + r1] = np.bincount(cell + labels[x0 + G.indices[s:e]],
                                             minlength=(r1 - r0) * k).reshape(r1 - r0, k)
    flat = K.reshape(-1)
    vol = np.zeros((R, k), dtype=np.int64)
    np.add.at(vol, (np.arange(R * n) // n, labels), deg)
    batch = _anneal_batch(n, m)
    sweeps = ANNEAL_SWEEPS_PER_BIT * n.bit_length()
    cells = np.arange(0, R * batch * k, k)
    twice_deg = 2 * deg
    twice_deg_sq = twice_deg * deg
    in_batch = np.zeros(R * n, dtype=bool)

    def scores(X, rep):
        """s for the (R', b) replica vertices X of the replicas `rep`, and
        their labels."""
        a = labels[X]
        s = np.take(K, X, axis=0)
        s *= 4 * m
        s -= twice_deg[X][..., None] * vol[rep, None]
        s.reshape(-1)[cells[:a.size] + a.reshape(-1)] += twice_deg_sq[X].reshape(-1)
        return s, a

    def shift(row, X, a, c, w):
        """Move the replica vertices X, whose vol rows are `row` and whose
        _neighbours are w, from labels a to c in vol, K and labels."""
        d = deg[X]
        np.subtract.at(vol, (row, a), d)
        np.add.at(vol, (row, c), d)
        wk = w * k
        np.subtract.at(flat, wk + np.repeat(a, d), 1)
        np.add.at(flat, wk + np.repeat(c, d), 1)
        labels[X] = c

    def joint_gains(rep, row, X, a, c, w) -> list[int]:
        """For each replica of `rep`, the exact change of its numerator
        4m E_in - sum vol^2 if all of its X (at `row` in rep) move
        together; an edge inside X is seen from both of its ends."""
        d = deg[X]
        was = labels[w] == np.repeat(a, d)
        labels[X] = c
        now = labels[w] == np.repeat(c, d)
        labels[X] = a
        in_batch[X] = True
        # float sums of integers below 2^53 are exact
        twice_e_in = np.bincount(np.repeat(row, d),
                                 (now.astype(np.int64) - was) * (2 - in_batch[w]), len(rep))
        in_batch[X] = False
        before = vol[rep]
        after = before.copy()
        np.subtract.at(after, (row, a), d)
        np.add.at(after, (row, c), d)
        return [2 * m * int(t) - y + z for t, y, z in
                zip(twice_e_in, (after * after).sum(1).tolist(),
                    (before * before).sum(1).tolist())]

    every = np.arange(R)
    offsets = every[:, None] * n
    for sweep, T in enumerate(4 * m * np.geomspace(ANNEAL_T_HOT, ANNEAL_T_COLD, sweeps), 1):
        if sweep == sweeps:  # hot_moves counts the moves of the last sweep
            start = labels.copy()
        orders = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        noise = _gumbel(np.stack([rng.random((n, k)) for rng in rngs]))
        for lo in range(0, n, batch):
            X = orders[:, lo:lo + batch]
            s, a = scores(X, every)
            hot = s / T
            hot += noise[:, lo:lo + batch]
            c = np.argmax(hot, axis=2)
            go = c != a
            if go.any():
                row = go.nonzero()[0]
                shift(row, X[go], a[go], c[go], _neighbours(G, X[go]))
    hot_moves = np.count_nonzero((labels != start).reshape(R, n), axis=1)
    rounds, fallbacks = np.zeros(R, dtype=np.int64), np.zeros(R, dtype=np.int64)
    live = every
    while len(live):
        rounds[live] += 1
        orders = np.stack([rngs[r].permutation(n) for r in live]) + offsets[live]
        moved = np.zeros(len(live), dtype=bool)
        for lo in range(0, n, batch):
            X = orders[:, lo:lo + batch]
            s, a = scores(X, live)
            own = s.reshape(-1)[cells[:a.size] + a.reshape(-1)].reshape(a.shape)
            gain = s.max(axis=2) - own
            go = gain > 0
            if not go.any():
                continue
            c = np.argmax(s, axis=2)
            row = go.nonzero()[0]
            w = _neighbours(G, X[go])
            joint = joint_gains(live, row, X[go], a[go], c[go], w)
            bad = [i for i in set(row.tolist()) if joint[i] <= 0]
            if bad:
                go[bad] = False
                go[bad, np.argmax(gain[bad], axis=1)] = True
                fallbacks[live[bad]] += 1
                row = go.nonzero()[0]
                w = _neighbours(G, X[go])
            shift(live[row], X[go], a[go], c[go], w)
            moved[row] = True
        live = live[moved]
    run.update(k=k, sweeps=sweeps, batch=batch, hot_moves=hot_moves.tolist(),
               quench_rounds=rounds.tolist(), fallbacks=fallbacks.tolist())
    return labels.reshape(R, n)


def heuristic_modularity(G: Graph, seed: int = 0, budget: int = 3) -> ModularityResult:
    """Heuristic lower estimate of mod(G): best of the trivial partition,
    the components partition, and `budget` seeded annealing runs, run r
    drawing from generator(trial_seed(seed, r)) alone.

    The returned score is the exact score of a real partition, hence
    never exceeds the true modularity.  On a graph without edges every
    candidate scores 0 and the trivial partition is returned.
    """
    (budget,) = require_ints(1, budget=budget)
    if G.m > SCORE_M_CAP:
        raise CapExceeded("score edge count m", G.m, SCORE_M_CAP)
    with trace.stage("heuristic") as record:
        candidates: list[ModularityResult] = [
            ModularityResult(0.0, Partition.trivial(G.n), "trivial"),
            score_components(G),
        ]
        if G.m:
            with trace.stage("anneal") as run:
                runs = _anneal_labels(
                    G, [generator(trial_seed(seed, r)) for r in range(budget)], run)
            for labels in runs:
                P = Partition(labels)
                candidates.append(ModularityResult(score_definition(G, P), P, "heuristic"))
        i, best = max(enumerate(candidates), key=lambda c: c[1].score)
        record.update(method=best.method, run=i - 2 if i >= 2 else None)
    return best


# ---------------------------------------------------------------------------
# Partition text format: one line per block, blocks sorted by smallest member.


def block_lines(P: Partition) -> list[str]:
    """The blocks of P, one space-separated line each."""
    return [" ".join(str(v) for v in block) for block in P.canonical_blocks()]


def write_partition(P: Partition, out: TextIO) -> None:
    out.writelines(line + "\n" for line in block_lines(P))


def read_partition(inp: TextIO, n: int) -> Partition:
    blocks = []
    for line in inp:
        line = line.strip()
        if not line:
            continue
        blocks.append(_parse_ints(line.split(), "partition line"))
    return Partition.of(blocks, n)
