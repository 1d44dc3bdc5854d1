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
heuristic is a local-move + merge scheme (Louvain) that always returns
the score of a genuine partition, hence a lower bound on the true
modularity.

Louvain runs on CSR arrays, one level graph per merge.  A node v with
weighted degree d_v joins the neighbouring community c that maximises
the integer gain 2m k_c - d_v vol_c (k_c: v's edge weight into c,
vol_c: c's volume without v), so every comparison is exact; the gains
lie within +-4m^2, which SCORE_M_CAP keeps inside int64.  Ties go to
staying put, then to the community that appears first in v's row.  A
row of at least NUMPY_ROW_MIN neighbours is scored with numpy, a
shorter one with a dict loop; both give the same choice, and the
threshold only sets the speed (the two cost the same at 36-48
neighbours in G(2000, d) on a 2-vCPU box).

Late sweeps move few nodes, so once a level's sweeps settle it builds a
stay table and checks whole windows of the sweep order against it at
once: a node stays put iff no neighbouring community's gain beats its
stay gain, which is the visit's own move condition on the same integers.
Only the first node it cannot clear gets the exact visit, which then
always moves it, so the visit order, the state and the labels are those
of visiting every node.  There are two tables, and _stay_table_kind
picks one from the level's size.  A level with so few communities that a
node x community table of edge weights is no larger than its CSR keeps
that dense table (_StayTable), built after a sweep that moved at most a
quarter of its nodes (STAY_MOVED_SHARE); its columns are the
communities present when it is built, which is why it waits for the busy
first sweeps to end.  A wider level keeps per-node slots instead
(_SlotTable): node v's weight into each community among its neighbours,
at most min(deg(v), k) of them, built only after a sweep that moved at
most 1/16 of its nodes (SLOT_MOVED_SHARE).  Each table wins on its own
levels.  A slot move searches every neighbour's row: on the corridor-d400
graph (n = 4000, d = 400) one took 93 us against 15 us for the dense
table's two-column update, and with slots alone one Louvain run took
0.86 s against 0.45 s.  The dense table does not fit a level of
thousands of communities, whose late sweeps the slots clear in bulk.

The two bulk passes over a level's CSR, building the table and merging
the level into the next (_coarsen), read it in row slices of about
CSR_SLICE entries, so their temporaries do not grow with the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import CapExceeded, ValidationError
from .graph import (Graph, _parse_ints, bit_reversal, component_roots, subset_edges,
                    subset_volumes)
from .rng import generator, trial_seed

# exact_modularity refuses n above this.  The DP's 3^n/2 candidate
# blocks took 32 s at n = 20 on a 2-vCPU box, with a tracemalloc peak of
# 82 MiB; each further vertex triples the time.
EXACT_CAP_MAX = 20
# Candidate blocks scored at once by exact_modularity; a chunk's arrays
# hold this many int64 each, or one row of 2^(n-1) if that is more.
EXACT_CELLS = 1 << 18
# Every partial sum of a score numerator lies within +-4 m^2, which must
# fit in int64.
SCORE_M_CAP = 1_518_500_249  # largest m with 4 m^2 < 2^63
# Louvain scores a row of at least this many neighbours with numpy
# (bincount + gain vector, about 10 us per visit at any length) and a
# shorter one with a dict loop, whose cost grows with the row.
NUMPY_ROW_MIN = 48
# The stay table checks at least this many nodes of a sweep at once: a
# check's fixed numpy cost is about that of 30 more rows.
STAY_WINDOW_MIN = 32
# A level builds its stay table only after a sweep in which at most
# 1/STAY_MOVED_SHARE of its nodes moved: the table's columns are the
# communities present when it is built, and each later check pays for
# every column.
STAY_MOVED_SHARE = 4
# A level too wide for the dense stay table builds the slot table instead,
# only after a sweep in which at most 1/SLOT_MOVED_SHARE of its nodes
# moved: on G(4000, d=25) a slot move took about 35 us against about 5 us
# for a dict visit, and with this share at 2, 4 or 8 one Louvain run there
# took 0.77-0.82 s against 0.38 s at 16 (2-vCPU box).
SLOT_MOVED_SHARE = 16
# Louvain's bulk passes over a level's CSR (coarsening, building the
# stay table) read it in row slices of about this many entries, so their
# temporaries stay O(CSR_SLICE) whatever the level's size.
CSR_SLICE = 1 << 16
_NO_GAIN = np.iinfo(np.int64).min


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
        # member.  After a stable sort each label's run starts at its first
        # appearance.  (Only stable sorts: np.unique and numpy's default
        # sort page in about 0.4 MiB more of numpy's code on first use.)
        order = np.argsort(lab, kind="stable")
        srt = lab[order]
        starts = np.empty(len(lab), dtype=bool)
        starts[0] = True
        np.not_equal(srt[1:], srt[:-1], out=starts[1:])
        first = order[starts]
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(first))
        self.labels = np.empty(len(lab), dtype=np.int64)
        self.labels[order] = rank[np.cumsum(starts) - 1]
        self.labels.flags.writeable = False
        self.n = len(lab)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Partition from its blocks, which must be nonempty, disjoint,
        free of repeated members and cover 1..n."""
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
    pass over the CSR entries, which see each edge from both ends: vol(S)
    counts the entries in S's rows and e(S,Sbar) = vol(S) - 2 e(S)."""
    if P.n != G.n:
        raise ValidationError(f"partition over [{P.n}], graph over [{G.n}]")
    if G.m > SCORE_M_CAP:
        raise CapExceeded("score edge count m", G.m, SCORE_M_CAP)
    lu = np.repeat(P.labels, G.degrees)
    e_in = np.bincount(lu[lu == P.labels[G.indices]], minlength=P.k) // 2
    vol = np.bincount(lu, minlength=P.k)
    return e_in, vol - 2 * e_in, vol


def score_definition(G: Graph, P: Partition) -> float:
    """Modularity score, definition form. Zero-edge graphs score 0."""
    e_in, _, vol = _block_stats(G, P)
    m = G.m
    if m == 0:
        return 0.0
    return int((4 * m * e_in - vol * vol).sum()) / (4 * m * m)


def score_edge_form(G: Graph, P: Partition) -> float:
    """Modularity score, edge form: per-block (4 e(S)e(Sbar) - e(S,Sbar)^2)."""
    e_in, cross, _ = _block_stats(G, P)
    m = G.m
    if m == 0:
        return 0.0
    e_out = m - e_in - cross
    return int((4 * e_in * e_out - cross * cross).sum()) / (4 * m * m)


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
    return ModularityResult(int(f[-1]) / (4 * m * m), Partition(labels), "exact")


def score_components(G: Graph) -> ModularityResult:
    """Score of the connected-components partition."""
    if G.m < 1:
        raise ValidationError("score_components needs at least one edge")
    P = Partition(component_roots(G))
    return ModularityResult(score_definition(G, P), P, "components")


# ---------------------------------------------------------------------------
# Heuristic maximization: greedy local moves + block merges, with restarts.


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


class _Table:
    """What both stay tables share: the level's own `comm` and `vol`
    arrays, read in place, and the windowed check of a sweep order.  A
    table gives `_moving(w)`, the positions in the node array `w` of the
    nodes whose best neighbouring community's gain 2m k_c - d_v vol_c
    beats their stay gain on the current state, ascending."""

    def __init__(self, strength, comm, vol, two_m):
        self.strength, self.comm, self.vol, self.two_m = strength, comm, vol, two_m
        self.win = STAY_WINDOW_MIN

    def unproven(self, order: np.ndarray):
        """Yield the nodes of `order` that the table cannot prove stay put,
        each judged on the state left by the move of the one before.

        A window of the order is checked at once; every node before its
        first unproven one stays.  The window doubles after a window in
        which all stay and shrinks to the gap before the last move, but
        never below STAY_WINDOW_MIN.
        """
        i = 0
        while i < len(order):
            w = order[i:i + self.win]
            moves = self._moving(w)
            if len(moves) == 0:
                i += len(w)
                self.win *= 2
                continue
            j = int(moves[0])
            yield int(w[j])
            i += j + 1
            self.win = max(j + 1, STAY_WINDOW_MIN)


class _StayTable(_Table):
    """Each node's edge weight into each community of one level, for
    levels with few communities.

    Column j stands for the community `cols[j]`, the j-th one present
    when the table is built; within a level communities only empty, so
    the columns stay valid.  `K[v, j]` is v's int64 edge weight into
    column j, written one slice of rows at a time; `move` keeps it
    current.
    """

    def __init__(self, indptr, indices, weights, strength, comm, vol, two_m):
        super().__init__(strength, comm, vol, two_m)
        nnodes = len(strength)
        present = np.zeros(nnodes, dtype=bool)
        present[comm] = True
        self.cols = np.flatnonzero(present)
        self.colmap = np.cumsum(present) - 1  # community -> column
        k = len(self.cols)
        self.K = np.empty((nnodes, k), dtype=np.int64)
        for r0, r1 in _row_slices(indptr, k):
            s, e = indptr[r0], indptr[r1]
            row = np.repeat(np.arange(r1 - r0), np.diff(indptr[r0:r1 + 1]))
            cells = np.bincount(row * k + self.colmap[comm[indices[s:e]]],
                                None if weights is None else weights[s:e],
                                minlength=(r1 - r0) * k)
            # float sums of integers below 2^53 are exact
            self.K[r0:r1] = cells.reshape(r1 - r0, k)

    def _moving(self, w):
        Kw = self.K[w]
        dv = self.strength[w]
        own = self.colmap[self.comm[w]]
        cvol = self.vol[self.cols]
        gain = self.two_m * Kw - dv[:, None] * cvol
        best = np.where(Kw > 0, gain, _NO_GAIN).max(axis=1)
        stay = self.two_m * Kw[np.arange(len(w)), own] - dv * (cvol[own] - dv)
        return np.flatnonzero(best > stay)

    def move(self, a: int, b: int, nbrs: np.ndarray, wts) -> None:
        """A node with neighbours `nbrs` at edge weights `wts` moved from
        community a to community b."""
        self.K[nbrs, self.colmap[a]] -= wts
        self.K[nbrs, self.colmap[b]] += wts


class _SlotTable(_Table):
    """Each node's edge weight into each of its neighbouring communities,
    for levels with too many communities for _StayTable.

    Node v owns the slots sptr[v] .. sptr[v+1]-1, min(deg(v), k) of them
    for the k communities present when the table is built: v's
    neighbours lie in at most that many communities, since within a level
    communities only empty.  Its first `used[v]` slots hold, in no fixed
    order, each community c with a neighbour of v (`scomm`, int32) and
    v's positive int64 edge weight into c (`sw`), so a node without
    neighbours has no slots and never moves.
    """

    def __init__(self, indptr, indices, weights, strength, comm, vol, two_m):
        super().__init__(strength, comm, vol, two_m)
        nnodes = len(strength)
        k = np.count_nonzero(np.bincount(comm))
        deg = np.diff(indptr)
        self.sptr = np.zeros(nnodes + 1, dtype=np.int64)
        np.cumsum(np.minimum(deg, k), out=self.sptr[1:])
        self.scomm = np.empty(self.sptr[-1], dtype=np.int32)
        self.sw = np.empty(self.sptr[-1], dtype=np.int64)
        self.used = np.zeros(nnodes, dtype=np.int64)
        for r0, r1 in _row_slices(indptr):
            s, e = indptr[r0], indptr[r1]
            if s == e:
                continue
            # one run of equal keys per (row, community); the key is summed
            # and sorted in place and its runs marked with bools, since each
            # slice-long int64 temporary showed in corridor-d25's peak RSS
            key = np.repeat(np.arange(r0, r1) * nnodes, deg[r0:r1])
            key += comm[indices[s:e]]
            if weights is None:
                key.sort(kind="stable")
            else:
                order = np.argsort(key, kind="stable")
                key = key[order]
            run = np.empty(len(key), dtype=bool)
            run[0] = True
            np.not_equal(key[1:], key[:-1], out=run[1:])
            starts = np.flatnonzero(run)
            if weights is None:
                wsum = np.diff(starts, append=len(key))
            else:
                wsum = np.add.reduceat(weights[s:e][order], starts)
            key = key[starts]
            row, c = np.divmod(key, nnodes)
            used = np.bincount(row - r0, minlength=r1 - r0)
            self.used[r0:r1] = used
            first = np.cumsum(used) - used  # each row's first run
            at = self.sptr[row] + np.arange(len(starts)) - first[row - r0]
            self.scomm[at] = c
            self.sw[at] = wsum

    def _slots(self, nodes, used):
        """The used slots of `nodes` (each with `used` > 0), node by node,
        and where each node's run starts among them."""
        seg = np.cumsum(used) - used
        return np.repeat(self.sptr[nodes] - seg, used) + np.arange(seg[-1] + used[-1]), seg

    def _moving(self, w):
        u = self.used[w]
        live = np.flatnonzero(u)
        if len(live) == 0:
            return live
        w, u = w[live], u[live]
        slots, seg = self._slots(w, u)
        c = self.scomm[slots]
        kc = self.sw[slots]
        dv = self.strength[w]
        a = self.comm[w]
        best = np.maximum.reduceat(self.two_m * kc - np.repeat(dv, u) * self.vol[c], seg)
        own = np.add.reduceat(np.where(c == np.repeat(a, u), kc, 0), seg)
        stay = self.two_m * own - dv * (self.vol[a] - dv)
        return live[best > stay]

    def move(self, a: int, b: int, nbrs: np.ndarray, wts) -> None:
        """A node with neighbours `nbrs` at edge weights `wts` moved from
        community a to community b.  Every neighbour's row holds a slot
        for a; a slot that drops to 0 is freed, to b if the row has no
        slot for b, else by moving the row's last used slot into it."""
        slots, seg = self._slots(nbrs, self.used[nbrs])
        c = self.scomm[slots]
        sa = slots[c == a]
        isb = c == b
        hasb = np.logical_or.reduceat(isb, seg)
        wts = np.broadcast_to(wts, nbrs.shape)
        self.sw[sa] -= wts
        self.sw[slots[isb]] += wts[hasb]
        freed = self.sw[sa] == 0
        take = freed & ~hasb
        self.scomm[sa[take]] = b
        self.sw[sa[take]] = wts[take]
        grow = ~(freed | hasb)
        rows = nbrs[grow]
        at = self.sptr[rows] + self.used[rows]
        self.scomm[at] = b
        self.sw[at] = wts[grow]
        self.used[rows] += 1
        drop = freed & hasb
        rows = nbrs[drop]
        self.used[rows] -= 1
        last = self.sptr[rows] + self.used[rows]
        self.scomm[sa[drop]] = self.scomm[last]
        self.sw[sa[drop]] = self.sw[last]


def _stay_table_kind(nnodes: int, k: int, nnz: int, moved: int):
    """The stay table class a level of `nnodes` nodes, `k` communities
    and `nnz` CSR entries builds before its next sweep, or None for no
    table yet, `moved` nodes having moved in the sweep before (all of
    them before the first).

    Both tables wait for the busy first sweeps to end: _StayTable's
    columns are fixed when it is built, and a _SlotTable move costs
    several dict visits.  A level takes _StayTable only if the
    table is no larger than its CSR (nnodes * k <= nnz), after a sweep
    that moved at most 1/STAY_MOVED_SHARE of its nodes, and _SlotTable
    otherwise, after one that moved at most 1/SLOT_MOVED_SHARE."""
    if nnodes * k <= nnz:
        return _StayTable if moved * STAY_MOVED_SHARE <= nnodes else None
    return _SlotTable if moved * SLOT_MOVED_SHARE <= nnodes else None


def _local_move_level(indptr: np.ndarray, indices: np.ndarray, weights,
                      strength: np.ndarray, two_m: int, rng) -> np.ndarray:
    """One level of greedy moves to a fixed point: each node, in a fresh
    random order per sweep, joins the neighbouring community with the
    largest exact integer gain 2m k_c - d_v vol_c, if that is strictly
    larger than the gain of staying put; among equal gains the community
    first seen in the node's row wins.

    The level graph is a CSR triple without self loops (`weights` None
    means all ones); `strength` holds each node's int64 weighted degree,
    self loops included.  A row of NUMPY_ROW_MIN or more neighbours is
    scored by numpy (bincount, gain vector, first-position argmax), a
    shorter one by a dict loop in row order.  Returns each node's
    community (a node index).

    Before each sweep, until it has one, the level asks _stay_table_kind
    which stay table to build, if any, given the nodes moved in the sweep
    before; the first sweep follows none, so it counts as every node
    moving.  From then on the table skips the nodes it proves stay put
    and hands on the others in sweep order.  Its test is the move
    condition above, so each node handed on must move and each node
    skipped would have stayed: the sweeps draw the same permutations and
    make the same moves as visiting every node, and a handed-on node that
    stays is an internal error.
    """
    nnodes = len(strength)
    comm = np.arange(nnodes)
    vol = strength.copy()
    # list mirrors: the dict path reads Python ints, the numpy path arrays;
    # the row lists are built only if some row takes the dict path
    comm_l, vol_l, str_l = comm.tolist(), vol.tolist(), strength.tolist()
    ptr = indptr.tolist()
    idx_l = wt_l = None
    if (np.diff(indptr) < NUMPY_ROW_MIN).any():
        idx_l = indices.tolist()
        wt_l = None if weights is None else weights.tolist()
    table = None
    moved = nnodes  # the first sweep follows none
    while moved:
        order = rng.permutation(nnodes)
        if table is None:
            kind = _stay_table_kind(nnodes, np.count_nonzero(np.bincount(comm)),
                                    len(indices), moved)
            if kind is not None:
                table = kind(indptr, indices, weights, strength, comm, vol, two_m)
        moved = 0
        for v in order.tolist() if table is None else table.unproven(order):
            s, e = ptr[v], ptr[v + 1]
            if s == e:
                continue
            a = comm_l[v]
            dv = str_l[v]
            if e - s >= NUMPY_ROW_MIN:
                cr = comm[indices[s:e]]
                if weights is None:
                    kc = np.bincount(cr)
                else:  # float sums of integers below 2^53 are exact
                    kc = np.bincount(cr, weights[s:e]).astype(np.int64)
                stay = two_m * (int(kc[a]) if a < len(kc) else 0) - dv * (vol_l[a] - dv)
                # entries of a itself score stay - dv^2, so never win
                gains = two_m * kc[cr] - dv * vol[cr]
                j = int(gains.argmax())
                best_c = int(cr[j]) if gains[j] > stay else a
            else:
                kv: dict[int, int] = {}
                if weights is None:
                    for w in idx_l[s:e]:
                        c = comm_l[w]
                        kv[c] = kv.get(c, 0) + 1
                else:
                    for w, wt in zip(idx_l[s:e], wt_l[s:e]):
                        c = comm_l[w]
                        kv[c] = kv.get(c, 0) + wt
                best_c = a
                best_gain = two_m * kv.get(a, 0) - dv * (vol_l[a] - dv)
                for c, k in kv.items():
                    if c != a:
                        gain = two_m * k - dv * vol_l[c]
                        if gain > best_gain:
                            best_c, best_gain = c, gain
            if best_c != a:
                comm_l[v] = comm[v] = best_c
                vol_l[a] -= dv
                vol_l[best_c] += dv
                vol[a] -= dv
                vol[best_c] += dv
                moved += 1
                if table is not None:
                    table.move(a, best_c, indices[s:e],
                               1 if weights is None else weights[s:e])
            elif table is not None:
                raise RuntimeError(f"Louvain stay table flagged node {v}, which stays put")
    return comm


def _sum_by_key(key: np.ndarray, pos: np.ndarray, w):
    """The distinct values of `key` in ascending order, each with its
    first entry's `pos` and the sum of its entries' weights `w` (None:
    its entry count)."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    wsum = np.diff(starts, append=len(key)) if w is None else np.add.reduceat(w[order], starts)
    return key[starts], pos[order[starts]], wsum


def _coarsen(indptr: np.ndarray, indices: np.ndarray, weights,
             strength: np.ndarray, node: np.ndarray, k: int):
    """Collapse each level node into the coarse node `node[v]` (0..k-1).

    Coarse edge weights sum the fine ones and self loops are dropped.
    Each coarse row is ordered by where its entry first occurs in the
    fine CSR traversal, which keeps first-appearance tie-breaks stable.

    The fine CSR is read in row slices of about CSR_SLICE entries (see
    _row_slices), each reduced to its distinct coarse entries: key
    src * k + dst, first traversal position and summed weight.  One
    merge of the slices' entries then sums each key over the slices.
    """
    parts = []
    for r0, r1 in _row_slices(indptr):
        s, e = indptr[r0], indptr[r1]
        src = np.repeat(node[r0:r1], np.diff(indptr[r0:r1 + 1]))
        dst = node[indices[s:e]]
        off = np.flatnonzero(src != dst)
        key, first, wsum = _sum_by_key(src[off] * k + dst[off], off,
                                       None if weights is None else weights[s:e][off])
        parts.append((key, s + first, wsum))
    # the slices come in traversal order, so each key's first entry in
    # the merge is its first in the traversal
    key, first, wsum = _sum_by_key(*(np.concatenate(a) for a in zip(*parts)))
    csrc, cdst = np.divmod(key, k)
    rows = np.lexsort((first, csrc))
    new_indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(csrc, minlength=k), out=new_indptr[1:])
    new_strength = np.bincount(node, strength, minlength=k).astype(np.int64)
    return new_indptr, cdst[rows], wsum[rows], new_strength


def _louvain_labels(G: Graph, rng) -> np.ndarray:
    """Full local-move + merge hierarchy; returns the community of each
    vertex (0-indexed positions)."""
    indptr, indices, weights = G.indptr, G.indices, None
    strength = G.degrees
    two_m = 2 * G.m
    labels = np.arange(G.n)
    while True:
        comm = _local_move_level(indptr, indices, weights, strength, two_m, rng)
        present = np.zeros(len(strength), dtype=bool)
        present[comm] = True
        node = np.cumsum(present) - 1
        k = int(node[-1]) + 1
        if k == len(strength):
            break
        node = node[comm]
        indptr, indices, weights, strength = _coarsen(indptr, indices, weights,
                                                      strength, node, k)
        labels = node[labels]
        if k == 1:
            break
    return labels


def heuristic_modularity(G: Graph, seed: int = 0, budget: int = 3) -> ModularityResult:
    """Heuristic lower estimate of mod(G): best of the trivial partition,
    the components partition, and `budget` seeded local-move runs.

    The returned score is the exact score of a real partition, hence
    never exceeds the true modularity.
    """
    if budget < 1:
        raise ValidationError("budget (Louvain restarts) must be >= 1")
    if G.m < 1:
        raise ValidationError("heuristic_modularity needs at least one edge")
    if G.m > SCORE_M_CAP:  # the integer gains lie within +-4 m^2
        raise CapExceeded("score edge count m", G.m, SCORE_M_CAP)
    candidates: list[ModularityResult] = [
        ModularityResult(0.0, Partition.trivial(G.n), "trivial"),
        score_components(G),
    ]
    for r in range(budget):
        rng = generator(trial_seed(seed, r))
        P = Partition(_louvain_labels(G, rng))
        candidates.append(ModularityResult(score_definition(G, P), P, "heuristic"))
    return max(candidates, key=lambda r: r.score)


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
