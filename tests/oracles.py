"""Reference implementations, independent of the library's kernels.

Partitions are enumerated in restricted-growth-string order and scored
from the raw edge list in Python integers, so neither the enumeration
nor the arithmetic goes through gnpmod.  Exponential: keep n tiny.
Used by the tests and by scripts/freeze_exact_corpus.py.

`exact_modularity_dp` is the subset dynamic program run one mask at a
time in Python, `min_bisection_combinations` scans every balanced subset
in lexicographic order, and `jacobi_eigenvalues` is a cyclic Jacobi
eigensolver: the library's vectorised exact routines and its LAPACK
spectrum must agree with them.

`first_appearance_labels` numbers labels by first appearance with a
dict, as `Partition` must.

`lemma32_events_exhaustive` and `lemma32_events_sampled` are the Lemma
3.2 event checks with one array per subset and a per-trial dict tally;
they return the regime rows as (regime, k_min, k_max, trials, v1, v2,
v3) tuples, which the library's chunked tally must reproduce.

`gnp_edges_triu` draws G(n,p) one geometric gap per edge in a Python
loop and maps the pair indices through `np.triu_indices`, `csr_lexsort`
builds the CSR arrays by sorting every edge in both directions, and
`components_dfs` finds components by depth first search: the library's
chunked skip draw, its CSR builder and its label-propagation components
must give the same arrays and sets.

`best_restart` is the rule by which local search picks among its
restarts, on sorted member tuples: the library compares the boolean
sides directly and must pick the same cut and S.  `local_search_matrix`
is one restart that picks every swap from the full gain matrix of the
candidate vertices, rebuilding each side's D from the whole D array at
every swap, as the library did before it tried the two sides' first
maxima alone and kept each side's D in place; the library's restart must
end at the same side and cut after the same number of swaps.

`anneal_run` is one annealing run one vertex at a time: it recounts each
vertex's edges into each label from its neighbour list, and judges a
quench batch's joint move by scoring the whole partition before and
after in Python integers.  From the same generator the library's
batched table must reach the same labels, rounds and fallbacks.
"""

import math
from itertools import combinations

import numpy as np

from gnpmod.errors import ValidationError
from gnpmod.graph import subset_edges
from gnpmod.rng import generator, trial_seed

JACOBI_TOL = 1e-10


def gnp_edges_triu(n: int, p: float, seed: int) -> np.ndarray:
    """The (m, 2) 1-indexed edges of G(n,p) by a geometric skip draw, one
    rng.geometric(p) call per edge in a Python loop: walking the pairs in
    lexicographic order, each edge lies that many pairs past the last
    (the first that many minus one into the order), until a pair past
    the last one."""
    npairs = n * (n - 1) // 2
    rng = generator(seed)
    keep, at = [], -1
    while p > 0:
        at += int(rng.geometric(p))
        if at >= npairs:
            break
        keep.append(at)
    iu, iv = np.triu_indices(n, k=1)
    keep = np.array(keep, dtype=np.int64)
    return np.column_stack((iu[keep] + 1, iv[keep] + 1)).astype(np.int64)


def csr_lexsort(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the simple graph on the 1-indexed `edges`,
    which must be distinct u < v pairs: every edge in both directions,
    sorted by (row, column)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2) - 1
    rows = np.concatenate((e[:, 0], e[:, 1]))
    cols = np.concatenate((e[:, 1], e[:, 0]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def components_dfs(G) -> list[frozenset]:
    """Connected components as vertex sets, ordered by smallest member,
    by depth-first search over Python lists."""
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


def best_restart(n: int, runs) -> tuple[int, tuple[int, ...]]:
    """(cut, S) of the best of the restarts' (side, cut) runs: each side
    becomes its S block (the side holding vertex 1 for even n, the
    larger side for odd n) as a sorted vertex tuple, and the minimum over
    (cut, tuple) wins."""
    keys = []
    for side, cut in runs:
        if n % 2 == 0:
            chosen = side if side[0] else ~side
        else:
            chosen = side if side.sum() > n // 2 else ~side
        keys.append((cut, tuple(int(i) + 1 for i in np.nonzero(chosen)[0])))
    return min(keys)


def local_search_matrix(G, rng) -> tuple[np.ndarray, int, int]:
    """(side, cut, swaps) of one local-search restart that picks every
    swap from the full gain matrix gain[i, j] = D[a] + D[b] - 2*[a~b]
    over the vertices a, b within 2 of their side's largest D, taking
    its first maximum, until no gain is positive."""
    n = G.n
    u, v = G.edges[:, 0] - 1, G.edges[:, 1] - 1
    perm = rng.permutation(n)
    side = np.zeros(n, dtype=bool)
    side[perm[: (n + 1) // 2]] = True
    if G.m == 0:
        return side, 0, 0
    cross = side[u] != side[v]
    sign = np.where(cross, 1, -1)
    D = np.zeros(n, dtype=np.int64)
    np.add.at(D, u, sign)
    np.add.at(D, v, sign)
    cut = int(cross.sum())
    neg = np.int64(-(1 << 40))
    swaps = 0
    while True:
        DS = np.where(side, D, neg)
        DT = np.where(side, neg, D)
        cand_a = np.nonzero(DS >= DS.max() - 2)[0]
        cand_b = np.nonzero(DT >= DT.max() - 2)[0]
        gain = D[cand_a][:, None] + D[cand_b][None, :]
        for i, a in enumerate(cand_a):
            nbrs = G.indices[G.indptr[a]:G.indptr[a + 1]]
            gain[i, np.isin(cand_b, nbrs)] -= 2
        best = int(np.argmax(gain))
        if gain.flat[best] <= 0:
            break
        i, j = divmod(best, len(cand_b))
        swaps += 1
        for x in (int(cand_a[i]), int(cand_b[j])):
            cut -= int(D[x])
            ns = G.indices[G.indptr[x]:G.indptr[x + 1]]
            same = side[ns] == side[x]
            D[ns] += np.where(same, 2, -2)
            D[x] = -D[x]
            side[x] = not side[x]
    return side, cut, swaps


def enumerate_partitions_rgs(n: int):
    """All set partitions of {1..n} in restricted-growth-string order.

    Yields lists of blocks (lists of vertices); each block is ascending
    and the blocks are ordered by smallest member.
    """
    a = [0] * n
    while True:
        k = max(a) + 1
        blocks: list[list[int]] = [[] for _ in range(k)]
        for v in range(n):
            blocks[a[v]].append(v + 1)
        yield blocks
        i = n - 1
        while i > 0 and a[i] == max(a[:i]) + 1:
            a[i] = 0
            i -= 1
        if i == 0:
            return
        a[i] += 1


def score_numerators(edges, blocks) -> tuple[int, int]:
    """Exact numerators over 4 m^2 of the definition form
    sum_S (4 e(S) m - vol(S)^2) and the edge form
    sum_S (4 e(S) e(Sbar) - e(S,Sbar)^2), for 1-indexed edges."""
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    k = len(blocks)
    e_in = [0] * k
    cross = [0] * k
    vol = [0] * k
    m = 0
    for u, v in edges:
        u, v = int(u), int(v)
        m += 1
        bu, bv = block_of[u], block_of[v]
        vol[bu] += 1
        vol[bv] += 1
        if bu == bv:
            e_in[bu] += 1
        else:
            cross[bu] += 1
            cross[bv] += 1
    definition = sum(4 * e_in[i] * m - vol[i] * vol[i] for i in range(k))
    edge_form = sum(4 * e_in[i] * (m - e_in[i] - cross[i]) - cross[i] * cross[i]
                    for i in range(k))
    return definition, edge_form


def brute_force_modularity(n: int, edges) -> tuple[int, int, list[list[int]]]:
    """(num, den, blocks) of the first maximizer in RGS order, with the
    maximum modularity num/den and den = 4 m^2.  Zero-edge graphs give
    (0, 1, trivial partition)."""
    edges = [(int(u), int(v)) for u, v in edges]
    m = len(edges)
    if m == 0:
        return 0, 1, [list(range(1, n + 1))]
    best_num = None
    best_blocks = None
    for blocks in enumerate_partitions_rgs(n):
        num = score_numerators(edges, blocks)[0]
        if best_num is None or num > best_num:
            best_num = num
            best_blocks = blocks
    return best_num, 4 * m * m, best_blocks


def anneal_run(G, rng, k: int, sweeps: int, batch: int, t_hot: float, t_cold: float):
    """One annealing run on G from `rng`: (labels, moves in the last hot
    sweep, quench rounds, quench fallbacks to a single move)."""
    n, m = G.n, G.m
    adj = [G.indices[G.indptr[v]:G.indptr[v + 1]].tolist() for v in range(n)]
    labels = rng.integers(k, size=n).tolist()

    def volumes(lab):
        vol = [0] * k
        for v in range(n):
            vol[lab[v]] += len(adj[v])
        return vol

    def numerator(lab):
        twice_in = sum(lab[v] == lab[w] for v in range(n) for w in adj[v])
        return 2 * m * twice_in - sum(x * x for x in volumes(lab))

    def row(lab, vol, v):
        """4m K[v,c] - 2 d_v vol_c for each label c, plus 2 d_v^2 at v's own."""
        d = len(adj[v])
        kv = [0] * k
        for w in adj[v]:
            kv[lab[w]] += 1
        return [4 * m * kv[c] - 2 * d * vol[c] + (2 * d * d if c == lab[v] else 0)
                for c in range(k)]

    def first_max(values):
        return max(range(len(values)), key=lambda i: (values[i], -i))

    hot = 0
    for T in 4 * m * np.geomspace(t_hot, t_cold, sweeps):
        order = rng.permutation(n).tolist()
        noise = rng.gumbel(size=(n, k)).tolist()
        hot = 0
        for lo in range(0, n, batch):
            vol = volumes(labels)
            new = labels.copy()
            for i in range(lo, min(lo + batch, n)):
                v = order[i]
                s = row(labels, vol, v)
                new[v] = first_max([float(s[c]) / float(T) + noise[i][c] for c in range(k)])
                hot += new[v] != labels[v]
            labels = new
    rounds = fallbacks = 0
    moved = True
    while moved:
        rounds += 1
        moved = False
        order = rng.permutation(n).tolist()
        for lo in range(0, n, batch):
            vol = volumes(labels)
            moves = []
            for v in order[lo:lo + batch]:
                s = row(labels, vol, v)
                c = first_max(s)
                if s[c] > s[labels[v]]:
                    moves.append((s[c] - s[labels[v]], v, c))
            if not moves:
                continue
            new = labels.copy()
            for _, v, c in moves:
                new[v] = c
            if numerator(new) <= numerator(labels):
                _, v, c = moves[first_max([gain for gain, _, _ in moves])]
                new = labels.copy()
                new[v] = c
                fallbacks += 1
            labels = new
            moved = True
    return labels, hot, rounds, fallbacks


def first_appearance_labels(labels) -> list[int]:
    """Each label replaced by the number of distinct labels seen before
    its first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(x, len(first)) for x in np.asarray(labels).tolist()]


def _prefers(a: int, b: int) -> bool:
    """True if block mask `a` precedes `b` in first-maximizer order:
    the one owning the lowest differing vertex comes first."""
    d = a ^ b
    return bool(a & (d & -d))


def exact_modularity_dp(n: int, edges) -> tuple[int, list[list[int]]]:
    """(numerator over 4 m^2, blocks) of the maximum-modularity partition
    that comes first in RGS order, by the O(3^n) subset DP, one mask at a
    time.  Zero-edge graphs give (0, trivial partition)."""
    edges = [(int(u) - 1, int(v) - 1) for u, v in edges]
    m = len(edges)
    if m == 0:
        return 0, [list(range(1, n + 1))]
    nbr = [0] * n
    deg = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    full = (1 << n) - 1
    w = [0] * (full + 1)
    e_in = [0] * (full + 1)
    vol = [0] * (full + 1)
    for mask in range(1, full + 1):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        e_in[mask] = e_in[rest] + bin(nbr[top] & rest).count("1")
        vol[mask] = vol[rest] + deg[top]
        w[mask] = 4 * m * e_in[mask] - vol[mask] * vol[mask]
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        best = None
        best_blk = 0
        sub = rest
        while True:
            blk = sub | low
            cand = w[blk] + f[rest ^ sub]
            if best is None or cand > best or (cand == best and _prefers(blk, best_blk)):
                best = cand
                best_blk = blk
            if sub == 0:
                break
            sub = (sub - 1) & rest
        f[mask] = best
        choice[mask] = best_blk
    blocks = []
    mask = full
    while mask:
        blk = choice[mask]
        blocks.append([v + 1 for v in range(n) if blk >> v & 1])
        mask ^= blk
    return f[full], sorted(blocks)


def min_bisection_combinations(n: int, edges) -> tuple[int, tuple[int, ...]]:
    """(cut, S) of the minimum balanced cut: S holds vertex 1 for even n
    and is the larger half for odd n, and ties go to the
    lexicographically smallest S.  Scans the subsets in
    itertools.combinations order, 4096 at a time."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2) - 1
    u, v = e[:, 0], e[:, 1]
    size = (n + 1) // 2
    if n % 2 == 0:
        combos = ((1,) + c for c in combinations(range(2, n + 1), size - 1))
    else:
        combos = combinations(range(1, n + 1), size)
    best_cut = None
    best_S: tuple[int, ...] = ()
    while True:
        block = []
        for combo in combos:
            block.append(combo)
            if len(block) == 4096:
                break
        if not block:
            break
        member = np.zeros((len(block), n), dtype=bool)
        for i, subset in enumerate(block):
            member[i, [x - 1 for x in subset]] = True
        cuts = (member[:, u] ^ member[:, v]).sum(axis=1)
        i = int(np.argmin(cuts))  # the first minimum in lexicographic order
        if best_cut is None or cuts[i] < best_cut:
            best_cut = int(cuts[i])
            best_S = block[i]
    return best_cut, best_S


def _offdiag_norm(A: np.ndarray) -> float:
    # Summing squares of the off-diagonal entries directly; subtracting
    # diag^2 from the full Frobenius norm loses ~8 digits to cancellation.
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(A: np.ndarray, tol: float = JACOBI_TOL,
                       max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row, annihilating each off-diagonal entry, until the
    off-diagonal Frobenius norm is <= tol.  Returns eigenvalues sorted
    ascending.
    """
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError("matrix must be square")
    if n == 1:
        return A[0].copy()
    skip = tol / (2.0 * n)
    for _ in range(max_sweeps):
        if _offdiag_norm(A) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = A[p, p], A[q, q]
                theta = (aqq - app) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = A[p].copy()
                row_q = A[q].copy()
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                A[p] = new_p
                A[q] = new_q
                A[:, p] = new_p
                A[:, q] = new_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
    else:
        raise RuntimeError(f"Jacobi did not reach off-norm {tol} in {max_sweeps} sweeps")
    return np.sort(np.diag(A).copy())


def _regime_name(k: int, n: int) -> str:
    if k <= math.isqrt(n):
        return "small"
    if 3 * k <= n:
        return "middle"
    return "large"


def _event_thresholds(n: int, d: float, C: float, k: np.ndarray):
    s = k / n
    cd = C / math.sqrt(d)
    thr1 = s * (s + cd) * n * d / 2.0
    thr2 = (1.0 - s) * ((1.0 - s) + cd) * n * d / 2.0
    thr3 = (s * (1.0 - s) - cd * np.sqrt(s * (1.0 - s))) * n * d
    return thr1, thr2, thr3


def _summarize(counts: dict, n: int) -> tuple:
    agg: dict[str, list[int]] = {}
    kranges: dict[str, list[int]] = {}
    for k, (tr, v1, v2, v3) in sorted(counts.items()):
        if tr == 0:
            continue
        name = _regime_name(k, n)
        a = agg.setdefault(name, [0, 0, 0, 0])
        a[0] += tr
        a[1] += v1
        a[2] += v2
        a[3] += v3
        kranges.setdefault(name, [k, k])[1] = k
        kranges[name][0] = min(kranges[name][0], k)
    return tuple((name, *kranges[name], *agg[name])
                 for name in ("small", "middle", "large") if name in agg)


def lemma32_events_exhaustive(G, C: float, d: float) -> tuple:
    """Regime rows of the three events over every nonempty proper subset,
    from per-subset arrays of length 2^n."""
    n = G.n
    e_in_tab = subset_edges(G)
    full = (1 << n) - 1
    masks = np.arange(1, full)
    k = np.bitwise_count(masks).astype(np.int64)
    e_in = e_in_tab[masks]
    e_out = e_in_tab[full ^ masks]
    e_cross = G.m - e_in - e_out
    thr1, thr2, thr3 = _event_thresholds(n, d, C, np.arange(n + 1, dtype=float))
    v1 = e_in > thr1[k]
    v2 = e_out > thr2[k]
    v3 = e_cross < thr3[k]
    tallies = [np.bincount(k[sel], minlength=n)
               for sel in (slice(None), v1, v2, v3)]
    counts = {kk: [int(t[kk]) for t in tallies] for kk in range(1, n)}
    return _summarize(counts, n)


def lemma32_events_sampled(G, C: float, d: float, trials: int, seed: int,
                           strategy: str = "stratified", schedule=None,
                           batch: int = 512) -> tuple:
    """Regime rows of the Monte Carlo check, tallied one trial at a time
    into a dict keyed by subset size; the empty set is left out.
    Stratified draws take their sizes round-robin from `schedule`."""
    n = G.n
    u, v = G.edges[:, 0] - 1, G.edges[:, 1] - 1
    rng = generator(trial_seed(seed, 0))
    if strategy == "stratified":
        ks = np.array([schedule[i % len(schedule)] for i in range(trials)])
    counts = {k: [0, 0, 0, 0] for k in range(0, n + 1)}
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        if strategy == "uniform":
            member = rng.random((b, n)) < 0.5
            kb = member.sum(axis=1)
        else:
            kb = ks[done:done + b]
            member = np.zeros((b, n), dtype=bool)
            for i in range(b):
                idx = rng.choice(n, size=int(kb[i]), replace=False)
                member[i, idx] = True
        rows = np.ascontiguousarray(member.T)
        e_in = (rows[u] & rows[v]).sum(axis=0)
        e_cross = member @ G.degrees - 2 * e_in
        e_out = G.m - e_in - e_cross
        thr1, thr2, thr3 = _event_thresholds(n, d, C, np.asarray(kb, dtype=float))
        v1, v2, v3 = e_in > thr1, e_out > thr2, e_cross < thr3
        for i in range(b):
            c = counts[int(kb[i])]
            c[0] += 1
            c[1] += int(v1[i])
            c[2] += int(v2[i])
            c[3] += int(v3[i])
        done += b
    counts.pop(0, None)
    return _summarize(counts, n)
