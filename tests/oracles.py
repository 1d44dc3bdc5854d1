"""Brute-force modularity oracle, independent of the library's scorer.

Partitions are enumerated in restricted-growth-string order and scored
from the raw edge list in Python integers, so neither the enumeration
nor the arithmetic goes through gnpmod.  Exponential: keep n tiny.
Used by the tests and by scripts/freeze_exact_corpus.py.

`louvain_labels` is the reference Louvain hierarchy: per-vertex dicts
and float gains with a 1e-12 tolerance, against which the library's
CSR kernel must give identical labels.
"""


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


def _local_move_level(adj: list[dict], strength: list[float], two_m: float,
                      rng) -> list[int]:
    """One level of greedy moves: each node to the neighboring community
    with the best score gain, repeated to a fixed point."""
    nnodes = len(adj)
    comm = list(range(nnodes))
    cvol = strength.copy()
    moved_any = True
    while moved_any:
        moved_any = False
        for v in rng.permutation(nnodes):
            v = int(v)
            a = comm[v]
            kv: dict[int, float] = {}
            for w, wt in adj[v].items():
                if w == v:
                    continue
                c = comm[w]
                kv[c] = kv.get(c, 0.0) + wt
            dv = strength[v]
            cvol[a] -= dv
            best_c = a
            best_gain = kv.get(a, 0.0) - dv * cvol[a] / two_m
            for c, k in kv.items():
                if c == a:
                    continue
                gain = k - dv * cvol[c] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            cvol[best_c] += dv
            comm[v] = best_c
            if best_c != a:
                moved_any = True
    return comm


def louvain_labels(G, rng) -> list[int]:
    """Full local-move + merge hierarchy; returns a community label per
    vertex (0-indexed positions)."""
    indptr, indices = G.indptr.tolist(), G.indices.tolist()
    # ascending CSR rows fix each dict's insertion order, hence tie-breaks
    adj = [dict.fromkeys(indices[indptr[v]:indptr[v + 1]], 1.0) for v in range(G.n)]
    strength = G.degrees.astype(float).tolist()
    two_m = 2.0 * G.m
    members: list[list[int]] = [[v] for v in range(G.n)]
    while True:
        comm = _local_move_level(adj, strength, two_m, rng)
        ids = sorted(set(comm))
        if len(ids) == len(adj):
            break
        remap = {c: i for i, c in enumerate(ids)}
        k = len(ids)
        new_members: list[list[int]] = [[] for _ in range(k)]
        new_strength = [0.0] * k
        new_adj: list[dict] = [dict() for _ in range(k)]
        for v, c in enumerate(comm):
            i = remap[c]
            new_members[i].extend(members[v])
            new_strength[i] += strength[v]
        for v, nbrs in enumerate(adj):
            i = remap[comm[v]]
            row = new_adj[i]
            for w, wt in nbrs.items():
                j = remap[comm[w]]
                row[j] = row.get(j, 0.0) + wt
        adj, strength, members = new_adj, new_strength, new_members
        if len(adj) == 1:
            break
    labels = [0] * G.n
    for i, mem in enumerate(members):
        for v in mem:
            labels[v] = i
    return labels
