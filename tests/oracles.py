"""Brute-force modularity oracle, independent of the library's scorer.

Partitions are enumerated in restricted-growth-string order and scored
from the raw edge list in Python integers, so neither the enumeration
nor the arithmetic goes through gnpmod.  Exponential: keep n tiny.
Used by the tests and by scripts/freeze_exact_corpus.py.
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
