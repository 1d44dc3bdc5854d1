"""Independent output checks for the benchmark workloads.

Nothing here calls gnpmod or compares against a stored copy of its
output: closed forms are recomputed from the paper's constants, scores
are recomputed with numpy from edges and labels, minimum bisections are
found by brute force, and spectra come from numpy's LAPACK on a
Laplacian built here.  Edges are 0-indexed (m, 2) int arrays; labels
give a block id per vertex.  Every check raises CheckFailed on a wrong
result, so selftest.py can feed each one a corrupted result.
"""

from __future__ import annotations

import math

import numpy as np

P_STAR = 0.76321                          # Dembo-Montanari-Sen bisection constant
UPPER_MAIN_COEFF = (3.0 + 2.0 * math.sqrt(2.0)) / 2.0
SPECTRAL_COEFF = 4.0
SCALED_RANGE = (0.4, 2.92)                # score * sqrt(d) corridor of c09
SCORE_TOL = 1e-12
SOLVER_TOL = 1e-8


class CheckFailed(AssertionError):
    """A program output failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Sweep CSV rows.


def parse_sweep(text: str) -> list[dict[str, str]]:
    """Data rows of `gnpmod sweep` output, keyed by the header line."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(len(lines) >= 2, "sweep printed no header and data rows")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "ragged sweep rows")
    return rows


def check_sweep_row(row: dict[str, str], n: int, d: float, seed: int) -> tuple[float, float]:
    """Closed forms and score ranges of one sweep row; returns (heur, cert)."""
    require(int(row["n"]) == n and float(row["d"]) == d and int(row["seed"]) == seed,
            f"row is for n={row['n']} d={row['d']} seed={row['seed']}")
    rd = math.sqrt(d)
    for col, coeff in (("upper_main", UPPER_MAIN_COEFF), ("lower_Pstar", P_STAR),
                       ("spectral_upper", SPECTRAL_COEFF)):
        got = float(row[col])
        require(math.isclose(got, coeff / rd, rel_tol=1e-12, abs_tol=0.0),
                f"{col}={got!r}, closed form gives {coeff / rd!r}")
    scores = []
    for col in ("heuristic_mod", "certificate"):
        v = float(row[col])
        require(0.0 <= v < 1.0, f"{col}={v!r} outside [0,1)")
        lo, hi = SCALED_RANGE
        require(lo <= v * rd <= hi, f"{col}*sqrt(d)={v * rd:.4f} outside [{lo}, {hi}]")
        scores.append(v)
    return scores[0], scores[1]


# ---------------------------------------------------------------------------
# Partitions and bisections.


def modularity_score(edges: np.ndarray, labels: np.ndarray) -> float:
    """Newman modularity sum_c e_c/m - (vol_c/2m)^2, computed with numpy."""
    m = len(edges)
    if m == 0:
        return 0.0
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    k = int(labels.max()) + 1
    inside = np.bincount(lu[lu == lv], minlength=k)
    vol = np.bincount(lu, minlength=k) + np.bincount(lv, minlength=k)
    return float(inside.sum() / m - np.sum((vol / (2.0 * m)) ** 2))


def check_rescore(edges: np.ndarray, labels: np.ndarray, score: float, what: str) -> None:
    own = modularity_score(edges, labels)
    require(abs(own - score) <= SCORE_TOL,
            f"{what}: reported score {score!r}, re-scored {own!r}")


def check_bisection(edges: np.ndarray, labels: np.ndarray, what: str,
                    cut: int | None = None) -> int:
    """Two blocks whose sizes differ by at most one; returns the cut
    recounted from the edges, which must equal `cut` when given."""
    sizes = np.bincount(labels)
    require(len(sizes) == 2 and abs(int(sizes[0]) - int(sizes[1])) <= 1,
            f"{what}: blocks of sizes {sizes.tolist()} are not a bisection")
    own = int(np.count_nonzero(labels[edges[:, 0]] != labels[edges[:, 1]]))
    require(cut is None or own == cut, f"{what}: reported cut {cut}, recounted {own}")
    return own


def brute_min_bisection(edges: np.ndarray, n: int) -> int:
    """Minimum balanced cut over every subset of size ceil(n/2), n <= 20."""
    require(n <= 20, f"brute-force bisection needs n <= 20, got {n}")
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    bits = bits[bits.sum(axis=1) == (n + 1) // 2]
    if len(edges) == 0:
        return 0
    return int((bits[:, edges[:, 0]] != bits[:, edges[:, 1]]).sum(axis=1).min())


def check_exact_bisection(edges: np.ndarray, n: int, cut: int, what: str) -> None:
    own = brute_min_bisection(edges, n)
    require(cut == own, f"{what}: exact bisection cut {cut}, brute force {own}")


def check_not_above(value: float, ceiling: float, what: str, tol: float = SCORE_TOL) -> None:
    require(value <= ceiling + tol, f"{what}: {value!r} exceeds {ceiling!r}")


def check_corpus(score: float, blocks: list[list[int]], entry: dict) -> None:
    """Exact modularity against a golden-corpus entry (num/den, blocks)."""
    want = entry["num"] / entry["den"]
    require(abs(score - want) <= 1e-15,
            f"{entry['name']}: exact score {score!r}, corpus {want!r}")
    require(blocks == entry["blocks"],
            f"{entry['name']}: exact partition {blocks}, corpus {entry['blocks']}")


def check_same(got, want, what: str) -> None:
    require(got == want, f"{what}: {got!r} != {want!r}")


# ---------------------------------------------------------------------------
# Graph structure and spectra.


def is_connected(edges: np.ndarray, n: int) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def laplacian(edges: np.ndarray, n: int) -> np.ndarray:
    """I - D^-1/2 A D^-1/2 with 0 on the diagonal of isolated vertices."""
    A = np.zeros((n, n))
    A[edges[:, 0], edges[:, 1]] = 1.0
    A[edges[:, 1], edges[:, 0]] = 1.0
    deg = A.sum(axis=1)
    s = np.zeros(n)
    s[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag((deg > 0).astype(float)) - s[:, None] * A * s[None, :]


def check_laplacian(L: np.ndarray, edges: np.ndarray, n: int) -> None:
    """Entry by entry against the edges, without a second dense matrix:
    1 on the diagonal of non-isolated vertices, -1/sqrt(deg u deg v) at
    each edge, and no other non-zero entry."""
    deg = np.bincount(edges.ravel(), minlength=n)
    s = np.zeros(n)
    s[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    u, v = edges[:, 0], edges[:, 1]
    diff = max(float(np.max(np.abs(np.diagonal(L) - (deg > 0)), initial=0.0)),
               float(np.max(np.abs(L[u, v] + s[u] * s[v]), initial=0.0)),
               float(np.max(np.abs(L[v, u] + s[u] * s[v]), initial=0.0)))
    require(diff <= SCORE_TOL, f"normalized Laplacian differs by {diff:.3e}")
    extra = np.count_nonzero(L) - np.count_nonzero(np.diagonal(L)) - 2 * len(edges)
    require(extra == 0, f"normalized Laplacian has {extra} non-zero entries off the edges")


def check_solvers_agree(eigs: np.ndarray, edges: np.ndarray, n: int, what: str) -> None:
    """Default-solver eigenvalues against numpy LAPACK on our own Laplacian."""
    ref = np.linalg.eigvalsh(laplacian(edges, n))
    got = np.sort(np.asarray(eigs, dtype=float))
    require(got.shape == ref.shape, f"{what}: {got.shape[0]} eigenvalues for n={n}")
    diff = float(np.max(np.abs(got - ref)))
    require(diff <= SOLVER_TOL, f"{what}: eigenvalues differ from LAPACK by {diff:.3e}")


def check_spectrum(eigs: np.ndarray, edges: np.ndarray, n: int) -> None:
    """Eigenvalues lie in [0,2] and sum to the trace, the number of
    non-isolated vertices."""
    eigs = np.asarray(eigs, dtype=float)
    require(len(eigs) == n, f"{len(eigs)} eigenvalues for n={n}")
    require(eigs.min() >= -1e-9 and eigs.max() <= 2.0 + 1e-9,
            f"eigenvalues span [{eigs.min()!r}, {eigs.max()!r}], outside [0,2]")
    live = int(np.count_nonzero(np.bincount(edges.ravel(), minlength=n)))
    require(abs(float(eigs.sum()) - live) <= 1e-8 * n,
            f"eigenvalues sum to {eigs.sum()!r}, {live} vertices are non-isolated")


def check_spectral_dominance(mod: float, gap: float, what: str) -> None:
    check_not_above(mod, gap, f"{what}: modularity above spectral gap", tol=SOLVER_TOL)


def check_accounting(self_times: dict[str, float], wall: float) -> None:
    """Layer self times plus the root's own time cover the traced wall."""
    total = sum(self_times.values())
    require(abs(total - wall) <= 1e-9 * max(1.0, wall),
            f"self times sum to {total!r}, traced wall is {wall!r}")


def check_trials(counted: int, requested: int, what: str) -> None:
    require(counted == requested, f"{what}: {counted} trials counted, {requested} requested")
