"""Self-test of the benchmark's checkers: each one must accept a correct
result and reject a corrupted one.  Needs numpy only, not gnpmod:

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks

# Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3: m = 7, the
# triangle split is the minimum bisection (cut 1) and scores
# 6/7 - 2 (7/14)^2 = 5/14.
EDGES = np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5], [2, 3]])
N = 6
SPLIT = np.array([0, 0, 0, 1, 1, 1])
SPLIT_SCORE = 5 / 14
EIGS = np.linalg.eigvalsh(checks.laplacian(EDGES, N))
GAP = max(abs(1 - EIGS[1]), abs(1 - EIGS[-1]))


def sweep_row(**change) -> dict[str, str]:
    d = 25.0
    row = {"n": "4000", "d": repr(d), "seed": "1", "heuristic_mod": "0.183",
           "certificate": "0.1277",
           "upper_main": repr(checks.UPPER_MAIN_COEFF / math.sqrt(d)),
           "lower_Pstar": repr(0.76321 / math.sqrt(d)),
           "spectral_upper": repr(4.0 / math.sqrt(d))}
    row.update(change)
    return row


def corrupted_laplacian(i: int, j: int, value: float) -> np.ndarray:
    L = checks.laplacian(EDGES, N)
    L[i, j] = value
    return L


ENTRY = {"name": "two-triangles", "num": 4 * 6 * 7 - 2 * 49, "den": 4 * 49,
         "blocks": [[1, 2, 3], [4, 5, 6]]}

# (what, call, accepted)
CASES = [
    ("sweep row as printed", lambda: checks.check_sweep_row(sweep_row(), 4000, 25.0, 1), True),
    ("wrong upper_main", lambda: checks.check_sweep_row(
        sweep_row(upper_main=repr(2.9142 / 5.0)), 4000, 25.0, 1), False),
    ("wrong lower_Pstar", lambda: checks.check_sweep_row(
        sweep_row(lower_Pstar=repr(0.7632 / 5.0)), 4000, 25.0, 1), False),
    ("wrong spectral_upper", lambda: checks.check_sweep_row(
        sweep_row(spectral_upper="0.8000001"), 4000, 25.0, 1), False),
    ("heuristic score of 1", lambda: checks.check_sweep_row(
        sweep_row(heuristic_mod="1.0"), 4000, 25.0, 1), False),
    ("certificate below the corridor", lambda: checks.check_sweep_row(
        sweep_row(certificate="0.05"), 4000, 25.0, 1), False),
    ("row for another seed", lambda: checks.check_sweep_row(sweep_row(seed="2"), 4000, 25.0, 1),
     False),
    ("sweep without rows", lambda: checks.parse_sweep("# gnpmod\nn,d\n"), False),
    ("score as computed", lambda: checks.check_rescore(EDGES, SPLIT, SPLIT_SCORE, "split"), True),
    ("wrong score", lambda: checks.check_rescore(EDGES, SPLIT, SPLIT_SCORE + 1e-9, "split"),
     False),
    ("balanced bisection", lambda: checks.check_bisection(EDGES, SPLIT, "split", 1), True),
    ("unbalanced bisection", lambda: checks.check_bisection(
        EDGES, np.array([0, 0, 0, 0, 1, 1]), "split"), False),
    ("three blocks", lambda: checks.check_bisection(
        EDGES, np.array([0, 0, 1, 1, 2, 2]), "split"), False),
    ("wrong cut", lambda: checks.check_bisection(EDGES, SPLIT, "split", 2), False),
    ("exact bisection", lambda: checks.check_exact_bisection(EDGES, N, 1, "split"), True),
    ("exact bisection above the minimum", lambda: checks.check_exact_bisection(
        EDGES, N, 2, "split"), False),
    ("local-search cut below exact", lambda: checks.check_not_above(1, 0, "local"), False),
    ("heuristic above exact", lambda: checks.check_not_above(
        SPLIT_SCORE + 1e-9, SPLIT_SCORE, "heuristic"), False),
    ("corpus entry", lambda: checks.check_corpus(SPLIT_SCORE, [[1, 2, 3], [4, 5, 6]], ENTRY),
     True),
    ("wrong corpus score", lambda: checks.check_corpus(
        SPLIT_SCORE - 1e-12, [[1, 2, 3], [4, 5, 6]], ENTRY), False),
    ("wrong corpus partition", lambda: checks.check_corpus(
        SPLIT_SCORE, [[1, 2], [3, 4, 5, 6]], ENTRY), False),
    ("solvers agree", lambda: checks.check_solvers_agree(EIGS, EDGES, N, "tri"), True),
    ("solvers disagree", lambda: checks.check_solvers_agree(EIGS + 1e-6, EDGES, N, "tri"),
     False),
    ("spectrum", lambda: checks.check_spectrum(EIGS, EDGES, N), True),
    ("eigenvalue above 2", lambda: checks.check_spectrum(
        np.append(EIGS[:-1], 2.1), EDGES, N), False),
    ("eigenvalues with the wrong sum", lambda: checks.check_spectrum(
        EIGS * 0.99, EDGES, N), False),
    ("laplacian", lambda: checks.check_laplacian(checks.laplacian(EDGES, N), EDGES, N), True),
    ("wrong laplacian entry", lambda: checks.check_laplacian(
        corrupted_laplacian(0, 1, -0.4), EDGES, N), False),
    ("laplacian entry off the edges", lambda: checks.check_laplacian(
        corrupted_laplacian(0, 5, -0.1), EDGES, N), False),
    ("modularity below the gap", lambda: checks.check_spectral_dominance(
        SPLIT_SCORE, GAP, "tri"), True),
    ("modularity above the gap", lambda: checks.check_spectral_dominance(
        GAP + 1e-6, GAP, "tri"), False),
    ("trials counted", lambda: checks.check_trials(5000, 5000, "events"), True),
    ("trials lost", lambda: checks.check_trials(4999, 5000, "events"), False),
    ("traced score differs from the CSV", lambda: checks.check_same(
        0.1830013226727902, 0.18300132267279, "traced"), False),
    ("self times account for the wall", lambda: checks.check_accounting(
        {"root": 0.5, "bisection": 2.0}, 2.5), True),
    ("self times miss part of the wall", lambda: checks.check_accounting(
        {"root": 0.5, "bisection": 2.0}, 2.6), False),
]


def main() -> int:
    bad = 0
    for what, call, accepted in CASES:
        try:
            call()
            got = True
        except checks.CheckFailed:
            got = False
        ok = got == accepted
        bad += not ok
        verdict = "accepted" if got else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {what}: {verdict}")
    print(f"{len(CASES) - bad}/{len(CASES)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
