"""Acceptance gate: thirteen end-to-end checks, one printed verdict line each.

Each check records an "[acceptance NN] PASS/FAIL ..." line; the
scoreboard is printed after the summary (see conftest) so a plain
`pytest -v` run shows it despite output capture.
"""

import json
import math
import pathlib
import time

import numpy as np

from gnpmod.bisection import (error_decomposition, exact_min_bisection,
                              bisection_modularity_certificate,
                              local_search_bisection)
from gnpmod.bounds import (P_STAR, SUPREMUM_VALUE, UPPER_MAIN_COEFF,
                          asymptotic_constants, supremum_check)
from gnpmod.cli import main as cli_main
from gnpmod.concentration import (chernoff_lower, chernoff_upper,
                                  check_lemma32_events_sampled, verify_appendix)
from gnpmod.graph import Graph, sample_gnp
from gnpmod.modularity import (Partition, exact_modularity,
                               heuristic_modularity, score_components,
                               score_definition, score_edge_form)
from gnpmod.rng import generator
from gnpmod.spectral import spectral_gap

import conftest
from conftest import connected_gnp, subset

GOLDEN = pathlib.Path(__file__).parent / "golden" / "exact_corpus.json"


def report(num, ok, detail):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def random_partition(n, rng):
    labels = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
    blocks = {}
    for v, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(v)
    return Partition.of(blocks.values(), n)


def test_c01_formula_equivalence():
    t0 = time.perf_counter()
    rng = generator(101)
    worst = 0.0
    done = 0
    i = 0
    while done < 500:
        n = int(rng.integers(2, 11))
        G = sample_gnp(n, 0.5, 50_000 + i)
        i += 1
        if G.m == 0:
            continue
        P = random_partition(n, rng)
        worst = max(worst, abs(score_definition(G, P) - score_edge_form(G, P)))
        done += 1
    el = time.perf_counter() - t0
    report(1, worst <= 1e-12 and el < 5.0,
           f"formula equivalence on 500 pairs: max diff {worst:.2e}, {el:.1f}s")


def test_c02_exact_golden_corpus():
    t0 = time.perf_counter()
    entries = json.loads(GOLDEN.read_text())
    bad = []
    for e in entries:
        G = Graph(e["n"], [tuple(edge) for edge in e["edges"]])
        r = exact_modularity(G)
        want = e["num"] / e["den"]
        if abs(r.score - want) > 1e-15 or not 0.0 <= r.score < 1.0:
            bad.append(e["name"])
        elif r.partition.canonical_blocks() != e["blocks"]:
            bad.append(e["name"] + ":partition")
    el = time.perf_counter() - t0
    report(2, not bad and el < 30.0,
           f"golden exact corpus, {len(entries)} graphs: "
           f"{'all match' if not bad else bad}, {el:.1f}s")


def test_c03_spectral_dominance():
    t0 = time.perf_counter()
    exceptions = 0
    margin = math.inf
    for i in range(200):
        n = 4 + i % 9  # 4..12
        G = connected_gnp(n, 0.5, 60_000 + i)
        mod = exact_modularity(G).score
        gap = spectral_gap(G).gap
        margin = min(margin, gap - mod)
        exceptions += mod > gap + 1e-8
    el = time.perf_counter() - t0
    report(3, exceptions == 0 and el < 300.0,
           f"modularity <= spectral gap on 200 connected graphs: "
           f"{exceptions} exceptions, min margin {margin:.3e}, {el:.0f}s")


def test_c04_appendix_certificate():
    t0 = time.perf_counter()
    rep = verify_appendix()
    ok = (rep.passed
          and rep.min_f > 0.001
          and rep.min_g > math.log(2.0) + 0.01
          and rep.monotonicity_violations == 0
          and abs(rep.min_f - 0.0012115) < 5e-6
          and abs(rep.min_g - 0.70318) < 5e-5)
    # high-precision recomputation of the binding corner with mpmath
    import mpmath as mp
    mp.mp.dps = 50
    x, y, z = (mp.mpf(v) for v in rep.argmin_f)
    r = z / x
    corner = (x * y / 2) * ((1 + r) * mp.log(1 + r) - r) - (mp.log(y / x) + 1)
    ok = ok and abs(float(corner) - rep.min_f) < 1e-12
    el = time.perf_counter() - t0
    report(4, ok and el < 60.0,
           f"appendix certificate: min_f {rep.min_f:.7f} at {rep.argmin_f}, "
           f"f_lower {rep.f_lower:.10f}, min_g {rep.min_g:.5f}, "
           f"g_lower {rep.g_lower:.10f}, "
           f"{rep.monotonicity_violations} monotonicity violations, "
           f"mpmath corner agrees, {el:.1f}s")


def test_c05_chernoff_monte_carlo():
    t0 = time.perf_counter()
    N = 10 ** 6
    failures = []
    for gi, (n, p) in enumerate([(100, 0.1), (100, 0.5), (1000, 0.1), (1000, 0.5)]):
        mu = n * p
        x = generator(70_000 + gi).binomial(n, p, size=N)
        for c in (0.5, 1.0, 2.0, 3.0, 4.0):
            t = c * math.sqrt(mu)
            bp, bq = chernoff_upper(mu, t)
            if bp > bq:
                failures.append(f"phi>quad at {(n, p, c)}")
            freq_up = float(np.mean(x >= mu + t))
            se_up = math.sqrt(max(freq_up, 1.0 / N) * (1.0 - freq_up) / N)
            if freq_up > bp + 3.0 * se_up:
                failures.append(f"upper tail {(n, p, c)}: {freq_up} > {bp}")
            freq_lo = float(np.mean(x <= mu - t))
            se_lo = math.sqrt(max(freq_lo, 1.0 / N) * (1.0 - freq_lo) / N)
            if freq_lo > chernoff_lower(mu, t) + 3.0 * se_lo:
                failures.append(f"lower tail {(n, p, c)}: {freq_lo}")
    el = time.perf_counter() - t0
    report(5, not failures and el < 300.0,
           f"Chernoff vs Monte Carlo on 20 (n,p,t) triples, 1e6 trials each: "
           f"{'all within 3 SE' if not failures else failures}, {el:.0f}s")


def test_c06_concentration_events():
    t0 = time.perf_counter()
    total = 0
    trials = 0
    for s in range(20):
        G = sample_gnp(2000, 25 / 2000, 80_000 + s)
        r = check_lemma32_events_sampled(G, C=1.999, d=25.0, trials=5000,
                                         seed=s, strategy="stratified")
        total += r.total_violations
        trials += sum(reg.trials for reg in r.regimes)
    el = time.perf_counter() - t0
    report(6, total == 0 and trials == 100_000,
           f"event check G(2000, d=25), C=1.999, {trials} stratified samples: "
           f"{total} violations, {el:.0f}s")


def test_c07_error_decomposition():
    t0 = time.perf_counter()
    bad = 0
    # exhaustive balanced subsets up to n = 16
    for n in (8, 12, 16):
        G = sample_gnp(n, 0.5, 90_000 + n)
        d = 2 * G.m / n
        import itertools
        for S in itertools.combinations(range(1, n + 1), n // 2):
            dec = error_decomposition(G, subset(S, n), d)
            bad += not dec.exact
    # sampled bisections at n = 2000
    rng = generator(91_000)
    G = sample_gnp(2000, 25 / 2000, 91_000)
    d = 2 * G.m / 2000
    for _ in range(1000):
        side = rng.permutation(2000)[:1000] + 1
        dec = error_decomposition(G, subset(side, 2000), d)
        bad += not dec.exact
    el = time.perf_counter() - t0
    report(7, bad == 0,
           f"error decomposition residual exactly 0: exhaustive n in (8,12,16) "
           f"plus 1000 sampled bisections at n=2000, {bad} nonzero, {el:.0f}s")


def test_c08_bisection_oracle():
    t0 = time.perf_counter()
    equal = 0
    smaller = 0
    for i in range(200):
        n = 10 + i % 7  # 10..16
        G = sample_gnp(n, 0.3, 100_000 + i)
        ex = exact_min_bisection(G).cut
        ls = local_search_bisection(G, seed=i, restarts=10).cut
        equal += ls == ex
        smaller += ls < ex
    el = time.perf_counter() - t0
    report(8, equal >= 180 and smaller == 0 and el < 300.0,
           f"local search vs exact bisection on 200 instances: "
           f"{equal}/200 optimal, {smaller} below exact, {el:.0f}s")


def test_c09_scaling_corridor():
    t0 = time.perf_counter()
    means = {}
    ok = True
    details = []
    for d in (25, 100, 400):
        hs, cs = [], []
        for s in range(10):
            G = sample_gnp(4000, d / 4000, 110_000 + 100 * d + s)
            hs.append(heuristic_modularity(G, seed=s, budget=1).score)
            cs.append(bisection_modularity_certificate(G, seed=s, restarts=3).score)
        mh = sum(hs) / 10
        mc = sum(cs) / 10
        means[d] = mh
        rd = math.sqrt(d)
        ok = ok and 0.4 <= mh * rd <= 2.92 and 0.4 <= mc * rd <= 2.92
        details.append(f"d={d}: heur*sqrt(d)={mh * rd:.3f} cert*sqrt(d)={mc * rd:.3f}")
    ok = ok and means[25] >= means[100] >= means[400]
    el = time.perf_counter() - t0
    report(9, ok and el < 1200.0,
           "scaling corridor n=4000, 10 seeds; " + "; ".join(details)
           + f"; means non-increasing in d: {means[25] >= means[100] >= means[400]}"
           + f", {el:.0f}s")


def test_c10_subcritical_components():
    scores = []
    for s in range(10):
        G = sample_gnp(3000, 0.8 / 3000, 120_000 + s)
        scores.append(score_components(G).score)
    mean = sum(scores) / 10
    report(10, mean >= 0.9,
           f"subcritical G(3000, d=0.8): mean component-partition score {mean:.4f}")


def test_c11_constant_audit():
    audits = asymptotic_constants()
    mismatches = [a.name for a in audits if not a.matches]
    sup = supremum_check()
    ok = not mismatches and abs(sup.value - SUPREMUM_VALUE) < 1e-8
    report(11, ok,
           f"constant audit: {len(audits)} constants match printed values, "
           f"supremum {sup.value:.10f} within 1e-8 of (3+2*sqrt(2))/4")


def test_c12_csv_replay_determinism(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    args = ("sweep", "--n", "200", "--d", "8,16", "--trials", "3",
            "--seed", "11", "--restarts", "3")
    first = run(*args)
    second = run(*args)
    ok = first == second
    rows = [ln for ln in first.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("n,")]
    for row in rows:
        seed = row.split(",")[2]
        d = row.split(",")[1]
        replay = run("sweep", "--n", "200", "--d", d, "--trials", "1",
                     "--seed", seed, "--restarts", "3", "--exact-seed")
        got = [ln for ln in replay.splitlines()
               if ln and not ln.startswith("#") and not ln.startswith("n,")]
        ok = ok and got == [row]
    report(12, ok,
           f"sweep replay: full run byte-identical, all {len(rows)} rows "
           "reproduced from their seed column")


def test_c13_north_star_corridor():
    """The production scores at the north star's size, G(10^5, d = 25):
    P* <= heur*sqrt(d) <= the paper's upper coefficient, and the
    certificate below the heuristic, each equal to its partition's score."""
    t0 = time.perf_counter()
    n, d = 100_000, 25
    rd = math.sqrt(d)
    ok = True
    details = []
    for seed in (1, 2):
        G = sample_gnp(n, d / n, seed)
        h = heuristic_modularity(G, seed=seed, budget=1)
        c = bisection_modularity_certificate(G, seed=seed, restarts=1)
        ok = (ok and P_STAR <= h.score * rd <= UPPER_MAIN_COEFF and c.score <= h.score
              and h.score == score_definition(G, h.partition)
              and c.score == score_definition(G, c.partition))
        details.append(f"seed={seed}: heur*sqrt(d)={h.score * rd:.3f} "
                       f"cert*sqrt(d)={c.score * rd:.3f}")
    el = time.perf_counter() - t0
    report(13, ok and el <= 60.0,
           f"north-star corridor n={n}, d={d}; " + "; ".join(details) + f", {el:.0f}s")
