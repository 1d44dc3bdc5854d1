"""The benchmark's workloads: two n=4000 sweep corridors and the desk oracles.

A workload builds its inputs once from the seed, then runs rounds.  A
round is the workload's fixed list of calls into gnpmod, timed as one
wall-clock interval, followed by the independent checks of checks.py,
which run outside that interval.  The same round runs with tracing off
(NULL) or on (a spans.Tracer); only the traced round records spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import resource
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from gnpmod import bisection, cli, concentration, graph, modularity, spectral

import checks
import spans

CORPUS = pathlib.Path("tests") / "golden" / "exact_corpus.json"

# c09 shape: one `gnpmod sweep` trial at n=4000 with 3 bisection restarts.
# The per-trial seed is fixed rather than drawn from --seed: at d=400 the
# Louvain time depends on the graph (about 30 s at seed 1, 62 s at seed 2),
# so a seed-dependent input would change the workload, not measure it.
CORRIDOR_N = 4000
CORRIDOR_RESTARTS = 3
CORRIDOR_SEEDS = {25.0: 1, 400.0: 1}

EXACT_MODULARITY_MAX_N = 13    # gnpmod's default exact-modularity cap
EVENT_C = 1.999
EVENT_TRIALS = 5000            # c06 shape: G(2000, d=25), stratified sampling
DESK_RESTARTS = 10             # c08 shape


@dataclass
class Round:
    start: float = 0.0     # perf_counter() when the timed calls began
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    heur: list[float] = field(default_factory=list)   # score * sqrt(d) per graph
    cert: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)         # per-layer work counts
    # process high-water mark when the timed calls end, before the checks
    peak_rss_mib: float = 0.0

    def end_timing(self, t0: float) -> None:
        self.start = t0
        self.wall_s = time.perf_counter() - t0
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Calls:
    """Makes the workload's calls, counting attempts and failures.  A
    call that raises is a program fault: it is counted and reported and
    the round goes on without its result."""

    def __init__(self, tracer, rnd: Round):
        self.tracer = tracer
        self.rnd = rnd

    def __call__(self, name: str, trial: str, fn, *args, **kwargs):
        self.rnd.attempted += 1
        try:
            return self.tracer.call(name, trial, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.rnd.failed += 1
            self.rnd.problems.append(f"{trial} {name} raised {exc!r}")
            return None


def edge_array(edges) -> np.ndarray:
    """1-indexed (u, v) pairs as a 0-indexed (m, 2) int array."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2) - 1


def labels_of(partition, n: int) -> np.ndarray:
    lab = np.full(n, -1, dtype=np.int64)
    for i, block in enumerate(partition.canonical_blocks()):
        lab[np.asarray(block, dtype=np.int64) - 1] = i
    checks.require(bool((lab >= 0).all()), "partition does not cover every vertex")
    return lab


def sample_peak_mib(span: spans.Span) -> float:
    """Peak traced allocation of one sample_gnp call, repeated with
    tracemalloc on and outside any timed interval."""
    tracemalloc.start()
    try:
        G = graph.sample_gnp(*span.args, **span.kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    checks.check_same(G.m, span.result.m, "sample_gnp repeated")
    return peak / 2**20


# ---------------------------------------------------------------------------
# Corridors.


def _sweep(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Corridor:
    """`gnpmod sweep` at n=4000 and one d, in process via gnpmod.cli.main."""

    def __init__(self, d: float):
        self.d = d
        self.seed = CORRIDOR_SEEDS[d]
        self.argv = ["sweep", "--n", str(CORRIDOR_N), "--d", repr(d), "--trials", "1",
                     "--restarts", str(CORRIDOR_RESTARTS), "--seed", str(self.seed),
                     "--exact-seed"]
        self._csv: tuple[float, float] | None = None

    def warm(self) -> None:
        code, _ = _sweep(["sweep", "--n", "200", "--d", "8", "--trials", "1",
                          "--restarts", "3", "--seed", "0", "--exact-seed"])
        checks.require(code == 0, f"warm-up sweep exited {code}")

    def run_round(self, tracer) -> Round:
        rnd = Round(attempted=1)
        targets = {"graph.sample_gnp": graph.sample_gnp,
                   "modularity.heuristic_modularity": modularity.heuristic_modularity,
                   "bisection.bisection_modularity_certificate":
                       bisection.bisection_modularity_certificate}
        with spans.traced_calls(tracer, targets):
            t0 = time.perf_counter()
            with tracer.span("cli.sweep", trial=self.seed):
                code, out = _sweep(self.argv)
            rnd.end_timing(t0)
        if code != 0:
            rnd.failed = 1
            rnd.problems.append(f"gnpmod {' '.join(self.argv)} exited {code}")
            return rnd
        try:
            rows = checks.parse_sweep(out)
            checks.require(len(rows) == 1, f"{len(rows)} sweep rows for one trial")
            heur, cert = checks.check_sweep_row(rows[0], CORRIDOR_N, self.d, self.seed)
        except checks.CheckFailed as exc:
            rnd.problems.append(str(exc))
            return rnd
        rd = math.sqrt(self.d)
        rnd.heur, rnd.cert = [heur * rd], [cert * rd]
        if self._csv is None:
            self._csv = (heur, cert)
        if isinstance(tracer, spans.Tracer):
            self._check_traced(tracer, rnd, heur, cert)
        return rnd

    def _check_traced(self, tracer: spans.Tracer, rnd: Round, heur: float, cert: float) -> None:
        """Re-derive the traced sweep's scores from the returned objects."""
        try:
            (sample,) = tracer.named("graph.sample_gnp")
            (hspan,) = tracer.named("modularity.heuristic_modularity")
            (cspan,) = tracer.named("bisection.bisection_modularity_certificate")
            G, hres, cres = sample.result, hspan.result, cspan.result
            edges = edge_array(G.edges)
            hlab = labels_of(hres.partition, CORRIDOR_N)
            checks.check_rescore(edges, hlab, hres.score, "heuristic partition")
            checks.check_same(hres.score, heur, "traced heuristic vs sweep CSV")
            clab = labels_of(cres.partition, CORRIDOR_N)
            checks.check_rescore(edges, clab, cres.score, "certificate partition")
            cut = checks.check_bisection(edges, clab, "certificate bisection")
            checks.check_same(cres.score, cert, "traced certificate vs sweep CSV")
            checks.check_same((hres.score, cres.score), self._csv,
                              "traced scores vs untraced sweep")
            rnd.counts = {"graph.edges": len(edges),
                          "modularity.communities": int(hlab.max()) + 1,
                          "bisection.cut": cut}
        except (checks.CheckFailed, ValueError) as exc:
            rnd.problems.append(f"traced sweep: {exc}")


# ---------------------------------------------------------------------------
# Desk oracles.


def _gnp_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    """A G(n,p) edge list from the benchmark's own generator, redrawn
    until it has an edge."""
    iu, iv = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(len(iu)) < p
        if keep.any():
            return [(int(u) + 1, int(v) + 1) for u, v in zip(iu[keep], iv[keep])]


class Desk:
    """Many small exact-oracle calls, the default eigensolver on mid-size
    graphs, and LAPACK plus the event check on G(2000, d=25)."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        corpus = json.loads(CORPUS.read_text())
        self.corpus = {e["name"]: e for e in corpus}
        # (name, n, edges); the corpus first, then G(n,p) with n in 10..16
        # at the c08 (p=0.3) and c03 (p=0.5) densities
        self.small = [(e["name"], e["n"], [tuple(x) for x in e["edges"]]) for e in corpus]
        self.small += [(f"gnp-{n}-{p}-{i}", n, _gnp_edges(rng, n, p))
                       for n in range(10, 17) for p in (0.3, 0.5) for i in range(2)]
        self.mid = [(f"mid-{n}", n, _gnp_edges(rng, n, 8.0 / n)) for n in (40, 60, 80)]
        self.exhaustive = [(f"exhaustive-16-{i}", 16, _gnp_edges(rng, 16, 0.5))
                           for i in range(2)]
        self.big_seed = int(rng.integers(1 << 32))
        self.events_seed = int(rng.integers(1 << 32))

    def warm(self) -> None:
        calls = _Calls(spans.NULL, Round())
        edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)]
        self._small(calls, "warm", 6, edges)
        self._mid(calls, "warm", 6, edges)
        self._exhaustive(calls, "warm", 6, edges)
        G = graph.sample_gnp(60, 0.2, 0)
        spectral.normalized_laplacian(G)
        spectral.spectral_gap(G, method="lapack")
        concentration.check_lemma32_events_sampled(G, EVENT_C, 12.0, trials=50, seed=0)
        checks.require(not calls.rnd.problems, f"warm-up failed: {calls.rnd.problems}")

    def run_round(self, tracer) -> Round:
        rnd = Round()
        calls = _Calls(tracer, rnd)
        t0 = time.perf_counter()
        with tracer.span("desk.round"):
            small = [self._small(calls, *item) for item in self.small]
            mid = [self._mid(calls, *item) for item in self.mid]
            big = self._big(calls)
            exhaustive = [self._exhaustive(calls, *item) for item in self.exhaustive]
        rnd.end_timing(t0)
        counts = {"graph.edges": 0, "modularity.communities": 0, "bisection.cut": 0,
                  "optimal": 0, "local": 0, "subsets": 0}
        for item, out in zip(self.small + self.mid, small + mid):
            self._check(rnd, counts, item, out)
        self._check_big(rnd, counts, big)
        for (name, n, _), res in zip(self.exhaustive, exhaustive):
            if res is not None:
                self._checked(rnd, checks.check_trials,
                              sum(r.trials for r in res.regimes), (1 << n) - 2, name)
                counts["subsets"] += (1 << n) - 2
        if counts["local"]:
            counts["bisection.optimal_ratio"] = counts["optimal"] / counts["local"]
        rnd.counts = counts
        return rnd

    # -- the calls of one round ------------------------------------------

    def _small(self, calls: _Calls, name: str, n: int, edges) -> dict:
        G = calls("graph.Graph", name, graph.Graph, n, edges)
        if G is None:
            return {}
        out = {}
        if n <= EXACT_MODULARITY_MAX_N:
            out["exact"] = calls("modularity.exact_modularity", name,
                                 modularity.exact_modularity, G)
        out["heur"] = calls("modularity.heuristic_modularity", name,
                            modularity.heuristic_modularity, G, seed=0)
        out["exact_bis"] = calls("bisection.exact_min_bisection", name,
                                 bisection.exact_min_bisection, G)
        out["local"] = calls("bisection.local_search_bisection", name,
                             bisection.local_search_bisection, G, seed=0,
                             restarts=DESK_RESTARTS)
        out["cert"] = calls("bisection.bisection_modularity_certificate", name,
                            bisection.bisection_modularity_certificate, G, seed=0,
                            restarts=DESK_RESTARTS)
        out["gap"] = calls("spectral.spectral_gap.default", name, spectral.spectral_gap, G)
        return out

    def _mid(self, calls: _Calls, name: str, n: int, edges) -> dict:
        G = calls("graph.Graph", name, graph.Graph, n, edges)
        if G is None:
            return {}
        return {
            "gap": calls("spectral.spectral_gap.default", name, spectral.spectral_gap, G),
            "heur": calls("modularity.heuristic_modularity", name,
                          modularity.heuristic_modularity, G, seed=0),
            "cert": calls("bisection.bisection_modularity_certificate", name,
                          bisection.bisection_modularity_certificate, G, seed=0,
                          restarts=DESK_RESTARTS),
        }

    def _big(self, calls: _Calls) -> dict:
        G = calls("graph.sample_gnp", "big", graph.sample_gnp, 2000, 25.0 / 2000,
                  self.big_seed)
        if G is None:
            return {}
        return {
            "G": G,
            "L": calls("spectral.normalized_laplacian", "big",
                       spectral.normalized_laplacian, G),
            "gap": calls("spectral.spectral_gap.lapack", "big", spectral.spectral_gap, G,
                         method="lapack"),
            "events": calls("concentration.check_lemma32_events_sampled", "big",
                            concentration.check_lemma32_events_sampled, G, EVENT_C, 25.0,
                            trials=EVENT_TRIALS, seed=self.events_seed),
        }

    def _exhaustive(self, calls: _Calls, name: str, n: int, edges):
        G = calls("graph.Graph", name, graph.Graph, n, edges)
        if G is None:
            return None
        return calls("concentration.check_lemma32_events_exhaustive", name,
                     concentration.check_lemma32_events_exhaustive, G, EVENT_C,
                     2.0 * G.m / n)

    # -- checks, outside the timed interval ------------------------------

    @staticmethod
    def _checked(rnd: Round, check, *args) -> bool:
        try:
            check(*args)
            return True
        except checks.CheckFailed as exc:
            rnd.problems.append(str(exc))
            return False

    def _check(self, rnd: Round, counts: dict, item, out: dict) -> None:
        name, n, edge_list = item
        if not out:
            return
        edges = edge_array(edge_list)
        counts["graph.edges"] += len(edges)
        rd = math.sqrt(2.0 * len(edges) / n)
        ok = self._checked
        exact, heur, cert = out.get("exact"), out.get("heur"), out.get("cert")
        exact_bis, local, gap = out.get("exact_bis"), out.get("local"), out.get("gap")
        if exact is not None:
            ok(rnd, checks.check_rescore, edges, labels_of(exact.partition, n), exact.score,
               f"{name} exact partition")
            if name in self.corpus:
                ok(rnd, checks.check_corpus, exact.score,
                   exact.partition.canonical_blocks(), self.corpus[name])
        if heur is not None:
            hlab = labels_of(heur.partition, n)
            ok(rnd, checks.check_rescore, edges, hlab, heur.score, f"{name} heuristic")
            counts["modularity.communities"] += int(hlab.max()) + 1
            rnd.heur.append(heur.score * rd)
            if exact is not None:
                ok(rnd, checks.check_not_above, heur.score, exact.score,
                   f"{name} heuristic above exact")
        if exact_bis is not None:
            ok(rnd, checks.check_exact_bisection, edges, n, exact_bis.cut, name)
            ok(rnd, checks.check_bisection, edges, labels_of(exact_bis.partition(), n),
               f"{name} exact bisection", exact_bis.cut)
        if local is not None:
            ok(rnd, checks.check_bisection, edges, labels_of(local.partition(), n),
               f"{name} local search", local.cut)
            if exact_bis is not None:
                ok(rnd, checks.check_not_above, exact_bis.cut, local.cut,
                   f"{name} local-search cut below exact")
                counts["local"] += 1
                counts["optimal"] += local.cut == exact_bis.cut
        if cert is not None:
            clab = labels_of(cert.partition, n)
            ok(rnd, checks.check_rescore, edges, clab, cert.score, f"{name} certificate")
            if cert.method == "bisection":
                try:
                    counts["bisection.cut"] += checks.check_bisection(
                        edges, clab, f"{name} certificate")
                except checks.CheckFailed as exc:
                    rnd.problems.append(str(exc))
            rnd.cert.append(cert.score * rd)
            if exact is not None:
                ok(rnd, checks.check_not_above, cert.score, exact.score,
                   f"{name} certificate above exact")
        if gap is not None:
            ok(rnd, checks.check_solvers_agree, gap.eigenvalues, edges, n, name)
            best = exact if exact is not None else heur
            if best is not None and checks.is_connected(edges, n):
                ok(rnd, checks.check_spectral_dominance, best.score, gap.gap, name)

    def _check_big(self, rnd: Round, counts: dict, out: dict) -> None:
        G = out.get("G")
        if G is None:
            return
        edges = edge_array(G.edges)
        counts["graph.edges"] += len(edges)
        if out.get("L") is not None:
            self._checked(rnd, checks.check_laplacian, out["L"], edges, G.n)
        if out.get("gap") is not None:
            self._checked(rnd, checks.check_spectrum, out["gap"].eigenvalues, edges, G.n)
        if out.get("events") is not None:
            self._checked(rnd, checks.check_trials,
                          sum(r.trials for r in out["events"].regimes), EVENT_TRIALS,
                          "sampled event check")
            counts["subsets"] += EVENT_TRIALS


def make(name: str, seed: int):
    if name == "corridor-d25":
        return Corridor(25.0)
    if name == "corridor-d400":
        return Corridor(400.0)
    if name == "desk-oracles":
        return Desk(seed)
    raise ValueError(f"unknown workload {name!r}")
