"""Runs one workload in a process of its own and prints its figures as
one JSON line.  run.py starts it with gnpmod's `src` and this directory
on PYTHONPATH; by hand, from the repository root:

    PYTHONPATH=src:perfbench python3 perfbench/worker.py \
        --workload desk-oracles --seed 1 --seconds 10 --trace 0

--setup-only stops after the set-up (import of gnpmod and warm-up).
With --trace 0 it repeats whole rounds until they have taken --seconds
(at least one round), with the probe of reference.py running; with
--trace 1 it runs one untraced and one traced round of the same inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import reference
import spans

LAYERS = ("graph", "modularity", "bisection", "spectral", "concentration")


def _untraced(wl, seconds: float) -> tuple[list, dict]:
    """Repeats whole rounds under the reference probe until they have
    taken `seconds` (at least one round).  A round's `wall_per_ref` is
    its wall time less the probe calls in it, over the mean probe call
    in it."""
    kernel = reference.Kernel()
    kernel.run_once()
    rounds, ratios = [], []
    with reference.Probe(kernel) as probe:
        while not rounds or sum(r.wall_s for r in rounds) < seconds:
            rnd = wl.run_round(spans.NULL)
            rounds.append(rnd)
            calls = probe.within(rnd.start, rnd.start + rnd.wall_s)
            if not calls:
                raise RuntimeError("a round ended before the reference probe ran in it")
            ratios.append((rnd.wall_s - sum(calls)) / statistics.fmean(calls))
    first = rounds[0]
    if any((r.heur, r.cert) != (first.heur, first.cert) for r in rounds[1:]):
        first.problems.append("scores differ between rounds of the same inputs")
    metrics = {
        "wall_per_ref": statistics.median(ratios),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "round_wall_per_ref": ratios,
        "probe_calls": len(probe.calls),
        "probe_mean_s": statistics.fmean(d for _, d in probe.calls),
        "peak_rss_mib": first.peak_rss_mib,
        "heur_x_sqrtd": statistics.fmean(first.heur) if first.heur else 0.0,
        "cert_x_sqrtd": statistics.fmean(first.cert) if first.cert else 0.0,
    }
    return rounds, metrics


def _traced(wl) -> tuple[list, dict, dict]:
    import workloads  # already imported by main(); imported here for its helpers
    untraced = wl.run_round(spans.NULL)
    tracer = spans.Tracer()
    traced = wl.run_round(tracer)
    S = tracer.spans
    own = spans.self_times(S)
    wall = sum(s.duration for s in S if s.parent is None)
    stray = sorted({s.layer for s in S if s.parent is not None} - set(LAYERS))
    if stray:
        traced.problems.append(f"spans outside the known layers: {stray}")
    try:
        workloads.checks.check_accounting(own, wall)
    except workloads.checks.CheckFailed as exc:
        traced.problems.append(str(exc))

    def t(name: str) -> float:
        return spans.total_time(S, name)

    samples = tracer.named("graph.sample_gnp")
    peak = 0.0
    if samples:
        try:
            peak = workloads.sample_peak_mib(max(samples, key=lambda s: s.result.m))
        except workloads.checks.CheckFailed as exc:
            traced.problems.append(str(exc))
    certs = tracer.named("bisection.bisection_modularity_certificate")
    restarts = sum(s.kwargs.get("restarts", 10) for s in certs)
    event_s = t("concentration.check_lemma32_events_sampled")
    exhaustive_s = t("concentration.check_lemma32_events_exhaustive")
    counts = traced.counts
    metrics = {
        "graph.sample_s": t("graph.sample_gnp"),
        "graph.sample_peak_mib": peak,
        "graph.edges": counts.get("graph.edges", 0),
        "modularity.heuristic_s": t("modularity.heuristic_modularity"),
        "modularity.communities": counts.get("modularity.communities", 0),
        "modularity.exact_s": t("modularity.exact_modularity"),
        "bisection.certificate_s": t("bisection.bisection_modularity_certificate"),
        "bisection.restart_s": (t("bisection.bisection_modularity_certificate") / restarts
                                if restarts else 0.0),
        "bisection.cut": counts.get("bisection.cut", 0),
        "bisection.exact_s": t("bisection.exact_min_bisection"),
        "bisection.optimal_ratio": counts.get("bisection.optimal_ratio", 0.0),
        "spectral.laplacian_s": t("spectral.normalized_laplacian"),
        "spectral.default_s": t("spectral.spectral_gap.default"),
        "spectral.lapack_s": t("spectral.spectral_gap.lapack"),
        "concentration.events_s": event_s,
        "concentration.exhaustive_s": exhaustive_s,
        "concentration.subsets_per_s": (counts.get("subsets", 0) / (event_s + exhaustive_s)
                                        if event_s + exhaustive_s > 0 else 0.0),
        "cli.other_s": own.get("root", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced.wall_s,
    }
    metrics.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    tracer.drop_payloads()
    trace = {"spans": spans.to_records(S), "self_s": own, "traced_wall_s": wall,
             "untraced_wall_s": untraced.wall_s}
    return [untraced, traced], metrics, trace


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import workloads  # imports gnpmod and numpy
    import_s = time.perf_counter() - t0
    wl = workloads.make(args.workload, args.seed)
    t1 = time.perf_counter()
    wl.warm()
    setup_s = import_s + time.perf_counter() - t1
    report = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy
        if args.trace:
            rounds, metrics, trace = _traced(wl)
            report["trace"] = trace
        else:
            rounds, metrics = _untraced(wl, args.seconds)
        report.update(
            metrics=metrics,
            rounds=[{"wall_s": r.wall_s, "attempted": r.attempted, "failed": r.failed}
                    for r in rounds],
            attempted=sum(r.attempted for r in rounds),
            failed=sum(r.failed for r in rounds),
            problems=[p for r in rounds for p in r.problems],
            numpy=numpy.__version__,
            gnpmod_file=workloads.graph.__file__,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
