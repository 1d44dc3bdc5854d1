"""Time, memory and counters of each stage of one `gnpmod sweep` trial.

The trial is `gnpmod sweep --n N --d D --seed S --restarts R
--exact-seed`, run through gnpmod.cli.main with a sink for the stage
records of gnpmod.trace: untraced, for wall times and ru_maxrss, then
under tracemalloc, for each STAGES call's traced peak above what was
allocated when it began.  Both runs must give the same output and
records.  The tables: one row per STAGES call, with its details (a
per-run list joined by "/"), and one per annealing run of the heuristic,
with its moves in the last hot sweep, its quench rounds and its quench
steps that fell back to a single move.

Usage:
    python3 scripts/trial_profile.py --n 4000 --d 25 --seed 1
"""

import argparse
import contextlib
import csv
import io
import resource
import sys
import tracemalloc

from gnpmod import cli, trace

STAGES = ("sample", "components", "score_definition", "anneal", "restart",
          "score_edge_form")
RUN_COUNTS = ("hot_moves", "quench_rounds", "fallbacks")


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """A trace sink keeping each record as stages end: (stage, wall s,
    traced peak MiB or None, ru_maxrss MiB, details)."""

    def __init__(self):
        self.records, self.starts = [], []  # traced bytes as open stages began

    def begin(self, name):
        if tracemalloc.is_tracing() and name in STAGES:
            tracemalloc.reset_peak()
            self.starts.append(tracemalloc.get_traced_memory()[0])

    def end(self, name, wall, details):
        peak = None
        if tracemalloc.is_tracing() and name in STAGES:
            peak = (tracemalloc.get_traced_memory()[1] - self.starts.pop()) / 2**20
        self.records.append((name, wall, peak, maxrss_mib(), details))


def run_trial(argv: list[str], traced: bool):
    """The exit code and stdout of `gnpmod argv`, and its records."""
    sink, out = Recorder(), io.StringIO()
    if traced:
        tracemalloc.start()
    try:
        with trace.recording(sink), contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), sink.records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args(argv)

    sweep = ["sweep", "--n", str(args.n), "--d", repr(args.d), "--seed", str(args.seed),
             "--restarts", str(args.restarts), "--exact-seed"]
    before = maxrss_mib()
    code, out, rss_log = run_trial(sweep, traced=False)
    if code != 0:
        return code
    traced = run_trial(sweep, traced=True)
    if traced[:2] != (code, out) or [(r[0], r[4]) for r in traced[2]] != [
            (r[0], r[4]) for r in rss_log]:
        print("the traced and untraced trials differ", file=sys.stderr)
        return 1
    row, = csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
    heuristic, certificate = row["heuristic_mod"], row["certificate"]
    last = {stage: details for stage, *_, details in rss_log}
    print(f"# n={args.n} d={args.d!r} seed={args.seed} m={last['sample']['m']} "
          f"restarts={args.restarts} maxrss_before_mib={before:.1f}")
    print(f"# heuristic={heuristic} certificate={certificate} "
          f"method={last['heuristic']['method']} run={last['heuristic']['run']} "
          f"restart={last['bisection']['restart']}")

    print("stage,call,wall_s,traced_peak_mib,maxrss_mib,detail")
    calls: dict[str, int] = {}
    for (stage, wall, _, rss, details), (_, _, peak, _, _) in zip(rss_log, traced[2]):
        if stage in STAGES:
            calls[stage] = calls.get(stage, 0) + 1
            detail = " ".join(f"{k}={'/'.join(map(str, v)) if isinstance(v, list) else v}"
                              for k, v in details.items())
            print(f"{stage},{calls[stage]},{wall:.4f},{peak:.2f},{rss:.1f},{detail}")

    print("run," + ",".join(RUN_COUNTS))
    for stage, *_, details in rss_log:
        if stage == "anneal":
            for run, counts in enumerate(zip(*(details[key] for key in RUN_COUNTS))):
                print(f"{run}," + ",".join(map(str, counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
