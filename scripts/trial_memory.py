"""Peak memory of each stage of one `gnpmod sweep` trial.

The trial is the one `gnpmod sweep --n N --d D --seed S --restarts R
--exact-seed` runs: sample G(n, d/n), score the components partition,
one Louvain run and its score, then R local-search restarts and the
certificate's score.  The library functions behind those stages are
wrapped, and the library itself is not changed:

    sample            cli.sample_gnp
    components        modularity.component_roots
    louvain           modularity._louvain_labels
    score_definition  modularity.score_definition (components, then Louvain)
    restart           bisection._single_local_search, once per restart
    score_edge_form   bisection.score_edge_form

The trial runs twice.  The first run is untraced and reads the process's
ru_maxrss when each stage ends, a high-water mark, so a stage shows in
it only when it raises the mark.  The second run has tracemalloc on and
gives each stage's traced peak above what was allocated when the stage
began (for every stage after the sample, the graph's CSR is among
that).  Both runs must give the same sweep row.

Usage:
    python3 scripts/trial_memory.py --n 4000 --d 400 --seed 1
"""

import argparse
import resource
import sys
import tracemalloc

from gnpmod import bisection, cli, modularity
from gnpmod.graph import sample_gnp

STAGES = [("sample", cli, "sample_gnp"),
          ("components", modularity, "component_roots"),
          ("louvain", modularity, "_louvain_labels"),
          ("score_definition", modularity, "score_definition"),
          ("restart", bisection, "_single_local_search"),
          ("score_edge_form", bisection, "score_edge_form")]


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def logged(stage: str, fn, log: list, traced: bool):
    """fn, appending (stage, traced peak MiB above the start or None,
    ru_maxrss MiB) to `log` after each call."""

    def run(*args, **kwargs):
        if traced:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
        out = fn(*args, **kwargs)
        peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20 if traced else None
        log.append((stage, peak, maxrss_mib()))
        return out

    return run


def run_trial(task: tuple, traced: bool) -> tuple[tuple, list]:
    """The sweep row of one trial and its stage log."""
    log: list = []
    saved = [(module, name, getattr(module, name)) for _, module, name in STAGES]
    for stage, module, name in STAGES:
        setattr(module, name, logged(stage, getattr(module, name), log, traced))
    if traced:
        tracemalloc.start()
    try:
        row = cli._sweep_trial(task)
    finally:
        if traced:
            tracemalloc.stop()
        for module, name, fn in saved:
            setattr(module, name, fn)
    return row, log


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=float, default=400.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args(argv)

    task = (args.n, args.d, args.seed, args.restarts)
    before = maxrss_mib()
    row, rss_log = run_trial(task, traced=False)
    traced_row, peak_log = run_trial(task, traced=True)
    if traced_row != row:
        print(f"traced trial gave {traced_row}, untraced {row}", file=sys.stderr)
        return 1
    m = sample_gnp(args.n, args.d / args.n, args.seed).m
    print(f"# n={args.n} d={args.d!r} seed={args.seed} m={m} restarts={args.restarts} "
          f"maxrss_before_mib={before:.1f}")
    print(f"# heuristic={row[3]!r} certificate={row[4]!r}")
    print("stage,call,traced_peak_mib,maxrss_mib")
    calls: dict[str, int] = {}
    for (stage, _, rss), (same, peak, _) in zip(rss_log, peak_log):
        assert stage == same
        calls[stage] = calls.get(stage, 0) + 1
        print(f"{stage},{calls[stage]},{peak:.2f},{rss:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
