"""Time, memory and counters of each stage of one `gnpmod sweep` trial.

The trial is the one `gnpmod sweep --n N --d D --seed S --restarts R
--exact-seed` runs (cli._sweep_trial).  Its stages are library functions,
wrapped through `patched`, which puts every name back however the block
ends; the library itself is not changed:

    sample            cli.sample_gnp
    components        modularity.component_roots
    louvain           modularity._louvain_labels
    score_definition  modularity.score_definition (components, then Louvain)
    restart           bisection._single_local_search, once per restart
    score_edge_form   bisection.score_edge_form

The trial runs untraced, for each stage's wall time and the ru_maxrss
high-water mark when it ends, then under tracemalloc, for each stage's
traced peak above what was allocated when it began.  Both runs must give
the same sweep row and stage details.  Every table is of the trial's graph.

stages: one row per stage call.  The detail of a restart is its final cut
and its fallbacks to the gain matrix (bisection._swap_gains calls), that
of Louvain its level count.

levels: one row per level of the trial's Louvain run.  Each sweep's
`permutation` call is timed: a level is a run of calls with one node
count, and a sweep lasts until the next call (a level's last sweep
includes the merge).  modularity._stay_table_kind is wrapped to report
the stay table a level builds, its width (dense: columns; slots: slots)
and the sweep before which it is built.

Usage:
    python3 scripts/trial_profile.py --n 4000 --d 25 --seed 1
"""

import argparse
import contextlib
import resource
import sys
import time
import tracemalloc

from gnpmod import bisection, cli, modularity


@contextlib.contextmanager
def patched(*changes):
    """Set each (module, name, value) for the block, and restore them all
    when it ends."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in changes]
    try:
        for module, name, value in changes:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimedRng:
    """A generator whose permutation calls are logged as (size, time)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls: list[tuple[int, float]] = []

    def permutation(self, n):
        self.calls.append((n, time.perf_counter()))
        return self.rng.permutation(n)


def louvain_run(louvain, G, rng):
    """Labels of louvain(G, rng) and per level (nodes, [sweep ms, ...],
    (sweep, width) of its stay table or None)."""
    timed = TimedRng(rng)
    kind, built = modularity._stay_table_kind, {}

    def spy(nnodes, k, nnz, moved):
        chosen = kind(nnodes, k, nnz, moved)
        if chosen is None:
            return None

        def build(*args):
            # levels differ in node count, and this sweep's order is drawn
            sweep = sum(size == nnodes for size, _ in timed.calls)
            table = chosen(*args)
            slots = isinstance(table, modularity._SlotTable)
            built[nnodes] = (sweep, f"slots:{len(table.scomm)}" if slots
                             else f"dense:{table.K.shape[1]}")
            return table

        return build

    with patched((modularity, "_stay_table_kind", spy)):
        labels = louvain(G, timed)
        stop = time.perf_counter()
    sweeps: dict[int, list[float]] = {}
    ends = [t for _, t in timed.calls[1:]] + [stop]
    for (size, t), end in zip(timed.calls, ends):
        sweeps.setdefault(size, []).append(1e3 * (end - t))
    return labels, [(size, ms, built.get(size)) for size, ms in sweeps.items()]


def run_trial(task: tuple, traced: bool):
    """The sweep row of one trial, its stage log of (stage, wall s,
    traced peak MiB or None, ru_maxrss MiB, detail), and its Louvain
    run's graph, labels and level rows."""
    log, seen, swaps = [], {}, [0]
    labels_of, gains = modularity._louvain_labels, bisection._swap_gains

    def stage(name, fn, detail=lambda out: ""):
        def run(*args):
            swaps[0] = 0  # gain matrices built in this call
            if traced:
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
            t0 = time.perf_counter()
            out = fn(*args)
            wall = time.perf_counter() - t0
            peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20 if traced else None
            log.append((name, wall, peak, maxrss_mib(), detail(out)))
            return out

        return run

    def louvain(G, rng):
        seen["graph"] = G
        labels, seen["levels"] = louvain_run(labels_of, G, rng)
        return labels

    def counted(*args):
        swaps[0] += 1
        return gains(*args)

    with patched((cli, "sample_gnp", stage("sample", cli.sample_gnp)),
                 (modularity, "component_roots",
                  stage("components", modularity.component_roots)),
                 (modularity, "_louvain_labels",
                  stage("louvain", louvain, lambda _: f"levels={len(seen['levels'])}")),
                 (modularity, "score_definition",
                  stage("score_definition", modularity.score_definition)),
                 (bisection, "_single_local_search",
                  stage("restart", bisection._single_local_search,
                        lambda out: f"cut={out[1]} fallbacks={swaps[0]}")),
                 (bisection, "_swap_gains", counted),
                 (bisection, "score_edge_form",
                  stage("score_edge_form", bisection.score_edge_form))):
        if traced:
            tracemalloc.start()
        try:
            row = cli._sweep_trial(task)
        finally:
            tracemalloc.stop()
    return row, log, seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args(argv)

    task = (args.n, args.d, args.seed, args.restarts)
    before = maxrss_mib()
    row, rss_log, seen = run_trial(task, traced=False)
    traced_row, peak_log, _ = run_trial(task, traced=True)
    untraced = row, [(stage, detail) for stage, *_, detail in rss_log]
    traced = traced_row, [(stage, detail) for stage, *_, detail in peak_log]
    if traced != untraced:
        print(f"traced trial gave {traced}, untraced {untraced}", file=sys.stderr)
        return 1
    G = seen["graph"]
    print(f"# n={args.n} d={args.d!r} seed={args.seed} m={G.m} restarts={args.restarts} "
          f"maxrss_before_mib={before:.1f}")
    print(f"# heuristic={row[3]!r} certificate={row[4]!r}")
    print("stage,call,wall_s,traced_peak_mib,maxrss_mib,detail")
    calls: dict[str, int] = {}
    for (stage, wall, _, rss, detail), (_, _, peak, _, _) in zip(rss_log, peak_log):
        calls[stage] = calls.get(stage, 0) + 1
        print(f"{stage},{calls[stage]},{wall:.4f},{peak:.2f},{rss:.1f},{detail}")

    print("level,nodes,sweeps,total_ms,table,before_sweep,sweep_ms")
    for i, (size, ms, built) in enumerate(seen["levels"]):
        table, sweep = ("-", "-") if built is None else (built[1], built[0])
        print(f"{i},{size},{len(ms)},{sum(ms):.1f},{table},{sweep},"
              + "/".join(f"{x:.1f}" for x in ms))

    return 0


if __name__ == "__main__":
    sys.exit(main())
