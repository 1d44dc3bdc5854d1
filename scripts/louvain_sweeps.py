"""Per-sweep timings of one Louvain run, and its time under other stay
table start rules.

Louvain runs on G(n, d/n) drawn with `--seed`, with the random stream
of heuristic_modularity's first restart.  The generator handed to it is
wrapped so that each sweep's `permutation` call is timed: a level is a
run of calls with the same node count, and a sweep lasts until the next
call (the last sweep of a level includes the merge into the next one).
modularity._stay_table_fits is wrapped too, to report the sweep at
which each level builds its stay table and the table's column count.
The library itself is not changed.

The second table reruns Louvain with modularity.STAY_MOVED_SHARE set to
each of SHARES: a level builds its stay table only after a sweep in
which at most 1/share of its nodes moved (share 1: from its first
sweep).  The shares take turns, REPEATS runs each, and the fastest run
of each is shown.  The labels must be the same under every share; only
the time moves.

Usage:
    python3 scripts/louvain_sweeps.py --n 4000 --d 400 --seed 1
"""

import argparse
import sys
import time

from gnpmod import modularity
from gnpmod.graph import sample_gnp
from gnpmod.rng import generator, trial_seed

SHARES = (1, 2, 4, 8, 16)
REPEATS = 5


class TimedRng:
    """A generator whose permutation calls are logged as (size, time)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls: list[tuple[int, float]] = []

    def permutation(self, n):
        self.calls.append((n, time.perf_counter()))
        return self.rng.permutation(n)


def timed_run(G, seed: int):
    """Labels, wall seconds, and per level (nodes, [sweep ms, ...],
    (sweep, columns) of its stay table or None)."""
    rng = TimedRng(generator(trial_seed(seed, 0)))
    fits, asked = modularity._stay_table_fits, []

    def spy(nnodes, k, nnz, moved):
        asked.append((nnodes, k, fits(nnodes, k, nnz, moved)))
        return asked[-1][2]

    modularity._stay_table_fits = spy
    try:
        t0 = time.perf_counter()
        labels = modularity._louvain_labels(G, rng)
        t1 = time.perf_counter()
    finally:
        modularity._stay_table_fits = fits
    sweeps: dict[int, list[float]] = {}
    ends = [t for _, t in rng.calls[1:]] + [t1]
    for (size, t), end in zip(rng.calls, ends):
        sweeps.setdefault(size, []).append(1e3 * (end - t))
    # the table is asked for once a sweep until it is built
    built = {}
    for size in sweeps:
        answers = [(k, yes) for nodes, k, yes in asked if nodes == size]
        if answers and answers[-1][1]:
            built[size] = (len(answers), answers[-1][0])
    levels = [(size, ms, built.get(size)) for size, ms in sweeps.items()]
    return labels, t1 - t0, levels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=float, default=400.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    G = sample_gnp(args.n, args.d / args.n, args.seed)
    print(f"# n={args.n} d={args.d!r} seed={args.seed} m={G.m} "
          f"STAY_MOVED_SHARE={modularity.STAY_MOVED_SHARE}")
    labels, wall, levels = timed_run(G, args.seed)
    for i, (size, ms, built) in enumerate(levels):
        table = "none" if built is None else f"sweep {built[0]}, {built[1]} columns"
        print(f"level {i}: nodes={size} sweeps={len(ms)} total_ms={sum(ms):.1f} "
              f"table={table}")
        print("  sweep_ms=" + ",".join(f"{x:.1f}" for x in ms))
    print(f"# louvain {wall:.3f} s")

    print("share,min_s,level_s,table_sweep_columns")
    default = modularity.STAY_MOVED_SHARE
    best: dict[int, tuple] = {}
    same = True
    try:
        for _ in range(REPEATS):
            for share in SHARES:
                modularity.STAY_MOVED_SHARE = share
                run = timed_run(G, args.seed)
                same = same and bool((run[0] == labels).all())
                if share not in best or run[1] < best[share][1]:
                    best[share] = run
    finally:
        modularity.STAY_MOVED_SHARE = default
    for share in SHARES:
        _, wall, levels = best[share]
        per_level = "/".join(f"{sum(ms) / 1e3:.3f}" for _, ms, _ in levels)
        tables = "/".join("-" if b is None else f"{b[0]}:{b[1]}" for _, _, b in levels)
        print(f"{share},{wall:.3f},{per_level},{tables}")
    print(f"# labels identical under every share: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
