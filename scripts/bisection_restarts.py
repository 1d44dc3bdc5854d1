"""Per-restart timings of the bisection local search.

Local search runs on G(n, d/n) drawn with `--seed`, restart r with the
random stream trial_seed(seed, r) that local_search_bisection hands it.
For each restart it prints the wall time, the final cut and how many
times the swap selection fell back to the gain matrix of all vertices
within 2 of each side's largest D (bisection._swap_gains is wrapped to
count its calls).  The library itself is not changed.

Usage:
    python3 scripts/bisection_restarts.py --n 4000 --d 25 --seed 1
"""

import argparse
import sys
import time

from gnpmod import bisection
from gnpmod.graph import sample_gnp
from gnpmod.rng import generator, trial_seed


def timed_restart(G, seed: int, r: int) -> tuple[float, int, int]:
    """(wall seconds, cut, gain matrices built) of restart r."""
    gains, calls = bisection._swap_gains, [0]

    def spy(*args):
        calls[0] += 1
        return gains(*args)

    bisection._swap_gains = spy
    try:
        t0 = time.perf_counter()
        _, cut = bisection._single_local_search(G, generator(trial_seed(seed, r)))
        wall = time.perf_counter() - t0
    finally:
        bisection._swap_gains = gains
    return wall, cut, calls[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args(argv)

    G = sample_gnp(args.n, args.d / args.n, args.seed)
    print(f"# n={args.n} d={args.d!r} seed={args.seed} m={G.m}")
    print("restart,wall_s,cut,matrix_builds")
    for r in range(args.restarts):
        wall, cut, builds = timed_restart(G, args.seed, r)
        print(f"{r},{wall:.4f},{cut},{builds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
