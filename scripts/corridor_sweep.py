"""Empirical scaling sweep: heuristic modularity and the bisection
certificate against the closed-form bounds, across densities.

The interesting quantity is score * sqrt(d). The theory predicts it
stays inside [P* - eps, (3+2*sqrt(2))/2] once d is large enough, with
P* = 0.76321.  The trials are those of `gnpmod sweep` with the same
options; this script averages its rows per d.

Usage:
    python3 scripts/corridor_sweep.py --n 4000 --d 25,100,400 --trials 10
"""

import argparse
import contextlib
import io
import math
import sys

from gnpmod import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--d", type=str, default="25,100,400")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--restarts", type=int, default=3)
    args = ap.parse_args(argv)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["sweep", "--n", str(args.n), "--d", args.d,
                         "--trials", str(args.trials), "--seed", str(args.seed),
                         "--restarts", str(args.restarts)])
    if code != 0:
        return code
    # columns n,d,seed,heuristic_mod,certificate,upper_main,lower_Pstar,...
    rows = [[float(x) for x in line.split(",")]
            for line in buf.getvalue().splitlines()
            if not line.startswith(("#", "n,"))]
    print("d,mean_heuristic_x_sqrtd,mean_certificate_x_sqrtd,"
          "upper_main_x_sqrtd,lower_Pstar_x_sqrtd")
    for d in [float(x) for x in args.d.split(",")]:
        mine = [r for r in rows if r[1] == d]
        rd = math.sqrt(d)
        h = sum(r[3] for r in mine) / len(mine)
        c = sum(r[4] for r in mine) / len(mine)
        print(f"{d},{h * rd:.4f},{c * rd:.4f},"
              f"{mine[0][5] * rd:.4f},{mine[0][6] * rd:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
