"""Probe how sharp the rate-function thresholds are in the deviation
parameter z.

The grid verification requires min f > 0.001 and min g > ln 2 + 0.01.
Both inequalities hold at z = 1.999 with almost no slack (the f margin
is about 2e-4). This script scans z downward and reports where each
inequality first breaks, which shows the constant C = 1.999 cannot be
lowered much without losing the argument.

Usage:
    python3 scripts/appendix_sharpness.py
"""

import numpy as np

from gnpmod.concentration import GridSpec, verify_appendix


def main():
    print("z,min_f,f_ok,min_g,g_ok,passed")
    for z in np.arange(2.1, 1.39, -0.05):
        z = round(float(z), 2)
        rep = verify_appendix(GridSpec(z_values=(z,)))
        print(f"{z},{rep.min_f:.6f},{int(rep.min_f > rep.f_threshold)},"
              f"{rep.min_g:.6f},{int(rep.min_g > rep.g_threshold)},{int(rep.passed)}")


if __name__ == "__main__":
    main()
