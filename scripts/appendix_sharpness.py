"""Probe how sharp the rate-function thresholds are in the deviation
parameter z.

The certificate requires f > 0.001 and g > ln 2 + 0.01 over their whole
domains at z and above, and proves lower bounds f_lower and g_lower.
Both inequalities hold at z = 1.999 with almost no slack (the f margin
is about 2e-4). This script scans z downward and reports where each
inequality first breaks, which shows the constant C = 1.999 cannot be
lowered much without losing the argument.

Usage:
    python3 scripts/appendix_sharpness.py
"""

import numpy as np

from gnpmod.concentration import verify_appendix


def main():
    print("z,min_f,f_lower,f_ok,min_g,g_ok,passed")
    for z in np.arange(2.1, 1.39, -0.05):
        z = round(float(z), 2)
        rep = verify_appendix(z)
        print(f"{z},{rep.min_f:.6f},{rep.f_lower:.6f},{int(rep.f_lower > rep.f_threshold)},"
              f"{rep.min_g:.6f},{int(rep.g_lower > rep.g_threshold)},{int(rep.passed)}")


if __name__ == "__main__":
    main()
