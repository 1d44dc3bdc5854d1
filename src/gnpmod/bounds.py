"""Closed-form modularity bound calculators for G(n,p) and the audit of
every named constant they use.

All bounds scale as 1/sqrt(d).  Hypothesis flags are finite-n
conventions: "d much less than n" is operationalized as d <= n/ln(n),
and the spectral route's "d much greater than (ln n)^2" as
d >= (ln n)^2; both are marked as conventions on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_ints, require_reals

SQRT2 = math.sqrt(2.0)
UPPER_MAIN_COEFF = (3.0 + 2.0 * SQRT2) / 2.0        # ~2.9142135
UPPER_TRADEOFF_COEFF = (3.0 + 2.0 * SQRT2) * 2.1 / 4.0   # ~3.06
TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))       # ~1.665
SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))          # ~1.17741
SEVEN_LN2_OVER_6 = 7.0 * math.log(2.0) / 6.0        # ~0.81
LN2_PLUS_001 = math.log(2.0) + 0.01                 # ~0.70315
P_STAR = 0.76321
P_STAR_TOL = 0.00003
D_MIN_MAIN = 16.17
C_MIN_MAIN = 1.999
SUPREMUM_VALUE = (3.0 + 2.0 * SQRT2) / 4.0


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bound values for (n, d, C) with validity flags."""

    n: int
    d: float
    p: float
    C: float
    upper_main: float          # (3+2*sqrt(2))/2 / sqrt(d)
    upper_tradeoff: float      # (3+2*sqrt(2))*2.1/4 / sqrt(d)
    upper_asymptotic: float    # (3+2*sqrt(2))*C/4 / sqrt(d), needs C > 2*sqrt(ln 2)
    spectral_upper: float      # 4 / sqrt(d)
    lower_Pstar: float         # P* / sqrt(d)
    lower_Pstar_interval: tuple[float, float]
    lower_fifth: float         # (1/5) sqrt(1-p) / sqrt(d); constant c0 unquantified
    regime: str                # subcritical | main | spectral_valid
    upper_main_valid: bool     # 16.17 <= d, and d <= n/ln(n) (convention)
    upper_main_asymptotic_caveat: bool   # d > n/ln(n)
    upper_asymptotic_valid: bool         # C > 2*sqrt(ln 2)
    spectral_valid: bool       # d >= (ln n)^2 (convention for d >> (ln n)^2)
    lower_fifth_note: str = "constants a, c0 are existential; unquantified"

    CSV_COLUMNS = ("n,d,p,C,upper_main,upper_tradeoff,upper_asymptotic,"
                   "spectral_upper,lower_Pstar,lower_fifth,regime,"
                   "upper_main_valid,spectral_valid")

    def csv_row(self) -> str:
        return (f"{self.n},{self.d!r},{self.p!r},{self.C!r},"
                f"{self.upper_main!r},{self.upper_tradeoff!r},"
                f"{self.upper_asymptotic!r},{self.spectral_upper!r},"
                f"{self.lower_Pstar!r},{self.lower_fifth!r},{self.regime},"
                f"{int(self.upper_main_valid)},{int(self.spectral_valid)}")

    def table(self) -> str:
        lines = [
            f"n = {self.n}   d = {self.d}   p = {self.p}   C = {self.C}   regime = {self.regime}",
            f"  upper (main, d >= {D_MIN_MAIN}):      {self.upper_main:.6f}"
            f"   [{'valid' if self.upper_main_valid else 'invalid'}"
            f"{', asymptotic caveat: d > n/ln n' if self.upper_main_asymptotic_caveat else ''}]",
            f"  upper (trade-off, any d << n): {self.upper_tradeoff:.6f}",
            f"  upper (C-asymptotic):          {self.upper_asymptotic:.6f}"
            f"   [{'valid' if self.upper_asymptotic_valid else 'needs C > 1.665'}]",
            f"  upper (spectral 4/sqrt(d)):    {self.spectral_upper:.6f}"
            f"   [{'d >= (ln n)^2 convention holds' if self.spectral_valid else 'd < (ln n)^2'}]",
            f"  lower (P*/sqrt(d)):            {self.lower_Pstar:.6f}"
            f"   in [{self.lower_Pstar_interval[0]:.6f}, {self.lower_Pstar_interval[1]:.6f}]",
            f"  lower ((1/5)sqrt(1-p)/sqrt(d)): {self.lower_fifth:.6f}   [{self.lower_fifth_note}]",
        ]
        return "\n".join(lines)


def bound_report(n: int, d: float, C: float = C_MIN_MAIN) -> BoundReport:
    """Evaluate every closed-form bound at (n, d, C) and flag validity."""
    (n,) = require_ints(1, n=n)
    if not (0.0 < d < n):
        raise ValidationError(f"d={d} must lie in (0, n)")
    require_reals(C=C)
    p = d / n
    rd = math.sqrt(d)
    log_n = math.log(n) if n > 1 else 0.0
    d_much_less_n = n > 1 and d <= n / log_n
    spectral_ok = n > 1 and d >= log_n ** 2
    if d <= 1.0:
        regime = "subcritical"
    elif spectral_ok:
        regime = "spectral_valid"
    else:
        regime = "main"
    return BoundReport(
        n=n, d=d, p=p, C=C,
        upper_main=UPPER_MAIN_COEFF / rd,
        upper_tradeoff=UPPER_TRADEOFF_COEFF / rd,
        upper_asymptotic=(3.0 + 2.0 * SQRT2) * C / 4.0 / rd,
        spectral_upper=4.0 / rd,
        lower_Pstar=P_STAR / rd,
        lower_Pstar_interval=((P_STAR - P_STAR_TOL) / rd, (P_STAR + P_STAR_TOL) / rd),
        lower_fifth=0.2 * math.sqrt(1.0 - p) / rd,
        regime=regime,
        upper_main_valid=d >= D_MIN_MAIN and d_much_less_n,
        upper_main_asymptotic_caveat=not d_much_less_n,
        upper_asymptotic_valid=C > TWO_SQRT_LN2,
        spectral_valid=spectral_ok,
    )


@dataclass(frozen=True)
class SupremumResult:
    value: float
    argmax: float


def supremum_check() -> SupremumResult:
    """Maximize (1-s)(1 + 2 sqrt(s(1-s))) over a grid of 2^20 + 1 points
    of [0,1]; the maximum must equal (3+2*sqrt(2))/4 to within 1e-8."""
    s = np.linspace(0.0, 1.0, 2**20 + 1)
    values = (1.0 - s) * (1.0 + 2.0 * np.sqrt(s * (1.0 - s)))
    best = int(np.argmax(values))
    value = float(values[best])
    if abs(value - SUPREMUM_VALUE) > 1e-8:
        raise RuntimeError(
            f"supremum {value!r} differs from (3+2*sqrt(2))/4 = {SUPREMUM_VALUE!r}")
    return SupremumResult(value=value, argmax=float(s[best]))


@dataclass(frozen=True)
class ConstantAudit:
    name: str
    value: float          # recomputed to full double precision
    printed: str          # the published decimal approximation
    matches: bool         # value rounds to `printed` at its precision


def _audit(name: str, value: float, printed: str) -> ConstantAudit:
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    matches = f"{value:.{decimals}f}" == printed
    return ConstantAudit(name=name, value=value, printed=printed, matches=matches)


def asymptotic_constants() -> tuple[ConstantAudit, ...]:
    """Every named constant, recomputed and checked against its
    published decimal approximation."""
    return (
        _audit("upper_main_coeff", UPPER_MAIN_COEFF, "2.91"),
        _audit("upper_tradeoff_coeff", UPPER_TRADEOFF_COEFF, "3.06"),
        _audit("upper_asymptotic_coeff",
               (3.0 + 2.0 * SQRT2) * TWO_SQRT_LN2 / 4.0, "2.43"),
        _audit("two_sqrt_ln2", TWO_SQRT_LN2, "1.665"),
        _audit("sqrt_2ln2", SQRT_2LN2, "1.17741"),
        _audit("seven_ln2_over_6", SEVEN_LN2_OVER_6, "0.81"),
        _audit("ln2_plus_001", LN2_PLUS_001, "0.70315"),
        _audit("supremum_value", SUPREMUM_VALUE, "1.4571"),
        _audit("p_star", P_STAR, "0.76321"),
    )
