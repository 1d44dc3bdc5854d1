"""Chernoff tail machinery, the auxiliary rate functions with the
certificate of the paper's Appendix inequalities on them, and the
Lemma 3.2 subset-concentration event checks.

`verify_appendix(z)` proves f > 0.001 and g > ln 2 + 0.01 over their
whole domains by a branch and bound in one variable.

The three events checked against a graph are, for a subset S with
s = |S|/n and density parameter d:

    e(S)      >  s (s + C d^{-1/2}) n d / 2          (inside-S excess)
    e(Sbar)   >  (1-s)((1-s) + C d^{-1/2}) n d / 2   (inside-complement excess)
    e(S,Sbar) <  (s(1-s) - C sqrt(s(1-s)) d^{-1/2}) n d   (cut deficit)

Both checks count through one tally: a (4, n+1) int64 table holding,
for each size k, the subsets checked and their violations of each
event.  The thresholds are evaluated once per k in double precision and
compared with strict inequality against exact integer edge counts; each
chunk of subsets is added with four bincounts, and the small, middle and
large regime rows are read off the table.  The exhaustive check feeds
it every nonempty proper subset, modularity.EXACT_CELLS masks at a
time, up to the fixed ceiling n = EXHAUSTIVE_CAP; the sampled check
feeds it one batch of SAMPLE_BATCH random subsets at a time, and counts
their e(S) over graph.CSR_SLICE edges at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modularity
from .bounds import C_MIN_MAIN, LN2_PLUS_001
from .errors import CapExceeded, ValidationError, require_ints, require_reals, require_scalars
from .graph import CSR_SLICE, Graph, subset_edges
from .rng import generator, trial_seed

EXHAUSTIVE_CAP = 24
SAMPLE_BATCH = 512


# ---------------------------------------------------------------------------
# Rate functions.


def _value(out: np.ndarray):
    """A 0-d result as a float, any other as the array."""
    return float(out) if out.ndim == 0 else out


def phi(y):
    """Chernoff rate function (1+y) ln(1+y) - y, for y >= 0.

    Accepts scalars or numpy arrays.
    """
    (y,) = require_reals(zero_ok=True, y=y)
    return _value((1.0 + y) * np.log1p(y) - y)


def _finite(mu: float, t: float, bound: float) -> float:
    """bound, or ValidationError naming mu and t if it or t/mu overflowed."""
    if not (math.isfinite(bound) and math.isfinite(t / mu)):
        raise ValidationError(f"mu={mu!r}, t={t!r} overflow the Chernoff bounds")
    return bound


def chernoff_upper(mu: float, t: float) -> tuple[float, float]:
    """Upper-tail bounds for Bin with mean mu: P(X >= mu + t) is at most
    exp(-mu phi(t/mu)), which is at most exp(-t^2 / (2(mu + t/3)))."""
    require_scalars(mu=mu)
    require_scalars(zero_ok=True, t=t)
    bound_quad = _finite(mu, t, math.exp(-t * t / (2.0 * (mu + t / 3.0))))
    return math.exp(-mu * phi(t / mu)), bound_quad


def chernoff_lower(mu: float, t: float) -> float:
    """Lower-tail bound: P(X <= mu - t) <= exp(-t^2 / (2 mu))."""
    require_scalars(mu=mu)
    require_scalars(zero_ok=True, t=t)
    return _finite(mu, t, math.exp(-t * t / (2.0 * mu)))


def _ratio(num: np.ndarray, den: np.ndarray, what: str, **args) -> np.ndarray:
    """num/den, or ValidationError naming `args` if it overflowed."""
    with np.errstate(over="ignore"):
        r = num / den
    if not np.isfinite(r).all():
        named = ", ".join(f"{k}={_value(v)!r}" for k, v in args.items())
        raise ValidationError(f"{named} overflow {what}")
    return r


def f(x, y, z):
    """(xy/2) phi(z/x) - (ln(y/x) + 1)."""
    x, y, z = require_reals(x=x, y=y, z=z)
    r = _ratio(z, x, "z/x", x=x, z=z)
    return _value(x * y / 2.0 * phi(r) - (np.log(y / x) + 1.0))


def g(x, z):
    """(x^2/2) phi(z/x)."""
    x, z = require_reals(x=x, z=z)
    return _value(x * x / 2.0 * phi(_ratio(z, x, "z/x", x=x, z=z)))


def h1(x, z):
    """x (ln(1 + z/x) - z/x); increasing in x for fixed z > 0.

    Computed as x ln(1 + z/x) - z: in the form x (ln(1 + r) - r) the
    product x (z/x) rounds away from z, which at huge z (1e20) puts
    samples of h1 at neighbouring x out of order."""
    x, z = require_reals(x=x, z=z)
    r = _ratio(z, x, "z/x", x=x, z=z)
    return _value(x * np.log1p(r) - z)


def h2(y, z):
    """y^2 (ln(1 + 3z/y) - 3z/y); decreasing in y for fixed z > 0."""
    y, z = require_reals(y=y, z=z)
    r = _ratio(3.0 * z, y, "3z/y", y=y, z=z)
    return _value(y * y * (np.log1p(r) - r))


def h3(t):
    """ln(1+t) - t; decreasing in t > 0."""
    (t,) = require_reals(t=t)
    return _value(np.log1p(t) - t)


# ---------------------------------------------------------------------------
# Certified appendix inequalities.  With t = 3x/y and psi(w) = phi(w)/w^2,
# f = (3z^2/2t) psi(3z/(ty)) - ln(3/t) - 1 and g = (z^2/2) psi(z/x).  psi
# falls (psi' <= 0 is ln(1+w) >= 2w/(2+w)), so f rises in y at fixed t and
# in z, and g rises in x and in z: over 0 < x <= y/3, y >= Y_MIN, z' >= z,
# inf f is inf F(x) = f(x, Y_MIN, z) over (0, Y_MIN/3], and over
# x >= G_X_MIN, min g = g(G_X_MIN, z).  With w = z/x and k = Y_MIN z/2,
# F = (k-1) ln w + k R(w) - k - ln(Y_MIN/z) - 1, where
# R(w) = ln(1 + 1/w) + ln(1 + w)/w is positive and falls in w.

F_THRESHOLD = 0.001
G_THRESHOLD = LN2_PLUS_001
Y_MIN, G_X_MIN = 3.95, 1.34
F_TOL = 1e-9  # a box is finished once its bound is within F_TOL of min_f
# Relative float64 rounding allowance of each bound, of the sum of its
# terms' magnitudes: a few dozen roundings, far inside 2^-40 = 4096 ulp.
ROUND_REL = 2.0 ** -40
X_FLOOR = 1e-150  # the search's least x; a closed-form tail covers (0, x0]
MONO_POINTS = 10_000


@dataclass(frozen=True)
class AppendixReport:
    """The certificate at deviation parameter z: f_lower <= f over
    0 < x <= y/3, y >= Y_MIN, z' >= z, and g_lower <= g over x >= G_X_MIN,
    z' >= z.  min_f and min_g are f and g at the smallest points found."""

    min_f: float
    argmin_f: tuple[float, float, float]
    f_lower: float
    min_g: float
    argmin_g: tuple[float, float]
    g_lower: float
    monotonicity_violations: int
    f_threshold: float = F_THRESHOLD
    g_threshold: float = G_THRESHOLD

    CSV_COLUMNS = ("min_f,x_f,y_f,z_f,f_lower,min_g,x_g,z_g,g_lower,"
                   "monotonicity_violations,passed")

    @property
    def passed(self) -> bool:
        return (self.f_lower > self.f_threshold
                and self.g_lower > self.g_threshold
                and self.monotonicity_violations == 0)

    def csv_row(self) -> str:
        values = (self.min_f, *self.argmin_f, self.f_lower,
                  self.min_g, *self.argmin_g, self.g_lower)
        return (",".join(map(repr, values))
                + f",{self.monotonicity_violations},{int(self.passed)}")


def _rest(x, z: float):
    """R(z/x)."""
    u = x / z
    return np.log1p(u) + u * np.log1p(1.0 / u)


def _f_bound(x, r, z: float):
    """(k-1) ln(z/x) + k r - k - ln(Y_MIN/z) - 1, less its rounding
    allowance: F at x with r in place of R(z/x)."""
    k = Y_MIN * z / 2.0
    lz, lx = math.log(z), np.log(x)
    c = k + math.log(Y_MIN / z) + 1.0
    size = (k + 1.0) * (abs(lz) + np.abs(lx)) + k * r + k + abs(c)
    return (k - 1.0) * (lz - lx) + k * r - c - ROUND_REL * size


def _certify_f(z: float) -> tuple[float, float, float]:
    """(f_lower, min_f, x at min_f) by a branch and bound on F over
    [x0, Y_MIN/3], splitting boxes at their geometric midpoints until
    each box's bound is within F_TOL of min_f or it cannot be split.
    On [xa, xb], R(z/x) >= R(z/xa), and (k-1) ln(z/x) >= (k-1) ln(z/xb)
    when k > 1.  Below x0, F >= (k-1) ln(z/x0) - k - ln(Y_MIN/z) - 1
    as R > 0; for k <= 1 (or within ROUND_REL of 1) f_lower is -inf."""
    k = Y_MIN * z / 2.0
    rising = k > 1.0 + ROUND_REL
    corner = Y_MIN / 3.0
    best, x_best = f(corner, Y_MIN, z), corner
    x0, lower = X_FLOOR, -math.inf
    if rising:  # the tail a unit above the corner's F, unless below X_FLOOR
        ln_x0 = math.log(z) - (best + 2.0 + k + math.log(Y_MIN / z)) / (k - 1.0)
        x0 = min(corner, max(X_FLOOR, math.exp(ln_x0)))
        lower = float(_f_bound(x0, 0.0, z))
    if (low := f(x0, Y_MIN, z)) < best:
        best, x_best = low, x0
    xa, xb = np.array([x0]), np.array([corner])
    while xa.size:
        mid = xa * np.sqrt(xb / xa)
        vals = f(mid, Y_MIN, z)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, x_best = float(vals[i]), float(mid[i])
        bound = _f_bound(xb if rising else xa, _rest(xa, z), z)
        done = (bound >= best - F_TOL) | (mid <= xa) | (mid >= xb)
        lower = min(lower, float(bound[done].min(initial=np.inf)))
        xa, xb, mid = xa[~done], xb[~done], mid[~done]
        xa, xb = np.concatenate([xa, mid]), np.concatenate([mid, xb])
    return lower, best, x_best


def verify_appendix(z: float = C_MIN_MAIN) -> AppendixReport:
    """Certify f > F_THRESHOLD and g > G_THRESHOLD over their whole
    domains at deviation parameter z and above, and check at MONO_POINTS
    points that phi, g (in x and in z) and h1 rise and h2 and h3 fall."""
    (z,) = require_scalars(z=z)
    f_lower, min_f, x = _certify_f(z)
    min_g = g(G_X_MIN, z)
    pts = np.linspace(1e-6, 10.0, MONO_POINTS)
    rises = (phi(pts), g(pts + 1.0, z), g(1.0, pts), h1(pts, z), -h2(pts, z), -h3(pts))
    return AppendixReport(min_f=min_f, argmin_f=(x, Y_MIN, z),
                          f_lower=f_lower, min_g=min_g, argmin_g=(G_X_MIN, z),
                          g_lower=min_g * (1.0 - ROUND_REL),
                          monotonicity_violations=sum(
                              int(np.count_nonzero(np.diff(v) < 0)) for v in rises))


# ---------------------------------------------------------------------------
# Subset concentration events.


@dataclass(frozen=True)
class RegimeSummary:
    regime: str
    k_min: int
    k_max: int
    trials: int
    violations_3_1: int
    violations_3_2: int
    violations_3_3: int


@dataclass(frozen=True)
class EventCheckResult:
    n: int
    d: float
    C: float
    mode: str
    regimes: tuple[RegimeSummary, ...]

    @property
    def total_violations(self) -> int:
        return sum(r.violations_3_1 + r.violations_3_2 + r.violations_3_3
                   for r in self.regimes)

    def csv_rows(self) -> list[str]:
        header = "regime,k,trials,violations_3_1,violations_3_2,violations_3_3"
        rows = [header]
        for r in self.regimes:
            k = f"{r.k_min}-{r.k_max}" if r.k_min != r.k_max else str(r.k_min)
            rows.append(f"{r.regime},{k},{r.trials},"
                        f"{r.violations_3_1},{r.violations_3_2},{r.violations_3_3}")
        return rows


class _Tally:
    """Per-size counts for the event checks: row 0 of `table` counts the
    subsets of each size k = 0..n, rows 1-3 their violations of events
    3.1, 3.2 and 3.3, in a graph with n vertices and m edges.  Each
    size's thresholds are computed once."""

    def __init__(self, n: int, m: int, d: float, C: float):
        self.n, self.m = n, m
        s = np.arange(n + 1, dtype=float) / n
        cd = C / math.sqrt(d)
        self.thr1 = s * (s + cd) * n * d / 2.0
        self.thr2 = (1.0 - s) * ((1.0 - s) + cd) * n * d / 2.0
        self.thr3 = (s * (1.0 - s) - cd * np.sqrt(s * (1.0 - s))) * n * d
        self.table = np.zeros((4, n + 1), dtype=np.int64)

    def add(self, k: np.ndarray, e_in: np.ndarray, e_cross: np.ndarray) -> None:
        """Count a chunk of subsets, given by their sizes and edge counts."""
        e_out = self.m - e_in - e_cross
        counted = (k, k[e_in > self.thr1[k]], k[e_out > self.thr2[k]],
                   k[e_cross < self.thr3[k]])
        for row, sizes in enumerate(counted):
            self.table[row] += np.bincount(sizes, minlength=self.n + 1)

    def regimes(self) -> tuple[RegimeSummary, ...]:
        """Rows for the sizes 1 <= k <= sqrt(n), sqrt(n) < k <= n/3 and
        k > max(sqrt(n), n/3), each over the sizes it counted.  The empty
        set (k = 0) is left out by convention, though for m > (1 + C/sqrt(d))
        nd/2 it violates event 3.2."""
        r, third = math.isqrt(self.n), self.n // 3
        out = []
        for name, lo, hi in (("small", 1, r), ("middle", r + 1, third),
                             ("large", max(r, third) + 1, self.n)):
            block = self.table[:, lo:hi + 1]
            ks = lo + np.flatnonzero(block[0])
            if ks.size:
                out.append(RegimeSummary(name, int(ks[0]), int(ks[-1]),
                                         *(int(c) for c in block.sum(axis=1))))
        return tuple(out)


def default_size_schedule(n: int) -> list[int]:
    """Subset sizes covering the three regimes k <= sqrt(n),
    sqrt(n) < k <= n/3, n/3 < k <= n."""
    r = math.isqrt(n)
    sizes: list[int] = []
    sizes.extend(sorted({1, 2, max(1, r // 2), r}))
    third = n // 3
    if third > r:
        sizes.extend(sorted({r + 1, (r + third) // 2, third}))
    sizes.extend(sorted({third + 1, (third + n) // 2, n // 2, n - 1, n}))
    return sorted(set(k for k in sizes if 1 <= k <= n))


def check_lemma32_events_exhaustive(G: Graph, C: float, d: float) -> EventCheckResult:
    """Check the three events for every nonempty proper subset of V,
    modularity.EXACT_CELLS masks at a time."""
    require_reals(C=C, d=d)
    n = G.n
    if n > EXHAUSTIVE_CAP:
        raise CapExceeded("exhaustive event check n", n, EXHAUSTIVE_CAP)
    tally = _Tally(n, G.m, d, C)
    e_in_tab = subset_edges(G)
    full = (1 << n) - 1
    for lo in range(1, full, modularity.EXACT_CELLS):
        masks = np.arange(lo, min(lo + modularity.EXACT_CELLS, full))
        e_in = e_in_tab[masks]
        e_cross = G.m - e_in - e_in_tab[full ^ masks]
        tally.add(np.bitwise_count(masks), e_in, e_cross)
    return EventCheckResult(n=n, d=d, C=C, mode="exhaustive", regimes=tally.regimes())


def check_lemma32_events_sampled(G: Graph, C: float, d: float, trials: int,
                                 seed: int, strategy: str = "stratified") -> EventCheckResult:
    """Monte Carlo event check, SAMPLE_BATCH subsets at a time.

    strategy "uniform": subsets drawn uniformly over all 2^n subsets.
    strategy "stratified": trials spread round-robin over
    default_size_schedule(n), drawing uniformly among subsets of each size.
    """
    require_reals(C=C, d=d)
    if strategy not in ("uniform", "stratified"):
        raise ValidationError(f"unknown sampling strategy {strategy!r}")
    (trials,) = require_ints(1, trials=trials)
    n = G.n
    edges = G.edges  # a property that builds the (m, 2) array on each read
    u, v = edges[:, 0] - 1, edges[:, 1] - 1
    rng = generator(trial_seed(seed, 0))
    schedule = np.array(default_size_schedule(n))
    tally = _Tally(n, G.m, d, C)
    for done in range(0, trials, SAMPLE_BATCH):
        b = min(SAMPLE_BATCH, trials - done)
        if strategy == "uniform":
            member = rng.random((b, n)) < 0.5
            kb = member.sum(axis=1)
        else:
            kb = schedule[np.arange(done, done + b) % len(schedule)]
            member = np.zeros((b, n), dtype=bool)
            for i in range(b):
                member[i, rng.choice(n, size=int(kb[i]), replace=False)] = True
        # one row per vertex, so each edge gathers two contiguous rows, a
        # slice of CSR_SLICE edges at a time; vol(S) = 2 e(S) + e(S,Sbar),
        # and the int64 sums are exact
        rows = np.ascontiguousarray(member.T)
        e_in = np.zeros(b, dtype=np.int64)
        for i0 in range(0, len(u), CSR_SLICE):
            both = rows[u[i0:i0 + CSR_SLICE]]
            both &= rows[v[i0:i0 + CSR_SLICE]]
            e_in += both.sum(axis=0)
        tally.add(kb, e_in, member @ G.degrees - 2 * e_in)
    return EventCheckResult(n=n, d=d, C=C, mode=f"sampled/{strategy}",
                            regimes=tally.regimes())
