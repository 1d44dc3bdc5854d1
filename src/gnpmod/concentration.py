"""Chernoff tail machinery, the auxiliary rate functions with their
grid verifier, and the Lemma 3.2 subset-concentration event checks.

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
it every nonempty proper subset, EXHAUSTIVE_CHUNK masks at a time, up to
the fixed ceiling n = EXHAUSTIVE_CAP; the sampled check feeds it one
batch of SAMPLE_BATCH random subsets at a time.  The grid verifier has a
fixed ceiling too, GRID_EVALUATIONS_MAX points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import C_MIN_MAIN, LN2_PLUS_001
from .errors import CapExceeded, ValidationError, require_reals
from .graph import Graph, subset_edges
from .rng import generator, trial_seed

EXHAUSTIVE_CAP = 24
EXHAUSTIVE_CHUNK = 1 << 16
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
    require_reals(mu=mu)
    require_reals(zero_ok=True, t=t)
    bound_quad = _finite(mu, t, math.exp(-t * t / (2.0 * (mu + t / 3.0))))
    return math.exp(-mu * phi(t / mu)), bound_quad


def chernoff_lower(mu: float, t: float) -> float:
    """Lower-tail bound: P(X <= mu - t) <= exp(-t^2 / (2 mu))."""
    require_reals(mu=mu)
    require_reals(zero_ok=True, t=t)
    return _finite(mu, t, math.exp(-t * t / (2.0 * mu)))


def f(x, y, z):
    """(xy/2) phi(z/x) - (ln(y/x) + 1)."""
    x, y, z = require_reals(x=x, y=y, z=z)
    return _value(x * y / 2.0 * phi(z / x) - (np.log(y / x) + 1.0))


def g(x, z):
    """(x^2/2) phi(z/x)."""
    x, z = require_reals(x=x, z=z)
    return _value(x * x / 2.0 * phi(z / x))


def h1(x, z):
    """x (ln(1 + z/x) - z/x); increasing in x for fixed z > 0."""
    x, z = require_reals(x=x, z=z)
    return _value(x * (np.log1p(z / x) - z / x))


def h2(y, z):
    """y^2 (ln(1 + 3z/y) - 3z/y); decreasing in y for fixed z > 0."""
    y, z = require_reals(y=y, z=z)
    return _value(y * y * (np.log1p(3.0 * z / y) - 3.0 * z / y))


def h3(t):
    """ln(1+t) - t; decreasing in t > 0."""
    (t,) = require_reals(t=t)
    return _value(np.log1p(t) - t)


# ---------------------------------------------------------------------------
# Grid verification of the rate-function inequalities.

F_THRESHOLD = 0.001
G_THRESHOLD = LN2_PLUS_001
GRID_EVALUATIONS_MAX = 3 * 10**7
# Points of one f or g row evaluated at once; their temporaries take
# about 46 bytes a point.
GRID_SLICE = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Grid over which the f/g inequalities and monotonicity claims are
    checked.  f domain: 0 < x <= y/3, y >= y_min, z in z_values.
    g domain: x >= g_x_min, z in z_values."""

    step: float = 0.01
    y_min: float = 3.95
    y_max: float = 20.0
    z_values: tuple[float, ...] = (C_MIN_MAIN, 2.5, 5.0, 20.0)
    g_x_min: float = 1.34
    g_x_max: float = 20.0
    mono_points: int = 10_000

    def __post_init__(self):
        bounds = (self.step, self.y_min, self.y_max, self.g_x_min, self.g_x_max)
        if (not all(map(math.isfinite, bounds)) or self.step <= 0 or not self.z_values
                or self.y_max <= self.y_min or self.g_x_max <= self.g_x_min):
            raise ValidationError("malformed grid specification")
        require_reals(z_values=self.z_values)
        if not isinstance(self.mono_points, (int, np.integer)) or self.mono_points < 2:
            raise ValidationError(f"mono_points={self.mono_points!r} must be an integer >= 2")
        if self.evaluations > GRID_EVALUATIONS_MAX:
            raise CapExceeded("verify_appendix grid evaluations",
                              float(f"{self.evaluations:.3g}"), GRID_EVALUATIONS_MAX)

    @property
    def evaluations(self) -> float:
        """Points at which verify_appendix evaluates f, g and the monotone
        functions, in closed form: the f row at y holds about y/(3 step)
        points, so the rows from y_min to y_max hold about
        n_y (y_min + y_max) / (6 step)."""
        n_y = (self.y_max - self.y_min) / self.step + 1
        n_g = (self.g_x_max - self.g_x_min) / self.step + 1
        f_points = n_y * (self.y_min + self.y_max) / (6 * self.step)
        return len(self.z_values) * (f_points + n_g) + 6 * self.mono_points


@dataclass(frozen=True)
class GridReport:
    grid: GridSpec
    min_f: float
    argmin_f: tuple[float, float, float]
    min_g: float
    argmin_g: tuple[float, float]
    monotonicity_violations: int
    f_threshold: float = F_THRESHOLD
    g_threshold: float = G_THRESHOLD

    @property
    def passed(self) -> bool:
        return (self.min_f > self.f_threshold
                and self.min_g > self.g_threshold
                and self.monotonicity_violations == 0)


def _monotone_violations(values: np.ndarray, increasing: bool) -> int:
    diffs = np.diff(values)
    return int(np.count_nonzero(diffs < 0 if increasing else diffs > 0))


def _first_min(fn, xs: np.ndarray, *args) -> tuple[float, float]:
    """The first minimum of fn(x, *args) over xs and the x it is at,
    evaluated GRID_SLICE points at a time."""
    best, at = math.inf, math.nan
    for lo in range(0, len(xs), GRID_SLICE):
        part = xs[lo:lo + GRID_SLICE]
        vals = fn(part, *args)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, at = float(vals[i]), float(part[i])
    return best, at


def verify_appendix(grid: GridSpec = GridSpec()) -> GridReport:
    """Evaluate f and g on the declared grid and check the monotonicity
    claims for phi, g (each argument), h1, h2, and h3."""
    ys = np.arange(grid.y_min, grid.y_max + grid.step / 2, grid.step)
    min_f = math.inf
    argmin_f = (math.nan,) * 3
    for z in grid.z_values:
        for y in ys:
            xs = np.arange(grid.step, y / 3.0, grid.step)
            xs = np.append(xs, y / 3.0)  # include the boundary x = y/3
            val, x = _first_min(f, xs, y, z)
            if val < min_f:
                min_f, argmin_f = val, (x, float(y), float(z))
    gxs = np.arange(grid.g_x_min, grid.g_x_max + grid.step / 2, grid.step)
    min_g = math.inf
    argmin_g = (math.nan, math.nan)
    for z in grid.z_values:
        val, x = _first_min(g, gxs, z)
        if val < min_g:
            min_g, argmin_g = val, (x, float(z))

    pts = np.linspace(1e-6, 10.0, grid.mono_points)
    violations = 0
    violations += _monotone_violations(phi(pts), increasing=True)
    z0 = min(grid.z_values)
    violations += _monotone_violations(g(pts + 1.0, z0), increasing=True)   # g in x
    violations += _monotone_violations(g(1.0, pts), increasing=True)        # g in z
    violations += _monotone_violations(h1(pts, z0), increasing=True)
    violations += _monotone_violations(h2(pts, z0), increasing=False)
    violations += _monotone_violations(h3(pts), increasing=False)
    return GridReport(grid=grid, min_f=min_f, argmin_f=argmin_f,
                      min_g=min_g, argmin_g=argmin_g,
                      monotonicity_violations=violations)


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
    EXHAUSTIVE_CHUNK masks at a time."""
    require_reals(C=C, d=d)
    n = G.n
    if n > EXHAUSTIVE_CAP:
        raise CapExceeded("exhaustive event check n", n, EXHAUSTIVE_CAP)
    tally = _Tally(n, G.m, d, C)
    e_in_tab = subset_edges(G)
    full = (1 << n) - 1
    for lo in range(1, full, EXHAUSTIVE_CHUNK):
        masks = np.arange(lo, min(lo + EXHAUSTIVE_CHUNK, full))
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
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n = G.n
    u, v = G.edges[:, 0] - 1, G.edges[:, 1] - 1
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
        # one row per vertex, so each edge gathers two contiguous rows;
        # vol(S) = 2 e(S) + e(S,Sbar), and the int64 product is exact
        rows = np.ascontiguousarray(member.T)
        e_in = (rows[u] & rows[v]).sum(axis=0)
        tally.add(kb, e_in, member @ G.degrees - 2 * e_in)
    return EventCheckResult(n=n, d=d, C=C, mode=f"sampled/{strategy}",
                            regimes=tally.regimes())
