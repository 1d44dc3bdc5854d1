"""Chernoff tail machinery, the auxiliary rate functions with their
grid verifier, and subset-concentration event checks.

The three events checked against a graph are, for a subset S with
s = |S|/n and density parameter d:

    e(S)      >  s (s + C d^{-1/2}) n d / 2          (inside-S excess)
    e(Sbar)   >  (1-s)((1-s) + C d^{-1/2}) n d / 2   (inside-complement excess)
    e(S,Sbar) <  (s(1-s) - C sqrt(s(1-s)) d^{-1/2}) n d   (cut deficit)

Edge counts are exact integers; thresholds are evaluated in double
precision and compared with strict inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CapExceeded, ValidationError
from .graph import Graph, popcounts, subset_tables
from .rng import generator, trial_seed

EXHAUSTIVE_CAP = 24


# ---------------------------------------------------------------------------
# Rate functions.


def phi(y):
    """Chernoff rate function (1+y) ln(1+y) - y, for y >= 0.

    Accepts scalars or numpy arrays.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise ValidationError("phi requires y >= 0")
    out = (1.0 + arr) * np.log1p(arr) - arr
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def chernoff_upper(mu: float, t: float) -> tuple[float, float]:
    """Upper-tail bounds for Bin with mean mu: P(X >= mu + t) is at most
    exp(-mu phi(t/mu)), which is at most exp(-t^2 / (2(mu + t/3)))."""
    if mu <= 0:
        raise ValidationError("chernoff_upper requires mu > 0")
    if t < 0:
        raise ValidationError("chernoff_upper requires t >= 0")
    bound_phi = math.exp(-mu * phi(t / mu))
    bound_quad = math.exp(-t * t / (2.0 * (mu + t / 3.0)))
    return bound_phi, bound_quad


def chernoff_lower(mu: float, t: float) -> float:
    """Lower-tail bound: P(X <= mu - t) <= exp(-t^2 / (2 mu))."""
    if mu <= 0:
        raise ValidationError("chernoff_lower requires mu > 0")
    if t < 0:
        raise ValidationError("chernoff_lower requires t >= 0")
    return math.exp(-t * t / (2.0 * mu))


def _require_positive(**kwargs) -> None:
    for name, val in kwargs.items():
        if not np.all(np.asarray(val) > 0):
            raise ValidationError(f"{name} must be strictly positive")


def _require_finite_positive(**kwargs) -> None:
    for name, val in kwargs.items():
        if not (math.isfinite(val) and val > 0):
            raise ValidationError(f"{name}={val!r} must be finite and > 0")


def f(x, y, z):
    """(xy/2) phi(z/x) - (ln(y/x) + 1)."""
    _require_positive(x=x, y=y, z=z)
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    out = x * y / 2.0 * phi(z / x) - (np.log(y / x) + 1.0)
    return float(out) if out.ndim == 0 else out


def g(x, z):
    """(x^2/2) phi(z/x)."""
    _require_positive(x=x, z=z)
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    out = x * x / 2.0 * phi(z / x)
    return float(out) if out.ndim == 0 else out


def h1(x, z):
    """x (ln(1 + z/x) - z/x); increasing in x for fixed z > 0."""
    _require_positive(x=x, z=z)
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    out = x * (np.log1p(z / x) - z / x)
    return float(out) if out.ndim == 0 else out


def h2(y, z):
    """y^2 (ln(1 + 3z/y) - 3z/y); decreasing in y for fixed z > 0."""
    _require_positive(y=y, z=z)
    y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    out = y * y * (np.log1p(3.0 * z / y) - 3.0 * z / y)
    return float(out) if out.ndim == 0 else out


def h3(t):
    """ln(1+t) - t; decreasing in t > 0."""
    _require_positive(t=t)
    t = np.asarray(t, dtype=float)
    out = np.log1p(t) - t
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Grid verification of the rate-function inequalities.

F_THRESHOLD = 0.001
G_THRESHOLD = math.log(2.0) + 0.01


@dataclass(frozen=True)
class GridSpec:
    """Grid over which the f/g inequalities and monotonicity claims are
    checked.  f domain: 0 < x <= y/3, y >= y_min, z in z_values.
    g domain: x >= g_x_min, z in z_values."""

    step: float = 0.01
    y_min: float = 3.95
    y_max: float = 20.0
    z_values: tuple[float, ...] = (1.999, 2.5, 5.0, 20.0)
    g_x_min: float = 1.34
    g_x_max: float = 20.0
    mono_points: int = 10_000

    def __post_init__(self):
        if self.step <= 0 or self.y_max <= self.y_min or self.g_x_max <= self.g_x_min:
            raise ValidationError("malformed grid specification")
        if not self.z_values or min(self.z_values) <= 0:
            raise ValidationError("z_values must be positive and nonempty")


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
            vals = f(xs, y, z)
            i = int(np.argmin(vals))
            if vals[i] < min_f:
                min_f = float(vals[i])
                argmin_f = (float(xs[i]), float(y), float(z))
    gxs = np.arange(grid.g_x_min, grid.g_x_max + grid.step / 2, grid.step)
    min_g = math.inf
    argmin_g = (math.nan, math.nan)
    for z in grid.z_values:
        vals = g(gxs, z)
        i = int(np.argmin(vals))
        if vals[i] < min_g:
            min_g = float(vals[i])
            argmin_g = (float(gxs[i]), float(z))

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
class EventFlags:
    violates_3_1: bool
    violates_3_2: bool
    violates_3_3: bool
    s: float
    C: float
    d: float
    k: int


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
    flagged: tuple[EventFlags, ...] = field(default=())

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


def _regime_name(k: int, n: int) -> str:
    if k <= math.isqrt(n):
        return "small"
    if 3 * k <= n:
        return "middle"
    return "large"


def _event_thresholds(n: int, d: float, C: float, k: np.ndarray):
    """Per-size thresholds for the three events (vectorized over k)."""
    s = k / n
    cd = C / math.sqrt(d)
    thr1 = s * (s + cd) * n * d / 2.0
    thr2 = (1.0 - s) * ((1.0 - s) + cd) * n * d / 2.0
    thr3 = (s * (1.0 - s) - cd * np.sqrt(s * (1.0 - s))) * n * d
    return thr1, thr2, thr3


def _flags_from_counts(e_in, e_out, e_cross, k, n, d, C):
    thr1, thr2, thr3 = _event_thresholds(n, d, C, np.asarray(k, dtype=float))
    return (np.asarray(e_in) > thr1,
            np.asarray(e_out) > thr2,
            np.asarray(e_cross) < thr3)


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


def check_lemma32_events_exhaustive(G: Graph, C: float, d: float,
                                    cap: int = EXHAUSTIVE_CAP) -> EventCheckResult:
    """Check the three events for every nonempty proper subset of V."""
    _require_finite_positive(C=C, d=d)
    n = G.n
    if n > cap:
        raise CapExceeded("exhaustive event check n", n, cap)
    e_in_tab, _ = subset_tables(G)
    full = (1 << n) - 1
    masks = np.arange(1, full)
    k = popcounts(n)[1:full]
    e_in = e_in_tab[masks]
    e_out = e_in_tab[full ^ masks]
    e_cross = G.m - e_in - e_out
    # thresholds once per size k, then read per subset
    thr1, thr2, thr3 = _event_thresholds(n, d, C, np.arange(n + 1, dtype=float))
    v1 = e_in > thr1[k]
    v2 = e_out > thr2[k]
    v3 = e_cross < thr3[k]
    tallies = [np.bincount(k[sel], minlength=n)
               for sel in (slice(None), v1, v2, v3)]
    counts = {kk: [int(t[kk]) for t in tallies] for kk in range(1, n)}
    flagged = [EventFlags(bool(v1[i]), bool(v2[i]), bool(v3[i]),
                          s=int(k[i]) / n, C=C, d=d, k=int(k[i]))
               for i in np.nonzero(v1 | v2 | v3)[0]]
    regimes = _summarize(counts, n)
    return EventCheckResult(n=n, d=d, C=C, mode="exhaustive",
                            regimes=regimes, flagged=tuple(flagged))


def _summarize(counts: dict, n: int) -> tuple[RegimeSummary, ...]:
    agg: dict[str, list[int]] = {}
    kranges: dict[str, list[int]] = {}
    for k, (tr, v1, v2, v3) in sorted(counts.items()):
        if tr == 0:
            continue
        name = _regime_name(k, n)
        a = agg.setdefault(name, [0, 0, 0, 0])
        a[0] += tr
        a[1] += v1
        a[2] += v2
        a[3] += v3
        kranges.setdefault(name, [k, k])[1] = k
        kranges[name][0] = min(kranges[name][0], k)
    out = []
    for name in ("small", "middle", "large"):
        if name in agg:
            a = agg[name]
            lo, hi = kranges[name]
            out.append(RegimeSummary(name, lo, hi, a[0], a[1], a[2], a[3]))
    return tuple(out)


def check_lemma32_events_sampled(G: Graph, C: float, d: float, trials: int,
                                 seed: int, strategy: str = "stratified",
                                 sizes: Iterable[int] | None = None,
                                 batch: int = 512) -> EventCheckResult:
    """Monte Carlo event check.

    strategy "uniform": subsets drawn uniformly over all 2^n subsets.
    strategy "stratified": trials spread round-robin over a size
    schedule, drawing uniformly among subsets of each size.
    """
    _require_finite_positive(C=C, d=d)
    if strategy not in ("uniform", "stratified"):
        raise ValidationError(f"unknown sampling strategy {strategy!r}")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n = G.n
    u, v = G.edges[:, 0] - 1, G.edges[:, 1] - 1
    rng = generator(trial_seed(seed, 0))
    if strategy == "stratified":
        schedule = list(sizes) if sizes is not None else default_size_schedule(n)
        if any(not 1 <= k <= n for k in schedule):
            raise ValidationError("size schedule entries must lie in 1..n")
        ks = np.array([schedule[i % len(schedule)] for i in range(trials)])
    else:
        ks = None
    counts = {k: [0, 0, 0, 0] for k in range(0, n + 1)}
    flagged: list[EventFlags] = []
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        if strategy == "uniform":
            member = rng.random((b, n)) < 0.5
            kb = member.sum(axis=1)
        else:
            kb = ks[done:done + b]
            member = np.zeros((b, n), dtype=bool)
            for i in range(b):
                idx = rng.choice(n, size=int(kb[i]), replace=False)
                member[i, idx] = True
        # one row per vertex, so each edge gathers two contiguous rows;
        # vol(S) = 2 e(S) + e(S,Sbar), and the int64 product is exact
        rows = np.ascontiguousarray(member.T)
        e_in = (rows[u] & rows[v]).sum(axis=0)
        e_cross = member @ G.degrees - 2 * e_in
        e_out = G.m - e_in - e_cross
        v1, v2, v3 = _flags_from_counts(e_in, e_out, e_cross, kb, n, d, C)
        for i in range(b):
            k = int(kb[i])
            c = counts[k]
            c[0] += 1
            if v1[i] or v2[i] or v3[i]:
                c[1] += int(v1[i])
                c[2] += int(v2[i])
                c[3] += int(v3[i])
                flagged.append(EventFlags(bool(v1[i]), bool(v2[i]), bool(v3[i]),
                                          s=k / n, C=C, d=d, k=k))
        done += b
    counts.pop(0, None)  # S = empty set is trivially non-violating
    regimes = _summarize(counts, n)
    return EventCheckResult(n=n, d=d, C=C, mode=f"sampled/{strategy}",
                            regimes=regimes, flagged=tuple(flagged))
