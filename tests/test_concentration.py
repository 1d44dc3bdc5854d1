import contextlib
import itertools
import math
import re
import tracemalloc
from dataclasses import astuple
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from gnpmod import concentration, modularity
from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.concentration import (EXHAUSTIVE_CAP, F_THRESHOLD, F_TOL, G_THRESHOLD,
                                  G_X_MIN, SAMPLE_BATCH, Y_MIN,
                                  check_lemma32_events_exhaustive,
                                  check_lemma32_events_sampled, chernoff_lower,
                                  chernoff_upper, default_size_schedule, f, g,
                                  h1, h2, h3, phi, verify_appendix)
from gnpmod.bisection import error_decomposition
from gnpmod.bounds import C_MIN_MAIN, bound_report
from gnpmod.graph import Graph, sample_gnp

from oracles import lemma32_events_exhaustive, lemma32_events_sampled

pos = st.floats(0.01, 50.0, allow_nan=False)


class TestChernoff:
    def test_phi_values(self):
        assert phi(0.0) == 0.0
        assert abs(phi(1.0) - (2.0 * math.log(2.0) - 1.0)) < 1e-15
        assert abs(phi(math.e - 1.0) - 1.0) < 1e-15

    def test_upper_pair(self):
        exact, simplified = chernoff_upper(100.0, 20.0)
        assert abs(exact - math.exp(-100.0 * phi(0.2))) < 1e-15
        assert abs(simplified - math.exp(-400.0 / (2.0 * (100.0 + 20.0 / 3.0)))) < 1e-15
        assert exact <= simplified

    def test_lower(self):
        assert abs(chernoff_lower(100.0, 20.0) - math.exp(-2.0)) < 1e-15

    @given(pos, pos)
    def test_exact_never_looser(self, mu, t):
        exact, simplified = chernoff_upper(mu, t)
        assert 0.0 < exact <= simplified <= 1.0
        assert 0.0 <= chernoff_lower(mu, t) <= 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            chernoff_upper(0.0, 1.0)
        with pytest.raises(ValidationError):
            chernoff_lower(1.0, -1.0)

    @pytest.mark.parametrize("mu, t", [(1e308, 1e308), (1e-320, 1.0)],
                             ids=["square-overflows", "t-over-mu-overflows"])
    def test_overflow_is_refused(self, mu, t):
        """t^2 and 2(mu + t/3) both overflow in the first pair, t/mu in
        the second; each bound used to come out nan."""
        for bound in (chernoff_upper, chernoff_lower):
            with pytest.raises(ValidationError, match=re.escape(f"mu={mu!r}, t={t!r} overflow")):
                bound(mu, t)


# Each function that takes real arguments, one argument at a time with
# the others valid; zero_ok marks the arguments that may be 0.
PATH4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
REAL_ARGUMENTS = {
    "phi-y": (phi, True),
    "chernoff_upper-mu": (lambda v: chernoff_upper(v, 1.0), False),
    "chernoff_upper-t": (lambda v: chernoff_upper(1.0, v), True),
    "chernoff_lower-mu": (lambda v: chernoff_lower(v, 1.0), False),
    "chernoff_lower-t": (lambda v: chernoff_lower(1.0, v), True),
    "f-x": (lambda v: f(v, 6.0, 2.0), False),
    "f-y": (lambda v: f(1.0, v, 2.0), False),
    "f-z": (lambda v: f(1.0, 6.0, v), False),
    "g-x": (lambda v: g(v, 2.0), False),
    "g-z": (lambda v: g(2.0, v), False),
    "h1-x": (lambda v: h1(v, 2.0), False),
    "h1-z": (lambda v: h1(2.0, v), False),
    "h2-y": (lambda v: h2(v, 2.0), False),
    "h2-z": (lambda v: h2(2.0, v), False),
    "h3-t": (h3, False),
    "events-exhaustive-C": (lambda v: check_lemma32_events_exhaustive(PATH4, v, 2.0), False),
    "events-exhaustive-d": (lambda v: check_lemma32_events_exhaustive(PATH4, 2.0, v), False),
    "events-sampled-C": (lambda v: check_lemma32_events_sampled(PATH4, v, 2.0, 10, 0), False),
    "events-sampled-d": (lambda v: check_lemma32_events_sampled(PATH4, 2.0, v, 10, 0), False),
    "bound_report-C": (lambda v: bound_report(100, 9.0, v), False),
    "error_decomposition-d": (
        lambda v: error_decomposition(PATH4, np.array([True, True, False, False]), v), False),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", list(REAL_ARGUMENTS))
def test_real_arguments_refuse_nonfinite_and_nonpositive(name, bad):
    call, zero_ok = REAL_ARGUMENTS[name]
    if bad == 0.0 and zero_ok:
        call(bad)
    else:
        with pytest.raises(ValidationError, match=f"={bad!r} must be finite and >=? 0"):
            call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("name", ["f-x", "f-y", "f-z", "g-x", "g-z", "h1-x", "h1-z",
                                  "h2-y", "h2-z", "h3-t"])
def test_rate_functions_refuse_one_bad_entry(name, bad):
    """An array argument is refused for any one bad entry among good ones."""
    call, _ = REAL_ARGUMENTS[name]
    with pytest.raises(ValidationError, match="must be finite and > 0"):
        call(np.array([1.0, bad, 2.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, named", [
    (lambda: f(1e-310, 1.0, 1.0), "x=1e-310, z=1.0 overflow z/x"),
    (lambda: g(1e-310, 1.0), "x=1e-310, z=1.0 overflow z/x"),
    (lambda: h1(1e-310, 1.0), "x=1e-310, z=1.0 overflow z/x"),
    (lambda: h2(1e-310, 1.0), "y=1e-310, z=1.0 overflow 3z/y"),
], ids=["f", "g", "h1", "h2"])
def test_rate_functions_refuse_overflowing_ratio(call, named):
    """Finite positive arguments whose ratio overflows are refused by
    name; h1 and h2 used to return nan, f and g to name phi's y=inf."""
    with pytest.raises(ValidationError, match=re.escape(named)):
        call()


class TestAuxiliaryFunctions:
    @given(pos, pos)
    def test_f_equals_g_minus_one_on_diagonal(self, x, z):
        assert abs(f(x, x, z) - (g(x, z) - 1.0)) < 1e-12 * (1.0 + abs(g(x, z)))

    @given(pos, pos)
    def test_h1_h2_reduce_to_h3(self, x, z):
        assert abs(h1(x, z) - x * h3(z / x)) < 1e-12 * (1.0 + abs(h1(x, z)))
        assert abs(h2(x, z) - x * x * h3(3.0 * z / x)) < 1e-9 * (1.0 + abs(h2(x, z)))

    @given(pos)
    def test_h3_nonpositive(self, t):
        assert h3(t) <= 1e-15

    def test_vectorized(self):
        x = np.array([1.0, 2.0])
        out = g(x, 1.999)
        assert out.shape == (2,)
        assert abs(out[0] - g(1.0, 1.999)) < 1e-15


def psi(w):
    return phi(w) / (w * w)


def at_most(a, b):
    """a <= b up to float64 rounding of either."""
    return a <= b + 1e-9 * (1.0 + abs(b))


@contextlib.contextmanager
def iv_dps(dps):
    old, iv.dps = iv.dps, dps
    try:
        yield
    finally:
        iv.dps = old


def iv_low(interval):
    """The lower end of an mpmath interval, exactly."""
    with mpmath.workdps(60):
        return mpmath.mpf(interval.a)


def iv_f(x, y, z):
    """An mpmath interval holding f(x, y, z) at the floats given."""
    x, y, z = iv.mpf(x), iv.mpf(y), iv.mpf(z)
    r = z / x
    return x * y / 2 * ((1 + r) * iv.log(1 + r) - r) - (iv.log(y / x) + 1)


@pytest.fixture(scope="module")
def appendix():
    return verify_appendix()


ws = st.floats(1e-3, 1e3)
zs = st.floats(C_MIN_MAIN, 50.0)
ys = st.floats(Y_MIN, 1e3)
ts = st.floats(1e-12, 1.0)  # t = 3x/y


class TestAppendixLemmas:
    """The monotonicity facts that reduce f and g to one variable, and
    the form of F that the certificate bounds."""

    @given(ws, ws)
    def test_psi_falls(self, a, b):
        lo, hi = sorted((a, b))
        assert at_most(psi(hi), psi(lo))
        assert math.log1p(lo) >= 2 * lo / (2 + lo)  # psi' <= 0

    @given(ts, ys, ys, zs)
    def test_f_rises_in_y_at_fixed_t(self, t, a, b, z):
        lo, hi = sorted((a, b))
        assert at_most(f(t * lo / 3, lo, z), f(t * hi / 3, hi, z))

    @given(ts, ys, zs, zs)
    def test_f_rises_in_z(self, t, y, a, b):
        lo, hi = sorted((a, b))
        assert at_most(f(t * y / 3, y, lo), f(t * y / 3, y, hi))

    @given(st.floats(G_X_MIN, 1e3), st.floats(G_X_MIN, 1e3), zs, zs)
    def test_g_rises_in_x_and_z(self, a, b, c, d):
        (xlo, xhi), (zlo, zhi) = sorted((a, b)), sorted((c, d))
        assert at_most(g(xlo, zlo), g(xhi, zlo))
        assert at_most(g(xlo, zlo), g(xlo, zhi))

    @given(st.floats(1e-12, Y_MIN / 3), st.floats(1e-12, Y_MIN / 3), st.floats(0.6, 50.0))
    def test_f_in_terms_of_w(self, a, b, z):
        """F = (k-1) ln w + k R(w) - k - ln(Y_MIN/z) - 1 with w = z/x, and
        R(z/x) > 0 rises in x."""
        lo, hi = sorted((a, b))
        r = concentration._rest(lo, z)
        assert 0 < r and at_most(r, concentration._rest(hi, z))
        bound = concentration._f_bound(lo, r, z)
        value = f(lo, Y_MIN, z)
        assert bound <= value and at_most(value, bound)


class TestAppendixGrid:
    def test_default_grid_passes(self):
        rep = verify_appendix()
        assert rep.passed
        assert rep.min_f > F_THRESHOLD
        assert abs(rep.min_f - 0.0012115) < 5e-7
        assert rep.min_g > G_THRESHOLD
        assert abs(rep.min_g - 0.70318) < 5e-5
        assert rep.monotonicity_violations == 0
        # the binding corner: x = y/3 at the smallest y, smallest z
        x, y, z = rep.argmin_f
        assert abs(y - 3.95) < 1e-12 and abs(z - 1.999) < 1e-12
        assert abs(x - y / 3.0) < 1e-12

    def test_small_z_fails(self):
        rep = verify_appendix(1.5)
        assert not rep.passed


class TestAppendixCertificate:
    @pytest.mark.parametrize("z", [C_MIN_MAIN, 1.45, 0.6, 5.0])
    def test_f_lower_within_tolerance(self, z):
        """The bound is below the smallest f found, by at most F_TOL, also
        where the minimum is interior (z = 1.45, 0.6)."""
        rep = verify_appendix(z)
        assert rep.f_lower <= rep.min_f <= rep.f_lower + F_TOL
        assert rep.min_f == f(*rep.argmin_f)
        assert rep.g_lower <= rep.min_g == g(*rep.argmin_g)
        assert rep.passed == (z == C_MIN_MAIN or z == 5.0)

    @settings(max_examples=500)
    @given(ts, st.floats(Y_MIN, 1e3), zs)
    def test_f_above_f_lower_everywhere(self, appendix, t, y, z):
        assert f(t * y / 3, y, z) >= appendix.f_lower

    @given(st.floats(math.log(1e-8), math.log(Y_MIN / 3)), st.floats(0.0, 3.0),
           st.floats(0.6, 50.0), st.floats(0.0, 1.0))
    def test_box_bound_below_mpmath(self, ln_xa, spread, z, frac):
        """The library's bound on F over [xa, xb] is below an mpmath
        interval enclosure of the exact bound it rounds, and of F at the
        box's ends and at a point inside it."""
        xa = math.exp(ln_xa)
        xb = min(Y_MIN / 3, xa * math.exp(spread))
        bound = concentration._f_bound(xb, concentration._rest(xa, z), z)  # k > 1
        with iv_dps(40):
            k, u = iv.mpf(Y_MIN) * iv.mpf(z) / 2, iv.mpf(xa) / iv.mpf(z)
            exact = ((k - 1) * iv.log(iv.mpf(z) / iv.mpf(xb))
                     + k * (iv.log(1 + u) + u * iv.log(1 + 1 / u))
                     - k - iv.log(iv.mpf(Y_MIN) / iv.mpf(z)) - 1)
            assert bound <= iv_low(exact)
            for x in (xa, xb, min(xb, max(xa, xa + frac * (xb - xa)))):
                assert bound <= iv_low(iv_f(x, Y_MIN, z))

    @pytest.mark.parametrize("z", [2 / 3.95, 0.5, 0.1, 1e-3])
    def test_no_bound_for_k_at_most_one(self, z):
        """k = 3.95 z/2 <= 1 leaves F unbounded below as x -> 0."""
        rep = verify_appendix(z)
        assert rep.f_lower == -math.inf
        assert not rep.passed

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -2.0])
    def test_bad_z_refused(self, z):
        with pytest.raises(ValidationError, match=r"z=.* must be finite and > 0"):
            verify_appendix(z)

    @pytest.mark.parametrize("z", [1e20, 1e100, 1e300])
    def test_huge_z_has_no_monotonicity_violations(self, z):
        """h1's samples stay in order at huge z (x (ln(1 + z/x) - z/x)
        computed as written gave 522, 151 and 807 violations here)."""
        rep = verify_appendix(z)
        assert rep.monotonicity_violations == 0
        assert rep.f_lower > F_THRESHOLD and rep.g_lower > G_THRESHOLD
        assert rep.passed


@pytest.mark.parametrize("call, name", [
    (lambda a: verify_appendix(a), "z"),
    (lambda a: chernoff_upper(a, 1.0), "mu"),
    (lambda a: chernoff_upper(1.0, a), "t"),
    (lambda a: chernoff_lower(a, 1.0), "mu"),
    (lambda a: chernoff_lower(1.0, a), "t"),
], ids=["verify_appendix-z", "chernoff_upper-mu", "chernoff_upper-t",
        "chernoff_lower-mu", "chernoff_lower-t"])
def test_scalar_functions_refuse_arrays(call, name):
    """These return one number, so an array argument is refused by name
    through ValidationError, not a TypeError from float() or math.exp."""
    msg = rf"{name}=array\(\[2\., 3\.\]\) must be a single number"
    with pytest.raises(ValidationError, match=msg):
        call(np.array([2.0, 3.0]))


class TestEventChecks:
    def test_exhaustive_counts_frozen(self):
        G = sample_gnp(16, 0.5, 42)
        d = 2 * G.m / 16
        ok = check_lemma32_events_exhaustive(G, 1.999, d)
        assert ok.total_violations == 0
        assert sum(r.trials for r in ok.regimes) == 2 ** 16 - 2
        bad = check_lemma32_events_exhaustive(G, 0.1, d)
        assert bad.total_violations == 27876

    def test_regime_split(self):
        G = sample_gnp(16, 0.5, 42)
        r = check_lemma32_events_exhaustive(G, 1.999, 8.0)
        names = [s.regime for s in r.regimes]
        assert names == ["small", "middle", "large"]
        assert r.regimes[0].k_max == 4          # floor(sqrt(16))
        assert r.regimes[1].k_max == 5          # floor(16/3)
        assert r.regimes[2].k_max == 15

    def test_csv_rows(self):
        G = sample_gnp(8, 0.5, 1)
        r = check_lemma32_events_exhaustive(G, 1.999, 4.0)
        rows = r.csv_rows()
        assert rows[0] == "regime,k,trials,violations_3_1,violations_3_2,violations_3_3"
        assert all(len(row.split(",")) == 6 for row in rows[1:])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_lemma32_events_exhaustive(sample_gnp(25, 0.1, 0), 2.0, 2.5)

    def test_sampled_deterministic_and_bounded(self):
        G = sample_gnp(64, 0.125, 9)
        d = 2 * G.m / 64
        a = check_lemma32_events_sampled(G, 1.999, d, trials=3000, seed=7)
        b = check_lemma32_events_sampled(G, 1.999, d, trials=3000, seed=7)
        assert a.total_violations == b.total_violations
        assert sum(r.trials for r in a.regimes) == 3000
        assert a.mode == "sampled/stratified"

    def test_sampled_detects_small_C(self):
        G = sample_gnp(64, 0.125, 9)
        d = 2 * G.m / 64
        loose = check_lemma32_events_sampled(G, 0.1, d, trials=3000, seed=7)
        tight = check_lemma32_events_sampled(G, 1.999, d, trials=3000, seed=7)
        assert loose.total_violations > tight.total_violations

    def test_sampled_validation(self):
        G = sample_gnp(10, 0.5, 0)
        with pytest.raises(ValidationError):
            check_lemma32_events_sampled(G, 2.0, 5.0, trials=0, seed=0)
        with pytest.raises(ValidationError):
            check_lemma32_events_sampled(G, 2.0, 5.0, trials=10, seed=0,
                                         strategy="antithetic")

    @pytest.mark.parametrize("C, d", [(2.0, 0.0), (2.0, -5.0), (2.0, math.inf),
                                      (2.0, math.nan), (-1.0, 2.0), (0.0, 2.0),
                                      (math.inf, 2.0), (math.nan, 2.0)])
    def test_density_and_C_must_be_finite_positive(self, C, d):
        G = Graph(4, [(1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValidationError, match="finite and > 0"):
            check_lemma32_events_exhaustive(G, C, d)
        with pytest.raises(ValidationError, match="finite and > 0"):
            check_lemma32_events_sampled(G, C, d, trials=10, seed=0)

    def test_size_schedule_covers_regimes(self):
        for n in (16, 100, 2000):
            ks = default_size_schedule(n)
            r = math.isqrt(n)
            assert any(k <= r for k in ks)
            assert any(r < k <= n // 3 for k in ks)
            assert any(k > n // 3 for k in ks)
            assert all(1 <= k <= n for k in ks)


def _graph(kind: str, n: int, p: float, seed: int) -> Graph:
    if kind == "gnp":
        return sample_gnp(n, p, seed)
    if kind == "clique":
        return Graph(n, list(itertools.combinations(range(1, n + 1), 2)))
    if kind == "star":
        return Graph(n, [(1, v) for v in range(2, n + 1)])
    return Graph(n, [])


graph_kinds = st.sampled_from(["gnp", "edgeless", "clique", "star"])
# 1.999 is the paper's constant; the small values flag most subsets
event_C = st.sampled_from([1.999, 0.5, 0.1, 0.01])


def rows(result):
    return tuple(astuple(r) for r in result.regimes)


class TestEventIdentity:
    """The chunked tally gives the regime rows of the per-subset reference
    in tests/oracles.py, whatever the chunk and batch boundaries."""

    @settings(max_examples=60, deadline=None)
    @given(graph_kinds, st.integers(2, 12), st.floats(0.05, 0.95), st.integers(0, 999),
           event_C, st.floats(0.5, 12.0), st.sampled_from([1, 3, 64, 1 << 16]))
    def test_exhaustive_matches_reference(self, kind, n, p, seed, C, d, chunk):
        G = _graph(kind, n, p, seed)
        with mock.patch.object(modularity, "EXACT_CELLS", chunk):
            got = check_lemma32_events_exhaustive(G, C, d)
        assert rows(got) == lemma32_events_exhaustive(G, C, d)
        assert sum(r[3] for r in rows(got)) == 2 ** n - 2

    @settings(max_examples=60, deadline=None)
    @given(graph_kinds, st.integers(1, 60), st.floats(0.05, 0.95), st.integers(0, 999),
           event_C, st.floats(0.5, 12.0), st.sampled_from(["uniform", "stratified"]),
           st.sampled_from([1, 7, SAMPLE_BATCH - 1, SAMPLE_BATCH, SAMPLE_BATCH + 1,
                            3 * SAMPLE_BATCH - 12]))
    def test_sampled_matches_reference(self, kind, n, p, seed, C, d, strategy, trials):
        G = _graph(kind, n, p, seed)
        got = check_lemma32_events_sampled(G, C, d, trials, seed, strategy)
        assert rows(got) == lemma32_events_sampled(G, C, d, trials, seed, strategy,
                                                   default_size_schedule(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uniform_draws_hit_both_ends(self, n):
        """Tiny n draws the empty set and V itself: the empty set is left
        out of the rows and V is counted in the large regime."""
        G = Graph(n, [(1, 2)] if n > 1 else [])
        got = check_lemma32_events_sampled(G, 0.01, 2.0, 700, 4, "uniform")
        assert rows(got) == lemma32_events_sampled(G, 0.01, 2.0, 700, 4, "uniform")
        assert rows(got)[-1][2] == n
        assert sum(r[3] for r in rows(got)) < 700

    def test_sampled_n2000_matches_reference(self):
        G = sample_gnp(2000, 25 / 2000, 80_000)
        for C in (1.999, 0.1):
            got = check_lemma32_events_sampled(G, C, 25.0, 600, 0)
            assert rows(got) == lemma32_events_sampled(G, C, 25.0, 600, 0, "stratified",
                                                       default_size_schedule(2000))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEventMemory:
    def test_exhaustive_flagging_peak(self):
        G = sample_gnp(20, 0.5, 1)
        res, peak = _traced_peak(check_lemma32_events_exhaustive, G, 0.01, 2 * G.m / 20)
        assert res.total_violations > 2 ** 19
        assert peak < 48 << 20

    @pytest.mark.parametrize("n", [EXHAUSTIVE_CAP + 1, 10 ** 6])
    def test_over_ceiling_refused_before_allocating(self, n):
        G = Graph(n, [])

        def refused():
            with pytest.raises(CapExceeded, match=f"n={n} exceeds cap {EXHAUSTIVE_CAP}"):
                check_lemma32_events_exhaustive(G, 1.999, 3.0)

        _, peak = _traced_peak(refused)
        assert peak < 1 << 20

    def test_sampled_batch_peak_does_not_grow_with_m(self):
        """One batch of SAMPLE_BATCH subsets counts e(S) a slice of edges at
        a time, so doubling m at d = 25 adds far less than the batch's
        m x SAMPLE_BATCH gathers would."""
        peaks = []
        for n in (8000, 16000):
            G = sample_gnp(n, 25 / n, 1)
            _, peak = _traced_peak(check_lemma32_events_sampled, G, 1.999, 25.0,
                                   concentration.SAMPLE_BATCH, 3)
            peaks.append(peak)
        assert peaks[1] < 1.25 * peaks[0]
