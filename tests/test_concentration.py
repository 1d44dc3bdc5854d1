import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnpmod.errors import CapExceeded, ValidationError
from gnpmod.concentration import (F_THRESHOLD, G_THRESHOLD, GridSpec,
                                  check_lemma32_events_exhaustive,
                                  check_lemma32_events_sampled, chernoff_lower,
                                  chernoff_upper, default_size_schedule, f, g,
                                  h1, h2, h3, phi, verify_appendix)
from gnpmod.graph import Graph, sample_gnp

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
        rep = verify_appendix(GridSpec(z_values=(1.5,)))
        assert not rep.passed

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(step=-0.01)
        with pytest.raises(ValidationError):
            GridSpec(y_min=5.0, y_max=4.0)


class TestEventChecks:
    def test_exhaustive_counts_frozen(self):
        G = sample_gnp(16, 0.5, 42)
        d = 2 * G.m / 16
        ok = check_lemma32_events_exhaustive(G, 1.999, d)
        assert ok.total_violations == 0
        assert ok.flagged == ()
        assert sum(r.trials for r in ok.regimes) == 2 ** 16 - 2
        bad = check_lemma32_events_exhaustive(G, 0.1, d)
        assert bad.total_violations == 25124
        assert len(bad.flagged) > 0

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
