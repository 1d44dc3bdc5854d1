import math

import pytest

from gnpmod.bounds import (C_MIN_MAIN, D_MIN_MAIN, P_STAR, P_STAR_TOL,
                           SUPREMUM_VALUE, TWO_SQRT_LN2, UPPER_MAIN_COEFF,
                           UPPER_TRADEOFF_COEFF, asymptotic_constants,
                           bound_report, supremum_check)
from gnpmod.errors import ValidationError

SQRT2 = math.sqrt(2.0)


class TestConstants:
    def test_coefficients(self):
        assert abs(UPPER_MAIN_COEFF - (3.0 + 2.0 * SQRT2) / 2.0) < 1e-15
        assert abs(UPPER_TRADEOFF_COEFF - (3.0 + 2.0 * SQRT2) * 2.1 / 4.0) < 1e-15
        assert abs(TWO_SQRT_LN2 - 2.0 * math.sqrt(math.log(2.0))) < 1e-15
        assert abs(SUPREMUM_VALUE - (3.0 + 2.0 * SQRT2) / 4.0) < 1e-15
        assert D_MIN_MAIN == 16.17 and C_MIN_MAIN == 1.999

    def test_audit_all_match(self):
        audits = asymptotic_constants()
        assert len(audits) == 9
        for a in audits:
            assert a.matches, f"{a.name}: {a.value!r} vs printed {a.printed}"

    def test_supremum(self):
        r = supremum_check()
        assert abs(r.value - SUPREMUM_VALUE) < 1e-9
        # argmax solves (1-s)(1+2 sqrt(s(1-s))) stationarity at s = (2-sqrt(2))/4
        assert abs(r.argmax - (2.0 - SQRT2) / 4.0) < 1e-6


class TestBoundReport:
    def test_values(self):
        r = bound_report(10_000, 100.0, C=1.999)
        rd = 10.0
        assert abs(r.upper_main - UPPER_MAIN_COEFF / rd) < 1e-15
        assert abs(r.upper_tradeoff - UPPER_TRADEOFF_COEFF / rd) < 1e-15
        assert abs(r.upper_asymptotic - (3 + 2 * SQRT2) * 1.999 / 4 / rd) < 1e-15
        assert abs(r.spectral_upper - 4.0 / rd) < 1e-15
        assert abs(r.lower_Pstar - P_STAR / rd) < 1e-15
        lo, hi = r.lower_Pstar_interval
        assert lo < r.lower_Pstar < hi
        assert abs(hi - lo - 2 * P_STAR_TOL / rd) < 1e-15
        assert abs(r.lower_fifth - 0.2 * math.sqrt(1 - 0.01) / rd) < 1e-15
        assert r.p == 0.01

    def test_ordering(self):
        r = bound_report(100_000, 400.0)
        assert r.lower_Pstar < r.upper_main < r.upper_tradeoff < r.spectral_upper
        assert r.lower_fifth < r.lower_Pstar

    def test_regimes(self):
        assert bound_report(1000, 0.5).regime == "subcritical"
        assert bound_report(10 ** 6, 20.0).regime == "main"
        assert bound_report(1000, 100.0).regime == "spectral_valid"

    def test_validity_flags(self):
        r = bound_report(10 ** 6, 20.0)
        assert r.upper_main_valid and not r.upper_main_asymptotic_caveat
        assert not r.spectral_valid
        low_d = bound_report(10 ** 6, 10.0)
        assert not low_d.upper_main_valid          # d below 16.17
        dense = bound_report(100, 90.0)
        assert dense.upper_main_asymptotic_caveat  # d above n/ln n
        assert not bound_report(1000, 100.0, C=1.0).upper_asymptotic_valid
        assert bound_report(1000, 100.0, C=1.999).upper_asymptotic_valid

    def test_monotone_in_d(self):
        a = bound_report(10 ** 6, 25.0)
        b = bound_report(10 ** 6, 100.0)
        for field in ("upper_main", "upper_tradeoff", "spectral_upper",
                      "lower_Pstar"):
            assert getattr(b, field) < getattr(a, field)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bound_report(0, 5.0)
        with pytest.raises(ValidationError):
            bound_report(10, 0.0)
        with pytest.raises(ValidationError):
            bound_report(10, 10.0)

    @pytest.mark.parametrize("C", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_C_not_finite_positive(self, C):
        with pytest.raises(ValidationError, match="C="):
            bound_report(100, 9.0, C=C)

    def test_csv_row_roundtrips(self):
        r = bound_report(2000, 25.0)
        cols = r.CSV_COLUMNS.split(",")
        vals = r.csv_row().split(",")
        assert len(cols) == len(vals)
        assert float(vals[cols.index("upper_main")]) == r.upper_main
        assert vals[cols.index("regime")] == r.regime

    def test_table_mentions_every_bound(self):
        text = bound_report(2000, 25.0).table()
        for token in ("upper", "lower", "P*", "spectral", "regime"):
            assert token in text
