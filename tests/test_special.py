import math

import numpy as np
import pytest

from evcoint.special import chi2_cdf, chi2_pdf, chi2_quantile, gammainc_lower, student_t_cdf


class TestGammaincLower:
    def test_shape_one_is_exponential(self):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert gammainc_lower(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-14)

    def test_shape_half_is_erf(self):
        for x in (0.01, 0.2, 1.0, 4.0, 9.0):
            assert gammainc_lower(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-13)

    def test_boundaries_and_errors(self):
        assert gammainc_lower(2.0, 0.0) == 0.0
        assert gammainc_lower(2.0, 1e4) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gammainc_lower(0.0, 1.0)
        with pytest.raises(ValueError):
            gammainc_lower(1.0, -0.1)

    def test_recurrence_identity(self):
        # P(s+1, x) = P(s, x) - x^s e^-x / Gamma(s+1)
        for s in (0.7, 2.0, 5.5, 20.0):
            for x in (0.5, s, 2 * s + 3):
                lhs = gammainc_lower(s + 1.0, x)
                rhs = gammainc_lower(s, x) - math.exp(
                    s * math.log(x) - x - math.lgamma(s + 1.0)
                )
                assert lhs == pytest.approx(rhs, abs=1e-13)


class TestChi2Cdf:
    def test_df2_closed_form(self):
        for x in (0.0, 0.3, 1.0, 5.0, 20.0):
            assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-0.5 * x), abs=1e-14)

    def test_df1_closed_form(self):
        for x in (0.04, 1.0, 3.84, 9.0):
            assert chi2_cdf(x, 1) == pytest.approx(math.erf(math.sqrt(0.5 * x)), abs=1e-13)

    def test_df4_closed_form(self):
        for x in (0.5, 2.0, 8.0):
            oracle = 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x)
            assert chi2_cdf(x, 4) == pytest.approx(oracle, abs=1e-14)

    def test_against_pdf_quadrature(self):
        # Simpson integration of the density as an independent oracle.
        for df in (2, 3, 7, 30):
            grid = np.linspace(0.0, 4.0 * df, 200_001)
            pdf = np.array([chi2_pdf(x, df) for x in grid])
            h = grid[1] - grid[0]
            simpson = (h / 3.0) * (
                pdf[0] + pdf[-1] + 4.0 * pdf[1:-1:2].sum() + 2.0 * pdf[2:-1:2].sum()
            )
            upper = 4.0 * df
            assert chi2_cdf(upper, df) == pytest.approx(simpson, abs=1e-7)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 50.0, 300)
        vals = [chi2_cdf(x, 5) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_cdf(-1.0, 2)


class TestChi2Quantile:
    def test_round_trip_grid(self):
        ps = [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999]
        for df in list(range(1, 21)) + [25, 30, 40, 50, 60]:
            for p in ps:
                x = chi2_quantile(p, df)
                assert abs(chi2_cdf(x, df) - p) < 1e-10, (df, p)

    def test_median_df2(self):
        # For df = 2 the quantile is -2 ln(1 - p).
        for p in (0.1, 0.5, 0.9, 0.99):
            assert chi2_quantile(p, 2) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-10)

    def test_zero(self):
        assert chi2_quantile(0.0, 7) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 3)
        with pytest.raises(ValueError):
            chi2_quantile(-0.1, 3)
        with pytest.raises(ValueError):
            chi2_quantile(0.5, 0)


class TestStudentTCdf:
    def test_against_scipy(self):
        from scipy import stats

        xs = np.linspace(-40.0, 40.0, 641)
        for df in (*range(1, 61), 119, 120, 1000, 1001, 10491):
            got = np.array([student_t_cdf(x, df) for x in xs])
            np.testing.assert_allclose(got, stats.t.cdf(xs, df), rtol=0.0, atol=1e-12,
                                       err_msg=f"df={df}")

    @pytest.mark.parametrize("df", [0, -3, 2.5, 0.5])
    def test_df_must_be_an_integer_at_least_one(self, df):
        with pytest.raises(ValueError):
            student_t_cdf(0.5, df)
