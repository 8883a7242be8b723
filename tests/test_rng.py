import math

import numpy as np
import pytest

from evcoint.errors import DimensionMismatch
from evcoint.rng import (
    InverseWishartParams,
    MatrixNormalParams,
    RngState,
    sample_wishart,
)


def inverse_gamma_cdf_quadrature(xs, a, b, n_grid=400_000):
    """Empirical oracle: cumulative trapezoid of the inverse-gamma density."""
    hi = max(float(np.max(xs)) * 1.05, b * 50.0)
    grid = np.linspace(1e-9, hi, n_grid)
    log_pdf = a * math.log(b) - math.lgamma(a) - (a + 1.0) * np.log(grid) - b / grid
    pdf = np.exp(log_pdf)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return np.interp(xs, grid, cum)


def ks_distance(draws, cdf_at_sorted_draws):
    n = draws.size
    i = np.arange(1, n + 1)
    return max(
        np.abs(i / n - cdf_at_sorted_draws).max(),
        np.abs((i - 1) / n - cdf_at_sorted_draws).max(),
    )


class TestStreams:
    def test_bit_identical_replay(self):
        a = RngState(123, 5)
        b = RngState(123, 5)
        assert np.array_equal(a.uniform(1000), b.uniform(1000))
        assert np.array_equal(a.standard_normal(777), b.standard_normal(777))
        assert a.gamma(3.3) == b.gamma(3.3)

    def test_streams_differ(self):
        assert not np.array_equal(RngState(123, 0).uniform(100), RngState(123, 1).uniform(100))
        assert not np.array_equal(RngState(123, 0).uniform(100), RngState(124, 0).uniform(100))

    def test_uniform_open_interval_and_mean(self):
        u = RngState(1).uniform(200_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.003

    def test_standard_normal_moments_and_shapes(self):
        z = RngState(2).standard_normal(400_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.std() - 1.0) < 0.005
        assert RngState(2).standard_normal((3, 4)).shape == (3, 4)
        assert isinstance(RngState(2).standard_normal(), float)

    def test_gamma_moments(self):
        r = RngState(3)
        draws = np.array([r.gamma(4.2, 0.5) for _ in range(40_000)])
        assert draws.mean() == pytest.approx(4.2 * 0.5, abs=0.02)
        assert draws.var() == pytest.approx(4.2 * 0.25, abs=0.04)

    def test_gamma_small_shape_boost(self):
        r = RngState(4)
        draws = np.array([r.gamma(0.4) for _ in range(40_000)])
        assert draws.mean() == pytest.approx(0.4, abs=0.02)
        assert np.all(draws > 0)

    def test_gamma_array_matches_distribution(self):
        r = RngState(5)
        draws = r.gamma_array(2.5, 300_000)
        assert draws.mean() == pytest.approx(2.5, abs=0.02)
        assert draws.var() == pytest.approx(2.5, abs=0.05)
        small = r.gamma_array(0.6, 200_000, scale=2.0)
        assert small.mean() == pytest.approx(1.2, abs=0.02)

    def test_gamma_rejects_bad_args(self):
        with pytest.raises(ValueError):
            RngState(0).gamma(-1.0)
        with pytest.raises(ValueError):
            RngState(0).gamma(2.0, 0.0)


class TestInverseGamma:
    def test_scalar_sampler_agrees(self):
        # The scalar gamma path of the unit-root chain: sigma^2 = h / Gamma.
        r = RngState(13)
        draws = np.sort([2.0 / r.gamma(3.0) for _ in range(120_000)])
        cdf = inverse_gamma_cdf_quadrature(draws, 3.0, 2.0)
        assert ks_distance(draws, cdf) < 0.006


class TestMatrixNormal:
    def test_param_validation(self):
        with pytest.raises(DimensionMismatch):
            MatrixNormalParams(mean=np.zeros((2, 3)), row_cov=np.eye(3), col_cov=np.eye(3))


class TestInverseWishart:
    def test_matches_inverted_wishart_oracle(self):
        # Averaging inverses of Wishart(L^-1, nu) draws gives the same mean.
        r = RngState(32)
        lam = np.array([[2.0, 0.5], [0.5, 1.0]])
        lam_inv = np.linalg.inv(lam)
        n = 60_000
        acc = np.zeros((2, 2))
        for _ in range(n):
            acc += np.linalg.inv(sample_wishart(r, lam_inv, 15.0))
        np.testing.assert_allclose(acc / n, lam / (15.0 - 2.0 - 1.0), rtol=0.03)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            InverseWishartParams(scale=np.eye(3), dof=1.5)
