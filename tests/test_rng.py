import math

import numpy as np
import pytest

from evcoint.errors import DimensionMismatch
from evcoint.rng import (
    InverseWishartParams,
    MatrixNormalParams,
    RngState,
    sample_inverse_wishart,
    sample_matrix_normal,
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
    def test_mean_at_a3_b2(self):
        r = RngState(10)
        draws = 2.0 / r.gamma_array(3.0, 1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_variance_at_a3_b2(self):
        r = RngState(50)
        draws = 2.0 / r.gamma_array(3.0, 1_000_000)
        assert draws.var() == pytest.approx(1.0, rel=0.03)

    def test_ks_against_quadrature(self):
        r = RngState(12)
        draws = np.sort(2.0 / r.gamma_array(3.0, 1_000_000))
        cdf = inverse_gamma_cdf_quadrature(draws, 3.0, 2.0)
        assert ks_distance(draws, cdf) < 0.002

    def test_scalar_sampler_agrees(self):
        # The scalar gamma path of the unit-root chain: sigma^2 = h / Gamma.
        r = RngState(13)
        draws = np.sort([2.0 / r.gamma(3.0) for _ in range(120_000)])
        cdf = inverse_gamma_cdf_quadrature(draws, 3.0, 2.0)
        assert ks_distance(draws, cdf) < 0.006


class TestMatrixNormal:
    def test_identity_covs_unit_variance(self):
        r = RngState(20)
        params = MatrixNormalParams(mean=np.zeros((2, 3)), row_cov=np.eye(2), col_cov=np.eye(3))
        draws = np.stack([sample_matrix_normal(r, params) for _ in range(100_000)])
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.01)

    def test_vec_covariance_kronecker(self):
        r = RngState(21)
        u = np.array([[2.0, 0.6], [0.6, 1.0]])
        v = np.array([[1.5, -0.4], [-0.4, 0.8]])
        params = MatrixNormalParams(mean=np.zeros((2, 2)), row_cov=u, col_cov=v)
        draws = np.stack([sample_matrix_normal(r, params) for _ in range(100_000)])
        # column-major vec, covariance V (x) U
        vecs = draws.reshape(draws.shape[0], 4, order="F")
        emp = np.cov(vecs.T)
        np.testing.assert_allclose(emp, np.kron(v, u), rtol=0.03, atol=0.02)

    def test_nonzero_mean_unbiased(self):
        r = RngState(22)
        m = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 4.0]])
        params = MatrixNormalParams(mean=m, row_cov=np.eye(3), col_cov=np.eye(2))
        n = 40_000
        draws = np.stack([sample_matrix_normal(r, params) for _ in range(n)])
        se = 1.0 / math.sqrt(n)
        assert np.abs(draws.mean(axis=0) - m).max() < 4.0 * se

    def test_param_validation(self):
        with pytest.raises(DimensionMismatch):
            MatrixNormalParams(mean=np.zeros((2, 3)), row_cov=np.eye(3), col_cov=np.eye(3))


class TestInverseWishart:
    def test_scalar_reduction_ks(self):
        # p = 1 inverse-Wishart(L, nu) is inverse-gamma(nu/2, L/2).
        r = RngState(30)
        params = InverseWishartParams(scale=np.array([[4.0]]), dof=10.0)
        draws = np.sort([sample_inverse_wishart(r, params)[0, 0] for _ in range(400_000)])
        cdf = inverse_gamma_cdf_quadrature(draws, 5.0, 2.0)
        assert ks_distance(draws, cdf) < 0.002

    def test_mean_matches_closed_form(self):
        r = RngState(31)
        g = np.random.default_rng(0)
        a = g.normal(size=(3, 3))
        lam = a @ a.T + 3.0 * np.eye(3)
        params = InverseWishartParams(scale=lam, dof=20.0)
        n = 100_000
        draws = np.zeros((3, 3))
        all_pd = True
        for _ in range(n):
            w = sample_inverse_wishart(r, params)
            draws += w
            try:
                np.linalg.cholesky(w)
            except np.linalg.LinAlgError:
                all_pd = False
        mean = draws / n
        np.testing.assert_allclose(mean, lam / (20.0 - 3.0 - 1.0), rtol=0.03)
        assert all_pd

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
