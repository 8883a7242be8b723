import math

import numpy as np
import pytest

from evcoint import linalg
from evcoint.errors import (
    DimensionMismatch,
    EigenFailure,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficient,
)


class TestOlsSolve:
    def test_mean_of_two_points(self):
        coef, resid, rss, _ = linalg.ols_solve([[1.0], [1.0]], [[3.0], [5.0]])
        assert coef[0, 0] == pytest.approx(4.0)
        np.testing.assert_allclose(resid.ravel(), [-1.0, 1.0])
        assert rss[0, 0] == pytest.approx(2.0)

    def test_identity_design(self):
        v = np.array([[1.5], [-2.0], [0.25]])
        coef, resid, _, _ = linalg.ols_solve(np.eye(3), v)
        np.testing.assert_allclose(coef, v)
        np.testing.assert_allclose(resid, 0.0, atol=1e-14)

    def test_exact_recovery_zero_noise(self):
        g = np.random.default_rng(0)
        x = g.normal(size=(50, 3))
        beta = np.array([[1.0], [2.0], [-0.5]])
        coef, _, _, _ = linalg.ols_solve(x, x @ beta)
        np.testing.assert_allclose(coef, beta, atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        g = np.random.default_rng(1)
        x = g.normal(size=(40, 4))
        y = g.normal(size=(40, 2))
        _, resid, _, _ = linalg.ols_solve(x, y)
        scale = np.abs(x).max() * np.abs(y).max()
        assert np.abs(x.T @ resid).max() < 1e-8 * scale

    def test_r_factor_of_the_design(self):
        x = np.random.default_rng(2).normal(size=(30, 3))
        fit = linalg.ols_solve(x, x @ np.ones((3, 1)))
        assert np.array_equal(fit.r, np.triu(fit.r))
        np.testing.assert_allclose(fit.r.T @ fit.r, x.T @ x, rtol=1e-12)

    def test_rank_deficient_raises(self):
        x = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficient):
            linalg.ols_solve(x, np.arange(10.0).reshape(-1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.ols_solve(np.ones((5, 1)), np.ones((4, 1)))

    def test_rejects_nan(self):
        x = np.ones((5, 1))
        x[2, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            linalg.ols_solve(x, np.ones((5, 1)))


class TestLogDetSpd:
    def test_identity(self):
        assert linalg.log_det_spd(np.eye(4)) == pytest.approx(0.0)

    def test_diagonal(self):
        assert linalg.log_det_spd(np.diag([2.0, 8.0])) == pytest.approx(math.log(16.0))

    def test_scaled_identity(self):
        for c in (0.1, 1.0, 10.0):
            for n in (1, 3, 6):
                assert linalg.log_det_spd(c * np.eye(n)) == pytest.approx(n * math.log(c))

    def test_random_spd_against_eigen_oracle(self):
        g = np.random.default_rng(5)
        a = g.normal(size=(5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(spd))))
        assert linalg.log_det_spd(spd) == pytest.approx(oracle, abs=1e-9)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.log_det_spd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            linalg.log_det_spd(np.array([[1.0, 2.0], [0.5, 1.0]]))


class TestCanonicalEigenvalues:
    def test_zero_cross_covariance(self):
        vals = linalg.canonical_eigenvalues(np.eye(3), np.zeros((3, 3)), np.eye(3))
        np.testing.assert_allclose(vals, 0.0)

    def test_diagonal_correlations(self):
        vals = linalg.canonical_eigenvalues(np.eye(2), np.diag([0.6, 0.3]), np.eye(2))
        np.testing.assert_allclose(vals, [0.36, 0.09], atol=1e-12)

    def _random_instance(self, seed, n=3):
        g = np.random.default_rng(seed)
        u = g.normal(size=(80, n))
        v = 0.5 * u + g.normal(size=(80, n))
        suu = u.T @ u / 80
        svv = v.T @ v / 80
        suv = u.T @ v / 80
        return svv, suv, suu

    def test_against_nonsymmetric_product_oracle(self):
        svv, suv, suu = self._random_instance(9)
        product = np.linalg.inv(svv) @ suv.T @ np.linalg.inv(suu) @ suv
        oracle = np.sort(np.real(np.linalg.eigvals(product)))[::-1]
        vals = linalg.canonical_eigenvalues(svv, suv, suu)
        np.testing.assert_allclose(vals, oracle, atol=1e-8)

    def test_role_exchange_invariance(self):
        svv, suv, suu = self._random_instance(13)
        a = linalg.canonical_eigenvalues(svv, suv, suu)
        b = linalg.canonical_eigenvalues(suu, suv.T, svv)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_values_in_unit_interval(self):
        for seed in range(6):
            svv, suv, suu = self._random_instance(20 + seed)
            vals = linalg.canonical_eigenvalues(svv, suv, suu)
            assert np.all(vals >= 0.0)
            assert np.all(vals < 1.0)
            assert np.all(np.diff(vals) <= 0)

    def test_rejects_inconsistent_inputs(self):
        # Cross-covariance too large to be a covariance triple.
        with pytest.raises(EigenFailure):
            linalg.canonical_eigenvalues(np.eye(2), 3.0 * np.eye(2), np.eye(2))
