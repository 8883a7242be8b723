import math

import numpy as np
import pytest

from conftest import ar1_series
from evcoint import unitroot as ur
from evcoint.errors import DegenerateRss, NonFiniteInput, SeriesTooShort
from evcoint.fbst import estimate_evidence
from evcoint.rng import RngState


class TestSpecAndDesign:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ur.UnitRootSpec(p=0)
        with pytest.raises(ValueError):
            ur.UnitRootSpec(p=1, include_trend=True, include_intercept=False)

    def test_dimension_bookkeeping(self):
        y = ar1_series(n=12)
        design = ur.build_design(y, ur.UnitRootSpec(p=2, include_trend=True))
        assert design.effective_t == 10
        assert design.x_full.shape == (10, 4)
        assert design.gamma0_index == 2
        assert design.column_names == ("intercept", "trend", "level_lag1", "diff_lag1")
        np.testing.assert_allclose(design.x_full[:, 1], np.arange(3, 13))

    def test_row_alignment(self):
        y = np.cumsum(np.arange(1.0, 16.0))
        p = 3
        design = ur.build_design(y, ur.UnitRootSpec(p=p))
        t_eff = y.size - p
        for i in range(t_eff):
            assert design.delta_y[i, 0] == y[p + i] - y[p + i - 1]
            assert design.x_full[i, design.gamma0_index] == y[p - 1 + i]
            assert design.x_full[i, design.gamma0_index + 1] == y[p - 1 + i] - y[p - 2 + i]
            assert design.x_full[i, design.gamma0_index + 2] == y[p - 2 + i] - y[p - 3 + i]

    def test_restricted_drops_only_level_column(self):
        y = ar1_series(n=20)
        design = ur.build_design(y, ur.UnitRootSpec(p=2))
        psi_r, _, _ = ur.restricted_map(design)
        x_r = np.delete(design.x_full, design.gamma0_index, axis=1)
        want = np.linalg.lstsq(x_r, design.delta_y.ravel(), rcond=None)[0]
        np.testing.assert_allclose(np.delete(psi_r, design.gamma0_index), want, rtol=1e-10)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ur.build_design(np.arange(10.0), ur.UnitRootSpec(p=1))

    def test_fewer_observations_than_regressors(self):
        # p = 8 with trend on 18 points: T = k = 10 leaves sigma's marginal
        # Gamma((T - k)/2) without a shape.
        spec = ur.UnitRootSpec(p=8, include_trend=True)
        walk = np.cumsum(np.random.default_rng(1).normal(size=19))
        with pytest.raises(SeriesTooShort):
            ur.build_design(walk[:18], spec)
        assert ur.build_design(walk, spec).effective_t == 11

    def test_non_finite(self):
        y = ar1_series(n=20)
        y[5] = np.nan
        with pytest.raises(NonFiniteInput):
            ur.build_design(y, ur.UnitRootSpec(p=1))


class TestPosteriorAndMap:
    def test_restricted_map_zero_in_level_slot(self, small_unitroot_design):
        psi, sigma, _ = ur.restricted_map(small_unitroot_design)
        assert psi[small_unitroot_design.gamma0_index] == 0.0
        assert sigma > 0

    def test_log_s_star_frozen_value(self, small_unitroot_design):
        _, _, log_s_star = ur.restricted_map(small_unitroot_design)
        assert log_s_star == pytest.approx(-1.8179902207314216, abs=1e-12)

    def test_log_s_star_is_constrained_maximum(self, small_unitroot_design):
        design = small_unitroot_design
        psi_r, sigma_r, log_s_star = ur.restricted_map(design)
        g = np.random.default_rng(17)
        for _ in range(500):
            psi = psi_r + g.normal(scale=0.3, size=psi_r.size)
            psi[design.gamma0_index] = 0.0
            sigma = sigma_r * math.exp(g.normal(scale=0.4))
            value = ur.log_posterior(ur.UnitRootDraw(psi=psi, sigma=sigma), design)
            assert value <= log_s_star + 1e-12

    def test_degenerate_rss(self):
        # A linear trend has constant differences: the restricted intercept
        # regression fits them exactly.
        with pytest.raises(DegenerateRss):
            ur.restricted_map(ur.build_design(np.arange(20.0), ur.UnitRootSpec(p=1)))

    def test_chain_log_posterior_matches_pointwise(self, small_unitroot_design):
        design = small_unitroot_design
        chain = ur.gibbs_chain(design, RngState(1), n_draws=200)
        lp = ur.chain_log_posterior(chain, design)
        for i in range(0, 200, 17):
            direct = ur.log_posterior(
                ur.UnitRootDraw(psi=chain.psi[i], sigma=float(chain.sigma[i])), design
            )
            assert lp[i] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("p, trend, intercept", [
        (1, False, True), (3, True, True), (4, True, True), (2, False, False),
    ])
    def test_chain_log_posterior_at_every_draw(self, p, trend, intercept):
        spec = ur.UnitRootSpec(p=p, include_trend=trend, include_intercept=intercept)
        design = ur.build_design(ar1_series(seed=p, n=100), spec)
        chain = ur.gibbs_chain(design, RngState(p, 4), n_draws=700)
        lp = ur.chain_log_posterior(chain, design)
        direct = [ur.log_posterior(ur.UnitRootDraw(psi=psi, sigma=float(sigma)), design)
                  for psi, sigma in zip(chain.psi, chain.sigma)]
        assert lp.shape == (700,)
        np.testing.assert_allclose(lp, direct, rtol=1e-12, atol=0.0)


class TestGibbs:
    def test_determinism(self, small_unitroot_design):
        a = ur.gibbs_chain(small_unitroot_design, RngState(7, 3), n_draws=500)
        b = ur.gibbs_chain(small_unitroot_design, RngState(7, 3), n_draws=500)
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.sigma, b.sigma)

    def test_streams_differ(self, small_unitroot_design):
        a = ur.gibbs_chain(small_unitroot_design, RngState(7, 0), n_draws=200)
        b = ur.gibbs_chain(small_unitroot_design, RngState(7, 1), n_draws=200)
        assert not np.array_equal(a.sigma, b.sigma)


class TestDirect:
    @pytest.mark.parametrize("p, trend, intercept", [
        (1, False, False), (1, False, True), (2, True, True), (4, True, True),
    ])
    def test_log_posterior_and_g0_at_every_draw(self, p, trend, intercept):
        design = ur.build_design(ar1_series(seed=p, n=60),
                                 ur.UnitRootSpec(p=p, include_trend=trend,
                                                 include_intercept=intercept))
        n = 300
        base, g0 = ur.direct_draws(design, RngState(p, 4), n_draws=n)
        # base - threshold is the log posterior minus the restricted maximum,
        # with the threshold that test_unit_root reads off the ADF t-ratio.
        t, k = design.x_full.shape
        threshold = ur.tangent_threshold(ur.adf_statistic(design), t, k)
        _, _, log_s_star = ur.restricted_map(design)
        # The same variates, turned into literal (psi, sigma) draws.
        rng = RngState(p, 4)
        coef, _, rss, r = design.fit
        u = rng.gamma_array(0.5 * (t - k), n)
        z = rng.standard_normal((n, k))
        sigma = np.sqrt(float(rss[0, 0]) / (2.0 * u))
        psi = coef.ravel() + sigma[:, None] * np.linalg.solve(r, z.T).T
        for i in range(n):
            want = ur.log_posterior(ur.UnitRootDraw(psi=psi[i], sigma=sigma[i]), design)
            assert abs(base[i] - threshold - (want - log_s_star)) <= 1e-12 * abs(want)
        np.testing.assert_allclose(g0, psi[:, design.gamma0_index], rtol=1e-10, atol=1e-14)

    def test_agrees_with_gibbs(self):
        design = ur.build_design(ar1_series(seed=30, n=50),
                                 ur.UnitRootSpec(p=2, include_trend=True))
        _, _, log_s_star = ur.restricted_map(design)
        chain = ur.gibbs_chain(design, RngState(12), n_draws=21_000)
        gibbs = estimate_evidence(log_s_star, chain.log_posterior, burn_in=1_000)
        direct = ur.test_unit_root(ar1_series(seed=30, n=50), design.spec, RngState(12),
                                   n_draws=21_000, burn_in=1_000).evidence
        assert 0.1 < direct.ev < 0.9
        assert abs(direct.ev - gibbs.ev) < 4.0 * math.hypot(direct.mc_se, gibbs.mc_se_batch)

    def test_p_nonstationary_is_the_student_t_tail(self):
        # The marginal posterior of g0 is Student-t with T - k degrees of
        # freedom around the OLS point, so P(g0 >= 0) = F_{T-k}(t_ADF).
        from scipy import stats

        res = ur.test_unit_root(ar1_series(seed=30, n=50),
                                ur.UnitRootSpec(p=2, include_trend=True), RngState(5),
                                n_draws=41_000, burn_in=1_000)
        t, k = res.design.x_full.shape
        exact = float(stats.t.cdf(res.adf_stat, t - k))
        assert abs(res.p_nonstationary - exact) < 4.0 * math.sqrt(exact * (1 - exact) / 40_000)


class TestAdfStatistic:
    def test_scale_equivariance(self):
        y = ar1_series(seed=21, n=60)
        spec = ur.UnitRootSpec(p=2, include_trend=True)
        base = ur.adf_statistic(ur.build_design(y, spec))
        for c in (1e-4, 3.0, 1e5):
            scaled = ur.adf_statistic(ur.build_design(c * y, spec))
            assert abs(scaled - base) < 1e-10

    def test_against_lstsq_oracle(self):
        y = ar1_series(seed=22, n=80)
        design = ur.build_design(y, ur.UnitRootSpec(p=2))
        coef, rss, _, _ = np.linalg.lstsq(design.x_full, design.delta_y, rcond=None)
        t, k = design.x_full.shape
        cov = float(rss[0]) / (t - k) * np.linalg.inv(design.x_full.T @ design.x_full)
        g = design.gamma0_index
        oracle = float(coef[g, 0] / math.sqrt(cov[g, g]))
        assert ur.adf_statistic(design) == pytest.approx(oracle, abs=1e-10)

    def test_negative_for_stationary_series(self):
        y = ar1_series(seed=23, n=200, phi=0.3)
        assert ur.adf_statistic(ur.build_design(y, ur.UnitRootSpec(p=1))) < -5.0


class TestEndToEnd:
    def test_result_fields_consistent(self):
        y = ar1_series(seed=31, n=50)
        res = ur.test_unit_root(y, ur.UnitRootSpec(p=1), RngState(3), n_draws=5000,
                                burn_in=500)
        assert 0.0 <= res.evidence.ev <= 1.0
        assert res.evidence.ev + res.evidence.ev_bar == pytest.approx(1.0)
        assert 0.0 <= res.p_nonstationary <= 1.0
        assert res.evidence.n_draws == 4500
        assert res.psi_hat.size == res.design.x_full.shape[1]
        assert res.sigma_map > 0

    def test_one_full_design_fit_per_run(self, ols_design_widths):
        # The full-design fit that the sampler, the ADF statistic and the
        # MAP point all share; the restricted maximum is read off the ADF
        # t-ratio, so no restricted regression runs.
        ur.test_unit_root(ar1_series(seed=31, n=50), ur.UnitRootSpec(p=2, include_trend=True),
                          RngState(3), n_draws=2000, burn_in=200)
        assert ols_design_widths == [4]

    @pytest.mark.parametrize("p, trend, intercept", [
        (1, False, False), (1, False, True), (3, True, True),
    ])
    def test_log_s_star_is_the_restricted_maximum(self, p, trend, intercept):
        spec = ur.UnitRootSpec(p=p, include_trend=trend, include_intercept=intercept)
        y = ar1_series(seed=33, n=70)
        res = ur.test_unit_root(y, spec, RngState(3), n_draws=1000, burn_in=100)
        _, _, log_s_star = ur.restricted_map(ur.build_design(y, spec))
        assert res.log_s_star == pytest.approx(log_s_star, rel=1e-12)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn-in"):
            ur.test_unit_root(ar1_series(seed=31, n=50), ur.UnitRootSpec(p=1), RngState(1),
                              n_draws=2000, burn_in=-5)

    def test_deterministic_replay(self):
        y = ar1_series(seed=32, n=40)
        spec = ur.UnitRootSpec(p=2)
        a = ur.test_unit_root(y, spec, RngState(11, 2), n_draws=4000, burn_in=400)
        b = ur.test_unit_root(y, spec, RngState(11, 2), n_draws=4000, burn_in=400)
        assert a.evidence.ev == b.evidence.ev
        assert a.p_nonstationary == b.p_nonstationary
        assert a.adf_stat == b.adf_stat

    def test_random_walk_supports_unit_root(self):
        g = np.random.default_rng(34)
        y = np.cumsum(g.normal(size=150))
        res = ur.test_unit_root(y, ur.UnitRootSpec(p=1), RngState(6), n_draws=20_000,
                                burn_in=1000)
        assert res.evidence.ev > 0.5
        assert res.p_nonstationary > 0.05

    def test_stationary_series_rejects_unit_root(self):
        y = ar1_series(seed=34, n=300, phi=0.2)
        res = ur.test_unit_root(y, ur.UnitRootSpec(p=1), RngState(6), n_draws=20_000,
                                burn_in=1000)
        assert res.evidence.ev < 0.01
        assert res.p_nonstationary < 0.01
