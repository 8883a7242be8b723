import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import cointegrated_pair, random_walks, weakly_cointegrated
from evcoint import cointegration as co
from evcoint import linalg
from evcoint.errors import NonFiniteInput, NotPositiveDefinite, SeriesTooShort
from evcoint.fbst import estimate_evidence, ev_from_pvalue, vecm_bridge_spec
from evcoint.rng import RngState


class TestSpecAndDesign:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            co.VecmSpec(n=1, p=1)
        with pytest.raises(ValueError):
            co.VecmSpec(n=2, p=0)
        with pytest.raises(ValueError):
            co.VecmSpec(n=2, p=1, n_seasonal_dummies=4, dummy_period=4)

    def test_regressor_counts(self):
        data = random_walks(n=40, dim=2)
        # p=2 with constant: 1 + one diff-lag block + levels = 1 + 2 + 2.
        d = co.build_vecm_design(data, co.VecmSpec(n=2, p=2))
        assert d.z.shape[1] == 5
        assert d.effective_t == 38
        # p=1 without constant: levels only, short-run block empty.
        d0 = co.build_vecm_design(data, co.VecmSpec(n=2, p=1, include_constant=False))
        assert d0.z.shape[1] == 2
        assert d0.z1.shape[1] == 0
        # quarterly dummies: 1 + 3 + 2 + 4 + 4 for n=4, p=2.
        wide = random_walks(n=60, dim=4)
        d4 = co.build_vecm_design(
            wide, co.VecmSpec(n=4, p=2, n_seasonal_dummies=3, dummy_period=4)
        )
        assert d4.z.shape[1] == 1 + 3 + 4 + 4

    def test_column_order_and_names(self):
        data = random_walks(n=40, dim=2)
        d = co.build_vecm_design(
            data, co.VecmSpec(n=2, p=2, n_seasonal_dummies=2, dummy_period=4)
        )
        assert d.column_names == (
            "const", "season1", "season2",
            "dlag1_y1", "dlag1_y2", "level_y1", "level_y2",
        )
        np.testing.assert_array_equal(d.z[:, -2:], d.y_minus1)
        np.testing.assert_array_equal(d.z1, d.z[:, :-2])

    def test_row_alignment(self):
        data = random_walks(n=30, dim=2)
        p = 2
        d = co.build_vecm_design(data, co.VecmSpec(n=2, p=p))
        for i in range(d.effective_t):
            np.testing.assert_allclose(d.delta_y[i], data[p + i] - data[p + i - 1])
            np.testing.assert_allclose(d.y_minus1[i], data[p - 1 + i])
            np.testing.assert_allclose(d.z[i, 1:3], data[p - 1 + i] - data[p - 2 + i])

    def test_seasonal_dummy_phase(self):
        data = random_walks(n=41, dim=2)
        layout = dict(n=2, p=1, n_seasonal_dummies=3, dummy_period=4)
        d0 = co.build_vecm_design(data, co.VecmSpec(**layout))
        d1 = co.build_vecm_design(data, co.VecmSpec(**layout, start_period_index=1))
        # Raw row p has period (start + p) mod 4.
        assert d0.z[0, 1] == (1.0 if (0 + 1) % 4 == 0 else 0.0)
        assert d1.z[0, 1] == (1.0 if (1 + 1) % 4 == 0 else 0.0)
        # Each dummy column averages about 1/period.
        assert d0.z[:, 1].mean() == pytest.approx(0.25, abs=0.02)
        # Shifting the start by one rotates the dummy pattern.
        np.testing.assert_array_equal(d1.z[:-1, 1], d0.z[1:, 1])

    def test_too_short_and_non_finite(self):
        with pytest.raises(SeriesTooShort):
            co.build_vecm_design(random_walks(n=10, dim=2), co.VecmSpec(n=2, p=1))
        bad = random_walks(n=40, dim=2)
        bad[3, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            co.build_vecm_design(bad, co.VecmSpec(n=2, p=1))
        with pytest.raises(NonFiniteInput):
            co.build_vecm_design(random_walks(n=40, dim=3), co.VecmSpec(n=2, p=1))

    def test_fewer_residual_degrees_of_freedom_than_series(self):
        # p = 8 with 3 dummies on 29 x 2: k = 20 and T - k = 1 < n leaves
        # Omega's marginal IW(S, T - k) improper.
        spec = co.VecmSpec(n=2, p=8, n_seasonal_dummies=3)
        data = random_walks(seed=4, n=30, dim=2)
        with pytest.raises(SeriesTooShort):
            co.build_vecm_design(data[:29], spec)
        d = co.build_vecm_design(data, spec)
        assert d.effective_t - d.z.shape[1] == 2


class TestConcentration:
    def test_eigenvalues_in_unit_interval_descending(self):
        for seed in range(5):
            data = random_walks(seed=seed, n=80, dim=3)
            d = co.build_vecm_design(data, co.VecmSpec(n=3, p=2))
            conc = co.johansen_concentrate(d)
            lam = conc.eigenvalues
            assert lam.size == 3
            assert np.all(lam >= 0.0) and np.all(lam < 1.0)
            assert np.all(np.diff(lam) <= 0)

    def test_cointegrated_pair_has_dominant_eigenvalue(self):
        d = co.build_vecm_design(cointegrated_pair(), co.VecmSpec(n=2, p=1))
        lam = co.johansen_concentrate(d).eigenvalues
        assert lam[0] > 0.2
        assert lam[1] < 0.05

    def test_independent_walks_have_small_eigenvalues(self):
        d = co.build_vecm_design(random_walks(seed=2, n=400, dim=2), co.VecmSpec(n=2, p=1))
        lam = co.johansen_concentrate(d).eigenvalues
        assert lam[0] < 0.05

    def test_empty_short_run_block_path(self, tiny_vecm_design):
        conc = co.johansen_concentrate(tiny_vecm_design)
        np.testing.assert_array_equal(conc.u_hat, tiny_vecm_design.delta_y)
        np.testing.assert_array_equal(conc.v_hat, tiny_vecm_design.y_minus1)

    def test_permutation_equivariance(self):
        data = random_walks(seed=9, n=120, dim=3)
        spec = co.VecmSpec(n=3, p=2)
        a = co.johansen_concentrate(co.build_vecm_design(data, spec)).eigenvalues
        b = co.johansen_concentrate(
            co.build_vecm_design(data[:, [2, 0, 1]], spec)
        ).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestLogSStar:
    def test_monotone_in_rank(self):
        data = random_walks(seed=4, n=100, dim=3)
        d = co.build_vecm_design(data, co.VecmSpec(n=3, p=2))
        conc = co.johansen_concentrate(d)
        stars = co.log_s_stars(conc.eigenvalues, conc.suu, d.effective_t, 3)
        assert len(stars) == 4
        assert all(b >= a for a, b in zip(stars, stars[1:]))

    @pytest.mark.parametrize("n, dummies", [(2, 0), (3, 1), (4, 3)])
    def test_gap_to_full_rank_is_the_trace_gap(self, n, dummies):
        # l*_r - l*_n = -((T+n+1)/2) q_r.
        d = co.build_vecm_design(random_walks(seed=14, n=90, dim=n),
                                 co.VecmSpec(n=n, p=2, n_seasonal_dummies=dummies))
        conc = co.johansen_concentrate(d)
        stars = co.log_s_stars(conc.eigenvalues, conc.suu, d.effective_t, n)
        want = -0.5 * (d.effective_t + n + 1) * co.trace_gaps(conc.eigenvalues)
        for r in range(n):
            assert stars[r] - stars[n] == pytest.approx(want[r], rel=1e-12)

    def test_one_log_determinant_per_rank_test(self, monkeypatch):
        # One for all the constrained maxima, one for the MAP self-check.
        calls = []
        log_det_spd = linalg.log_det_spd
        monkeypatch.setattr(linalg, "log_det_spd", lambda a: calls.append(1) or log_det_spd(a))
        n = 4
        co.test_rank(random_walks(seed=15, n=90, dim=n), co.VecmSpec(n=n, p=2))
        assert len(calls) == 2

    def test_full_rank_matches_map_log_posterior(self, tiny_vecm_design):
        d = tiny_vecm_design
        t, n = d.effective_t, 2
        conc = co.johansen_concentrate(d)
        eta_hat, _, s, _ = linalg.ols_solve(d.z, d.delta_y)
        map_value = co.log_posterior(
            co.CointDraw(eta=eta_hat, omega=s / (t + n + 1)), d
        )
        star = co.log_s_stars(conc.eigenvalues, conc.suu, t, n)[n]
        assert map_value == pytest.approx(star, abs=1e-9 * max(1.0, abs(star)))

    def test_map_is_stationary_point_of_omega(self, tiny_vecm_design):
        # Finite-difference gradient of the log posterior in Omega vanishes
        # at the analytic maximizer.
        d = tiny_vecm_design
        t, n = d.effective_t, 2
        eta_hat, _, s, _ = linalg.ols_solve(d.z, d.delta_y)
        omega0 = s / (t + n + 1)
        base = co.log_posterior(co.CointDraw(eta=eta_hat, omega=omega0), d)
        eps = 1e-6
        for i in range(n):
            for j in range(i + 1):
                de = np.zeros((n, n))
                de[i, j] = de[j, i] = eps
                up = co.log_posterior(co.CointDraw(eta=eta_hat, omega=omega0 + de), d)
                dn = co.log_posterior(co.CointDraw(eta=eta_hat, omega=omega0 - de), d)
                assert abs(up - dn) / (2 * eps) < 1e-4 * max(1.0, abs(base))


class TestChain:
    def test_chain_log_posterior_matches_pointwise(self, tiny_vecm_design):
        d = tiny_vecm_design
        chain = co.gibbs_chain(d, RngState(3), n_draws=100)
        lp = co.chain_log_posterior(chain, d)
        for i in range(0, 100, 9):
            direct = co.log_posterior(
                co.CointDraw(eta=chain.eta[i], omega=chain.omega[i]), d
            )
            assert lp[i] == pytest.approx(direct, abs=1e-8 * max(1.0, abs(direct)))

    @pytest.mark.parametrize("n, dummies", [(2, 0), (3, 1), (4, 3), (5, 3)])
    def test_chain_log_posterior_at_every_draw(self, n, dummies):
        spec = co.VecmSpec(n=n, p=2, n_seasonal_dummies=dummies)
        d = co.build_vecm_design(random_walks(seed=n, n=90, dim=n), spec)
        chain = co.gibbs_chain(d, RngState(n, 4), n_draws=600)
        lp = co.chain_log_posterior(chain, d)
        direct = [co.log_posterior(co.CointDraw(eta=eta, omega=omega), d)
                  for eta, omega in zip(chain.eta, chain.omega)]
        assert lp.shape == (600,)
        np.testing.assert_allclose(lp, direct, rtol=1e-12, atol=0.0)

    def test_determinism(self, tiny_vecm_design):
        a = co.gibbs_chain(tiny_vecm_design, RngState(4, 1), n_draws=300)
        b = co.gibbs_chain(tiny_vecm_design, RngState(4, 1), n_draws=300)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.omega, b.omega)

    def test_non_positive_definite_draw_raises(self, tiny_vecm_design, monkeypatch):
        monkeypatch.setattr(co, "inverse_wishart_from_factor", lambda a, l: -np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            co.gibbs_chain(tiny_vecm_design, RngState(4), n_draws=10)


class TestDirect:
    @pytest.mark.parametrize("n, dummies", [(2, 0), (3, 1), (4, 3)])
    def test_log_posterior_at_every_draw(self, n, dummies):
        d = co.build_vecm_design(random_walks(seed=13, n=70, dim=n),
                                 co.VecmSpec(n=n, p=2, n_seasonal_dummies=dummies))
        draws = 200
        base = co.direct_draws(d, RngState(n, 4), n_draws=draws)
        # The per-rank thresholds test_rank compares the base with.
        conc = co.johansen_concentrate(d)
        thresholds = -0.5 * (d.effective_t + n + 1) * co.trace_gaps(conc.eigenvalues)
        stars = co.log_s_stars(conc.eigenvalues, conc.suu, d.effective_t, n)
        # Literal (eta, Omega) draws from the same chi-squares: the kernel
        # depends on the normals only through their sum of squares q, so
        # any normals with that sum will do.
        rng = RngState(n, 4)
        t, k = d.effective_t, d.z.shape[1]
        c = np.column_stack([rng.gamma_array(0.5 * (t - k - i), draws, scale=2.0)
                             for i in range(n)])
        q = rng.gamma_array(0.5 * (k * n + n * (n - 1) // 2), draws, scale=2.0)
        eta_hat, _, s, r = d.fit
        l_s = np.linalg.cholesky(s)
        rows, cols = np.tril_indices(n, -1)
        g = np.random.default_rng(0)
        for i in range(draws):
            v = g.normal(size=k * n + rows.size)
            v *= math.sqrt(q[i]) / np.linalg.norm(v)
            a = np.diag(np.sqrt(c[i]))
            a[rows, cols] = v[k * n:]
            ainv_l = np.linalg.solve(a, l_s.T)
            omega = ainv_l.T @ ainv_l                  # Omega^-1 = L^-T A A' L^-1
            eta = eta_hat + np.linalg.solve(r, v[:k * n].reshape(k, n)) @ \
                np.linalg.cholesky(omega).T
            want = co.log_posterior(co.CointDraw(eta=eta, omega=omega), d)
            for threshold, star in zip(thresholds, stars):
                assert abs(base[i] - threshold - (want - star)) <= 1e-12 * abs(want)

    def test_base_stream_reads_only_the_sizes(self):
        d = co.build_vecm_design(random_walks(seed=13, n=70, dim=3),
                                 co.VecmSpec(n=3, p=2, n_seasonal_dummies=1))
        sizes = SimpleNamespace(effective_t=d.effective_t, spec=SimpleNamespace(n=3),
                                z=SimpleNamespace(shape=d.z.shape))
        want = co.direct_draws(d, RngState(3, 4), n_draws=500)
        assert np.array_equal(co.direct_draws(sizes, RngState(3, 4), n_draws=500), want)
        assert want.max() < 0.0

    @pytest.mark.parametrize("data, spec", [
        (random_walks(seed=2, n=100, dim=2), co.VecmSpec(n=2, p=1, n_seasonal_dummies=1)),
        (weakly_cointegrated(seed=5, n=100, phi=0.5),
         co.VecmSpec(n=4, p=2, n_seasonal_dummies=3)),
    ], ids=["n2-dummies", "n4-dummies"])
    def test_agrees_with_gibbs(self, data, spec):
        # The quadrature of the rank test against the paper's chain.  A chain
        # that puts none (or all) of its 20,000 kept draws in the tangent set
        # has batch-means error 0; it resolves ev only to one draw.
        report = co.test_rank(data, spec)
        design = co.build_vecm_design(data, spec)
        chain = co.gibbs_chain(design, RngState(21), n_draws=21_000)
        assert 0.1 < report.hypotheses[0].evidence.ev < 0.9
        for h in report.hypotheses:
            gibbs = estimate_evidence(h.log_s_star, chain.log_posterior, burn_in=1_000)
            se = math.hypot(h.evidence.ev_err, max(gibbs.mc_se_batch, 1.0 / gibbs.n_draws))
            assert abs(h.evidence.ev - gibbs.ev) <= 4.0 * se, h.rank


class TestTraceStatistic:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_stat_from_the_eigenvalues(self, n):
        data = weakly_cointegrated(seed=n, n=120, phi=0.6)[:, :n]
        report = co.test_rank(data, co.VecmSpec(n=n, p=2))
        t = data.shape[0] - 2
        lam = np.asarray(report.eigenvalues)
        for r, h in enumerate(report.hypotheses[:n]):
            want = -t * float(np.sum(np.log(1.0 - lam[r:])))
            assert h.trace_stat == pytest.approx(want, rel=1e-12)
        last = report.hypotheses[n - 1]
        assert last.trace_stat == last.max_eig_stat
        assert report.hypotheses[n].trace_stat is None

    def test_gaps_fall_to_zero(self):
        gaps = co.trace_gaps(np.array([0.5, 0.2, 0.1]))
        np.testing.assert_allclose(gaps, [-math.log(0.5 * 0.8 * 0.9), -math.log(0.8 * 0.9),
                                          -math.log(0.9), 0.0], rtol=1e-15)


class TestMaxEig:
    def test_formula(self):
        lam = np.array([0.5, 0.2])
        assert co.max_eig_statistic(lam, 100, 0) == pytest.approx(-100 * math.log(0.5))
        assert co.max_eig_statistic(lam, 100, 1) == pytest.approx(-100 * math.log(0.8))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            co.max_eig_statistic(np.array([0.5, 0.2]), 100, 2)


class TestRankTest:
    def test_threshold_policies(self):
        assert co.parse_threshold_policy("fixed:0.05") == ("fixed", 0.05)
        assert co.parse_threshold_policy("bridge:p=0.01") == ("bridge", 0.01)
        bridged = ev_from_pvalue(0.01, vecm_bridge_spec(2, 4, 0, "paper-literal"))
        assert bridged == pytest.approx(0.276, abs=0.01)
        with pytest.raises(ValueError):
            co.parse_threshold_policy("bridge:0.01")
        with pytest.raises(ValueError):
            co.parse_threshold_policy("other:1")

    def test_bad_threshold_policy_rejected_before_any_fit(self, ols_design_widths):
        with pytest.raises(ValueError):
            co.test_rank(cointegrated_pair(seed=5, n=200), co.VecmSpec(n=2, p=2),
                         threshold_policy="bogus")
        assert ols_design_widths == []

    @pytest.mark.parametrize("policy", ["fixed:0.05", "bridge:p=0.01"])
    def test_bad_dimension_convention_rejected_before_any_fit(self, ols_design_widths, policy):
        with pytest.raises(ValueError, match="dimension convention"):
            co.test_rank(cointegrated_pair(seed=5, n=200), co.VecmSpec(n=2, p=2),
                         threshold_policy=policy,
                         dimension_convention="bogus")
        assert ols_design_widths == []

    @pytest.mark.parametrize("n_obs, seed", [(80, 2), (90, 1)])
    def test_strongly_cointegrated_pair_without_constant(self, n_obs, seed):
        # n = 2, p = 1, no constant: k = 2, q_dof = 5, so the base's
        # characteristic function decays only as u^-3.5; a rank-0 trace
        # statistic of 70-75 puts the threshold near -36.
        report = co.test_rank(cointegrated_pair(seed=seed, n=n_obs),
                              co.VecmSpec(n=2, p=1, include_constant=False))
        assert 60.0 < report.hypotheses[0].trace_stat < 85.0
        evs = [h.evidence.ev for h in report.hypotheses]
        assert 0.0 < evs[0] < 1e-10
        assert evs[0] <= evs[1] <= evs[2] == 1.0
        assert report.selected_rank == 1

    def test_nested_evidence_and_full_rank_certainty(self):
        report = co.test_rank(cointegrated_pair(), co.VecmSpec(n=2, p=1))
        evs = [h.evidence.ev for h in report.hypotheses]
        assert all(b >= a for a, b in zip(evs, evs[1:]))
        assert evs[-1] == 1.0
        assert report.hypotheses[-1].threshold is None
        assert report.hypotheses[-1].max_eig_stat is None
        assert report.hypotheses[-1].trace_stat is None
        assert not report.hypotheses[-1].rejected

    def test_selects_rank_one_for_cointegrated_pair(self):
        report = co.test_rank(cointegrated_pair(), co.VecmSpec(n=2, p=1),
                              threshold_policy="fixed:0.05")
        assert report.selected_rank == 1
        assert report.hypotheses[0].rejected
        assert not report.hypotheses[1].rejected

    def test_selects_rank_zero_for_independent_walks(self):
        report = co.test_rank(random_walks(seed=2, n=400, dim=2), co.VecmSpec(n=2, p=1),
                              threshold_policy="fixed:0.05")
        assert report.selected_rank == 0

    def test_rejection_is_sequential(self):
        # Once a hypothesis survives, later ones are never flagged rejected.
        report = co.test_rank(random_walks(seed=14, n=120, dim=3), co.VecmSpec(n=3, p=1),
                              threshold_policy="fixed:0.05")
        seen_survivor = False
        for h in report.hypotheses:
            if seen_survivor:
                assert not h.rejected
            if not h.rejected:
                seen_survivor = True

    def test_deterministic_replay(self):
        data = cointegrated_pair(seed=5, n=200)
        spec = co.VecmSpec(n=2, p=2)
        a = co.test_rank(data, spec)
        b = co.test_rank(data, spec)
        for ha, hb in zip(a.hypotheses, b.hypotheses):
            assert ha.evidence.ev == hb.evidence.ev
            assert ha.log_s_star == hb.log_s_star

    def test_one_full_design_fit_per_run(self, ols_design_widths):
        # One short-run partialling fit of both blocks, the Frisch-Waugh fit
        # of the partialled pair and one full-design fit shared by the
        # identity check and the MAP self-check; the e-values read no fit.
        co.test_rank(cointegrated_pair(seed=5, n=200), co.VecmSpec(n=2, p=2))
        assert ols_design_widths == [3, 2, 5]

    def test_report_metadata(self):
        report = co.test_rank(
            cointegrated_pair(seed=6, n=150),
            co.VecmSpec(n=2, p=1, n_seasonal_dummies=1, dummy_period=4),
        )
        assert report.threshold_policy == "bridge:p=0.01"
        assert report.dimension_convention == "paper-literal"
        assert len(report.hypotheses) == 3
