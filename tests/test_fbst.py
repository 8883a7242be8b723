import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcoint import fbst
from evcoint.cointegration import _base_law, evidence_from_eigenvalues
from evcoint.errors import EmptyStream, NonFiniteLogPosterior
from evcoint.fbst import (
    BridgeSpec,
    base_cdf,
    draw_base,
    estimate_evidence,
    ev_from_pvalue,
    evbar_from_pvalue,
    pvalue_from_ev,
    pvalue_from_evbar,
    vecm_bridge_spec,
)
from evcoint.rng import RngState


class TestEstimateEvidence:
    def test_four_draw_example(self):
        res = estimate_evidence(2.5, [1.0, 2.0, 3.0, 4.0])
        assert res.ev == pytest.approx(0.5)
        assert res.ev_bar == pytest.approx(0.5)
        assert res.mc_se == pytest.approx(0.25)
        assert res.n_draws == 4

    def test_ties_count_outside_tangent_set(self):
        res = estimate_evidence(3.0, [1.0, 2.0, 3.0, 4.0])
        assert res.ev_bar == pytest.approx(0.25)
        assert res.ev == pytest.approx(0.75)

    def test_all_below_gives_ev_one(self):
        res = estimate_evidence(10.0, [1.0, 2.0, 3.0])
        assert res.ev == 1.0
        assert res.mc_se == 0.0

    def test_burn_in_discarded(self):
        res = estimate_evidence(2.5, [100.0, 100.0, 1.0, 4.0], burn_in=2)
        assert res.n_draws == 2
        assert res.ev == pytest.approx(0.5)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn-in"):
            estimate_evidence(0.0, [1.0, 2.0, 3.0], burn_in=-1)
        for bad in (1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="burn-in"):
                estimate_evidence(0.0, [1.0, 2.0, 3.0], burn_in=bad)
        res = estimate_evidence(0.0, [1.0, 2.0, 3.0], burn_in=np.int64(1))
        assert res.n_draws == 2 and res.burn_in == 1

    def test_empty_stream(self):
        with pytest.raises(EmptyStream):
            estimate_evidence(0.0, [])
        with pytest.raises(EmptyStream):
            estimate_evidence(0.0, [1.0, 2.0], burn_in=2)

    def test_non_finite_reported_with_index(self):
        with pytest.raises(NonFiniteLogPosterior) as exc:
            estimate_evidence(0.0, [1.0, np.nan, 2.0])
        assert "1" in str(exc.value)

    def test_monotone_transform_invariance(self):
        """The e-value depends only on the ordering of posterior values, so
        any strictly increasing affine map of the log scale leaves it fixed."""
        g = np.random.default_rng(8)
        lp = g.normal(size=5000)
        s = 0.3
        base = estimate_evidence(s, lp)
        shifted = estimate_evidence(2.0 * s + 7.0, 2.0 * lp + 7.0)
        assert shifted.ev == base.ev

    def test_mc_se_shrinks_with_sample_size(self):
        g = np.random.default_rng(9)
        lp = g.normal(size=40_000)
        small = estimate_evidence(0.0, lp[:10_000])
        large = estimate_evidence(0.0, lp)
        assert large.mc_se == pytest.approx(small.mc_se / 2.0, rel=0.05)

    def test_batch_se_close_to_binomial_for_iid(self):
        g = np.random.default_rng(10)
        lp = g.normal(size=50_000)
        res = estimate_evidence(0.5, lp)
        assert res.mc_se_batch == pytest.approx(res.mc_se, rel=0.35)

    def test_no_batch_se_for_tiny_streams(self):
        assert estimate_evidence(0.0, [1.0, -1.0]).mc_se_batch is None

    @settings(max_examples=200, deadline=None)
    @given(
        lp=st.lists(st.integers(-1600, 1600), min_size=1, max_size=80),
        s=st.integers(-1600, 1600),
        scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        shift=st.integers(-800, 800),
    )
    def test_properties_hold_for_arbitrary_streams(self, lp, s, scale, shift):
        # Dyadic inputs keep the affine map exact in floating point, so the
        # ordering (including ties) is preserved bit for bit.
        lp = [v / 16.0 for v in lp]
        s = s / 16.0
        shift = float(shift)
        res = estimate_evidence(s, lp)
        assert 0.0 <= res.ev <= 1.0
        assert res.ev + res.ev_bar == pytest.approx(1.0)
        assert res.mc_se >= 0.0
        # Invariance under strictly increasing affine maps of the log scale.
        mapped = estimate_evidence(
            scale * s + shift, [scale * v + shift for v in lp]
        )
        assert mapped.ev == res.ev


def gil_pelaez_quad(thr, a, dofs, q_dof):
    """P(base <= thr) by scipy ``quad`` of the Gil-Pelaez integrand, with
    scipy's complex log-gamma in the characteristic function."""
    from scipy import integrate, special

    def integrand(u):
        iu = 1j * u
        log_phi = -0.5 * q_dof * np.log1p(iu) - iu * len(dofs) * a * (math.log(2 * a) - 1)
        for dof in dofs:
            z = 0.5 * dof + iu * a
            log_phi += special.loggamma(z) - special.gammaln(0.5 * dof) \
                + iu * a * math.log(2.0) - z * np.log1p(iu)
        return np.imag(np.exp(log_phi - iu * thr)) / u

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=5000)
    return 0.5 - value / math.pi


def unit_root_quad(thr, a, dof, q_dof):
    """P(base <= thr) by scipy ``quad`` over c ~ chi2_dof of the chi2_q tail
    beyond 2 (f(c) - thr), f(c) = a (ln(c/2a) + 1) - c/2."""
    from scipy import integrate, optimize, stats

    def gap(c):
        return a * (math.log(c / (2.0 * a)) + 1.0) - 0.5 * c - thr

    def integrand(c):
        return stats.chi2.sf(max(2.0 * gap(c), 0.0), q_dof) * stats.chi2.pdf(c, dof)

    roots = [optimize.brentq(gap, 1e-300, 2.0 * a), optimize.brentq(gap, 2.0 * a, 1e6 * a)]
    lo, hi = stats.chi2.ppf([1e-16, 1.0 - 1e-16], dof)
    value, _ = integrate.quad(integrand, lo, hi, points=[r for r in roots if lo < r < hi],
                              epsabs=1e-14, epsrel=1e-12, limit=500)
    return value


class TestBaseCdf:
    @pytest.mark.parametrize("t, n, k", [
        (104, 4, 12), (10_495, 4, 5), (85, 3, 4), (20, 2, 3), (30, 2, 3), (98, 2, 3),
    ], ids=["finland", "eeg", "lucas", "n2-t20", "n2-t30", "n2-t98"])
    def test_vecm_matches_scipy_quadrature(self, t, n, k):
        a, dofs, q_dof = _base_law(t, n, k)
        thrs = -a * np.array([0.002, 0.02, 0.05, 0.1, 0.2, 0.4])
        evs, errs = base_cdf(thrs, a, dofs, q_dof)
        for thr, ev, err in zip(thrs, evs, errs):
            assert abs(ev - gil_pelaez_quad(thr, a, dofs, q_dof)) < 1e-9, thr
            assert 0.0 <= err < 1e-9

    @pytest.mark.parametrize("t", [12, 20, 78, 127, 5000])
    def test_unit_root_matches_scipy_quadrature(self, t):
        a = 0.5 * (t + 1)
        for k in range(1, 7):
            for t_adf in (0.3, 1.0, 2.0, 4.0, 8.0):
                thr = -a * math.log1p(t_adf ** 2 / (t - k))
                ev, err = base_cdf(thr, a, [t - k], k)
                assert abs(ev - unit_root_quad(thr, a, t - k, k)) < 1e-9, (k, t_adf)
                assert 0.0 <= err < 1e-9

    @pytest.mark.parametrize("t", [15, 40, 200])
    def test_slow_decay_deep_tail_matches_conditioning_on_one_chi_square(self, t):
        # n = 2, k = 2 (p = 1, no constant): q_dof = 5 and the characteristic
        # function decays only as u^-3.5.  Thresholds -25 to -45 are trace
        # statistics of a strongly cointegrated pair.  Reference: condition on
        # c_1, the rest is the one-chi-square law at thr - f(c_1), integrated
        # over c_1 by scipy ``quad``.
        from scipy import integrate, stats

        a, (d1, d2), q_dof = _base_law(t, 2, 2)

        def conditioned(thr):
            def outer(c):
                rest = thr - (a * (math.log(c / (2.0 * a)) + 1.0) - 0.5 * c)
                return base_cdf(rest, a, [d2], q_dof)[0] * stats.chi2.pdf(c, d1)

            lo, hi = stats.chi2.ppf([1e-16, 1.0 - 1e-16], d1)
            value, _ = integrate.quad(outer, lo, hi, points=[2.0 * a], epsabs=1e-13,
                                      epsrel=0.0, limit=500)
            return value

        thrs = np.array([-25.0, -30.0, -35.0, -40.0, -45.0])
        evs, errs = base_cdf(thrs, a, [d1, d2], q_dof)
        for thr, ev, err in zip(thrs, evs, errs):
            assert abs(ev - conditioned(thr)) < 1e-12, thr
            assert 0.0 <= err < 1e-12

    @pytest.mark.parametrize("t, k", [(20, 6), (60, 6), (200, 8)])
    def test_both_methods_agree_on_one_chi_square(self, t, k):
        # Gil-Pelaez converges at n = 1 once q ~ chi2_k with k >= 6 makes
        # the characteristic function decay fast enough.
        a, thrs = 0.5 * (t + 1), np.array([-0.5, -2.0, -4.0, -8.0])
        by_c, _ = fbst._unit_root_cdf(thrs, a, [t - k], k)
        by_phi, _ = fbst._gil_pelaez_cdf(thrs, a, [t - k], k)
        np.testing.assert_allclose(by_phi, by_c, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("a, dofs, q_dof, thrs", [
        (*_base_law(104, 4, 12), [-48.0, -41.0, -33.0, -25.0, -20.5]),
        (30.5, [54], 6, [-10.0, -6.5, -3.4, -1.5, -0.7]),
    ], ids=["finland", "unit-root"])
    def test_within_binomial_error_of_a_million_draws(self, a, dofs, q_dof, thrs):
        n = 1_000_000
        base = draw_base(RngState(3), a, dofs, q_dof, n)
        evs, _ = base_cdf(np.array(thrs), a, dofs, q_dof)
        for thr, ev in zip(thrs, evs):
            empirical = np.count_nonzero(base <= thr) / n
            assert abs(ev - empirical) <= 4.0 * math.sqrt(ev * (1.0 - ev) / n), thr

    def test_far_tail_is_exactly_zero(self):
        # EEG phase "during" (T = 10,495, n = 4, k = 5): the rank-0 trace gap
        # lies about 40 standard deviations out.
        t, n, k = 10_495, 4, 5
        eigenvalues = -np.expm1(-np.array([1120.5, 31.563, 6.5015, 1.4383]) / t)
        evs = [e.ev for e in evidence_from_eigenvalues(eigenvalues, t, n, k)]
        assert evs[0] == 0.0
        assert evs[-1] == 1.0

    def test_threshold_zero_is_exactly_one(self):
        for a, dofs, q_dof in (_base_law(104, 4, 12), _base_law(20, 2, 3), (30.5, [54], 6)):
            assert base_cdf(0.0, a, dofs, q_dof) == (1.0, 0.0)
            assert base_cdf(-0.0, a, dofs, q_dof) == (1.0, 0.0)

    def test_every_value_lies_in_the_unit_interval(self):
        thrs = -np.geomspace(1e-6, 1e4, 60)
        for a, dofs, q_dof in (_base_law(104, 4, 12), _base_law(10_495, 4, 5),
                               _base_law(30, 2, 3), _base_law(15, 2, 2), _base_law(40, 2, 2),
                               _base_law(200, 2, 2), (64.0, [121], 6), (6.5, [11], 1)):
            evs, errs = base_cdf(thrs, a, dofs, q_dof)
            assert np.all((evs >= 0.0) & (evs <= 1.0))
            assert np.all(np.diff(evs) <= 1e-9)   # thrs decrease
            assert np.all(errs >= 0.0)

    def test_ranks_within_rounding_of_one_stay_non_decreasing(self):
        # Ranks 1 and 2 differ by a 1e-13 trace gap, both with e-values within
        # 1e-12 of 1: closer than the quadrature error.
        eigenvalues = np.array([0.5, 1e-13, 0.05, 0.0487])
        evs = [e.ev for e in evidence_from_eigenvalues(eigenvalues, 104, 4, 12)]
        assert 1.0 - 1e-12 < evs[1] <= evs[2] < 1.0
        assert all(b >= a for a, b in zip(evs, evs[1:]))
        assert evs[-1] == 1.0


class TestBridge:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BridgeSpec(m=5, h=5)
        with pytest.raises(ValueError):
            BridgeSpec(m=5, h=0)

    def test_reference_value_m11_h7(self):
        assert ev_from_pvalue(0.01, BridgeSpec(m=11, h=7)) == pytest.approx(0.276, abs=0.01)

    def test_endpoints(self):
        spec = BridgeSpec(m=9, h=4)
        assert ev_from_pvalue(0.0, spec) == 0.0
        assert ev_from_pvalue(1.0, spec) == 1.0
        assert pvalue_from_ev(0.0, spec) == 0.0
        assert pvalue_from_ev(1.0, spec) == 1.0

    def test_ev_within_rounding_of_zero(self):
        # 1 - 1e-17 rounds to 1: the complement is exactly 1, whose p-value is 0.
        assert pvalue_from_ev(1e-17, BridgeSpec(m=9, h=4)) == 0.0

    def test_p_within_rounding_of_zero(self):
        # 1 - 1e-17 rounds to 1, whose chi-square quantile is infinite: the
        # bridge returns its p -> 0 limits instead.
        spec = BridgeSpec(m=9, h=4)
        assert evbar_from_pvalue(1e-17, spec) == 1.0
        assert ev_from_pvalue(1e-17, spec) == 0.0

    def test_monotone_in_p(self):
        spec = BridgeSpec(m=12, h=5)
        ps = np.linspace(0.001, 0.999, 60)
        evs = [ev_from_pvalue(p, spec) for p in ps]
        assert all(b > a for a, b in zip(evs, evs[1:]))

    def test_round_trip_grid(self):
        """p -> ev -> p through whichever representation keeps digits:
        the e-value itself when it is below 1/2, its complement otherwise."""
        ps = [0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5]
        for m in (2, 3, 5, 11, 20, 30, 45, 60):
            for h in {1, m // 2, m - 1}:
                spec = BridgeSpec(m=m, h=h)
                for p in ps:
                    ev = ev_from_pvalue(p, spec)
                    if ev <= 0.5:
                        back = pvalue_from_ev(ev, spec)
                    else:
                        back = pvalue_from_evbar(evbar_from_pvalue(p, spec), spec)
                    assert abs(back - p) < 1e-9, (m, h, p)

    def test_complement_consistency(self):
        spec = BridgeSpec(m=11, h=7)
        for p in (0.01, 0.1, 0.5):
            assert evbar_from_pvalue(p, spec) == pytest.approx(
                1.0 - ev_from_pvalue(p, spec), abs=1e-12
            )
        assert evbar_from_pvalue(0.0, spec) == 1.0
        assert pvalue_from_evbar(1.0, spec) == 0.0

    def test_out_of_range(self):
        spec = BridgeSpec(m=4, h=2)
        with pytest.raises(ValueError):
            ev_from_pvalue(1.5, spec)
        with pytest.raises(ValueError):
            pvalue_from_ev(-0.1, spec)


class TestVecmBridgeSpec:
    def test_dimension_bookkeeping(self):
        # n = 2 series, k = 4 regressors: full space 8 + 3 = 11.
        spec = vecm_bridge_spec(2, 4, 0)
        assert (spec.m, spec.h) == (11, 7)

    def test_conventions_agree_at_rank_zero(self):
        for n, k in ((2, 4), (3, 7), (4, 5)):
            a = vecm_bridge_spec(n, k, 0, convention="manifold")
            b = vecm_bridge_spec(n, k, 0, convention="paper-literal")
            assert (a.m, a.h) == (b.m, b.h)

    def test_paper_literal_counts_one_per_rank(self):
        base = vecm_bridge_spec(3, 7, 0).h
        for r in (1, 2):
            assert vecm_bridge_spec(3, 7, r).h == base + r

    def test_manifold_counts_r_2n_minus_r(self):
        for r in (1, 2):
            spec = vecm_bridge_spec(3, 7, r, convention="manifold")
            assert spec.h == vecm_bridge_spec(3, 7, 0).h + r * (6 - r)

    def test_large_system_dimensions(self):
        # n = 4 series with 12 regressors: m = 58, h = 42 + r.
        assert (vecm_bridge_spec(4, 12, 0).m, vecm_bridge_spec(4, 12, 0).h) == (58, 42)
        assert vecm_bridge_spec(4, 12, 1).h == 43

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            vecm_bridge_spec(2, 4, 3)
        with pytest.raises(ValueError):
            vecm_bridge_spec(2, 4, -1)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            vecm_bridge_spec(2, 4, 1, convention="other")
