import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcoint.errors import EmptyStream, NonFiniteLogPosterior
from evcoint.fbst import (
    BridgeSpec,
    estimate_evidence,
    ev_from_pvalue,
    evbar_from_pvalue,
    pvalue_from_ev,
    pvalue_from_evbar,
    vecm_bridge_spec,
)


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
