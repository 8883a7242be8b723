"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v`` so every criterion reports on its own line.  The
four golden-run criteria need the reference datasets described in
``data/README.md``; they skip with an explanatory message when the files
are absent.
"""
import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ar1_series, grid_posterior_unitroot
from evcoint import cointegration as co
from evcoint import linalg
from evcoint import unitroot as ur
from evcoint.fbst import (
    BridgeSpec,
    ev_from_pvalue,
    evbar_from_pvalue,
    pvalue_from_ev,
    pvalue_from_evbar,
)
from evcoint.rng import (
    InverseWishartParams,
    MatrixNormalParams,
    RngState,
    sample_inverse_wishart,
    sample_matrix_normal,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

N_DRAWS = 51_000
BURN_IN = 1_000


def require_data(*names):
    missing = [n for n in names if not (DATA_DIR / n).exists()]
    if missing:
        pytest.skip(f"dataset file(s) not present: {', '.join(missing)} "
                    f"(see data/README.md for provenance and format)")
    return [DATA_DIR / n for n in names]


def read_columns_with_na(path):
    """Raw column-wise read tolerating NA/empty cells (trimmed per column)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    out = {}
    for j, name in enumerate(header):
        vals = []
        for row in rows[1:]:
            cell = row[j].strip() if j < len(row) else ""
            if cell and cell.upper() != "NA":
                vals.append(float(cell))
        out[name] = np.array(vals)
    return out


def check_rank_golden(report, max_eig_expected, ev_expected, max_eig_rtol=None,
                      max_eig_atol=None, ev_tol_floor=0.03):
    for r, expected in enumerate(max_eig_expected):
        got = report.hypotheses[r].max_eig_stat
        if max_eig_rtol is not None:
            assert abs(got - expected) <= max_eig_rtol * abs(expected) + 1e-12, (
                f"max-eig at rank {r}: got {got:.4f}, expected {expected}"
            )
        else:
            assert abs(got - expected) <= max_eig_atol, (
                f"max-eig at rank {r}: got {got:.4f}, expected {expected}"
            )
    for r, expected in enumerate(ev_expected):
        if expected is None:
            continue
        h = report.hypotheses[r]
        tol = max(ev_tol_floor, 4.0 * h.evidence.ev_err)
        if expected == "zero":
            assert h.evidence.ev <= tol, f"rank {r}: ev {h.evidence.ev:.4f} not near 0"
        elif expected == "one":
            assert h.evidence.ev >= 1.0 - tol, (
                f"rank {r}: ev {h.evidence.ev:.4f} not near 1"
            )
        else:
            assert abs(h.evidence.ev - expected) <= tol, (
                f"rank {r}: ev {h.evidence.ev:.4f}, expected {expected} (tol {tol:.4f})"
            )


# Series name, sample size, lag order p, trend flag, ADF stat, P(g0 >= 0), ev.
TABLE_NELSON_PLOSSER = [
    ("realgnp", 80, 2, True, -3.52, 0.0005, 0.040),
    ("nomgnp", 80, 2, True, -2.06, 0.0238, 0.523),
    ("realpcgnp", 80, 2, True, -3.59, 0.0004, 0.034),
    ("indprod", 129, 2, True, -3.62, 0.0003, 0.028),
    ("employmt", 99, 2, True, -3.47, 0.0004, 0.043),
    ("unemploy", 99, 4, False, -4.04, 0.0001, 0.020),
    ("gnpdefl", 100, 2, True, -1.62, 0.0584, 0.762),
    ("cpi", 129, 4, True, -1.22, 0.1154, 0.983),
    ("wages", 89, 2, True, -2.40, 0.0106, 0.341),
    ("realwag", 89, 2, True, -1.71, 0.0475, 0.715),
    ("money", 100, 2, True, -2.91, 0.0029, 0.147),
    ("velocity", 119, 2, True, -1.62, 0.0620, 0.777),
    ("bondyield", 89, 4, False, -1.35, 0.0962, 0.936),
    ("sp500", 118, 2, True, -2.44, 0.0103, 0.349),
]


def test_criterion_1_nelson_plosser_golden_run():
    (path,) = require_data("npext.csv")
    columns = read_columns_with_na(path)
    start = time.perf_counter()
    for i, (name, size, p, trend, adf, p_nonstat, ev) in enumerate(TABLE_NELSON_PLOSSER):
        series = columns[name][-size:]
        assert series.size == size, f"{name}: {series.size} observations, need {size}"
        spec = ur.UnitRootSpec(p=p, include_trend=trend)
        res = ur.test_unit_root(series, spec)
        assert abs(res.adf_stat - adf) <= 0.01, (
            f"{name}: ADF {res.adf_stat:.4f}, expected {adf}"
        )
        ev_tol = max(0.02, 4.0 * res.evidence.ev_err)
        assert abs(res.evidence.ev - ev) <= ev_tol, (
            f"{name}: ev {res.evidence.ev:.4f}, expected {ev} (tol {ev_tol:.4f})"
        )
        # The paper estimated P(g0 >= 0) from N_DRAWS - BURN_IN draws.
        n = N_DRAWS - BURN_IN
        p_se = math.sqrt(max(res.p_nonstationary * (1 - res.p_nonstationary), 1e-12) / n)
        p_tol = max(0.005, 4.0 * p_se)
        assert abs(res.p_nonstationary - p_nonstat) <= p_tol, (
            f"{name}: P(g0>=0) {res.p_nonstationary:.5f}, expected {p_nonstat}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    print("ACCEPTANCE 1 (Nelson-Plosser unit-root golden run): PASS")


def test_criterion_2_finnish_golden_run():
    (path,) = require_data("finland.csv")
    columns = read_columns_with_na(path)
    data = np.column_stack([columns[c] for c in ("lrm1", "lny", "lnmr", "difp")])
    assert data.shape[0] == 106
    spec = co.VecmSpec(n=4, p=2, include_constant=True,
                       n_seasonal_dummies=3, dummy_period=4, start_period_index=1)
    report = co.test_rank(data, spec)
    check_rank_golden(
        report,
        max_eig_expected=[38.489, 26.642, 7.8924],
        ev_expected=[0.132, 0.994, "one"],
        max_eig_atol=0.01,
    )
    print("ACCEPTANCE 2 (Finnish money-demand golden run): PASS")


def test_criterion_3_lucas_golden_run():
    (path,) = require_data("lucas.csv")
    columns = read_columns_with_na(path)
    data = np.log(np.column_stack([columns[c] for c in ("income", "money", "rate")]))
    spec = co.VecmSpec(n=3, p=1, include_constant=True)
    report = co.test_rank(data, spec)
    check_rank_golden(
        report,
        max_eig_expected=[25.334, 4.2507],
        ev_expected=[0.042, 0.996],
        max_eig_atol=0.01,
        ev_tol_floor=0.02,
    )
    print("ACCEPTANCE 3 (Lucas money-demand golden run): PASS")


def test_criterion_4_eeg_golden_run():
    prior_path, during_path = require_data("eeg_prior.csv", "eeg_during.csv")
    spec = co.VecmSpec(n=4, p=1, include_constant=True)
    golden = [
        (prior_path, [60.966, 30.727, 11.458, 0.0812],
         ["zero", 0.0691, 0.9990, "one"]),
        (during_path, [1120.5, 31.563, 6.5015, 1.4383],
         ["zero", 0.1144, 0.9999, "one"]),
    ]
    for path, stats, evs in golden:
        columns = read_columns_with_na(path)
        data = np.column_stack(
            [columns[c] for c in ("fp1_f7", "fp1_f3", "fp2_f4", "fp2_f8")]
        )
        report = co.test_rank(data, spec)
        check_rank_golden(report, max_eig_expected=stats, ev_expected=evs,
                          max_eig_rtol=0.005)
    print("ACCEPTANCE 4 (EEG phase golden run): PASS")


def test_criterion_5_bridge():
    assert abs(ev_from_pvalue(0.01, BridgeSpec(m=11, h=7)) - 0.276) <= 0.01
    ps = [0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5]
    for m in range(2, 61):
        for h in {1, m // 2, m - 1}:
            spec = BridgeSpec(m=m, h=h)
            for p in ps:
                ev = ev_from_pvalue(p, spec)
                if ev <= 0.5:
                    back = pvalue_from_ev(ev, spec)
                else:
                    back = pvalue_from_evbar(evbar_from_pvalue(p, spec), spec)
                assert abs(back - p) < 1e-9, (m, h, p)
    print("ACCEPTANCE 5 (e-value/p-value bridge): PASS")


def test_criterion_6_small_instance_oracles():
    # Unit root at T = 12 against dense grid quadrature of the posterior.
    start = time.perf_counter()
    design = ur.build_design(ar1_series(seed=7, n=13), ur.UnitRootSpec(p=1))
    assert design.effective_t == 12
    _, _, log_s_star = ur.restricted_map(design)
    grid_ev, grid_p = grid_posterior_unitroot(design, log_s_star)
    chain = ur.gibbs_chain(design, RngState(0), n_draws=N_DRAWS)
    from evcoint.fbst import estimate_evidence

    res = estimate_evidence(log_s_star, ur.chain_log_posterior(chain, design),
                            burn_in=BURN_IN)
    assert abs(res.ev - grid_ev) < 0.03, f"ev {res.ev:.4f} vs grid {grid_ev:.4f}"
    chain_p = float(np.mean(chain.psi[BURN_IN:, design.gamma0_index] >= 0))
    assert abs(chain_p - grid_p) < 0.01, f"P(g0 >= 0) {chain_p:.4f} vs grid {grid_p:.4f}"
    # The CLI's quadrature, on the same oracle.
    exact = ur.test_unit_root(ar1_series(seed=7, n=13), ur.UnitRootSpec(p=1))
    assert abs(exact.evidence.ev - grid_ev) < 0.03, (
        f"quadrature ev {exact.evidence.ev:.4f} vs grid {grid_ev:.4f}")
    assert abs(exact.p_nonstationary - grid_p) < 0.01, (
        f"quadrature P(g0 >= 0) {exact.p_nonstationary:.4f} vs grid {grid_p:.4f}")
    assert time.perf_counter() - start < 300.0

    # Cointegration constrained maximum at T = 15, n = 2 against multistart
    # quasi-Newton maximization of the literal log posterior.
    start = time.perf_counter()
    from scipy.optimize import minimize

    from conftest import random_walks

    d = co.build_vecm_design(random_walks(), co.VecmSpec(n=2, p=1, include_constant=False))
    assert d.effective_t == 15
    conc = co.johansen_concentrate(d)
    star = co.log_s_stars(conc.eigenvalues, conc.suu, d.effective_t, 2)[2]
    k = d.z.shape[1]

    def neg(x):
        eta = x[:k * 2].reshape(k, 2)
        l = np.array([[math.exp(x[k * 2]), 0.0],
                      [x[k * 2 + 1], math.exp(x[k * 2 + 2])]])
        try:
            return -co.log_posterior(co.CointDraw(eta=eta, omega=l @ l.T), d)
        except Exception:
            return 1e12

    g = np.random.default_rng(6)
    best = -np.inf
    for _ in range(8):
        res_opt = minimize(neg, g.normal(scale=0.5, size=k * 2 + 3), method="BFGS",
                           options={"maxiter": 2000, "gtol": 1e-10})
        best = max(best, -res_opt.fun)
    assert abs(best - star) < 1e-3, f"optimizer {best:.6f} vs closed form {star:.6f}"
    assert time.perf_counter() - start < 300.0
    print("ACCEPTANCE 6 (small-instance oracle equivalence): PASS")


def test_criterion_7_property_suite():
    from conftest import cointegrated_pair

    # Eigenvalues live in [0, 1) and the constrained maxima are monotone.
    data = cointegrated_pair(seed=3, n=500)
    d = co.build_vecm_design(data, co.VecmSpec(n=2, p=1))
    conc = co.johansen_concentrate(d)
    assert np.all(conc.eigenvalues >= 0.0) and np.all(conc.eigenvalues < 1.0)
    stars = co.log_s_stars(conc.eigenvalues, conc.suu, d.effective_t, 2)
    assert all(b >= a for a, b in zip(stars, stars[1:]))

    # Nestedness: e-values non-decreasing in rank, ev_n = 1.
    report = co.test_rank(data, co.VecmSpec(n=2, p=1))
    evs = [h.evidence.ev for h in report.hypotheses]
    assert all(b >= a for a, b in zip(evs, evs[1:]))
    assert evs[-1] == 1.0

    # ADF scale equivariance.
    y = ar1_series(seed=21, n=60)
    spec = ur.UnitRootSpec(p=2, include_trend=True)
    base = ur.adf_statistic(ur.build_design(y, spec))
    for c in (1e-4, 3.0, 1e5):
        assert abs(ur.adf_statistic(ur.build_design(c * y, spec)) - base) < 1e-10

    # Seed determinism, byte-exact.
    a = ur.gibbs_chain(ur.build_design(y, spec), RngState(5, 2), n_draws=2000)
    b = ur.gibbs_chain(ur.build_design(y, spec), RngState(5, 2), n_draws=2000)
    assert a.psi.tobytes() == b.psi.tobytes()
    assert a.sigma.tobytes() == b.sigma.tobytes()

    # Geweke pair-check, unit-root conditionals: the Gibbs chain moments
    # match an i.i.d. draw from the exact factorized posterior.
    design = ur.build_design(ar1_series(seed=7, n=13), ur.UnitRootSpec(p=1))
    coef, _, rss_mat, r = linalg.ols_solve(design.x_full, design.delta_y)
    psi_hat, rss_hat = coef.ravel(), float(rss_mat[0, 0])
    t, k = design.x_full.shape
    r_inv = np.linalg.inv(r)
    n = 40_000
    rng = RngState(91, 0)
    v = (0.5 * rss_hat) / rng.gamma_array(0.5 * (t - k), n)
    z = rng.standard_normal((n, k))
    psi_mc = psi_hat + np.sqrt(v)[:, None] * (z @ r_inv.T)
    chain = ur.gibbs_chain(design, RngState(91, 1), n_draws=n + 1000)
    for mc, sc in [(v, chain.sigma[1000:] ** 2)] + [
        (psi_mc[:, j], chain.psi[1000:, j]) for j in range(k)
    ]:
        for moment in (1, 2):
            x, y2 = mc ** moment, sc ** moment
            se = math.sqrt(x.var() / x.size + 3.0 * y2.var() / y2.size)
            assert abs(x.mean() - y2.mean()) < 4.0 * se

    # Geweke pair-check, cointegration conditionals.
    from conftest import random_walks

    dd = co.build_vecm_design(random_walks(), co.VecmSpec(n=2, p=1, include_constant=False))
    eta_hat, _, s, _ = linalg.ols_solve(dd.z, dd.delta_y)
    kk = eta_hat.shape[0]
    zz_inv = np.linalg.inv(dd.z.T @ dd.z)
    n = 30_000
    rng = RngState(92, 0)
    eta_mc = np.empty((n, kk, 2))
    omega_mc = np.empty((n, 2, 2))
    iw = InverseWishartParams(scale=s, dof=float(dd.effective_t - kk))
    for i in range(n):
        omega = sample_inverse_wishart(rng, iw)
        eta_mc[i] = sample_matrix_normal(
            rng, MatrixNormalParams(mean=eta_hat, row_cov=zz_inv, col_cov=omega)
        )
        omega_mc[i] = omega
    cchain = co.gibbs_chain(dd, RngState(92, 1), n_draws=n + 1000)
    pairs = [(eta_mc[:, i, j], cchain.eta[1000:, i, j])
             for i in range(kk) for j in range(2)]
    pairs += [(omega_mc[:, i, j], cchain.omega[1000:, i, j])
              for i in range(2) for j in range(i + 1)]
    for mc, sc in pairs:
        for moment in (1, 2):
            x, y2 = mc ** moment, sc ** moment
            se = math.sqrt(x.var() / x.size + 3.0 * y2.var() / y2.size)
            assert abs(x.mean() - y2.mean()) < 4.0 * se
    print("ACCEPTANCE 7 (property suite): PASS")


def test_criterion_8_sampler_statistics():
    start = time.perf_counter()

    # Inverse-gamma a=3, b=2: mean, variance and KS against quadrature.
    from test_rng import inverse_gamma_cdf_quadrature, ks_distance

    draws = 2.0 / RngState(50).gamma_array(3.0, 1_000_000)
    assert abs(draws.mean() - 1.0) <= 0.01
    assert abs(draws.var() - 1.0) <= 0.03
    srt = np.sort(draws)
    assert ks_distance(srt, inverse_gamma_cdf_quadrature(srt, 3.0, 2.0)) < 0.002

    # Matrix normal: unit variances, Kronecker vec-covariance, unbiased mean.
    rng = RngState(60)
    u = np.array([[2.0, 0.6], [0.6, 1.0]])
    vv = np.array([[1.5, -0.4], [-0.4, 0.8]])
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    params = MatrixNormalParams(mean=m, row_cov=u, col_cov=vv)
    n = 100_000
    mats = np.stack([sample_matrix_normal(rng, params) for _ in range(n)])
    vecs = (mats - m).reshape(n, 4, order="F")
    np.testing.assert_allclose(np.cov(vecs.T), np.kron(vv, u), rtol=0.03, atol=0.02)
    assert np.abs(mats.mean(axis=0) - m).max() < 4.0 * math.sqrt(2.0 / n)

    ident = MatrixNormalParams(mean=np.zeros((2, 2)), row_cov=np.eye(2),
                               col_cov=np.eye(2))
    unit = np.stack([sample_matrix_normal(rng, ident) for _ in range(n)])
    np.testing.assert_allclose(unit.var(axis=0), 1.0, rtol=0.01)

    # Inverse-Wishart: scalar reduction, entrywise mean, positive definiteness.
    iw1 = InverseWishartParams(scale=np.array([[4.0]]), dof=10.0)
    r = RngState(61)
    scalar = np.sort([sample_inverse_wishart(r, iw1)[0, 0] for _ in range(400_000)])
    assert ks_distance(scalar, inverse_gamma_cdf_quadrature(scalar, 5.0, 2.0)) < 0.002

    g = np.random.default_rng(0)
    a = g.normal(size=(3, 3))
    lam = a @ a.T + 3.0 * np.eye(3)
    iw3 = InverseWishartParams(scale=lam, dof=20.0)
    acc = np.zeros((3, 3))
    n_iw = 100_000
    for _ in range(n_iw):
        w = sample_inverse_wishart(r, iw3)
        np.linalg.cholesky(w)
        acc += w
    np.testing.assert_allclose(acc / n_iw, lam / 16.0, rtol=0.03)

    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3 minutes"
    print("ACCEPTANCE 8 (sampler statistics): PASS")
