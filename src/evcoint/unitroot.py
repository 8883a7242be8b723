"""Unit-root evidence engine for the augmented Dickey-Fuller regression form.

The model is the differenced autoregression

    dy_t = mu + delta*t + g0*y_{t-1} + g1*dy_{t-1} + ... + g_{p-1}*dy_{t-p+1} + e_t

with the sharp hypothesis g0 = 0.  The posterior under the 1/sigma prior is
normal-inverse-gamma around the OLS point.  The e-value is the posterior
mass outside the tangent set of the constrained maximum, which the ADF
t-ratio fixes (RSS_r/RSS = 1 + t^2/(T-k)); it is a 1-D integral of the
law of the base (``fbst.base_cdf``).  P(g0 >= 0 | y) is the Student-t CDF
at the t-ratio.  The paper's Gibbs chain over (psi, sigma) and the direct
sampler stay as the reference samplers that the tests compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateRss, NonFiniteInput, SeriesTooShort
from .fbst import (
    DEFAULT_N_DRAWS,
    Evidence,
    base_cdf,
    draw_base,
    estimate_evidence,  # noqa: F401  (perfbench's worker and tracer wrap it under this name)
)
from .special import student_t_cdf

#: Smallest usable sample: below p + MIN_EXTRA observations the inverse-gamma
#: conditional is nearly improper and the test is meaningless.
MIN_EXTRA = 10

#: A residual sum of squares below this (relative) scale means the model
#: fits perfectly and no meaningful test exists.
DEGENERATE_RSS_TOL = 1e-12


@dataclass(frozen=True)
class UnitRootSpec:
    p: int
    include_trend: bool = False
    include_intercept: bool = True

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        if self.include_trend and not self.include_intercept:
            raise ValueError("a deterministic trend requires the intercept")


@dataclass(frozen=True)
class UnitRootDesign:
    delta_y: np.ndarray       # T x 1
    x_full: np.ndarray        # T x k
    effective_t: int
    gamma0_index: int         # column of y_{t-1} in x_full
    spec: UnitRootSpec
    column_names: tuple

    @cached_property
    def fit(self):
        """OLS of delta_y on the full design, computed on first use and
        shared by every stage of a run."""
        return linalg.ols_solve(self.x_full, self.delta_y)


@dataclass(frozen=True)
class UnitRootDraw:
    psi: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def build_design(series, spec):
    """Stack the differenced-regression matrices for ``series``.

    Row t (t = 0..T-1) corresponds to observation date p + t + 1 in the
    1-based dating of the series; the trend column carries those dates.
    Differencing consumes one observation and lagging p - 1 more.
    """
    y = np.asarray(series, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("series contains NaN or Inf")
    p = spec.p
    if y.size < p + MIN_EXTRA:
        raise SeriesTooShort(f"need at least {p + MIN_EXTRA} observations, got {y.size}")
    t_eff = y.size - p
    dy = np.diff(y)
    delta_y = dy[p - 1:].reshape(-1, 1)
    cols = []
    names = []
    if spec.include_intercept:
        cols.append(np.ones(t_eff))
        names.append("intercept")
    if spec.include_trend:
        cols.append(np.arange(p + 1, y.size + 1, dtype=float))
        names.append("trend")
    gamma0_index = len(cols)
    cols.append(y[p - 1:-1])
    names.append("level_lag1")
    for j in range(1, p):
        cols.append(dy[p - 1 - j:-j])
        names.append(f"diff_lag{j}")
    x_full = np.column_stack(cols)
    k = x_full.shape[1]
    if t_eff <= k:
        # sigma's marginal posterior Gamma((T-k)/2) needs T > k.
        raise SeriesTooShort(f"need at least {p + k + 1} observations for {k} "
                             f"regressors, got {y.size}")
    return UnitRootDesign(
        delta_y=delta_y,
        x_full=x_full,
        effective_t=t_eff,
        gamma0_index=gamma0_index,
        spec=spec,
        column_names=tuple(names),
    )


def log_posterior(draw, design):
    """Log posterior kernel -(T+1) ln sigma - RSS(psi)/(2 sigma^2), constant zero."""
    t = design.effective_t
    resid = design.delta_y.ravel() - design.x_full @ draw.psi
    rss = float(resid @ resid)
    return -(t + 1) * math.log(draw.sigma) - rss / (2.0 * draw.sigma ** 2)


def _check_rss(rss, design):
    scale = float(design.delta_y.ravel() @ design.delta_y.ravel())
    if rss < DEGENERATE_RSS_TOL * max(scale, 1.0):
        raise DegenerateRss("the regression fits the series perfectly")


def restricted_map(design):
    """Constrained posterior maximum under g0 = 0 from the restricted
    regression: the reference for ``tangent_threshold``.

    Returns ``(psi_r, sigma_r, log_s_star)`` with ``psi_r`` already embedded
    in the full coordinate system (zero in the lagged-level slot) and
    ``log_s_star`` evaluated with the same constant convention as
    ``log_posterior``.
    """
    x_r = np.delete(design.x_full, design.gamma0_index, axis=1)
    if x_r.shape[1]:
        fit = linalg.ols_solve(x_r, design.delta_y)
        coef, rss_r = fit.coef.ravel(), float(fit.rss[0, 0])
    else:
        # p = 1 without deterministic terms: the restricted model has no regressor.
        coef, rss_r = np.empty(0), float(design.delta_y.ravel() @ design.delta_y.ravel())
    _check_rss(rss_r, design)
    t = design.effective_t
    sigma_r = math.sqrt(rss_r / (t + 1))
    psi_full = np.insert(coef, design.gamma0_index, 0.0)
    log_s_star = log_posterior(UnitRootDraw(psi=psi_full, sigma=sigma_r), design)
    return psi_full, sigma_r, log_s_star


@dataclass(frozen=True)
class UnitRootChain:
    psi: np.ndarray            # n_draws x k
    sigma: np.ndarray          # n_draws
    log_posterior: np.ndarray  # n_draws, the kernel of ``log_posterior`` at each draw


def gibbs_chain(design, rng, n_draws=DEFAULT_N_DRAWS):
    """Alternate psi | sigma ~ N(psi_hat, sigma^2 (X'X)^-1) and
    sigma^2 | psi ~ IG(T/2, H) starting from the full OLS point.  The shape
    T/2 reads the kernel sigma^-(T+1) exp(-RSS/2 sigma^2) as a density in
    (psi, sigma), in agreement with small-sample grid quadrature of it.

    Every draw is emitted; the caller discards the burn-in.

    The log posterior of each draw is read off its variates: psi - psi_hat
    = sigma R^-1 z gives RSS(psi) = rss_hat + sigma^2 |z|^2 = 2 h, and the
    next sigma^2 = h / g, so RSS(psi) / (2 sigma^2) = g.
    """
    fit = design.fit
    psi_hat = fit.coef.ravel()
    rss_hat = float(fit.rss[0, 0])
    t = design.effective_t
    k = psi_hat.size
    r_inv = np.linalg.inv(fit.r)      # (X'X)^-1 = R^-1 R^-T
    sigma = math.sqrt(max(rss_hat, 1e-300) / (t + 1))
    psi_out = np.empty((n_draws, k))
    sigma_out = np.empty(n_draws)
    g_out = np.empty(n_draws)
    for i in range(n_draws):
        z = rng.standard_normal(k)
        psi_out[i] = psi_hat + sigma * (r_inv @ z)
        # (psi - psi_hat)' X'X (psi - psi_hat) = sigma^2 |z|^2 by construction.
        h = 0.5 * (rss_hat + sigma * sigma * float(z @ z))
        g_out[i] = g = rng.gamma(0.5 * t)
        sigma_out[i] = sigma = math.sqrt(h / g)
    lp = -(t + 1) * np.log(sigma_out) - g_out
    return UnitRootChain(psi=psi_out, sigma=sigma_out, log_posterior=lp)


def chain_log_posterior(chain, design):
    """Log posterior at every chain draw, as ``gibbs_chain`` recorded it."""
    return chain.log_posterior


def direct_draws(design, rng, n_draws=DEFAULT_N_DRAWS):
    """The base at independent posterior draws: with c = RSS/sigma^2 ~ chi2_{T-k}
    and psi - psi_hat = sigma R^-1 z, q = |z|^2 ~ chi2_k, the kernel of
    ``log_posterior`` is a ln(c/RSS) - (c + q)/2 with a = (T+1)/2."""
    return draw_base(rng, *_base_law(*design.x_full.shape), n_draws)


def _base_law(t, k):
    """(a, dofs, q_dof) of the unit root's base: a = (T+1)/2, c ~ chi2_{T-k}
    and q ~ chi2_k."""
    return 0.5 * (t + 1), [t - k], k


@dataclass(frozen=True)
class UnitRootResult:
    evidence: Evidence
    log_s_star: float
    p_nonstationary: float
    adf_stat: float
    psi_hat: np.ndarray
    sigma_map: float
    design: UnitRootDesign


def adf_statistic(design):
    """Classical t-ratio of the lagged-level coefficient, s^2 = RSS/(T - k).
    A perfect fit, hence also a perfect restricted one, is ``DegenerateRss``."""
    fit = design.fit
    t, k = design.x_full.shape
    _check_rss(float(fit.rss[0, 0]), design)
    s2 = float(fit.rss[0, 0]) / (t - k)
    r_inv = np.linalg.inv(fit.r)
    cov = s2 * (r_inv @ r_inv.T)
    g = design.gamma0_index
    return float(fit.coef.ravel()[g] / math.sqrt(cov[g, g]))


def tangent_threshold(adf_stat, t, k):
    """The constrained maximum relative to the unconstrained one,
    -((T+1)/2) ln(RSS_r/RSS), where RSS_r/RSS = 1 + t^2/(T-k)."""
    return -0.5 * (t + 1) * math.log1p(adf_stat * adf_stat / (t - k))


def evidence_from_t(t_adf, t, k):
    """The e-value of g0 = 0 as a function of the ADF t-ratio and the sizes:
    P(base <= threshold) for the base of ``direct_draws``.  It depends on
    t_ADF^2 only."""
    return Evidence(*base_cdf(tangent_threshold(t_adf, t, k), *_base_law(t, k)))


def test_unit_root(series, spec):
    """Full unit-root run: e-value, posterior P(g0 >= 0) and the ADF t-ratio.
    The e-value is a function of t_ADF^2 and (T, k); g0's marginal posterior
    is Student-t, so P(g0 >= 0) = F_{T-k}(t_ADF) exactly."""
    design = build_design(series, spec)
    adf_stat = adf_statistic(design)
    t, k = design.x_full.shape
    threshold = tangent_threshold(adf_stat, t, k)
    sigma_map = math.sqrt(float(design.fit.rss[0, 0]) / (t + 1))
    return UnitRootResult(
        evidence=Evidence(*base_cdf(threshold, *_base_law(t, k))),
        log_s_star=-(t + 1) * math.log(sigma_map) - 0.5 * (t + 1) + threshold,
        p_nonstationary=student_t_cdf(adf_stat, t - k),
        adf_stat=adf_stat,
        psi_hat=design.fit.coef.ravel(),
        sigma_map=sigma_map,
        design=design,
    )
