"""Cointegration-rank evidence engine for the vector error-correction model.

Pipeline: stack the VECM regression, concentrate out the short-run
dynamics (two auxiliary regressions and a canonical-correlation
eigenproblem), draw one shared stream of independent posterior draws and
count, per rank r, the draws above the constrained maximum, which the trace
statistic T q_r, q_r = -sum_{i>r} ln(1 - lambda_i), fixes.  The paper's
matrix-normal / inverse-Wishart Gibbs chain stays as the reference sampler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import EigenFailure, NonFiniteInput, SeriesTooShort
from .fbst import (
    CONVENTIONS,
    DEFAULT_BURN_IN,
    DEFAULT_N_DRAWS,
    EvidenceResult,
    draw_base,
    estimate_evidence,
    ev_from_pvalue,
    vecm_bridge_spec,
)
from .rng import (
    _bartlett_factor,
    inverse_wishart_from_factor,
    sample_inverse_wishart,  # noqa: F401  (perfbench's tracer wraps it under this name)
)

MIN_EXTRA = 10


@dataclass(frozen=True)
class VecmSpec:
    n: int
    p: int
    include_constant: bool = True
    n_seasonal_dummies: int = 0
    dummy_period: int = 4
    start_period_index: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two series")
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        if self.n_seasonal_dummies < 0 or (
            self.n_seasonal_dummies and self.n_seasonal_dummies >= self.dummy_period
        ):
            raise ValueError("need 0 <= n_seasonal_dummies < dummy_period")


@dataclass(frozen=True)
class VecmDesign:
    delta_y: np.ndarray   # T x n
    z: np.ndarray         # T x k, levels block last
    z1: np.ndarray        # z without its last n columns
    y_minus1: np.ndarray  # T x n
    effective_t: int
    spec: VecmSpec
    column_names: tuple

    @cached_property
    def fit(self):
        """OLS of delta_y on the full design z, computed on first use and
        shared by every stage of a run."""
        return linalg.ols_solve(self.z, self.delta_y)


@dataclass(frozen=True)
class CointDraw:
    eta: np.ndarray    # k x n
    omega: np.ndarray  # n x n positive definite


def build_vecm_design(data, spec):
    """Stack the VECM matrices for an (observations x series) data array.

    Deterministic columns come first (constant, then seasonal dummies), the
    lagged differences next and the lagged levels last, so that dropping the
    final n columns yields the short-run-only regressor block.  Seasonal
    dummy j is the indicator of period j, where the raw observation at index
    i belongs to period ``(spec.start_period_index + i) mod spec.dummy_period``.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 2 or y.shape[1] != spec.n:
        raise NonFiniteInput(f"data must be (observations x {spec.n}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("data contains NaN or Inf")
    n, p = spec.n, spec.p
    if y.shape[0] < p * n + n + 1 + MIN_EXTRA:
        raise SeriesTooShort(
            f"need at least {p * n + n + 1 + MIN_EXTRA} observations, got {y.shape[0]}"
        )
    t_eff = y.shape[0] - p
    dy = np.diff(y, axis=0)
    delta_y = dy[p - 1:]
    blocks = []
    names = []
    if spec.include_constant:
        blocks.append(np.ones((t_eff, 1)))
        names.append("const")
    if spec.n_seasonal_dummies:
        rows = np.arange(p, y.shape[0])
        period = (spec.start_period_index + rows) % spec.dummy_period
        for j in range(spec.n_seasonal_dummies):
            blocks.append((period == j).astype(float).reshape(-1, 1))
            names.append(f"season{j + 1}")
    for j in range(1, p):
        blocks.append(dy[p - 1 - j:-j])
        names.extend(f"dlag{j}_y{i + 1}" for i in range(n))
    y_minus1 = y[p - 1:-1]
    blocks.append(y_minus1)
    names.extend(f"level_y{i + 1}" for i in range(n))
    z = np.hstack(blocks)
    if t_eff - z.shape[1] < n:
        # Omega's marginal posterior IW(S, T-k) needs T - k >= n.
        raise SeriesTooShort(
            f"need at least {p + z.shape[1] + n} observations for {z.shape[1]} "
            f"regressors per equation, got {y.shape[0]}"
        )
    return VecmDesign(
        delta_y=delta_y,
        z=z,
        z1=z[:, :-n],
        y_minus1=y_minus1,
        effective_t=t_eff,
        spec=spec,
        column_names=tuple(names),
    )


#: Relative tolerance of the Frisch-Waugh identity check performed during
#: concentration (partialled estimate vs full-regression long-run block).
FWL_TOL = 1e-8


@dataclass(frozen=True)
class Concentration:
    eigenvalues: np.ndarray
    suu: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray


def johansen_concentrate(design):
    """Two-stage concentration: partial the short-run block out of both the
    differences and the lagged levels, then take the squared canonical
    correlations of the residual pair.

    Covariance blocks use the 1/T normalization.  The Frisch-Waugh identity
    (the long-run coefficient block of the full regression equals the OLS of
    the partialled residuals) is verified to ``FWL_TOL``.
    """
    n = design.spec.n
    t = design.effective_t
    pair = np.hstack([design.delta_y, design.y_minus1])
    if design.z1.shape[1]:
        # One regression partials both blocks; without a short-run block
        # (p = 1, no deterministic terms) there is nothing to partial out.
        pair = linalg.ols_solve(design.z1, pair).resid
    u_hat, v_hat = pair[:, :n], pair[:, n:]
    suu = (u_hat.T @ u_hat) / t
    svv = (v_hat.T @ v_hat) / t
    suv = (u_hat.T @ v_hat) / t
    pi_partial = linalg.ols_solve(v_hat, u_hat).coef          # rows: levels, cols: eqs
    pi_full = design.fit.coef[-n:, :]
    scale = max(np.abs(pi_full).max(), 1.0)
    if np.abs(pi_partial - pi_full).max() > FWL_TOL * scale:
        raise EigenFailure("Frisch-Waugh identity violated; design is ill-conditioned")
    eigenvalues = linalg.canonical_eigenvalues(svv, suv, suu)
    return Concentration(eigenvalues=eigenvalues, suu=suu, u_hat=u_hat, v_hat=v_hat)


def _kernel_constant(t, n):
    # Additive constant aligning the concentrated maximum with the
    # constant-zero log-posterior kernel used below.
    return -0.5 * (t + n + 1) * n * (math.log(t / (t + n + 1)) + 1.0)


def log_s_stars(eigenvalues, suu, t, n):
    """Rank-constrained maxima l*_0..l*_n of the log posterior, in the same
    constant convention as ``log_posterior``, from one log-determinant:
    l*_r = c - ((T+n+1)/2) (ln|S_uu| + sum_{i<=r} ln(1 - lambda_i))."""
    tails = np.append(0.0, np.cumsum(np.log1p(-np.asarray(eigenvalues, dtype=float))))
    stars = _kernel_constant(t, n) - 0.5 * (t + n + 1) * (linalg.log_det_spd(suu) + tails)
    return stars.tolist()


def log_posterior(draw, design):
    """Log posterior kernel at one draw:
    -((T+n+1)/2) ln|Omega| - (1/2) tr[Omega^-1 (dY - Z eta)'(dY - Z eta)]."""
    t, n = design.effective_t, design.spec.n
    resid = design.delta_y - design.z @ draw.eta
    m = resid.T @ resid
    omega, chol = linalg.as_spd(draw.omega, "omega")
    a = np.linalg.solve(chol, m)
    a = np.linalg.solve(chol, a.T)
    trace = float(np.trace(a))
    return -0.5 * (t + n + 1) * linalg.log_det_spd(omega) - 0.5 * trace


@dataclass(frozen=True)
class CointChain:
    eta: np.ndarray            # n_draws x k x n
    omega: np.ndarray          # n_draws x n x n
    log_posterior: np.ndarray  # n_draws, the kernel of ``log_posterior`` at each draw


def gibbs_chain(design, rng, n_draws=DEFAULT_N_DRAWS):
    """Alternate eta | Omega ~ MN(eta_hat, (Z'Z)^-1, Omega) and
    Omega | eta ~ IW(S + (eta - eta_hat)' Z'Z (eta - eta_hat), T),
    starting from (eta_hat, S/T).  Every draw is emitted; the caller
    discards the burn-in.

    The log posterior of each draw is read off its variates: the scale
    M = RSS(eta) has Cholesky factor L and the Bartlett factor A gives
    Omega = L A^-T A^-1 L', so ln|Omega| = 2 (sum ln l_jj - sum ln a_jj) and
    tr(Omega^-1 M) = tr(A A') = sum a_ij^2.
    """
    t, n = design.effective_t, design.spec.n
    eta_hat, _, s, r = design.fit
    k = eta_hat.shape[0]
    r_inv = np.linalg.inv(r)          # (Z'Z)^-1 = R^-1 R^-T
    omega = s / t
    eta_out = np.empty((n_draws, k, n))
    omega_out = np.empty((n_draws, n, n))
    lp_out = np.empty(n_draws)
    for i in range(n_draws):
        _, l_om = linalg.as_spd(omega, "omega")
        g = rng.standard_normal((k, n))
        eta_out[i] = eta_hat + r_inv @ g @ l_om.T
        # (eta - eta_hat)' Z'Z (eta - eta_hat) = L_om G'G L_om'.
        _, l = linalg.as_spd(s + l_om @ (g.T @ g) @ l_om.T, "scale")
        a = _bartlett_factor(rng, n, t)
        omega_out[i] = omega = inverse_wishart_from_factor(a, l)
        log_det = 2.0 * (np.log(np.diag(l)).sum() - np.log(np.diag(a)).sum())
        lp_out[i] = -0.5 * (t + n + 1) * log_det - 0.5 * np.sum(a * a)
    return CointChain(eta=eta_out, omega=omega_out, log_posterior=lp_out)


def chain_log_posterior(chain, design):
    """Log posterior at every chain draw, as ``gibbs_chain`` recorded it."""
    return chain.log_posterior


def direct_draws(design, rng, n_draws=DEFAULT_N_DRAWS):
    """Log posterior less its maximum (the base) at independent draws from
    the exact posterior: a function of T, n, k and the seed only.

    Omega's marginal is IW(S, T-k).  With S = L L' and Bartlett factor A,
    Omega^-1 = L^-T A A' L^-1, where A_ii^2 = c_i ~ chi2_{T-k-i} and the
    n(n-1)/2 entries below the diagonal are standard normal; given Omega
    the mean term tr(Omega^-1 (eta - eta_hat)' Z'Z (eta - eta_hat)) is
    chi2_{kn}.  So ln|Omega| = ln|S| - sum ln c_i, and the quadratic terms
    add up to q ~ chi2_{kn + n(n-1)/2}.  With a = (T+n+1)/2 the kernel of
    ``log_posterior`` is -a (ln|S| - sum ln c_i) - (sum c_i + q)/2, at most
    -a (ln|S| - n ln(2a) + n), so ln|S| cancels from the base.
    """
    t, n = design.effective_t, design.spec.n
    k = design.z.shape[1]
    return draw_base(rng, 0.5 * (t + n + 1), [t - k - i for i in range(n)],
                     k * n + n * (n - 1) // 2, n_draws)


def trace_gaps(eigenvalues):
    """q_r = -sum_{i>r} ln(1 - lambda_i) for r = 0..n; T q_r is Johansen's
    trace statistic and q_n = 0."""
    logs = -np.log1p(-np.asarray(eigenvalues, dtype=float))
    return np.append(np.cumsum(logs[::-1])[::-1], 0.0)


def max_eig_statistic(eigenvalues, t, rank):
    """Johansen maximum-eigenvalue statistic -T ln(1 - lambda_{r+1})."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not 0 <= rank < lam.size:
        raise ValueError("rank must lie in [0, n)")
    return -t * float(np.log1p(-lam[rank]))


@dataclass(frozen=True)
class RankHypothesis:
    rank: int
    log_s_star: float
    evidence: EvidenceResult
    max_eig_stat: float | None
    trace_stat: float | None
    threshold: float | None
    rejected: bool


@dataclass(frozen=True)
class RankTestReport:
    hypotheses: tuple
    eigenvalues: np.ndarray
    selected_rank: int
    threshold_policy: str
    dimension_convention: str


def parse_threshold_policy(policy):
    """Split a threshold policy into ``("fixed", ev)`` or ``("bridge", p)``.

    The grammar is ``fixed:<ev>`` or ``bridge:p=<p-value>`` with the number
    in [0, 1]; anything else raises ``ValueError``, as does a bridge p-value
    so small that ``1 - p`` rounds to 1, whose chi-square quantile is infinite.
    """
    kind, _, value = policy.partition(":")
    if kind == "bridge":
        if not value.startswith("p="):
            raise ValueError(f"bridge policy must look like 'bridge:p=0.01', got {policy!r}")
        value = value[2:]
    elif kind != "fixed":
        raise ValueError(f"unknown threshold policy {policy!r}")
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"threshold policy {policy!r} needs a number") from None
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"threshold policy {policy!r} needs a number in [0, 1]")
    if kind == "bridge" and number > 0.0 and 1.0 - number == 1.0:
        raise ValueError(f"threshold policy {policy!r} has a p-value too small to invert")
    return kind, number


def test_rank(
    data,
    spec,
    rng,
    n_draws=DEFAULT_N_DRAWS,
    burn_in=DEFAULT_BURN_IN,
    threshold_policy="bridge:p=0.01",
    dimension_convention="paper-literal",
):
    """Sequential rank test over one shared stream of posterior draws.

    The full posterior is the same for every rank hypothesis (only the
    constrained maximum changes), so a single stream yields exactly nested
    tangent-set counts and non-decreasing e-values.  Rank r counts the bases
    above -((T+n+1)/2) q_r; no base exceeds q_n = 0.  Starting from r = 0,
    hypotheses are rejected while the e-value stays below the policy
    threshold; the selected rank is the first survivor.
    """
    kind, number = parse_threshold_policy(threshold_policy)
    if dimension_convention not in CONVENTIONS:
        raise ValueError(f"unknown dimension convention {dimension_convention!r}")
    design = build_vecm_design(data, spec)
    conc = johansen_concentrate(design)
    t, n = design.effective_t, spec.n
    k = design.z.shape[1]
    stars = log_s_stars(conc.eigenvalues, conc.suu, t, n)

    # Runtime self-check: the log posterior at the analytic full-rank MAP
    # must equal the rank-n constrained maximum.
    eta_hat, _, s, _ = design.fit
    map_value = log_posterior(CointDraw(eta=eta_hat, omega=s / (t + n + 1)), design)
    if not math.isclose(map_value, stars[n], rel_tol=0.0, abs_tol=1e-6 * max(1.0, abs(stars[n]))):
        raise EigenFailure(
            f"full-rank maximum inconsistency: MAP {map_value:.9g} vs l*_n {stars[n]:.9g}"
        )

    thresholds = [number if kind == "fixed"
                  else ev_from_pvalue(number, vecm_bridge_spec(n, k, r, dimension_convention))
                  for r in range(n)] + [None]
    gaps = trace_gaps(conc.eigenvalues)
    base = direct_draws(design, rng, n_draws=n_draws)
    hypotheses = []
    selected = n
    rejecting = True
    for r, threshold in enumerate(thresholds):
        ev = estimate_evidence(-0.5 * (t + n + 1) * gaps[r], base, burn_in=burn_in)
        rejected = rejecting and threshold is not None and ev.ev < threshold
        if rejecting and not rejected:
            selected = r
            rejecting = False
        hypotheses.append(
            RankHypothesis(
                rank=r,
                log_s_star=stars[r],
                evidence=ev,
                max_eig_stat=max_eig_statistic(conc.eigenvalues, t, r) if r < n else None,
                trace_stat=float(t * gaps[r]) if r < n else None,
                threshold=threshold,
                rejected=rejected,
            )
        )
    return RankTestReport(
        hypotheses=tuple(hypotheses),
        eigenvalues=conc.eigenvalues,
        selected_rank=selected,
        threshold_policy=threshold_policy,
        dimension_convention=dimension_convention,
    )
