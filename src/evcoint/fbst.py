"""Hypothesis-agnostic evidence machinery.

Given the log posterior at a stream of draws and the constrained maximum,
both less the unconstrained maximum in the engines, estimate the e-value
supporting the hypothesis and its Monte Carlo error.  Also provides the
asymptotic bridge between likelihood-ratio p-values and e-values.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import EmptyStream, NonFiniteLogPosterior
from .special import chi2_cdf, chi2_quantile

#: Monte Carlo defaults: 51,000 draws, first 1,000 discarded as burn-in.
DEFAULT_N_DRAWS = 51_000
DEFAULT_BURN_IN = 1_000


@dataclass(frozen=True)
class EvidenceResult:
    ev: float
    ev_bar: float
    n_draws: int
    burn_in: int
    mc_se: float
    mc_se_batch: float | None = None


def estimate_evidence(threshold, values, burn_in=0, n_batches=20):
    """e-value from the share of post-burn-in draws above the threshold.

    A draw lies in the tangent set only when its value (log posterior, in
    the threshold's scale) strictly exceeds ``threshold``, the constrained
    maximum; ties count against the tangent set.  ``mc_se`` is the binomial
    standard error; ``mc_se_batch`` the batch-means alternative that does
    not ignore chain autocorrelation.  A ``burn_in`` that is not an integer
    >= 0 (a bool counts as not an integer) is a ``ValueError``.
    """
    if isinstance(burn_in, bool) or not isinstance(burn_in, Integral) or burn_in < 0:
        raise ValueError(f"burn-in must be an integer >= 0, got {burn_in!r}")
    lp = np.asarray(values, dtype=float).ravel()
    if lp.size <= burn_in:
        raise EmptyStream(f"stream of {lp.size} draws with burn-in {burn_in}")
    bad = np.flatnonzero(~np.isfinite(lp))
    if bad.size:
        raise NonFiniteLogPosterior(int(bad[0]))
    kept = lp[burn_in:]
    inside = kept > threshold
    n = kept.size
    ev_bar = float(np.count_nonzero(inside)) / n
    ev = 1.0 - ev_bar
    mc_se = float(np.sqrt(ev * ev_bar / n))
    mc_se_batch = None
    if n >= n_batches * 2:
        usable = (n // n_batches) * n_batches
        means = inside[:usable].astype(float).reshape(n_batches, -1).mean(axis=1)
        mc_se_batch = float(means.std(ddof=1) / np.sqrt(n_batches))
    return EvidenceResult(
        ev=ev,
        ev_bar=ev_bar,
        n_draws=n,
        burn_in=int(burn_in),
        mc_se=mc_se,
        mc_se_batch=mc_se_batch,
    )


@dataclass(frozen=True)
class BridgeSpec:
    """Dimensions entering the asymptotic e-value/p-value map: full space m,
    constrained space h."""

    m: int
    h: int

    def __post_init__(self):
        if not 1 <= self.h < self.m:
            raise ValueError(f"need 1 <= h < m, got h={self.h}, m={self.m}")


def ev_from_pvalue(p, spec):
    """Asymptotic e-value matching a likelihood-ratio p-value:
    ev = 1 - F_m(F_{m-h}^{-1}(1 - p))."""
    return 1.0 - evbar_from_pvalue(p, spec)


def evbar_from_pvalue(p, spec):
    """Complement-space bridge: ev_bar = F_m(F_{m-h}^{-1}(1 - p)).

    Useful when the e-value is within double-precision rounding of 1;
    ``1 - ev_from_pvalue(p, spec)`` loses all digits there while the
    complement stays exactly representable.  A p so small that ``1 - p``
    rounds to 1 gives the limit 1, as p = 0 does.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p-value must lie in [0, 1]")
    if 1.0 - p == 1.0:
        return 1.0
    if p == 1.0:
        return 0.0
    x = chi2_quantile(1.0 - p, spec.m - spec.h)
    return chi2_cdf(x, spec.m)


def pvalue_from_evbar(ev_bar, spec):
    """Inverse of ``evbar_from_pvalue``: ev_bar -> x = F_m^{-1}(ev_bar)
    -> p = 1 - F_{m-h}(x)."""
    if not 0.0 <= ev_bar <= 1.0:
        raise ValueError("ev_bar must lie in [0, 1]")
    if ev_bar == 0.0:
        return 1.0
    if ev_bar == 1.0:
        return 0.0
    x = chi2_quantile(ev_bar, spec.m)
    return 1.0 - chi2_cdf(x, spec.m - spec.h)


def pvalue_from_ev(ev, spec):
    """Inverse of ``ev_from_pvalue``: ev -> x = F_m^{-1}(1 - ev) -> p = 1 - F_{m-h}(x)."""
    if not 0.0 <= ev <= 1.0:
        raise ValueError("e-value must lie in [0, 1]")
    return pvalue_from_evbar(1.0 - ev, spec)


#: Dimension-counting presets for vector error-correction rank hypotheses.
#: "manifold" counts the rank-r manifold as r(2n - r) parameters; the
#: "paper-literal" preset adds one dimension per unit of rank instead.
#: The two agree at rank zero.
CONVENTIONS = ("manifold", "paper-literal")


def vecm_bridge_spec(n_series, n_regressors, rank, convention="paper-literal"):
    """(m, h) for H: rank(Pi) = r in a VECM with ``n_regressors`` columns.

    The full space has all k x n mean coefficients plus the n(n+1)/2 free
    covariance entries.  Under the hypothesis the n x n long-run block is
    replaced by the chosen count for the rank-r manifold.
    """
    n, k, r = n_series, n_regressors, rank
    if not 0 <= r <= n:
        raise ValueError("rank must lie in [0, n]")
    cov = n * (n + 1) // 2
    m = k * n + cov
    base = (k - n) * n + cov
    if convention == "manifold":
        h = base + r * (2 * n - r)
    elif convention == "paper-literal":
        h = base + r
    else:
        raise ValueError(f"unknown dimension convention {convention!r}")
    return BridgeSpec(m=m, h=h)
