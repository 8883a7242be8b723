"""Hypothesis-agnostic evidence machinery.

In both engines the log posterior less its maximum (the base) is a function
of a few chi-squares whose law is fixed by the sizes, and an e-value is the
probability that the base stays at or below the constrained maximum (less
the same maximum).  ``base_cdf`` integrates that probability.  The sampler
of the base (``draw_base``) and the Monte Carlo estimate from a stream of
draws (``estimate_evidence``) stay as references for the tests.  Also
provides the asymptotic bridge between likelihood-ratio p-values and
e-values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import EmptyStream, NonFiniteLogPosterior, NumericError
from .special import chi2_cdf, chi2_cdf_integer, chi2_quantile

#: Draw defaults of the reference samplers and of the CLI's inert
#: ``--n-draws`` and ``--burn-in``: 51,000 draws, the first 1,000 discarded.
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


def draw_base(rng, a, dofs, q_dof, n_draws):
    """Both engines' base, a (sum ln c_i - n (ln 2a - 1)) - (sum c_i + q)/2 <= 0,
    at ``n_draws`` draws of c_i ~ chi2_{dofs[i]}, then q ~ chi2_{q_dof}."""
    c = np.column_stack([rng.gamma_array(0.5 * dof, n_draws, scale=2.0) for dof in dofs])
    q = rng.gamma_array(0.5 * q_dof, n_draws, scale=2.0)
    return a * (np.log(c).sum(axis=1) - len(dofs) * (math.log(2.0 * a) - 1.0)) \
        - 0.5 * (c.sum(axis=1) + q)


@dataclass(frozen=True)
class Evidence:
    """An e-value computed by quadrature and ``ev_err``, the change in ``ev``
    from m to 2m quadrature nodes (or, in a far tail, the Chernoff bound on
    the probability that was rounded to 0 or 1)."""

    ev: float
    ev_err: float

    @property
    def ev_bar(self):
        return 1.0 - self.ev


#: Gauss-Legendre nodes of the unit-root integral (and twice as many for its
#: error), and per panel of an inversion integral.
UNIT_ROOT_NODES = 64
PANEL_NODES = 12
#: A tail probability whose Chernoff bound is below this is rounded to 0 or 1;
#: an inversion integral stops where its integrand falls below it.
TAIL = 1e-13
#: Beyond the Chernoff bound e^-SUPPORT on either side, the chi-square
#: density of the unit root's integral is treated as zero.
SUPPORT = 50.0
#: Largest node count of an inversion integral: a law that needs more is a
#: numeric failure, not a long wait.
MAX_NODES = 1 << 18


def base_cdf(thr, a, dofs, q_dof):
    """(P(base <= thr), err) for the base that ``draw_base`` samples: the
    e-value of a tangent set at ``thr``, exact up to ``err``, the change from
    m to 2m quadrature nodes.  ``thr`` is a number or a 1-D array of them,
    and the pair has its shape.

    One chi-square (``len(dofs) == 1``, the unit root) is a 1-D integral over
    c per threshold; more (the VECM) invert the closed-form moment generating
    function: Gil-Pelaez (1951) near the mean, a Bromwich line left of the
    origin further below it.
    ``thr >= 0`` is the supremum of the base and gives exactly 1; the result
    is clamped into [0, 1].
    """
    thrs = np.atleast_1d(np.asarray(thr, dtype=float))
    ev, err = np.ones(thrs.shape), np.zeros(thrs.shape)
    below = thrs < 0.0
    if below.any():
        cdf = _unit_root_cdf if len(dofs) == 1 else _gil_pelaez_cdf
        ev[below], err[below] = cdf(thrs[below], a, dofs, q_dof)
    ev = np.clip(ev, 0.0, 1.0)
    if np.ndim(thr) == 0:
        return float(ev[0]), float(err[0])
    return ev, err


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """m-point Gauss-Legendre nodes and weights on [0, 1] (Golub-Welsch: the
    eigenvalues of the Jacobi matrix of the Legendre recurrence and the
    squared first components of its eigenvectors)."""
    j = np.arange(1.0, m)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _level_roots(scale, level):
    """The roots u_lo < 1 < u_hi of scale (ln u - u + 1) = level < 0, by
    bisection; ln u - u + 1 rises to its maximum 0 at u = 1 and falls after."""
    y = level / scale

    def g(u):
        return math.log(u) - u + 1.0

    hi = 2.0
    while g(hi) > y:
        hi *= 2.0
    roots = []
    for lo, up, rising in ((math.exp(y - 1.0), 1.0, True), (1.0, hi, False)):
        for _ in range(200):
            mid = 0.5 * (lo + up)
            if mid in (lo, up):
                break
            if (g(mid) < y) == rising:
                lo = mid
            else:
                up = mid
        roots.append(0.5 * (lo + up))
    return roots


def _unit_root_cdf(thrs, a, dofs, q_dof):
    """With f(c) = a (ln(c/2a) + 1) - c/2 <= 0 the base is f(c) - q/2, so
    P(base > thr) is the integral of F_q(2 (f(c) - thr)) p_d(c) over the c
    where f(c) > thr, cut to where the chi2_d density p_d is not negligible.
    Gauss-Legendre in s with c = lo + (hi - lo) sin^2(pi s / 2) smooths the
    square-root ends."""
    (dof,) = dofs
    half = 0.5 * dof
    log_norm = half * math.log(2.0) + math.lgamma(half)
    v_lo, v_hi = _level_roots(half, -SUPPORT)
    out = []
    for thr in thrs:
        u_lo, u_hi = _level_roots(a, thr)
        lo, hi = max(2.0 * a * u_lo, dof * v_lo), min(2.0 * a * u_hi, dof * v_hi)
        if lo >= hi:
            out.append((1.0, 0.0))
            continue
        ev_bar = []
        for m in (UNIT_ROOT_NODES, 2 * UNIT_ROOT_NODES):
            s, w = _gauss_legendre(m)
            c = lo + (hi - lo) * np.sin(0.5 * math.pi * s) ** 2
            dc = (hi - lo) * 0.5 * math.pi * np.sin(math.pi * s)
            f = a * (np.log(c / (2.0 * a)) + 1.0) - 0.5 * c
            density = np.exp((half - 1.0) * np.log(c) - 0.5 * c - log_norm)
            cdf = chi2_cdf_integer(np.maximum(2.0 * (f - thr), 0.0), q_dof)
            ev_bar.append(float(np.sum(w * dc * density * cdf)))
        out.append((1.0 - ev_bar[1], abs(ev_bar[1] - ev_bar[0])))
    return np.array(out).T


def _log_gamma(z):
    """ln Gamma(z), up to a multiple of 2 pi i, for an array with Re z > 0:
    the recurrence shifts z to Re z >= 16, where Stirling's series with
    seven terms is exact to rounding; one logarithm takes four factors."""
    shift = max(0, math.ceil(16.0 - float(np.min(np.real(z)))))
    w = z + shift
    inv = 1.0 / w
    inv2 = inv * inv
    out = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) \
        + inv * (1 / 12 + inv2 * (-1 / 360 + inv2 * (1 / 1260 + inv2 * (
            -1 / 1680 + inv2 * (1 / 1188 + inv2 * (-691 / 360360 + inv2 / 156))))))
    for j in range(0, shift, 4):
        factors = z + j
        for i in range(j + 1, min(j + 4, shift)):
            factors = factors * (z + i)
        out = out - np.log(factors)
    return out


def _log_mgf(s, a, dofs, q_dof):
    """ln E[exp(s base)] at an array of real s > -1 with d/2 + s a > 0 for
    every d in ``dofs``, or the log characteristic function at s = iu.  Each
    chi-square gives Gamma(d/2 + s a)/Gamma(d/2) 2^{s a} (1 + s)^{-(d/2 + s a)},
    q gives (1 + s)^{-q_dof/2}, and the constant -n a (ln 2a - 1) a factor
    exp(-s n a (ln 2a - 1))."""
    halves = 0.5 * np.asarray(dofs, dtype=float)
    log1p_s = np.log1p(s)
    z = halves[:, None] + s * a
    return (_log_gamma(z) - z * log1p_s).sum(axis=0) - 0.5 * q_dof * log1p_s \
        + s * (len(dofs) * a * (1.0 - math.log(a))) - sum(map(math.lgamma, halves))


def _gil_pelaez_cdf(thrs, a, dofs, q_dof):
    """P(base <= thr) from the moment generating function M(s) = E[exp(s base)].

    First a Chernoff bound, the least of M(s) exp(-s thr) on a grid of s,
    rounds a far tail to 0 or 1.  A threshold near or above the mean takes
    Gil-Pelaez, 1/2 - (1/pi) int_0^inf Im[exp(-iu thr) M(iu)] / u du, from
    one evaluation of M for all such thresholds.  A threshold further below
    the mean takes the Bromwich line Re s = theta < 0 through the minimiser
    of its Chernoff bound, -(1/pi) int_0^inf Re[M(s) exp(-s thr) / s] du with
    s = theta + iu.  The supremum 0 of the base gives M a tail in u^-(n+q)/2
    that oscillates as exp(-iu thr); on that line exp(-theta thr) < 1 damps
    it, so the cutoff stays small however far below the mean thr lies.
    """
    s_min = max(-1.0, -0.5 * min(dofs) / a)
    h = 1e-3 * abs(s_min)
    halves = 2.0 ** -np.arange(1.0, 21.0)
    s = np.concatenate([s_min * (1.0 - halves), s_min * halves,
                        2.0 ** np.arange(-20.0, 11.0), [-h, h]])
    log_mgf = np.real(_log_mgf(s, a, dofs, q_dof))
    log_bound = log_mgf - np.outer(thrs, s)
    ev, err = np.full(thrs.shape, np.nan), np.zeros(thrs.shape)
    for tail, value in ((s < 0.0, 0.0), (s > 0.0, 1.0)):
        least = log_bound[:, tail].min(axis=1)
        far = np.isnan(ev) & (least < math.log(TAIL))
        ev[far], err[far] = value, np.exp(least[far])
    # The mean by a central difference; the minimiser of the lower bound.
    mean = float(log_mgf[-1] - log_mgf[-2]) / (2.0 * h)
    lower = np.flatnonzero(s < 0.0)
    theta = s[lower[np.argmin(log_bound[:, lower], axis=1)]]
    tilted = np.isnan(ev) & (theta < 0.25 * s_min)
    central = np.isnan(ev) & ~tilted
    if central.any():
        freq = float(np.abs(thrs[central] - mean).max())
        ev[central], err[central] = _inversion_line(thrs[central], 0.0, freq, abs(s_min),
                                                    a, dofs, q_dof)
    for i in np.flatnonzero(tilted):
        ev[i:i + 1], err[i:i + 1] = _inversion_line(
            thrs[i:i + 1], theta[i], abs(thrs[i]), min(-theta[i], theta[i] - s_min),
            a, dofs, q_dof)
    return ev, err


def _inversion_line(thrs, theta, freq, dist, a, dofs, q_dof):
    """The inversion integral along Re s = theta (Gil-Pelaez at theta = 0) for
    thresholds whose integrand oscillates at most at ``freq``, with the
    nearest singularity of M(s) / s at ``dist`` from the line.  Composite
    Gauss-Legendre over panels at most a quarter period and dist/2 wide, up to
    where |M(s) exp(-s thr) / s| < TAIL; the error is the change from m to 2m
    panels."""
    u_grid = 2.0 ** np.arange(-6.0, 30.0, 0.25)
    s_grid = theta + 1j * u_grid
    log_size = np.real(_log_mgf(s_grid, a, dofs, q_dof)) - np.log(np.abs(s_grid)) \
        - theta * thrs.min()
    large = np.flatnonzero(log_size >= math.log(TAIL))
    cutoff = u_grid[min(large[-1] + 1, u_grid.size - 1)] if large.size else u_grid[0]
    width = min(0.5, math.pi / (2.0 * freq + 1.0), 0.5 * dist)
    panels = math.ceil(cutoff / (2.0 * width))
    if 3 * panels * PANEL_NODES > MAX_NODES:
        raise NumericError(f"characteristic function decays too slowly: "
                           f"{3 * panels * PANEL_NODES} nodes needed")
    x, w = _gauss_legendre(PANEL_NODES)
    rules = [((np.arange(n)[:, None] + x).ravel() * step, np.tile(w, n) * step)
             for n, step in ((panels, 2.0 * width), (2 * panels, width))]
    s = theta + 1j * np.concatenate([nodes for nodes, _ in rules])
    integrand = np.real(np.exp(_log_mgf(s, a, dofs, q_dof) - np.outer(thrs, s)) / s)
    m = rules[0][0].size
    coarse, fine = ((0.5 if theta == 0.0 else 0.0) - integrand[:, part] @ weights / math.pi
                    for part, (_, weights) in ((slice(None, m), rules[0]),
                                               (slice(m, None), rules[1])))
    return fine, np.abs(fine - coarse)


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
