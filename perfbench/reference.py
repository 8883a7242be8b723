"""Independent reference values and the report checker.

Nothing here imports ``evcoint``.  The deterministic fields of a report are
recomputed with numpy/scipy (least squares for the ADF t-ratio, a
generalized symmetric eigenproblem for the Johansen eigenvalues); the Monte
Carlo fields are compared with the collapsed (Rao-Blackwellized) forms of
the two posteriors:

* unit root: sigma^2 ~ IG((T-k)/2, RSS/2) and, given sigma, the quadratic
  form of psi is chi2_k, so ev = E_u[Q_k(2(h(u) - l*))] with
  u = RSS/(2 sigma^2) ~ Gamma((T-k)/2), evaluated by 1-D quadrature;
  P(g0 >= 0 | y) is the Student-t(T-k) tail at the ADF t-ratio.
* VECM: Omega ~ IW(S, T-k); in Bartlett form the log posterior depends on
  n chi-squares c_i ~ chi2_{T-k-i+1}, one chi2_{n(n-1)/2} and the
  chi2_{kn} mean term, so ev_r = E[Q_{kn}(2(base - l*_r))] averaged over
  draws of the first n+1.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, linalg, special, stats

#: Rao-Blackwellized draws behind each rank e-value reference.
RB_DRAWS = 1_000_000
RB_CHUNK = 250_000

#: Tolerance multiplier on the Monte Carlo standard error, and the factor by
#: which the chain's autocorrelation may inflate the binomial error.
MC_SIGMAS = 6.0
AUTOCORR_INFLATION = 2.0

#: Relative tolerance for deterministic fields (t-ratio, eigenvalues,
#: max-eig statistics, bridge thresholds).
DET_RTOL = 1e-6
#: Absolute tolerance on an eigenvalue (all lie in [0, 1]).  The smallest
#: eigenvalue of a long, trending series is ill-conditioned: two correct
#: computations of a 2e-5 eigenvalue differ by about 2e-11.
EIG_ATOL = 1e-9


# ---------------------------------------------------------------- unit root

def adf_fit(y, p, trend):
    """ADF regression of dy_t on (1, [t], y_{t-1}, dy_{t-1..t-p+1}) by lstsq.

    Returns (t_ratio, T, k) with s^2 = RSS/(T - k).
    """
    y = np.asarray(y, dtype=float)
    dy = np.diff(y)
    t_eff = y.size - p
    cols = [np.ones(t_eff)]
    if trend:
        cols.append(np.arange(t_eff, dtype=float))
    g = len(cols)
    cols.append(y[p - 1:-1])
    cols += [dy[p - 1 - j:-j] for j in range(1, p)]
    x = np.column_stack(cols)
    resp = dy[p - 1:]
    coef, _, _, _ = np.linalg.lstsq(x, resp, rcond=None)
    resid = resp - x @ coef
    k = x.shape[1]
    s2 = float(resid @ resid) / (t_eff - k)
    cov_gg = np.linalg.inv(x.T @ x)[g, g]
    return float(coef[g] / math.sqrt(s2 * cov_gg)), t_eff, k


def unitroot_ev(t_ratio, t_eff, k):
    """Exact unit-root e-value as a function of the ADF t-ratio.

    With RSS scaled to 1, the restricted RSS is 1 + t^2/(T - k) and
    h(u) - l* = ((T+1)/2)(ln(2u RSS_r/(T+1)) + 1) - u.
    """
    a = 0.5 * (t_eff - k)
    rss_r = 1.0 + t_ratio * t_ratio / (t_eff - k)
    half = 0.5 * (t_eff + 1)

    def integrand(u):
        gap = half * (math.log(2.0 * u * rss_r / (t_eff + 1)) + 1.0) - u
        return stats.chi2.sf(2.0 * gap, k) * stats.gamma.pdf(u, a)

    lo, hi = stats.gamma.ppf([1e-14, 1.0 - 1e-14], a)
    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
    return float(val)


def unitroot_reference(y, p, trend):
    t_ratio, t_eff, k = adf_fit(y, p, trend)
    return {
        "engine": "unitroot",
        "adf_stat": t_ratio,
        "ev": unitroot_ev(t_ratio, t_eff, k),
        "p_nonstationary": float(stats.t.cdf(t_ratio, t_eff - k)),
    }


# ---------------------------------------------------------------- VECM rank

def vecm_regressors(y, p, n_dummies=0, period=4, start_index=0):
    """(dY, Z1, Y_{-1}) of the VECM with a constant, indicator dummies and
    p - 1 lagged differences."""
    y = np.asarray(y, dtype=float)
    dy = np.diff(y, axis=0)
    t_eff = y.shape[0] - p
    cols = [np.ones((t_eff, 1))]
    season = (start_index + np.arange(p, y.shape[0])) % period
    cols += [(season == j).astype(float)[:, None] for j in range(n_dummies)]
    cols += [dy[p - 1 - j:-j] for j in range(1, p)]
    return dy[p - 1:], np.hstack(cols), y[p - 1:-1]


def johansen(y, p, n_dummies=0, period=4, start_index=0):
    """Descending squared canonical correlations and the sizes (T, k)."""
    d_y, z1, y_lag = vecm_regressors(y, p, n_dummies, period, start_index)
    t_eff, n = d_y.shape
    proj = z1 @ np.linalg.lstsq(z1, np.hstack([d_y, y_lag]), rcond=None)[0]
    r = np.hstack([d_y, y_lag]) - proj
    r0, r1 = r[:, :n], r[:, n:]
    s00, s11, s01 = r0.T @ r0 / t_eff, r1.T @ r1 / t_eff, r0.T @ r1 / t_eff
    lam = linalg.eigh(s01.T @ np.linalg.solve(s00, s01), s11, eigvals_only=True)
    return np.sort(lam)[::-1], t_eff, z1.shape[1] + n


def trace_gaps(eigenvalues):
    """q_r = -sum_{i>r} ln(1 - lambda_i) for r = 0..n."""
    logs = -np.log1p(-np.asarray(eigenvalues))
    return np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])


class RankEvidence:
    """ev_r as a function of the trace gaps q_r, averaged over fixed draws.

    The same draws serve every call, so the map q -> ev is smooth and
    monotone, which the data generator needs for root finding.
    """

    def __init__(self, t_eff, n, k, n_draws, rng):
        self.t_eff, self.n, self.k = t_eff, n, k
        half = 0.5 * (t_eff + n + 1)
        nu = t_eff - k
        self._chunks = []
        for start in range(0, n_draws, RB_CHUNK):
            m = min(RB_CHUNK, n_draws - start)
            c = np.column_stack([rng.chisquare(nu - i, m) for i in range(n)])
            w = rng.chisquare(n * (n - 1) / 2, m) if n > 1 else np.zeros(m)
            # base - l*_r = half (sum ln c_i + q_r - n ln(T+n+1) + n) - (sum c_i + w)/2
            self._chunks.append(
                half * (np.log(c).sum(axis=1) - n * math.log(t_eff + n + 1) + n)
                - 0.5 * (c.sum(axis=1) + w)
            )
        self._half = half

    def ev(self, gap):
        """(ev, standard error of the average) at trace gap ``gap``."""
        total = total_sq = 0.0
        count = 0
        for base in self._chunks:
            q = special.chdtrc(self.k * self.n, np.maximum(2.0 * (base + self._half * gap), 0.0))
            total += q.sum()
            total_sq += (q * q).sum()
            count += q.size
        mean = total / count
        var = max(total_sq / count - mean * mean, 0.0)
        return float(mean), float(math.sqrt(var / count))


def bridge_threshold(policy, n, k, rank):
    """Threshold of ``policy`` ('fixed:x' or 'bridge:p=x'), paper-literal
    dimension count."""
    kind, _, value = policy.partition(":")
    if kind == "fixed":
        return float(value)
    p = float(value.removeprefix("p="))
    cov = n * (n + 1) // 2
    m, h = k * n + cov, (k - n) * n + cov + rank
    return float(stats.chi2.sf(stats.chi2.isf(p, m - h), m))


def rank_reference(y, p, n_dummies, period, policy, rng, start_index=0):
    lam, t_eff, k = johansen(y, p, n_dummies, period, start_index)
    n = lam.size
    rb = RankEvidence(t_eff, n, k, RB_DRAWS, rng)
    evs = [rb.ev(g) for g in trace_gaps(lam)]
    return {
        "engine": "coint",
        "eigenvalues": lam.tolist(),
        "t_eff": t_eff,
        "ev": [e for e, _ in evs],
        "ev_se": [s for _, s in evs],
        "threshold": [bridge_threshold(policy, n, k, r) for r in range(n)] + [None],
    }


# ------------------------------------------------------------------ checker

def _close(got, want, rtol=DET_RTOL, atol=1e-10):
    return got is not None and abs(got - want) <= rtol * abs(want) + atol


def _mc_tol(ev_ref, ref_se, n_kept):
    binom = math.sqrt(max(ev_ref * (1.0 - ev_ref), 0.0) / n_kept)
    return MC_SIGMAS * (AUTOCORR_INFLATION * binom + ref_se) + 1e-9


def check_report(exit_code, text, ref):
    """Problems found in one CLI report (an empty list means it passed)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _check(json.loads(text), ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


def _check(rep, ref):
    rows = rep["rows"]
    n_kept = rep["config"]["n_draws"] - rep["config"]["burn_in"]
    problems = []
    evs = [row["ev"] for row in rows]
    if not all(isinstance(e, (int, float)) and 0.0 <= e <= 1.0 for e in evs):
        return [f"ev outside [0, 1]: {evs}"]
    if ref["engine"] == "unitroot":
        row = rows[0]
        if not _close(row["adf_stat"], ref["adf_stat"]):
            problems.append(f"adf_stat {row['adf_stat']} vs lstsq {ref['adf_stat']}")
        if abs(row["ev"] - ref["ev"]) > _mc_tol(ref["ev"], 0.0, n_kept):
            problems.append(f"ev {row['ev']} vs quadrature {ref['ev']}")
        p_ref = ref["p_nonstationary"]
        if abs(row["p_nonstationary"] - p_ref) > _mc_tol(p_ref, 0.0, n_kept):
            problems.append(f"p_nonstationary {row['p_nonstationary']} vs t tail {p_ref}")
        return problems

    n = len(ref["eigenvalues"])
    if len(rows) != n + 1:
        return [f"{len(rows)} rank rows for n = {n}"]
    if any(b < a for a, b in zip(evs, evs[1:])):
        problems.append(f"rank e-values not non-decreasing: {evs}")
    if evs[-1] != 1.0:
        problems.append(f"ev at rank n is {evs[-1]}, not 1")
    eig = rep["eigenvalues"]
    if len(eig) != n or not all(_close(a, b, atol=EIG_ATOL)
                                for a, b in zip(eig, ref["eigenvalues"])):
        problems.append(f"eigenvalues {eig} vs eigh {ref['eigenvalues']}")
    for r, row in enumerate(rows):
        # -T ln(1 - lambda) compared on the eigenvalue scale.
        if r < n and not _close(-math.expm1(-row["max_eig_stat"] / ref["t_eff"]),
                                ref["eigenvalues"][r], atol=EIG_ATOL):
            problems.append(f"max_eig_stat[{r}] {row['max_eig_stat']} vs eigenvalue "
                            f"{ref['eigenvalues'][r]}")
        want = ref["threshold"][r]
        if (row["threshold"] is None) != (want is None) or (
            want is not None and not _close(row["threshold"], want)
        ):
            problems.append(f"threshold[{r}] {row['threshold']} vs {want}")
        if abs(row["ev"] - ref["ev"][r]) > _mc_tol(ref["ev"][r], ref["ev_se"][r], n_kept):
            problems.append(f"ev[{r}] {row['ev']} vs Rao-Blackwell {ref['ev'][r]}")
    rejected = [bool(row["rejected"]) for row in rows]
    selected = rep["selected_rank"]
    if rejected != [r < selected for r in range(n + 1)]:
        problems.append(f"selected_rank {selected} disagrees with rejected flags {rejected}")
    for r, row in enumerate(rows[:n]):
        below = row["ev"] < row["threshold"]
        if r <= selected and below != (r < selected):
            problems.append(f"rank {r}: rejected={rejected[r]} but ev {row['ev']} "
                            f"vs threshold {row['threshold']}")
    return problems
