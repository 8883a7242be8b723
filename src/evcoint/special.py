"""Chi-square distribution function and quantile; Student-t distribution function.

The chi-square CDF goes through the regularized lower incomplete gamma function,
evaluated by its power series for small arguments and by the Lentz
continued fraction otherwise.  The quantile brackets the root and polishes
it with Newton steps on the CDF.
"""
from __future__ import annotations

import math
from numbers import Integral

import numpy as np

_MAX_ITER = 500
_EPS = 1e-15


def _gammainc_series(s, x):
    # P(s, x) by power series; converges fast for x < s + 1.
    term = 1.0 / s
    total = term
    n = s
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))

def _gammaincc_contfrac(s, x):
    # Q(s, x) by the modified Lentz continued fraction; for x >= s + 1.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def gammainc_lower(s, x):
    """Regularized lower incomplete gamma P(s, x)."""
    if s <= 0:
        raise ValueError("shape must be positive")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return min(_gammainc_series(s, x), 1.0)
    return max(1.0 - _gammaincc_contfrac(s, x), 0.0)


def chi2_cdf(x, df):
    """P(X <= x) for a chi-square variable with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("chi-square argument must be >= 0")
    return gammainc_lower(0.5 * df, 0.5 * x)


def chi2_cdf_integer(x, df):
    """P(X <= x) at an array of x >= 0 for a chi-square variable with an
    integer ``df`` >= 1, in closed form.  With y = x/2 the upper tail is
    e^-y sum_{j < df/2} y^j / j! for even df, and erfc(sqrt y) +
    e^-y sum_{j <= (df-3)/2} y^{j+1/2} / Gamma(j + 3/2) for odd df.

    It is accurate to about 1e-14 absolute over a whole array of quadrature
    nodes in one pass, which is what an integral of the CDF needs.  It is not
    a replacement for ``chi2_cdf``: 1 - tail loses the relative accuracy of a
    small lower tail (about 1e-5 relative at df = 5, x = 1e-4), which the
    series keeps and ``chi2_quantile`` needs to invert p down to 1e-20."""
    if not isinstance(df, Integral) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    y = np.maximum(0.5 * np.asarray(x, dtype=float), 1e-300)
    log_y = np.log(y)
    odd = df % 2
    tail = np.array([math.erfc(math.sqrt(v)) for v in y.ravel()]).reshape(y.shape) \
        if odd else np.zeros(y.shape)
    for j in range(df // 2):
        power = j + 0.5 * odd
        tail += np.exp(power * log_y - y - math.lgamma(power + 1.0))
    return np.clip(1.0 - tail, 0.0, 1.0)


def chi2_pdf(x, df):
    if x < 0:
        return 0.0
    if x == 0.0:
        return math.inf if df < 2 else (0.5 if df == 2 else 0.0)
    half = 0.5 * df
    return math.exp((half - 1.0) * math.log(x) - 0.5 * x - half * math.log(2.0) - math.lgamma(half))


def chi2_quantile(p, df):
    """Inverse of ``chi2_cdf`` in its first argument.

    Converges to a point whose CDF matches ``p`` to about 1e-13 relative
    accuracy, which keeps deep-tail inversions (p near 0) meaningful.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 <= p < 1.0:
        raise ValueError("probability must lie in [0, 1)")
    if p == 0.0:
        return 0.0
    # Bracket the root geometrically around the mean.
    lo, hi = 0.0, float(df)
    while chi2_cdf(hi, df) < p:
        lo = hi
        hi *= 2.0
    # Bisection until Newton is safe, then Newton with bracket fallback.
    x = 0.5 * (lo + hi)
    f_tol = 1e-13 * p
    for _ in range(400):
        f = chi2_cdf(x, df) - p
        if abs(f) < f_tol:
            break
        if f > 0:
            hi = x
        else:
            lo = x
        deriv = chi2_pdf(x, df)
        if deriv > 0 and math.isfinite(deriv):
            step = x - f / deriv
            x = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return x


def student_t_cdf(x, df):
    """P(X <= x) for a Student-t variable with an integer ``df`` >= 1, by the
    finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)
    in theta = atan(x / sqrt(df)) and cos^2 theta = df / (df + x^2)."""
    if not isinstance(df, Integral) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    cos2 = df / (df + x * x)
    sin = x / math.sqrt(df + x * x)
    odd = df % 2
    term = total = 1.0
    for j in range(1, df // 2):
        term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
        total += term
    if not odd:
        return 0.5 + 0.5 * sin * total
    theta = math.atan2(x, math.sqrt(df))
    if df > 1:
        theta += sin * math.sqrt(cos2) * total
    return 0.5 + theta / math.pi
