import math

import numpy as np
import pytest

from evcoint import cointegration as co
from evcoint import linalg
from evcoint import unitroot as ur


def ar1_series(seed=7, n=13, intercept=0.2, phi=0.6):
    g = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = intercept + phi * y[t - 1] + g.normal()
    return y


def random_walks(seed=11, n=16, dim=2, scale=1.0):
    g = np.random.default_rng(seed)
    return np.cumsum(g.normal(scale=scale, size=(n, dim)), axis=0)


def cointegrated_pair(seed=3, n=500):
    """y2 tracks y1 up to stationary noise."""
    g = np.random.default_rng(seed)
    y1 = np.cumsum(g.normal(size=n))
    y2 = y1 + g.normal(scale=0.5, size=n)
    return np.column_stack([y1, y2])


def weakly_cointegrated(seed, n, phi):
    """Four random walks of which the first two differ by an AR(1) with
    coefficient ``phi``."""
    g = np.random.default_rng(seed)
    w = np.cumsum(g.normal(size=(n, 4)), axis=0)
    e = np.zeros(n)
    for t in range(1, n):
        e[t] = phi * e[t - 1] + g.normal()
    w[:, 1] = w[:, 0] + e
    return w


@pytest.fixture
def small_unitroot_design():
    return ur.build_design(ar1_series(), ur.UnitRootSpec(p=1))


@pytest.fixture
def tiny_vecm_design():
    spec = co.VecmSpec(n=2, p=1, include_constant=False)
    return co.build_vecm_design(random_walks(), spec)


@pytest.fixture
def ols_design_widths(monkeypatch):
    """Column count of every design passed to ``linalg.ols_solve``, in call order."""
    widths = []
    solve = linalg.ols_solve

    def counting(design, response):
        widths.append(np.shape(design)[1])
        return solve(design, response)

    monkeypatch.setattr(linalg, "ols_solve", counting)
    return widths


def grid_posterior_unitroot(design, log_s_star, n_psi=340, n_sigma=380):
    """Dense grid quadrature of the unit-root posterior kernel for a 2-column
    design (intercept and lagged level): returns (ev, P(g0 >= 0))."""
    assert design.x_full.shape[1] == 2
    coef, _, rss, _ = linalg.ols_solve(design.x_full, design.delta_y)
    psi_hat = coef.ravel()
    rss_hat = float(rss[0, 0])
    t = design.effective_t
    xtx = design.x_full.T @ design.x_full
    cov = np.linalg.inv(xtx)
    sigma_map = math.sqrt(rss_hat / (t + 1))
    se = np.sqrt(np.diag(cov)) * sigma_map
    mu_g = np.linspace(psi_hat[0] - 12 * se[0], psi_hat[0] + 12 * se[0], n_psi)
    g0_g = np.linspace(psi_hat[1] - 12 * se[1], psi_hat[1] + 12 * se[1], n_psi)
    s_g = np.linspace(sigma_map * 0.12, sigma_map * 8, n_sigma)
    m, g0, s = np.meshgrid(mu_g, g0_g, s_g, indexing="ij")
    d0 = m - psi_hat[0]
    d1 = g0 - psi_hat[1]
    quad = xtx[0, 0] * d0 ** 2 + 2 * xtx[0, 1] * d0 * d1 + xtx[1, 1] * d1 ** 2
    lpost = -(t + 1) * np.log(s) - (rss_hat + quad) / (2 * s ** 2)
    w = np.exp(lpost - lpost.max())
    total = w.sum()
    ev = 1.0 - w[lpost > log_s_star].sum() / total
    p_nonstat = w[g0 >= 0].sum() / total
    return float(ev), float(p_nonstat)
