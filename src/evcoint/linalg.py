"""Deterministic linear-algebra kernels shared by the statistical engines.

All matrices are plain ``numpy.ndarray`` in float64.  Inputs are validated
on entry (finite entries, agreeing dimensions); symmetric positive definite
arguments are checked through their Cholesky factorization.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficient,
)

# Relative pivot tolerance for detecting rank deficiency in OLS designs.
RANK_TOL = 1e-10

# Symmetry tolerance (relative) for SPD inputs.
SYM_TOL = 1e-10


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d float64 array, rejecting non-finite entries."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionMismatch(f"{name} has a zero dimension: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return a


def as_spd(a, name="matrix"):
    """Validate a symmetric positive definite matrix; returns (a, cholesky)."""
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYM_TOL * scale:
        raise NotPositiveDefinite(f"{name} is not symmetric")
    try:
        chol = np.linalg.cholesky(0.5 * (a + a.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite") from None
    return a, chol


class Fit(NamedTuple):
    """``ols_solve`` output: ``rss = resid' resid``; ``r`` is upper triangular, ``r'r = X'X``."""

    coef: np.ndarray
    resid: np.ndarray
    rss: np.ndarray
    r: np.ndarray


def ols_solve(design, response):
    """Least-squares fit of ``response`` on ``design`` via one QR.

    Returns a ``Fit``.  The normal-equation inverse is never formed.

    Raises ``RankDeficient`` when the smallest R diagonal falls below
    ``RANK_TOL`` times the largest one.
    """
    x = as_matrix(design, "design")
    y = as_matrix(response, "response")
    t, k = x.shape
    if y.shape[0] != t:
        raise DimensionMismatch(f"design has {t} rows but response has {y.shape[0]}")
    if t < k:
        raise DimensionMismatch(f"need at least as many rows ({t}) as columns ({k})")
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOL * diag.max():
        raise RankDeficient(int(np.argmin(diag)))
    coef = np.linalg.solve(r, q.T @ y)
    resid = y - x @ coef
    return Fit(coef, resid, resid.T @ resid, r)


def qr_r_factor(design):
    """Upper-triangular R with ``R'R = design'design``; rank-checked as in ols_solve."""
    x = as_matrix(design, "design")
    _, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOL * diag.max():
        raise RankDeficient(int(np.argmin(diag)))
    return r


def log_det_spd(a):
    """log determinant of a symmetric positive definite matrix."""
    _, chol = as_spd(a, "spd matrix")
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


# Eigenvalues must stay strictly below 1 so that log(1 - lambda) is finite;
# anything above 1 + EIG_REJECT indicates an upstream error, not round-off.
EIG_REJECT = 1e-8
EIG_CLAMP = 1e-12


def canonical_eigenvalues(svv, svu, suu):
    """Descending eigenvalues of ``svv^-1 svu' suu^-1 svu`` (squared canonical
    correlations).

    ``svu`` holds the U-by-V cross-covariance block; its transpose is the
    V-by-U block.  Computed through the symmetrized pencil
    ``L^-1 svu' suu^-1 svu L^-T`` with ``L`` the Cholesky factor of ``svv``,
    then clamped into ``[0, 1 - 1e-12]``.
    """
    svv, l_vv = as_spd(svv, "svv")
    suu, l_uu = as_spd(suu, "suu")
    svu = as_matrix(svu, "svu")
    n = svv.shape[0]
    if svu.shape != (suu.shape[0], n):
        raise DimensionMismatch(
            f"svu must be {suu.shape[0]}x{n}, got {svu.shape[0]}x{svu.shape[1]}"
        )
    # B = suu^{-1/2} svu svv^{-1/2}; the wanted matrix is similar to B'B.
    b = np.linalg.solve(l_uu, svu)
    b = np.linalg.solve(l_vv, b.T).T
    try:
        vals = np.linalg.eigvalsh(b.T @ b)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    vals = vals[::-1]
    if vals.max(initial=0.0) > 1.0 + EIG_REJECT:
        raise EigenFailure(
            f"canonical eigenvalue {vals.max():.6g} exceeds 1; inputs are inconsistent"
        )
    return np.clip(vals, 0.0, 1.0 - EIG_CLAMP)
