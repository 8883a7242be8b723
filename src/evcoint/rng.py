"""Seeded random generation with exact reproducibility.

The raw source is the PCG64 counter-based generator seeded through
``numpy.random.SeedSequence(seed, spawn_key=(stream,))``; only its raw
64-bit output is consumed.  Everything else (uniform doubles, Box-Muller
normals, Marsaglia-Tsang gammas, Bartlett Wisharts) is built here on top of
that stream and fixed permanently.  Draws are bit-identical for a fixed
``(seed, stream)`` on a given numpy build and SIMD dispatch: the normals
use numpy's ``log``/``sqrt``/``cos``/``sin`` kernels; the batched gammas of
``RngState.gamma_array``, the only sampler on the CLI path, use ``np.log``
in their acceptance test, and the scalar ``RngState.gamma`` (the reference
chains and ``_bartlett_factor``) uses ``math.log``.
``tests/test_reproducibility.py`` pins the streams to golden hashes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_spd
from .errors import DimensionMismatch

_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


#: Raws read from PCG64 whenever the stream buffer runs dry.
_REFILL = 4096


class RngState:
    """Deterministic random stream identified by ``(seed, stream)``.

    Distinct streams derived from one master seed are statistically
    independent; concurrent chains must each own their own stream.  Raw
    output is read ahead into a buffer of uniforms that every sampler
    consumes in order, so scalar and array calls can be mixed without
    changing the sequence.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._bitgen = np.random.PCG64(ss)
        self._buf = np.empty(0)
        self._pos = 0

    def _take(self, count):
        """The next ``count`` uniforms of the stream."""
        if self._buf.size - self._pos < count:
            raw = self._bitgen.random_raw(max(count - (self._buf.size - self._pos), _REFILL))
            fresh = ((raw >> np.uint64(11)) + 0.5) * _INV_2_53
            self._buf = np.concatenate([self._buf[self._pos:], fresh])
            self._pos = 0
        u = self._buf[self._pos:self._pos + count]
        self._pos += count
        return u

    def uniform(self, size=None):
        """Uniform doubles on the open interval (0, 1)."""
        if size is None:
            return float(self._take(1)[0])
        return self._take(int(np.prod(size))).reshape(size)

    def standard_normal(self, size=None):
        """Standard normals via Box-Muller on the uniform stream."""
        n = 1 if size is None else int(np.prod(size))
        m = (n + 1) // 2
        u = self._take(2 * m)
        r = np.sqrt(-2.0 * np.log(u[:m]))
        a = _TWO_PI * u[m:]
        z = np.concatenate([r * np.cos(a), r * np.sin(a)])[:n]
        return float(z[0]) if size is None else z.reshape(size)

    def gamma(self, shape, scale=1.0):
        """One gamma draw by the Marsaglia-Tsang squeeze (boosted for shape < 1)."""
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma shape and scale must be positive")
        if shape < 1.0:
            u = self.uniform()
            return self.gamma(shape + 1.0, scale) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.standard_normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.uniform()
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v * scale

    def gamma_array(self, shape, n, scale=1.0):
        """Vector of gamma draws with common parameters, batched rejection."""
        if shape < 1.0:
            boost = self.uniform(n) ** (1.0 / shape)
            return self.gamma_array(shape + 1.0, n, scale) * boost
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        filled = 0
        while filled < n:
            todo = n - filled
            x = np.atleast_1d(self.standard_normal(todo))
            v = (1.0 + c * x) ** 3
            u = np.atleast_1d(self.uniform(todo))
            ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.where(v > 0, np.log(np.abs(v) + 1e-300), 0.0))
            good = d * v[ok] * scale
            out[filled:filled + good.size] = good
            filled += good.size
        return out


@dataclass(frozen=True)
class MatrixNormalParams:
    mean: np.ndarray
    row_cov: np.ndarray
    col_cov: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mean, "mean")
        u, _ = as_spd(self.row_cov, "row_cov")
        v, _ = as_spd(self.col_cov, "col_cov")
        if u.shape[0] != m.shape[0] or v.shape[0] != m.shape[1]:
            raise DimensionMismatch("matrix-normal parameter dimensions disagree")


@dataclass(frozen=True)
class InverseWishartParams:
    scale: np.ndarray
    dof: float

    def __post_init__(self):
        lam, _ = as_spd(self.scale, "scale")
        if self.dof <= lam.shape[0] - 1:
            raise ValueError("inverse-Wishart dof must exceed dimension - 1")


def sample_matrix_normal(rng, params):
    """Matrix-normal draw M + A G B' with A, B Cholesky factors of the covariances."""
    m = np.asarray(params.mean, dtype=float)
    _, a = as_spd(params.row_cov, "row_cov")
    _, b = as_spd(params.col_cov, "col_cov")
    g = np.atleast_2d(rng.standard_normal(m.shape))
    return m + a @ g @ b.T


def _bartlett_factor(rng, p, dof):
    """Lower-triangular Bartlett factor A of a p x p Wishart with ``dof``
    degrees of freedom and identity scale: row i holds
    sqrt(Gamma((dof - i)/2, 2)) on the diagonal, drawn first, then i
    standard normals."""
    a = np.zeros((p, p))
    for i in range(p):
        a[i, i] = math.sqrt(rng.gamma(0.5 * (dof - i), 2.0))
        for j in range(i):
            a[i, j] = rng.standard_normal()
    return a


def sample_wishart(rng, scale, dof):
    """Wishart draw via Bartlett decomposition; ``scale`` is the p x p scale matrix."""
    _, l = as_spd(scale, "scale")
    la = l @ _bartlett_factor(rng, l.shape[0], dof)
    return la @ la.T


def inverse_wishart_from_factor(a, l):
    """Inverse-Wishart draw from its Bartlett factor ``a`` and the Cholesky
    factor ``l`` of the scale Lambda.

    chol(Lambda^-1) = L^-T (up to orientation); W = L^-T A A' L^-1, so
    X = W^-1 = L A^-T A^-1 L' comes from one solve and one product.
    """
    ainv_l = np.linalg.solve(a, l.T)      # A^-1 L'
    x = ainv_l.T @ ainv_l                 # L A^-T A^-1 L'
    return 0.5 * (x + x.T)


def sample_inverse_wishart(rng, params):
    """Inverse-Wishart draw: invert a Wishart with scale Lambda^-1 and the same dof.

    Only the Cholesky of Lambda and triangular solves are used; the single
    p x p inversion happens on the Bartlett product.
    """
    _, l = as_spd(params.scale, "scale")
    return inverse_wishart_from_factor(_bartlett_factor(rng, l.shape[0], params.dof), l)

