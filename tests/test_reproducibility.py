"""Golden SHA-256 hashes of the random streams and of full Gibbs chains.

Each case draws from a fixed ``(seed, stream)`` and hashes the float64
bytes of the result.  A hash change means the draws changed: bit-identity
holds for a fixed ``(seed, stream)`` on a given numpy build and SIMD
dispatch, which is what these tests pin.  A sampler rewrite must leave
every hash as it is.
"""
import hashlib

import numpy as np
import pytest

from conftest import ar1_series, random_walks
from evcoint import cointegration as co
from evcoint import unitroot as ur
from evcoint.rng import (
    InverseWishartParams,
    RngState,
    sample_inverse_wishart,
    sample_wishart,
)

SEED = 20_200_607
STREAM = 3


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype="<f8"))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _uniform():
    r = RngState(SEED, STREAM)
    scalars = [r.uniform() for _ in range(7)]
    return digest(scalars, r.uniform(1000), r.uniform((3, 5)))


def _normal_scalar():
    r = RngState(SEED, STREAM)
    return digest([r.standard_normal() for _ in range(501)])


def _normal_array():
    r = RngState(SEED, STREAM)
    return digest(r.standard_normal(777), r.standard_normal((6, 5)), r.standard_normal(1),
                  r.standard_normal((7, 3)))


def _gamma():
    r = RngState(SEED, STREAM)
    scalars = [r.gamma(shape, scale) for shape in (0.4, 1.0, 3.3, 52.5)
               for scale in (1.0, 2.0) for _ in range(25)]
    return digest(scalars, r.gamma_array(2.5, 1000), r.gamma_array(0.6, 300, scale=2.0))


def _inverse_wishart():
    r = RngState(SEED, STREAM)
    g = np.random.default_rng(0).normal(size=(3, 3))
    params = InverseWishartParams(scale=g @ g.T + 3.0 * np.eye(3), dof=9.0)
    iw = np.stack([sample_inverse_wishart(r, params) for _ in range(200)])
    w = np.stack([sample_wishart(r, params.scale, 7.5) for _ in range(50)])
    return digest(iw, w)


def _unitroot_design():
    return ur.build_design(ar1_series(seed=5, n=90), ur.UnitRootSpec(p=3, include_trend=True))


def _unitroot_chain():
    design = _unitroot_design()
    chain = ur.gibbs_chain(design, RngState(SEED, STREAM), n_draws=5000, burn_in=100)
    return digest(chain.psi, chain.sigma, ur.chain_log_posterior(chain, design))


def _vecm_design(n, p, dummies):
    spec = co.VecmSpec(n=n, p=p, n_seasonal_dummies=dummies)
    return co.build_vecm_design(random_walks(seed=13, n=70, dim=n), spec)


def _vecm_chain(n, p, dummies, n_draws):
    design = _vecm_design(n, p, dummies)
    chain = co.gibbs_chain(design, RngState(SEED, STREAM), n_draws=n_draws, burn_in=100)
    return digest(chain.eta, chain.omega, co.chain_log_posterior(chain, design))


def _scalars_after_chain():
    rng = RngState(SEED, STREAM)
    ur.gibbs_chain(_unitroot_design(), rng, n_draws=1500, burn_in=0)
    co.gibbs_chain(_vecm_design(3, 2, 0), rng, n_draws=1500, burn_in=0)
    return digest([rng.uniform(), rng.standard_normal(), rng.gamma(3.3)],
                  rng.standard_normal(5), rng.uniform(3))


CASES = {
    "uniform": _uniform,
    "normal_scalar": _normal_scalar,
    "normal_array": _normal_array,
    "gamma": _gamma,
    "inverse_wishart": _inverse_wishart,
    "unitroot_chain": _unitroot_chain,
    "vecm_chain_n2": lambda: _vecm_chain(2, 1, 0, 2500),
    "vecm_chain_n3_odd_block": lambda: _vecm_chain(3, 2, 0, 3000),
    "vecm_chain_n4_dummies": lambda: _vecm_chain(4, 2, 3, 3000),
    "scalars_after_chain": _scalars_after_chain,
}

GOLDEN = {
    "uniform": "22371d0bc42e0f9e5868137d309e3134719492a124943b157f2d5e981199c764",
    "normal_scalar": "e93ec5e628e7a0227a2578d0e40e1b4ed7f138edb7bd21eea22f9ce32b409342",
    "normal_array": "acc036dcc115b23b3e8343e0149f78cca0fd4de8b1ca2ca62cb2b0806a3c712b",
    "gamma": "fbd37c1cc56dc7f660a39c5e39da3ea2da36be7c4879a7b871385da668a27736",
    "inverse_wishart": "ef7e02fe04a36c9aabf300a8bb467f54954638e138ce1c5bb4aecd12a81b1435",
    "unitroot_chain": "e248936bba6a0baa140363205fa7e8eb77ff7962eb660346235bbe66617e45b4",
    "vecm_chain_n2": "a26e4308a74f8e3b35ed66e2ec673edd94cac81752d2d7afa06d92eda9164172",
    "vecm_chain_n3_odd_block": "5315e8e81dd2f495e3737b0da8d80cc0fc427180560bd3b5b714fcf9b2c106ea",
    "vecm_chain_n4_dummies": "b80791119d8869d5f1971b151022fb02c885d6ecfde47709466f53d4a50708ab",
    "scalars_after_chain": "50bc3dc78c2f47c7a7e0e1313f446c7cf9565d5a3cc1f3c3728411cd3f12feab",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_hash(case):
    assert CASES[case]() == GOLDEN[case]
