"""Golden SHA-256 hashes of the random streams, of full Gibbs chains, of
the direct samplers' output and of CLI reports.

Each case draws from a fixed ``(seed, stream)`` and hashes the float64
bytes of the result, or the JSON report of a CLI run.  A hash change means
the draws or the report changed: bit-identity holds for a fixed
``(seed, stream)`` on a given numpy build and SIMD dispatch, which is what
these tests pin.  A sampler rewrite must leave every hash as it is.  The
chain cases hash the draws only, not their log posteriors, whose last bit
depends on how they are evaluated; the direct cases hash the data-free base
stream, and the report cases pin the CLI's reports, whose e-values are
integrals and draw no random number.  The e-values also do not depend on
the units of the data.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import ar1_series, random_walks, weakly_cointegrated
from evcoint import cli
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
    chain = ur.gibbs_chain(design, RngState(SEED, STREAM), n_draws=5000)
    return digest(chain.psi, chain.sigma)


def _vecm_design(n, p, dummies):
    spec = co.VecmSpec(n=n, p=p, n_seasonal_dummies=dummies)
    return co.build_vecm_design(random_walks(seed=13, n=70, dim=n), spec)


def _vecm_chain(n, p, dummies, n_draws):
    design = _vecm_design(n, p, dummies)
    chain = co.gibbs_chain(design, RngState(SEED, STREAM), n_draws=n_draws)
    return digest(chain.eta, chain.omega)


def _unitroot_direct():
    return digest(ur.direct_draws(_unitroot_design(), RngState(SEED, STREAM), n_draws=5000))


def _vecm_direct(n, p, dummies, n_draws):
    return digest(co.direct_draws(_vecm_design(n, p, dummies), RngState(SEED, STREAM),
                                  n_draws=n_draws))


def _scalars_after_chain():
    rng = RngState(SEED, STREAM)
    ur.gibbs_chain(_unitroot_design(), rng, n_draws=1500)
    co.gibbs_chain(_vecm_design(3, 2, 0), rng, n_draws=1500)
    return digest([rng.uniform(), rng.standard_normal(), rng.gamma(3.3)],
                  rng.standard_normal(5), rng.uniform(3))


def _report(command, data, *args):
    """SHA-256 of the JSON report of one CLI run on ``data``, without the
    wall-clock time and the input path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        lines = [",".join(f"y{j}" for j in range(data.shape[1]))]
        lines += [",".join(repr(float(v)) for v in row) for row in data]
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, str(path), "--seed", "7", *args])
    assert code == 0
    report = json.loads(out.getvalue())
    del report["wall_clock_s"], report["config"]["input_path"]
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


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
    "unitroot_direct": _unitroot_direct,
    "vecm_direct_n2": lambda: _vecm_direct(2, 1, 0, 2500),
    "vecm_direct_n4_dummies": lambda: _vecm_direct(4, 2, 3, 3000),
    "scalars_after_chain": _scalars_after_chain,
    "report_unitroot": lambda: _report(
        "unitroot", ar1_series(seed=5, n=90)[:, None], "-p", "3", "--trend",
        "--n-draws", "4000", "--burn-in", "200"),
    "report_rank_bridge": lambda: _report(
        "coint", random_walks(seed=5, n=100, dim=3), "-p", "2", "--dummies", "3",
        "--threshold-policy", "bridge:p=0.01", "--n-draws", "3000", "--burn-in", "300"),
}

GOLDEN = {
    "uniform": "22371d0bc42e0f9e5868137d309e3134719492a124943b157f2d5e981199c764",
    "normal_scalar": "e93ec5e628e7a0227a2578d0e40e1b4ed7f138edb7bd21eea22f9ce32b409342",
    "normal_array": "acc036dcc115b23b3e8343e0149f78cca0fd4de8b1ca2ca62cb2b0806a3c712b",
    "gamma": "fbd37c1cc56dc7f660a39c5e39da3ea2da36be7c4879a7b871385da668a27736",
    "inverse_wishart": "ef7e02fe04a36c9aabf300a8bb467f54954638e138ce1c5bb4aecd12a81b1435",
    "unitroot_chain": "e7324d54d582ffe7b9f7d9b3afded6cb9869f747da50b9c4f712a8d524a00b5c",
    "vecm_chain_n2": "88ae79b5281c46d72a8b589e25af3334ec7d6bd507ea2ba08400d7abe113216d",
    "vecm_chain_n3_odd_block": "6736e6c384636a59a1211a736fe31f47e2b639d29cf47d4f858a8859f87a70d0",
    "vecm_chain_n4_dummies": "cc8e65fec16e3f75929506f5ad9b2d45c2ba97becc71dd6f2ef411016e7f06f8",
    "unitroot_direct": "e67562c2bd18b36c66b9d2fc8f4242e83ae71d24329798f228c51c60be436993",
    "vecm_direct_n2": "bae7acbae4a4234096b2ee40b63ec650f664e8020e9d229f0832dc514f2bb4ee",
    "vecm_direct_n4_dummies": "60cac7d7ae7f1d486d231954e3df223a9e501e1e761df4bfdec7f533540bd774",
    "scalars_after_chain": "50bc3dc78c2f47c7a7e0e1313f446c7cf9565d5a3cc1f3c3728411cd3f12feab",
    "report_unitroot": "ee6086212a37693943bccac9b18fd4821e988a39bbd806c88830ef776aca9993",
    "report_rank_bridge": "c68fd2ba430165a40267a075c6ca050a86538e798c7a97c58be8cad6a7b0662b",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_hash(case):
    assert CASES[case]() == GOLDEN[case]


SCALES = (1e-3, 1.0, 1e3, 1e6)


@pytest.mark.parametrize("engine", ["unitroot", "vecm-finland-shape"])
def test_evalues_do_not_depend_on_the_data_units(engine):
    # Each e-value is a smooth function of a scale-free statistic (the ADF
    # t-ratio, the trace statistic), which rescaling moves by rounding only.
    if engine == "unitroot":
        y, spec = ar1_series(seed=8, n=129), ur.UnitRootSpec(p=4, include_trend=True)
        evs = [ur.test_unit_root(c * y, spec).evidence.ev for c in SCALES]
    else:
        y = weakly_cointegrated(seed=4, n=108, phi=0.8)
        spec = co.VecmSpec(n=4, p=2, n_seasonal_dummies=3)
        evs = [[h.evidence.ev for h in co.test_rank(c * y, spec).hypotheses] for c in SCALES]
    np.testing.assert_allclose(evs, [evs[1]] * len(SCALES), rtol=0.0, atol=1e-12)
