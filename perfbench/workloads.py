"""Seeded, paper-shaped inputs for the three benchmark workloads.

Each workload writes one CSV from a workload seed and returns the CLI
arguments that test it, the sampler seed of every call and the reference
values the checker compares reports against.

The series are random walks with a known cointegration structure.  One
parameter of each generator is solved for, on the drawn innovations, so
that one row of every report has an interior e-value at a fixed target:
the ADF t-ratio for the unit root, the error-correction strength for the
rank tests.  The e-value of that row is a
function of the t-ratio (or of the trace gap) and the sizes alone, so it,
and the Monte Carlo error the benchmark reports, stay the same from seed
to seed while the series themselves differ.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize, signal

import reference

#: Target e-value of the calibrated row.  The rank target sits near the
#: interior e-values published for the Finnish (rank 0: 0.132) and EEG
#: (rank 1: 0.069, 0.114) data; the unit-root target keeps P(g0 >= 0 | y)
#: away from zero.
UNITROOT_EV_TARGET = 0.3
RANK_EV_TARGET = 0.15

#: Rao-Blackwellized draws used while solving for the generator parameter.
CALIBRATION_DRAWS = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli_args: tuple          # after the input path; the sampler seed is appended per call
    make: Callable           # (rng) -> (observations x series) array
    reference: Callable      # (data, rng) -> dict for reference.check_report


def _ar2_paths(innov, decay, gamma):
    """w_t = (1 - decay + gamma) w_{t-1} - gamma w_{t-2} + innov_t per column,
    i.e. dw_t = -decay w_{t-1} + gamma dw_{t-1} + innov_t from zero."""
    out = np.empty_like(innov)
    for j, c in enumerate(decay):
        out[:, j] = signal.lfilter([1.0], [1.0, -(1.0 - c + gamma), gamma], innov[:, j])
    return out


# ---------------------------------------------------------------- unit root

UR_OBS, UR_P = 129, 4


def _unitroot_series(rng):
    """log-GNP-like series: level + drift + an AR(2) deviation whose root is
    solved for so that the ADF t-ratio (with trend, p = 4) hits the value at
    which the exact e-value equals UNITROOT_EV_TARGET."""
    e = 0.05 * rng.standard_normal(UR_OBS)
    trend = 4.5 + 0.02 * np.arange(UR_OBS)
    t_eff, k = UR_OBS - UR_P, UR_P + 2
    t_target = optimize.brentq(
        lambda t: reference.unitroot_ev(t, t_eff, k) - UNITROOT_EV_TARGET, -20.0, 0.0,
        xtol=1e-10)

    def series(theta):
        return trend + _ar2_paths(e[:, None], [-theta], 0.3)[:, 0]

    theta = optimize.brentq(
        lambda th: reference.adf_fit(series(th), UR_P, True)[0] - t_target, -0.8, 0.1,
        xtol=1e-12)
    return series(theta)[:, None]


# ---------------------------------------------------------------- VECM rank

def _vecm_maker(n_obs, p, n_dummies, row, decays, strength_max, gamma, drift, scale):
    """n = 4 series with two cointegrating relations whose error-correction
    decays are ``strength * decays``; the strength is solved for so that the
    e-value of rank ``row`` equals RANK_EV_TARGET.  The relations live along
    two orthonormal directions of a seeded rotation; the other two
    directions are random walks with drift.
    """
    n = 4

    def make(rng):
        rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
        corr = 0.6 * np.eye(n) + 0.4
        e = rng.standard_normal((n_obs, n)) @ np.linalg.cholesky(corr).T * scale
        season = rng.normal(0.0, 2.0 * scale, (4, n)) if n_dummies else np.zeros((4, n))
        innov = (e + drift + season[np.arange(n_obs) % 4]) @ rot
        rb = None

        def series(strength):
            w = _ar2_paths(innov, [strength * decays[0], strength * decays[1], 0.0, 0.0], gamma)
            return 5.0 + w @ rot.T

        def excess_ev(strength):
            nonlocal rb
            lam, t_eff, k = reference.johansen(series(strength), p, n_dummies)
            if rb is None:
                rb = reference.RankEvidence(t_eff, n, k, CALIBRATION_DRAWS, rng)
            return rb.ev(reference.trace_gaps(lam)[row])[0] - RANK_EV_TARGET

        return series(optimize.brentq(excess_ev, 0.0, strength_max, xtol=1e-12))

    return make


def _unitroot_reference(data, rng):
    return reference.unitroot_reference(data[:, 0], UR_P, True)


def _rank_reference(p, n_dummies, policy):
    def ref(data, rng):
        return reference.rank_reference(data, p, n_dummies, 4, policy, rng)
    return ref


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ur-nelson-plosser",
            why="scalar per-draw sampler path: unitroot.gibbs_chain is nearly all of "
                "a 51k-draw run; io, linalg, cointegration and special stay idle",
            cli_args=("unitroot", "-p", str(UR_P), "--trend"),
            make=_unitroot_series,
            reference=_unitroot_reference,
        ),
        Workload(
            name="rank-finland",
            why="default-accuracy rank test (n=4, T=106, p=2, 3 dummies, bridge "
                "thresholds): matrix Gibbs loop and chain_log_posterior dominate",
            cli_args=("coint", "-p", "2", "--dummies", "3", "--dummy-period", "4",
                      "--threshold-policy", "bridge:p=0.01"),
            make=_vecm_maker(106, 2, 3, row=0, decays=(1.0, 0.6), strength_max=1.5, gamma=0.2,
                             drift=0.005, scale=0.01),
            reference=_rank_reference(2, 3, "bridge:p=0.01"),
        ),
        Workload(
            name="rank-eeg-screen",
            why="long series (T=10,496, 780 KB CSV), 2k draws, fixed threshold: "
                "CSV ingest and T-sized fits become visible; special is bypassed",
            cli_args=("coint", "-p", "1", "--threshold-policy", "fixed:0.05",
                      "--n-draws", "2000", "--burn-in", "500"),
            make=_vecm_maker(10_496, 1, 0, row=1, decays=(1.0, 0.15), strength_max=0.1, gamma=0.0,
                             drift=0.245, scale=0.05),
            reference=_rank_reference(1, 0, "fixed:0.05"),
        ),
    )
}


def prepare(name, seed, workdir):
    """Write the workload's CSV under ``workdir``; return (path, sampler seed
    base, reference).  Everything follows from (name, seed)."""
    wl = WORKLOADS[name]
    ss = np.random.SeedSequence([seed, list(WORKLOADS).index(name)])
    data_seq, sampler_seq, ref_seq = ss.spawn(3)
    data = wl.make(np.random.default_rng(data_seq))
    path = workdir / f"{name}-{seed}.csv"
    header = ",".join(f"y{j + 1}" for j in range(data.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in data.tolist())
    # The reference reads the file back with numpy, not with evcoint.io.
    parsed = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ref = wl.reference(parsed, np.random.default_rng(ref_seq))
    return path, int(sampler_seq.generate_state(1)[0]), ref
