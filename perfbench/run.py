"""End-to-end benchmark of the evcoint CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload rank-finland --seed 1 --seconds 20 --trace 0

Set-up, outside the timed region: time ``import evcoint.cli`` in fresh
interpreters, write the workload's seeded CSV and compute the reference
values the reports are checked against.  Then a fresh worker process calls
``evcoint.cli.main`` in-process in a closed loop (one client, one call in
flight) for ``--seconds`` seconds, each call with the next sampler seed.
Every report is checked; a crash, a nonzero exit or a report that fails
the check counts as a failed call.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of the traced calls.  The spans of
a traced run are written to ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
#: Every run, set-up included, ends well inside three minutes.
RUN_DEADLINE_S = 170.0
#: e-value standard error that tts_s projects the run time to.
TARGET_SE = 0.001

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ev_se": "1",
    "tts_s": "s",
}

PER_LAYER = {
    "io.read_csv_s": "s", "io.cells": "count", "io.cells_per_s": "1/s",
    "linalg.ols_solve_calls": "count", "linalg.ols_solve_s": "s",
    "linalg.ols_cells": "count", "linalg.qr_r_factor_calls": "count",
    "linalg.as_spd_calls": "count", "linalg.as_spd_s": "s",
    "unitroot.build_design_s": "s", "unitroot.restricted_map_s": "s",
    "unitroot.gibbs_chain_s": "s", "unitroot.chain_log_posterior_s": "s",
    "unitroot.adf_statistic_s": "s", "unitroot.draws_per_s": "1/s",
    "unitroot.sampler_share": "ratio",
    "cointegration.build_vecm_design_s": "s", "cointegration.johansen_concentrate_s": "s",
    "cointegration.gibbs_chain_s": "s", "cointegration.chain_log_posterior_s": "s",
    "cointegration.log_posterior_s": "s", "cointegration.draws_per_s": "1/s",
    "cointegration.sampler_share": "ratio",
    "rng.normal_calls": "count", "rng.normals": "count", "rng.uniforms": "count",
    "rng.gamma_calls": "count", "rng.gamma_accept_ratio": "ratio",
    "rng.inverse_wishart_calls": "count", "rng.inverse_wishart_s": "s",
    "fbst.estimate_evidence_calls": "count", "fbst.estimate_evidence_s": "s",
    "fbst.ev_from_pvalue_calls": "count",
    "special.chi2_quantile_calls": "count", "special.chi2_quantile_s": "s",
    "report.unitroot_report_s": "s", "report.rank_report_s": "s",
    "report.render_s": "s", "report.bytes": "count",
    "cli.op_s": "s", "cli.self_s": "s", "trace_overhead_s": "s",
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment():
    """Machine record: figures from different machines are not comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": threads or "unset",
    }


def measure_setup():
    """Median seconds for a fresh interpreter to import evcoint.cli."""
    code = ("import time; t = time.perf_counter(); import evcoint.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_worker(job, deadline):
    """Run the closed loop in a fresh process; None if it died or timed out."""
    job_path = Path(job["out"]).with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                       env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None
    try:
        return json.loads(Path(job["out"]).read_text())
    except (OSError, ValueError):
        print("worker left no result", file=sys.stderr)
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(result, setup_s, trace):
    """Metrics of one run from the worker's call records."""
    calls = result["calls"] if result else []
    plain = [c for c in calls if not c["traced"]]
    run_s = _median([c["run_s"] for c in plain])
    if not trace:
        ses = [c["ev_se"] for c in plain if "ev_se" in c]
        ev_se = math.sqrt(statistics.fmean(s * s for s in ses)) if ses else 0.0
        return {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"] if result else 0.0,
            "ev_se": ev_se,
            "tts_s": run_s * (ev_se / TARGET_SE) ** 2,
        }
    traced = [c for c in calls if c["traced"]]
    out = {name: _median([c["layers"][name] for c in traced])
           for name in PER_LAYER if name != "trace_overhead_s"}
    out["trace_overhead_s"] = _median([c["run_s"] for c in traced]) - run_s
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evcoint" / "cli.py").is_file():
        print(f"no evcoint sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        t0 = time.perf_counter()
        setup_s = measure_setup()
        csv_path, sampler_seed, ref = workloads.prepare(args.workload, args.seed, Path(tmp))
        prep_s = time.perf_counter() - t0
        wl = workloads.WORKLOADS[args.workload]
        job = {
            "src": str(SRC),
            "argv": [wl.cli_args[0], str(csv_path), *wl.cli_args[1:]],
            "seed": sampler_seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out": str(Path(tmp) / "result.json"),
        }
        result = run_worker(job, deadline)

    calls = result["calls"] if result else []
    failed = 0
    for c in calls:
        problems = reference.check_report(c["code"], c["text"], ref)
        if c["error"]:
            problems.append(c["error"].strip().splitlines()[-1])
        if problems:
            failed += 1
            print(f"FAILED call {' '.join(c['argv'][2:])}: {'; '.join(problems)}",
                  file=sys.stderr)
    attempted = max(len(calls), 1)
    failed += attempted - len(calls)
    metrics = summarize(result, setup_s, args.trace)
    units = PER_LAYER if args.trace else END_TO_END

    plain = [c["run_s"] for c in calls if not c["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client: {len(calls)} calls in {args.seconds:g} s "
          f"(set-up and reference {prep_s:.2f} s)")
    if plain:
        print(f"run_s over {len(plain)} untraced calls: median {statistics.median(plain):.4f}"
              f"  min {min(plain):.4f}  max {max(plain):.4f}")
    print(f"fail_rate {failed / attempted:.4g} ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:16.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace and result:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"env": env, "spans": result["spans"],
                                          "layers": [c.get("layers") for c in calls]}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
