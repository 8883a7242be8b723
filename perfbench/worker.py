"""Closed-loop runner of ``evcoint.cli.main``, in a fresh process.

Usage: python3 worker.py JOB.json

The job names the source tree, the CLI arguments, the first sampler seed,
the measuring time and whether to trace.  One client makes one call at a
time, each with the next sampler seed, until the time is used up.  With
tracing, untraced and traced calls alternate (at least one of each), so
the tracing overhead is measured in the same process.  The result, with
every report text and, when traced, every span, goes to the job's output
file; the parent process checks the reports.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

#: Draws per batch of the batch-means error behind ev_se.
BATCH_DRAWS = 25


def _evidence_capture(modules):
    """Record the arguments of every estimate_evidence call of the engines,
    so the tangent-set stream can be re-batched after the call."""
    calls = []
    for mod in modules:
        fn = mod.estimate_evidence

        def wrapper(*args, _fn=fn, **kwargs):
            calls.append((args, kwargs))
            return _fn(*args, **kwargs)
        mod.estimate_evidence = wrapper
    return calls


def _ev_se(fbst, calls):
    """Largest batch-means error among rows with an interior e-value."""
    worst = 0.0
    for args, kwargs in calls:
        kept = len(args[1]) - kwargs.get("burn_in", 0)
        res = fbst.estimate_evidence(*args, **kwargs, n_batches=max(kept // BATCH_DRAWS, 2))
        if 0.0 < res.ev < 1.0:
            worst = max(worst, res.mc_se_batch)
    return worst


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from evcoint import cli, cointegration, fbst, unitroot
    from tracer import Tracer

    captured = _evidence_capture((unitroot, cointegration))
    tracer = Tracer() if job["trace"] else None
    calls = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(calls) % 2 == 1
        argv = job["argv"] + ["--seed", str(job["seed"] + len(calls))]
        captured.clear()
        out = io.StringIO()
        error = None
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                with tracer.op() if traced else contextlib.nullcontext():
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is one failed call; the loop goes on
                code, error = None, traceback.format_exc()
            run_s = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"argv": argv, "code": code, "text": out.getvalue(), "error": error,
                  "run_s": run_s, "traced": traced}
        if traced:
            record["run_s"] = tracer.ops[-1]["end"] - tracer.ops[-1]["start"]
            record["layers"] = tracer.metrics(len(tracer.ops) - 1)
        elif code == 0:
            record["ev_se"] = _ev_se(fbst, captured)
        calls.append(record)
        elapsed = time.perf_counter() - start
        if elapsed >= job["seconds"] and (tracer is None or len(calls) >= 2):
            break
    result = {"calls": calls, "peak_rss_mb": peak_rss_mb,
              "spans": tracer.spans if tracer else []}
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
