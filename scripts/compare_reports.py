"""Diff the CLI reports of two evcoint source trees on the benchmark workloads.

Usage (from the repository root):

    python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``evcoint`` package, such as the
``src`` of a checkout.  For every workload of ``perfbench/workloads.py`` the
script writes the CSV of workload seeds 1-3, runs the workload's CLI
arguments on each with sampler seeds 1-3 (``--seed``) under both trees, and
prints every report field that differs, ignoring ``wall_clock_s`` and the
input path.  It exits 0 when all reports agree and 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def report(src, argv):
    """The JSON report of one CLI run under the tree ``src``, without the
    wall-clock time and the input path."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-m", "evcoint.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()}
    out = json.loads(proc.stdout)
    del out["wall_clock_s"], out["config"]["input_path"]
    return out


def flatten(value, path=""):
    """{path: leaf} for every leaf of a JSON value."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path: value}
    return {k: v for sub, item in items for k, v in flatten(item, sub).items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = argv
    fields = Counter()
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in workloads.WORKLOADS.items():
            for wl_seed in SEEDS:
                csv_path, _, _ = workloads.prepare(name, wl_seed, Path(tmp))
                for seed in SEEDS:
                    args = [wl.cli_args[0], str(csv_path), *wl.cli_args[1:], "--seed", str(seed)]
                    old, new = (flatten(report(src, args)) for src in (parent_src, change_src))
                    total += 1
                    for key in sorted(old.keys() | new.keys()):
                        if old.get(key) != new.get(key):
                            fields[key] += 1
                            print(f"{name} workload seed {wl_seed} sampler seed {seed}: "
                                  f"{key}: {old.get(key)!r} -> {new.get(key)!r}")
    print(f"{total} report pairs; fields that differ (reports): "
          + (", ".join(f"{k} ({n})" for k, n in sorted(fields.items())) or "none"))
    return 1 if fields else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
