"""Tests of the benchmark itself: metric names, printed output, checker.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import contextlib
import io
import json
import re
import sys

import numpy as np
import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))
from evcoint import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    for wl in SPEC["workloads"]:
        assert NAME.fullmatch(wl["name"]) and wl["name"] in workloads.WORKLOADS


def test_benchmark_json_matches_the_printed_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "rank-eeg-screen", "--seed", "3",
                         "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    for name, unit in table.items():
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines), name
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["linalg.ols_solve_calls"] == 7
        assert layers["special.chi2_quantile_calls"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _report(name, tmp_path, n_draws):
    path, seed, ref = workloads.prepare(name, 5, tmp_path)
    wl = workloads.WORKLOADS[name]
    argv = [wl.cli_args[0], str(path), *wl.cli_args[1:], "--seed", str(seed),
            "--n-draws", str(n_draws), "--burn-in", "500"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue()), ref


def _problems(rep, ref):
    return reference.check_report(0, json.dumps(rep), ref)


@pytest.fixture(scope="module")
def unitroot_report(tmp_path_factory):
    return _report("ur-nelson-plosser", tmp_path_factory.mktemp("ur"), 8000)


@pytest.fixture(scope="module")
def rank_report(tmp_path_factory):
    return _report("rank-finland", tmp_path_factory.mktemp("fin"), 4000)


def test_checker_accepts_genuine_reports(unitroot_report, rank_report):
    assert _problems(*unitroot_report) == []
    assert _problems(*rank_report) == []
    assert reference.check_report(2, "", rank_report[1]) == ["exit code 2"]
    assert reference.check_report(0, "{not json", rank_report[1])


def _corrupt(report, edit):
    rep = json.loads(json.dumps(report[0]))
    edit(rep)
    return _problems(rep, report[1])


def test_checker_rejects_corrupted_unitroot_reports(unitroot_report):
    def flip_ev(rep):
        rep["rows"][0]["ev"] = 1.0 - rep["rows"][0]["ev"]

    def nudge_adf(rep):
        rep["rows"][0]["adf_stat"] *= 1.0 + 1e-4

    def flip_p(rep):
        rep["rows"][0]["p_nonstationary"] = 1.0 - rep["rows"][0]["p_nonstationary"]

    for edit in (flip_ev, nudge_adf, flip_p):
        assert _corrupt(unitroot_report, edit), edit.__name__


def test_checker_rejects_corrupted_rank_reports(rank_report):
    def flip_ev(rep):
        rep["rows"][0]["ev"] = 1.0 - rep["rows"][0]["ev"]

    def perturb_eigenvalue(rep):
        rep["eigenvalues"][1] *= 1.0 + 1e-4

    def non_monotone(rep):
        rep["rows"][2]["ev"] = rep["rows"][1]["ev"] / 2.0

    def ev_out_of_range(rep):
        rep["rows"][3]["ev"] = 1.5

    def wrong_selection(rep):
        rep["selected_rank"] += 1

    def not_one_at_full_rank(rep):
        rep["rows"][-1]["ev"] = 0.999

    def nudge_max_eig(rep):
        rep["rows"][0]["max_eig_stat"] *= 1.0 + 1e-4

    def nudge_threshold(rep):
        rep["rows"][1]["threshold"] *= 1.0 - 1e-4

    for edit in (flip_ev, perturb_eigenvalue, non_monotone, ev_out_of_range,
                 wrong_selection, not_one_at_full_rank, nudge_max_eig, nudge_threshold):
        assert _corrupt(rank_report, edit), edit.__name__


def test_calibrated_rows_are_interior_for_every_workload(tmp_path):
    for name, row in (("ur-nelson-plosser", 0), ("rank-finland", 0), ("rank-eeg-screen", 1)):
        _, _, ref = workloads.prepare(name, 7, tmp_path)
        ev = ref["ev"] if name.startswith("ur") else ref["ev"][row]
        target = workloads.UNITROOT_EV_TARGET if name.startswith("ur") \
            else workloads.RANK_EV_TARGET
        assert abs(ev - target) < 0.01, (name, ev)


def test_inputs_follow_from_the_seed(tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a = workloads.prepare("rank-finland", 11, dirs[0])
    b = workloads.prepare("rank-finland", 11, dirs[1])
    c = workloads.prepare("rank-finland", 12, dirs[2])
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1:] == b[1:]
    assert not np.array_equal(np.loadtxt(a[0], delimiter=",", skiprows=1),
                              np.loadtxt(c[0], delimiter=",", skiprows=1))
