import json

import numpy as np
import pytest

from conftest import ar1_series, cointegrated_pair, random_walks
from evcoint import cli, cointegration, io, unitroot
from evcoint.errors import (
    ConfigError,
    InputError,
    MissingColumn,
    NonPositiveForLog,
    ParseError,
)
from evcoint.report import RunConfig, render


def write_csv(path, header, rows, delimiter=","):
    lines = [delimiter.join(header)]
    lines += [delimiter.join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def series_csv(tmp_path):
    y = ar1_series(seed=41, n=60)
    return write_csv(tmp_path / "series.csv", ["y"], [[v] for v in y])


@pytest.fixture
def pair_csv(tmp_path):
    data = cointegrated_pair(seed=42, n=120)
    return write_csv(tmp_path / "pair.csv", ["a", "b"], data.tolist())


class TestReadCsv:
    def test_small_matrix(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x", "y"], [[1, 2], [3, 4], [5, 6]])
        m = io.read_csv(path)
        assert m.values.shape == (3, 2)
        assert m.column_names == ("x", "y")
        np.testing.assert_allclose(m.values, [[1, 2], [3, 4], [5, 6]])

    def test_na_cell_reports_position(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1], ["NA"], [3]])
        with pytest.raises(ParseError) as exc:
            io.read_csv(path)
        assert "row 3" in str(exc.value)

    def test_log_of_zero(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1], [0], [3]])
        with pytest.raises(NonPositiveForLog):
            io.read_csv(path, transform="log")

    def test_log_transform_applies(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1], [np.e], [np.e ** 2]])
        m = io.read_csv(path, transform="log")
        np.testing.assert_allclose(m.values.ravel(), [0, 1, 2], atol=1e-12)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        (tmp_path / "m.csv").write_bytes("y,x\n1,2\n3,4\n".encode("utf-8-sig"))
        m = io.read_csv(tmp_path / "m.csv", columns=["y"])
        assert m.column_names == ("y",)
        np.testing.assert_array_equal(m.values.ravel(), [1, 3])

    def test_blank_rows_are_dropped(self, tmp_path):
        # Rows of spaces, of empty cells and of bare delimiters are blank;
        # a single non-blank cell keeps its row.
        (tmp_path / "m.csv").write_text("x,y\n1,2\n   \n\n,\n , \n,,,\n,5\n3,4\n")
        m = io.read_csv(tmp_path / "m.csv", columns=["y"])
        np.testing.assert_array_equal(m.values.ravel(), [2, 5, 4])

    def test_column_selection_by_name_and_index(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x", "y", "z"], [[1, 2, 3], [4, 5, 6]])
        by_name = io.read_csv(path, columns=["z", "x"])
        np.testing.assert_allclose(by_name.values, [[3, 1], [6, 4]])
        by_index = io.read_csv(path, columns=["2", "0"])
        np.testing.assert_allclose(by_index.values, by_name.values)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1]])
        with pytest.raises(MissingColumn):
            io.read_csv(path, columns=["q"])
        with pytest.raises(MissingColumn):
            io.read_csv(path, columns=["5"])

    @pytest.mark.parametrize("columns", [["y", "y"], ["y", "1"]])
    def test_column_selected_twice(self, tmp_path, columns):
        path = write_csv(tmp_path / "m.csv", ["x", "y"], [[1, 2], [3, 4]])
        with pytest.raises(InputError, match="'y' selected twice"):
            io.read_csv(path, columns=columns)

    def test_skip_index_column(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["year", "x"], [[1900, 1.5], [1901, 2.5]])
        m = io.read_csv(path, skip_index_column=True)
        assert m.column_names == ("x",)
        np.testing.assert_allclose(m.values.ravel(), [1.5, 2.5])

    def test_alternate_delimiters(self, tmp_path):
        semi = write_csv(tmp_path / "s.csv", ["a", "b"], [[1, 2]], delimiter=";")
        np.testing.assert_allclose(io.read_csv(semi, delimiter=";").values, [[1, 2]])
        tab = write_csv(tmp_path / "t.csv", ["a", "b"], [[3, 4]], delimiter="\t")
        np.testing.assert_allclose(io.read_csv(tab, delimiter="\t").values, [[3, 4]])

    def test_missing_cell(self, tmp_path):
        (tmp_path / "m.csv").write_text("x,y\n1,2\n3\n")
        with pytest.raises(ParseError):
            io.read_csv(tmp_path / "m.csv")

    @pytest.mark.parametrize("transform", ["none", "log"])
    def test_values_match_the_per_cell_reading(self, tmp_path, transform):
        cells = [[" 1.5", "2e-3 ", "7"], ["0.1", "+3.25", "1e300"], ["12", " 4 ", "0.333"]]
        path = write_csv(tmp_path / "m.csv", ["a", "b", "c"], cells)
        want = np.array([[float(c.strip()) for c in row] for row in cells])
        if transform == "log":
            want = np.array([[np.log(v) for v in row] for row in want.tolist()])
        got = io.read_csv(path, columns=["c", "a"], transform=transform).values
        np.testing.assert_array_equal(got, want[:, [2, 0]])

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        (tmp_path / "m.csv").write_text("x,y\n1,2\n3,-1\n4\nNA,5\n")
        for transform, error, where in (("none", ParseError, (4, 2)),
                                        ("log", NonPositiveForLog, (3, 2))):
            with pytest.raises(error) as exc:
                io.read_csv(tmp_path / "m.csv", transform=transform)
            assert (exc.value.row, exc.value.col) == where

    def test_missing_file_and_header_only(self, tmp_path):
        with pytest.raises(InputError):
            io.read_csv(tmp_path / "absent.csv")
        (tmp_path / "h.csv").write_text("x,y\n")
        with pytest.raises(InputError):
            io.read_csv(tmp_path / "h.csv")

    def test_bad_transform(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1]])
        with pytest.raises(InputError):
            io.read_csv(path, transform="sqrt")


class TestRunConfig:
    def test_validation(self):
        RunConfig(input_path="x.csv", engine="unitroot").validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="other").validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="unitroot", n_draws=100,
                      burn_in=100).validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="coint",
                      output_format="xml").validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="coint",
                      dimension_convention="other").validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="unitroot", p=0).validate()
        for policy in ("bogus", "bridge:0.01", "bridge:p=2", "bridge:p=1e-17", "fixed:x",
                       "fixed:-0.1"):
            with pytest.raises(ConfigError):
                RunConfig(input_path="x.csv", engine="coint",
                          threshold_policy=policy).validate()
        RunConfig(input_path="x.csv", engine="coint", threshold_policy="fixed:0.05").validate()
        for delimiter in ("", ";;", "ab"):
            with pytest.raises(ConfigError):
                RunConfig(input_path="x.csv", engine="coint", delimiter=delimiter).validate()
        RunConfig(input_path="x.csv", engine="coint", delimiter="\t").validate()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", engine="unitroot", seed=-1).validate()

    def test_render_formats(self):
        report = {"rows": [{"ev": 0.123456789, "rejected": False}]}
        csv_text = render(report, "csv")
        assert csv_text == "ev,rejected\n0.123457,False\n"
        md_text = render(report, "markdown")
        assert md_text.startswith("| ev | rejected |")
        with pytest.raises(ConfigError):
            render(report, "xml")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_clock(text):
    report = json.loads(text)
    report.pop("wall_clock_s", None)
    return json.dumps(report, indent=2, sort_keys=True)


class TestCliUnitroot:
    ARGS = ["--n-draws", "3000", "--burn-in", "300", "--seed", "5"]

    def test_success_and_schema(self, series_csv, capsys):
        code, out, err = run_cli(["unitroot", series_csv, "-p", "2"] + self.ARGS, capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["schema"] == "evcoint/6"
        assert report["engine"] == "unitroot"
        assert "evidence" not in report
        row = report["rows"][0]
        assert 0.0 <= row["ev"] <= 1.0
        assert row["log_s_star"] < 0.0
        assert report["config"]["seed"] == 5

    def test_draw_flags_change_no_value(self, series_csv, capsys):
        # --seed, --n-draws and --burn-in are validated and echoed only.
        args = ["unitroot", series_csv, "-p", "2"]
        _, plain, _ = run_cli(args, capsys)
        _, flagged, _ = run_cli(args + self.ARGS, capsys)
        assert json.loads(flagged)["rows"] == json.loads(plain)["rows"]
        assert json.loads(flagged)["config"]["n_draws"] == 3000

    def test_byte_identical_rerun(self, series_csv, capsys):
        args = ["unitroot", series_csv, "-p", "1"] + self.ARGS
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert strip_clock(first) == strip_clock(second)

    def test_config_echo_reproduces_run(self, series_csv, capsys):
        _, out, _ = run_cli(["unitroot", series_csv, "-p", "2", "--trend"] + self.ARGS,
                            capsys)
        report = json.loads(out)
        echoed = RunConfig(**report["config"])
        replay = cli.run(echoed)
        assert replay["rows"] == report["rows"]

    def test_format_choice_preserves_numbers(self, series_csv, capsys):
        base = ["unitroot", series_csv, "-p", "1"] + self.ARGS
        _, json_out, _ = run_cli(base, capsys)
        _, csv_out, _ = run_cli(base + ["--format", "csv"], capsys)
        row = json.loads(json_out)["rows"][0]
        header, data = csv_out.strip().splitlines()
        rendered = dict(zip(header.split(","), data.split(",")))
        assert rendered["ev"] == f"{row['ev']:.6g}"
        assert rendered["adf_stat"] == f"{row['adf_stat']:.6g}"

    def test_output_file(self, series_csv, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["unitroot", series_csv, "--output", str(target)] + self.ARGS, capsys
        )
        assert code == 0
        assert target.read_text() == out

    def test_seed_defaults_to_0(self, series_csv, capsys, monkeypatch):
        # The environment does not set the seed.
        monkeypatch.setenv("EVCOINT_SEED", "99")
        _, out, _ = run_cli(["unitroot", series_csv, "--n-draws", "2000",
                             "--burn-in", "200"], capsys)
        assert json.loads(out)["config"]["seed"] == 0

    def test_exit_2_on_input_errors(self, tmp_path, capsys):
        code, _, err = run_cli(["unitroot", str(tmp_path / "none.csv")], capsys)
        assert code == 2 and "input error" in err
        bad = tmp_path / "bad.csv"
        bad.write_text("y\n1\nNA\n" + "\n".join("1" for _ in range(20)) + "\n")
        code, _, err = run_cli(["unitroot", str(bad)] + self.ARGS, capsys)
        assert code == 2

    @pytest.mark.parametrize("make_input", [
        lambda tmp: tmp,
        lambda tmp: tmp / "latin1.csv",
        lambda tmp: tmp / "long_cell.csv",
    ], ids=["directory", "not-utf8", "cell-over-field-limit"])
    def test_exit_2_on_unreadable_input(self, tmp_path, capsys, make_input):
        (tmp_path / "latin1.csv").write_bytes("y\n1\n\xe9\n".encode("latin-1"))
        (tmp_path / "long_cell.csv").write_text("y\n1\n" + "1" * 200_000 + "\n")
        path = str(make_input(tmp_path))
        code, out, err = run_cli(["unitroot", path] + self.ARGS, capsys)
        assert code == 2 and "input error" in err and path in err and out == ""

    def test_exit_3_on_numeric_failure(self, tmp_path, capsys):
        # A perfect linear trend makes the restricted regression degenerate.
        path = write_csv(tmp_path / "line.csv", ["y"], [[float(i)] for i in range(30)])
        code, _, err = run_cli(["unitroot", path] + self.ARGS, capsys)
        assert code == 3 and "numeric failure" in err

    def test_exit_3_on_a_perfect_full_fit(self, tmp_path, capsys, monkeypatch):
        # dy_t = 0.05 y_{t-1} for y_t = 1.05^t: the full regression fits
        # exactly, the restricted one does not.
        _forbid(monkeypatch, ["base_cdf"], "evidence computed on a degenerate fit")
        path = write_csv(tmp_path / "geometric.csv", ["y"], [[1.05 ** i] for i in range(30)])
        code, out, err = run_cli(["unitroot", path] + self.ARGS, capsys)
        assert code == 3 and "numeric failure" in err and out == ""

    def test_exit_4_on_config_error(self, pair_csv, capsys):
        code, _, err = run_cli(["unitroot", pair_csv] + self.ARGS, capsys)
        assert code == 4 and "config error" in err


class TestCliCoint:
    ARGS = ["--n-draws", "3000", "--burn-in", "300", "--seed", "5"]

    def test_success_and_rows(self, pair_csv, capsys):
        code, out, err = run_cli(["coint", pair_csv, "-p", "1"] + self.ARGS, capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["engine"] == "coint"
        assert len(report["rows"]) == 3
        assert report["rows"][-1]["ev"] == 1.0
        assert report["selected_rank"] in (0, 1, 2)
        assert len(report["eigenvalues"]) == 2
        lam = np.array(report["eigenvalues"])
        t = 120 - 1
        for r, row in enumerate(report["rows"][:2]):
            assert row["trace_stat"] == pytest.approx(-t * np.log(1.0 - lam[r:]).sum(),
                                                      rel=1e-12)
        assert report["rows"][1]["trace_stat"] == report["rows"][1]["max_eig_stat"]
        assert report["rows"][2]["trace_stat"] is None

    def test_byte_identical_rerun(self, pair_csv, capsys):
        args = ["coint", pair_csv, "-p", "2", "--threshold-policy", "fixed:0.05"] + self.ARGS
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert strip_clock(first) == strip_clock(second)

    def test_config_echo_reproduces_run(self, pair_csv, capsys):
        _, out, _ = run_cli(
            ["coint", pair_csv, "-p", "1", "--dummies", "1"] + self.ARGS, capsys
        )
        report = json.loads(out)
        replay = cli.run(RunConfig(**report["config"]))
        assert replay["rows"] == report["rows"]
        assert replay["eigenvalues"] == report["eigenvalues"]

    @pytest.mark.parametrize("args", [
        ["-p", "0"],
        ["--dummies", "5", "--dummy-period", "4"],
        ["--threshold-policy", "bogus"],
        ["--threshold-policy", "bridge:p=2"],
        ["--threshold-policy", "bridge:p=1e-17"],
        ["--delimiter", ""],
        ["--delimiter", ";;"],
        ["--seed", "-1"],
        ["--stream", "1"],
        ["--centered-dummies"],
        ["--output", ""],
        ["--output", "{tmp}/missing/report.json"],
        ["--output", "{tmp}"],
        ["--output", "{tmp}/" + "a" * 300],
        ["--no-such-flag"],
        ["--dimension-convention", "foo"],
        ["--n-draws", "abc"],
    ], ids=["p0", "dummies-ge-period", "policy-bogus", "bridge-p2", "bridge-p-tiny",
            "delimiter-empty", "delimiter-two-chars", "seed-negative", "stream-flag",
            "centered-dummies-flag", "output-empty", "output-dir-missing",
            "output-is-directory", "output-name-too-long", "unknown-flag",
            "convention-choice", "n-draws-not-int"])
    def test_exit_4_on_config_error(self, pair_csv, tmp_path, capsys, monkeypatch, args):
        def no_evidence(*_, **__):
            raise AssertionError("evidence computed before the configuration was checked")

        monkeypatch.setattr(cointegration, "base_cdf", no_evidence)
        argv = ["coint", pair_csv, "--n-draws", "3000", "--burn-in", "300", "--seed", "5"]
        argv += [a.format(tmp=tmp_path) for a in args]
        code, out, err = run_cli(argv, capsys)
        assert code == 4 and "config error" in err and out == ""
        assert not (tmp_path / "missing").exists()
        if "--output" in args:
            assert repr(argv[-1]) in err
        if args[0] in ("--stream", "--centered-dummies", "--no-such-flag"):
            assert args[0] in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.csv"]

    @pytest.mark.parametrize("existing", [None, "an earlier report\n"])
    def test_failed_run_leaves_the_output_file_as_it_was(self, pair_csv, tmp_path, capsys,
                                                          existing):
        target = tmp_path / "report.json"
        if existing is not None:
            target.write_text(existing)
        code, _, _ = run_cli(["coint", pair_csv, "-p", "0", "--output", str(target)] + self.ARGS,
                             capsys)
        assert code == 4
        assert (target.read_text() if target.exists() else None) == existing

    @pytest.mark.parametrize("engine, columns", [
        ("coint", ["a", "a"]), ("coint", ["a", "0"]), ("unitroot", ["a", "a"]),
    ])
    def test_exit_2_on_a_column_selected_twice(self, pair_csv, capsys, monkeypatch, engine,
                                               columns):
        def no_fit(*_, **__):
            raise AssertionError("a fit started")

        monkeypatch.setattr(unitroot, "build_design", no_fit)
        monkeypatch.setattr(cointegration, "build_vecm_design", no_fit)
        code, out, err = run_cli([engine, pair_csv, "--columns", *columns] + self.ARGS, capsys)
        assert code == 2 and "input error" in err and "'a'" in err and out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["coint", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_markdown_rendering(self, pair_csv, capsys):
        code, out, _ = run_cli(
            ["coint", pair_csv, "--format", "markdown"] + self.ARGS, capsys
        )
        assert code == 0
        assert out.startswith("| hypothesis |")
        assert "rank = 0" in out


def _forbid(monkeypatch, names, message):
    def forbidden(*_, **__):
        raise AssertionError(message)

    for module in (unitroot, cointegration):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)


def test_cli_runs_no_gibbs_chain(series_csv, pair_csv, capsys, monkeypatch):
    # No CLI run draws a random number: neither a Gibbs chain nor the direct
    # sampler, nor the Monte Carlo estimate from a stream.
    _forbid(monkeypatch, ["gibbs_chain", "chain_log_posterior", "direct_draws", "draw_base",
                          "estimate_evidence"], "the CLI sampled")
    for argv in (["unitroot", series_csv, "-p", "2"], ["coint", pair_csv, "-p", "1"]):
        code, out, err = run_cli(argv + ["--n-draws", "3000", "--burn-in", "300"], capsys)
        assert code == 0, err
        assert json.loads(out)["rows"]


def test_cli_unit_root_without_regressors_but_the_level(series_csv, capsys):
    code, out, err = run_cli(["unitroot", series_csv, "-p", "1", "--no-intercept",
                              "--n-draws", "3000", "--burn-in", "300"], capsys)
    assert code == 0, err
    assert 0.0 <= json.loads(out)["rows"][0]["ev"] <= 1.0


@pytest.mark.parametrize("command, n_obs, dim, args", [
    ("unitroot", 18, 1, ["-p", "8", "--trend"]),
    ("coint", 29, 2, ["-p", "8", "--dummies", "3"]),
], ids=["unitroot-T-equals-k", "coint-T-minus-k-below-n"])
def test_exit_2_on_too_few_observations_for_the_regressors(tmp_path, capsys, monkeypatch,
                                                            command, n_obs, dim, args):
    _forbid(monkeypatch, ["base_cdf"],
            "evidence computed on a series too short for its regressors")
    data = random_walks(seed=9, n=n_obs, dim=dim)
    path = write_csv(tmp_path / "short.csv", [f"y{j}" for j in range(dim)], data.tolist())
    code, out, err = run_cli([command, path, *args, "--seed", "5"], capsys)
    assert code == 2 and "input error" in err and out == ""
