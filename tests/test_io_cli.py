import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_read_csv(path, columns=None, transform="none", delimiter=",",
                       skip_index_column=False):
    """The per-cell reader that ``read_csv`` must agree with: ``csv.reader``,
    the blank-row filter and one ``float()`` per cell, in row order."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    rows = [r for r in rows if "".join(r).strip()]
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    data_rows = rows[1:]
    if skip_index_column:
        header = header[1:]
        data_rows = [r[1:] for r in data_rows]
    indices = []
    for c in range(len(header)) if columns is None else columns:
        if isinstance(c, int) or (isinstance(c, str) and c.lstrip("-").isdigit()):
            if not 0 <= int(c) < len(header):
                raise MissingColumn(str(c))
            indices.append(int(c))
        elif c in header:
            indices.append(header.index(c))
        else:
            raise MissingColumn(c)
        if indices.count(indices[-1]) > 1:
            raise InputError(f"column {header[indices[-1]]!r} selected twice")
    out = np.empty((len(data_rows), len(indices)))
    for i, row in enumerate(data_rows):
        for j, idx in enumerate(indices):
            if idx >= len(row):
                raise ParseError(i + 2, idx + 1, "missing cell")
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(i + 2, idx + 1, f"not a number: {cell!r}") from None
            if not np.isfinite(value):
                raise ParseError(i + 2, idx + 1, f"non-finite value: {cell!r}")
            if transform == "log" and value <= 0:
                raise NonPositiveForLog(i + 2, idx + 1)
            out[i, j] = value
    return io.TimeSeriesMatrix(values=np.log(out) if transform == "log" else out,
                               column_names=tuple(header[idx] for idx in indices))


def outcome(read, path, **kwargs):
    """What a reader makes of a file: the exact bits of the values and the
    names, or the class, message and position of its error."""
    try:
        m = read(path, **kwargs)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return m.values.shape, m.values.tobytes(), m.column_names


# (id, file text, read_csv arguments, expected values or error class)
PARITY_CASES = [
    ("crlf", "x,y\r\n1,2\r\n3,4\r\n", {}, [[1, 2], [3, 4]]),
    ("lone-cr", "x,y\r1,2\r3,4\r", {}, [[1, 2], [3, 4]]),
    ("trailing-delimiter", "x,y\n1,2,\n3,4,\n", {}, [[1, 2], [3, 4]]),
    ("extra-cells", "x,y\n1,2,9,abc\n3,4,\n", {}, [[1, 2], [3, 4]]),
    ("whitespace-only-rows", "x,y\n1,2\n   \n\t\n \r\n3,4\n", {}, [[1, 2], [3, 4]]),
    ("delimiter-only-rows", "x,y\n1,2\n,\n , ,,\n3,4\n", {}, [[1, 2], [3, 4]]),
    ("blank-lines-before-header", "\n  \n,\nx,y\n1,2\n", {}, [[1, 2]]),
    ("blank-line-before-a-numeric-header", "\n1,2\n3,4\n", {}, [[3, 4]]),
    ("skip-index-of-a-single-column", "x\n1\n  \n2\n", {"skip_index_column": True},
     [[], []]),
    ("underscores", "x\n1_000\n2.5_5\n", {}, [[1000], [2.55]]),
    ("arabic-indic-digits", "x\n\u0661\u0662\n3\n", {}, [[12], [3]]),
    ("full-width-digits", "x\n\uff11.\uff15\n3\n", {}, [[1.5], [3]]),
    ("nbsp-padding", "x\n\xa01.5\xa0\n2\n", {}, [[1.5], [2]]),
    ("unit-separator-padding", "x\n1\x1f\n\x1c2\n", {}, [[1], [2]]),
    ("quoted-cells", 'x,y\n"1"," 2"\n3,"4"\n', {}, [[1, 2], [3, 4]]),
    ("quoted-header", '"x","y"\n1,2\n', {}, [[1, 2]]),
    ("quoted-delimiters-in-an-unselected-cell", 'note,x\n"a,1,b",5\n"c,2,d",6\n',
     {"columns": ["x"]}, [[5], [6]]),
    ("skip-index-quoted-date", 'date,x\n"2020,01",1.5\n"2020,02",2.5\n',
     {"skip_index_column": True}, [[1.5], [2.5]]),
    ("semicolon", "x;y\n1;2\n3;4\n", {"delimiter": ";"}, [[1, 2], [3, 4]]),
    ("space", "x y\n1 2\n3 4\n", {"delimiter": " "}, [[1, 2], [3, 4]]),
    ("tab", "x\ty\n1\t2\n3\t4\n", {"delimiter": "\t"}, [[1, 2], [3, 4]]),
    ("doubled-space-unselected", "x y\n1  2\n", {"delimiter": " ", "columns": ["x"]}, [[1]]),
    ("doubled-tab-unselected", "x\ty\n1\t\t2\n", {"delimiter": "\t", "columns": ["x"]}, [[1]]),
    ("byte-order-mark", "\ufeffx,y\n1,2\n", {}, [[1, 2]]),
    ("nan", "x\n1\nnan\n", {}, ParseError),
    ("inf", "x\n1\n-inf\n", {}, ParseError),
    ("overflow-to-inf", "x\n1\n1e400\n", {}, ParseError),
    ("hash", "x\n1#2\n", {}, ParseError),
    ("nul-byte", "x\n1\x002\n", {}, ParseError),
    ("quoted-word", 'x\n1\n"a"\n', {}, ParseError),
    ("quoted-line-break", 'x\n"1\n2"\n', {}, ParseError),
    ("doubled-space-selected", "x y\n1  2\n", {"delimiter": " "}, ParseError),
    ("doubled-tab-selected", "x\ty\n1\t\t2\n", {"delimiter": "\t"}, ParseError),
    ("short-row", "x,y\n1,2\n3\n", {}, ParseError),
    ("log-of-negative", "x\n1\n-2\n", {"transform": "log"}, NonPositiveForLog),
    ("header-only", "x,y\n", {}, InputError),
    ("header-and-blank-rows", "x,y\n\n , \n", {"columns": ["q"]}, InputError),
    ("empty", "", {}, InputError),
    ("unselected-field-over-csv-limit", "x,note\n1," + "a" * 200_000 + "\n",
     {"columns": ["x"]}, InputError),
    ("missing-column", "x\n1\n", {"columns": ["q"]}, MissingColumn),
    ("line-break-as-delimiter", "x,y\n1,2\n", {"delimiter": "\r"}, ParseError),
]


class TestReadCsvParity:
    """``read_csv`` accepts and rejects exactly what the per-cell reader
    did, with the same values to the bit and the same error messages."""

    @pytest.mark.parametrize("text, kwargs, expected",
                             [case[1:] for case in PARITY_CASES],
                             ids=[case[0] for case in PARITY_CASES])
    def test_edge_case(self, tmp_path, text, kwargs, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(io.read_csv, path, **kwargs)
        assert got == outcome(reference_read_csv, path, **kwargs)
        if isinstance(expected, list):
            assert got[1] == np.array(expected, dtype=float).tobytes()
        else:
            assert got[0] is expected

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_that_csv_refuses(self, tmp_path, delimiter):
        path = write_csv(tmp_path / "m.csv", ["x"], [[1]])
        with pytest.raises(TypeError, match='"delimiter" must be a 1-character string'):
            io.read_csv(path, delimiter=delimiter)

    ALPHABET = "0123456789.eE+-_nainfty \t\"\r\n,;\xa0\u0661\uff11#\x00\x1f"
    NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10**6, 10**6).map(str))
    PADDED = st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t", "\xa0"]), NUMBER,
                       st.sampled_from(["", " ", "\x1f"]))
    CELL = st.one_of(NUMBER, PADDED, NUMBER.map('"{}"'.format), st.text(ALPHABET, max_size=6))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_cell_reader(self, tmp_path_factory, data):
        # Half the files hold padded numbers only, as the fast path needs;
        # the rest mix in quotes, line breaks, junk and blank lines.
        clean = data.draw(st.booleans())
        delimiter = data.draw(st.sampled_from([",", ";", " ", "\t"]))
        width = data.draw(st.integers(1, 4))
        names = [f"c{j}" for j in range(width)]
        lines = [delimiter.join(n if clean else data.draw(st.sampled_from([n, f'"{n}"', f" {n}"]))
                                for n in names)]
        cell = st.one_of(self.NUMBER, self.PADDED) if clean else self.CELL
        for _ in range(data.draw(st.integers(0 if not clean else 1, 6))):
            cells = data.draw(st.lists(cell, min_size=width - (not clean), max_size=width + 1))
            lines.append(delimiter.join(cells))
        for _ in range(0 if clean else data.draw(st.integers(0, 2))):
            blank = data.draw(st.sampled_from(["", " ", delimiter, "\t" + delimiter]))
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = eol.join(lines) + data.draw(st.sampled_from(["", eol]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        kwargs = {
            "delimiter": delimiter,
            "columns": data.draw(st.one_of(st.none(), st.lists(
                st.one_of(st.sampled_from(names + ["zz"]), st.integers(-1, width),
                          st.integers(-1, width).map(str)), min_size=1, max_size=3))),
            "transform": data.draw(st.sampled_from(["none", "log"])),
            "skip_index_column": data.draw(st.booleans()),
        }
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes((bom + text).encode("utf-8"))
        assert outcome(io.read_csv, path, **kwargs) == outcome(reference_read_csv, path, **kwargs)


class TestReadCsvFastPath:
    """A clean file never reaches ``csv.reader``, so that a silent slide back
    to the per-cell walk fails here and not only in the benchmark."""

    @pytest.fixture
    def walk_calls(self, monkeypatch):
        calls = []
        reader = csv.reader

        def counting_reader(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(io.csv, "reader", counting_reader)
        return calls

    @pytest.mark.parametrize("kwargs", [
        {}, {"columns": ["y3", "1"], "transform": "log"}, {"skip_index_column": True},
    ], ids=["all", "selected-log", "skip-index"])
    def test_clean_file_skips_the_walk(self, tmp_path, walk_calls, kwargs):
        data = np.exp(random_walks(seed=5, n=400, dim=4, scale=0.1))
        path = tmp_path / "bench.csv"
        with open(path, "w") as fh:  # as the benchmark workloads write their inputs
            fh.write("y1,y2,y3,y4\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in data.tolist())
        want = outcome(reference_read_csv, path, **kwargs)
        walk_calls.clear()
        assert outcome(io.read_csv, path, **kwargs) == want
        assert walk_calls == []

    def test_quoted_cell_takes_the_walk(self, tmp_path, walk_calls):
        path = tmp_path / "quoted.csv"
        path.write_text('x,y\n1,"2"\n3,4\n')
        m = io.read_csv(path)
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])
        assert len(walk_calls) == 1


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

    def test_flags_do_not_leak_into_the_next_call(self, series_csv, capsys):
        # One parser serves every call of the process.
        _, first, _ = run_cli(["unitroot", series_csv, "-p", "2", "--trend"], capsys)
        _, second, _ = run_cli(["unitroot", series_csv, "-p", "2"], capsys)
        assert json.loads(first)["config"]["include_trend"] is True
        assert json.loads(second)["config"]["include_trend"] is False
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("flag, usage", [
        (["--no-such-flag"], "usage: evcoint "),
        (["--transform", "sqrt"], "usage: evcoint unitroot "),
    ], ids=["unknown-flag", "bad-choice"])
    def test_usage_error_prints_usage_and_exits_4(self, series_csv, capsys, flag, usage):
        for _ in range(2):
            code, out, err = run_cli(["unitroot", series_csv, *flag], capsys)
            assert code == 4 and out == ""
            assert err.startswith(usage) and "config error" in err and flag[-1] in err


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
