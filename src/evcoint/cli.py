"""Command-line surface: ``evcoint unitroot`` and ``evcoint coint``.

Flags mirror ``RunConfig`` one-to-one.  Exit codes: 0 success, 2 input
error, 3 numeric failure, 4 configuration error, usage errors included.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import cointegration, io, unitroot
from .errors import ConfigError, InputError, NumericError
from .fbst import CONVENTIONS
from .report import RunConfig, rank_report, render, unitroot_report


def run(config):
    """Execute one configured run and return the report dictionary."""
    config.validate()
    data = io.read_csv(
        config.input_path,
        columns=config.columns,
        transform=config.transform,
        delimiter=config.delimiter,
        skip_index_column=config.skip_index_column,
    )
    start = time.perf_counter()
    if config.engine == "unitroot":
        if data.n_series != 1:
            raise ConfigError(f"unit-root engine needs exactly one column, got {data.n_series}")
        spec = _spec(
            unitroot.UnitRootSpec,
            p=config.p,
            include_trend=config.include_trend,
            include_intercept=config.include_intercept,
        )
        result = unitroot.test_unit_root(data.values[:, 0], spec)
        return unitroot_report(config, result, time.perf_counter() - start)
    spec = _spec(
        cointegration.VecmSpec,
        n=data.n_series,
        p=config.p,
        include_constant=config.include_constant,
        n_seasonal_dummies=config.n_seasonal_dummies,
        dummy_period=config.dummy_period,
        start_period_index=config.start_period_index,
    )
    result = cointegration.test_rank(
        data.values, spec,
        threshold_policy=config.threshold_policy,
        dimension_convention=config.dimension_convention,
    )
    return rank_report(config, result, time.perf_counter() - start)


def _spec(cls, **fields):
    """Build an engine spec; its validation errors are configuration errors."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _delimiter(text):
    return "\t" if text in ("\\t", "tab") else text


def _add_common(parser):
    parser.add_argument("input_path", metavar="input", help="path to the input CSV file")
    parser.add_argument("--columns", nargs="+",
                        help="column names or zero-based indices to use")
    parser.add_argument("--transform", choices=["none", "log"])
    parser.add_argument("--delimiter", type=_delimiter,
                        help="field delimiter (',', ';' or tab)")
    parser.add_argument("--skip-index-column", action="store_true",
                        help="ignore a leading time-index column")
    inert = "; validated and echoed, changes no value (e-values are integrals)"
    parser.add_argument("--n-draws", type=int, help="draws of earlier versions" + inert)
    parser.add_argument("--burn-in", type=int, help="burn-in of earlier versions" + inert)
    parser.add_argument("--seed", type=int, help="seed of earlier versions (>= 0)" + inert)
    parser.add_argument("--format", choices=["json", "csv", "markdown"], dest="output_format")
    parser.add_argument("--output", help="also write the report to this file")


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown flag, bad choice, non-integer count) is a
    configuration error: it exits 4 through ``main``, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """Every dest is a ``RunConfig`` field; a flag left out stays out of the
    namespace, so ``RunConfig`` supplies its default.  Built once per
    process and shared, so callers must not change it; each ``parse_args``
    fills a fresh namespace."""
    parser = _Parser(
        prog="evcoint",
        description="FBST e-values for unit-root and cointegration-rank hypotheses",
    )
    sub = parser.add_subparsers(dest="engine", required=True)

    ur = sub.add_parser("unitroot", help="unit-root test on a single series",
                        argument_default=argparse.SUPPRESS)
    _add_common(ur)
    ur.add_argument("-p", "--lags", type=int, dest="p", help="autoregressive lag order p")
    ur.add_argument("--trend", action="store_true", dest="include_trend",
                    help="include a deterministic linear trend")
    ur.add_argument("--no-intercept", action="store_false", dest="include_intercept")

    co = sub.add_parser("coint", help="cointegration-rank test on multiple series",
                        argument_default=argparse.SUPPRESS)
    _add_common(co)
    co.add_argument("-p", "--lags", type=int, dest="p", help="VAR lag order p")
    co.add_argument("--no-constant", action="store_false", dest="include_constant")
    co.add_argument("--dummies", type=int, dest="n_seasonal_dummies",
                    help="number of seasonal dummy columns")
    co.add_argument("--dummy-period", type=int)
    co.add_argument("--start-period-index", type=int,
                    help="period (0-based) of the first raw observation")
    co.add_argument("--threshold-policy",
                    help="'fixed:0.05', 'fixed:0.01' or 'bridge:p=0.01'")
    co.add_argument("--dimension-convention", choices=CONVENTIONS)
    return parser


def main(argv=None):
    try:
        fields = vars(build_parser().parse_args(argv))
        output = fields.pop("output", None)
        config = RunConfig(**fields)
        if output is not None:
            # Check before the run; append mode truncates nothing.
            existed = os.path.lexists(output)
            try:
                open(output, "a").close()
                if not existed:
                    os.remove(output)
            except OSError as exc:
                raise ConfigError(f"cannot write --output {output!r}: {exc.strerror}") from None
        report = run(config)
        text = render(report, config.output_format)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    if output is not None:
        with open(output, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
