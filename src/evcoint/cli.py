"""Command-line surface: ``evcoint unitroot`` and ``evcoint coint``.

Flags mirror ``RunConfig`` one-to-one.  Exit codes: 0 success, 2 input
error, 3 numeric failure, 4 configuration error, usage errors included.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import cointegration, io, unitroot
from .errors import ConfigError, InputError, NumericError
from .fbst import CONVENTIONS, DEFAULT_BURN_IN, DEFAULT_N_DRAWS
from .report import RunConfig, rank_report, render, unitroot_report
from .rng import RngState

SEED_ENV_VAR = "EVCOINT_SEED"


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
    rng = RngState(config.seed, config.stream)
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
        result = unitroot.test_unit_root(
            data.values[:, 0], spec, rng,
            n_draws=config.n_draws, burn_in=config.burn_in,
        )
        return unitroot_report(config, result, time.perf_counter() - start)
    spec = _spec(
        cointegration.VecmSpec,
        n=data.n_series,
        p=config.p,
        include_constant=config.include_constant,
        n_seasonal_dummies=config.n_seasonal_dummies,
        dummy_period=config.dummy_period,
        centered_dummies=config.centered_dummies,
    )
    result = cointegration.test_rank(
        data.values, spec, rng,
        n_draws=config.n_draws, burn_in=config.burn_in,
        threshold_policy=config.threshold_policy,
        dimension_convention=config.dimension_convention,
        start_period_index=config.start_period_index,
    )
    return rank_report(config, result, time.perf_counter() - start)


def _spec(cls, **fields):
    """Build an engine spec; its validation errors are configuration errors."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _env_seed():
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None


def _add_common(parser):
    parser.add_argument("input", help="path to the input CSV file")
    parser.add_argument("--columns", nargs="+", default=None,
                        help="column names or zero-based indices to use")
    parser.add_argument("--transform", choices=["none", "log"], default="none")
    parser.add_argument("--delimiter", default=",",
                        help="field delimiter (',', ';' or tab)")
    parser.add_argument("--skip-index-column", action="store_true",
                        help="ignore a leading time-index column")
    parser.add_argument("--n-draws", type=int, default=DEFAULT_N_DRAWS)
    parser.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR}, else 0)")
    parser.add_argument("--stream", type=int, default=0,
                        help="random sub-stream id derived from the seed")
    parser.add_argument("--format", choices=["json", "csv", "markdown"],
                        default="json", dest="output_format")
    parser.add_argument("--output", default=None,
                        help="also write the report to this file")


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown flag, bad choice, non-integer count) is a
    configuration error: it exits 4 through ``main``, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="evcoint",
        description="FBST e-values for unit-root and cointegration-rank hypotheses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ur = sub.add_parser("unitroot", help="unit-root test on a single series")
    _add_common(ur)
    ur.add_argument("-p", "--lags", type=int, default=1, dest="p",
                    help="autoregressive lag order p")
    ur.add_argument("--trend", action="store_true", dest="include_trend",
                    help="include a deterministic linear trend")
    ur.add_argument("--no-intercept", action="store_false", dest="include_intercept")

    co = sub.add_parser("coint", help="cointegration-rank test on multiple series")
    _add_common(co)
    co.add_argument("-p", "--lags", type=int, default=1, dest="p",
                    help="VAR lag order p")
    co.add_argument("--no-constant", action="store_false", dest="include_constant")
    co.add_argument("--dummies", type=int, default=0, dest="n_seasonal_dummies",
                    help="number of seasonal dummy columns")
    co.add_argument("--dummy-period", type=int, default=4)
    co.add_argument("--centered-dummies", action="store_true")
    co.add_argument("--start-period-index", type=int, default=0,
                    help="period (0-based) of the first raw observation")
    co.add_argument("--threshold-policy", default="bridge:p=0.01",
                    help="'fixed:0.05', 'fixed:0.01' or 'bridge:p=0.01'")
    co.add_argument("--dimension-convention", default="paper-literal",
                    choices=CONVENTIONS)
    return parser


def config_from_args(args):
    common = dict(
        input_path=args.input,
        columns=args.columns,
        transform=args.transform,
        delimiter="\t" if args.delimiter in ("\\t", "tab") else args.delimiter,
        skip_index_column=args.skip_index_column,
        p=args.p,
        n_draws=args.n_draws,
        burn_in=args.burn_in,
        seed=_env_seed() if args.seed is None else args.seed,
        stream=args.stream,
        output_format=args.output_format,
    )
    if args.command == "unitroot":
        return RunConfig(
            engine="unitroot",
            include_trend=args.include_trend,
            include_intercept=args.include_intercept,
            **common,
        )
    return RunConfig(
        engine="coint",
        include_constant=args.include_constant,
        n_seasonal_dummies=args.n_seasonal_dummies,
        dummy_period=args.dummy_period,
        centered_dummies=args.centered_dummies,
        start_period_index=args.start_period_index,
        threshold_policy=args.threshold_policy,
        dimension_convention=args.dimension_convention,
        **common,
    )


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        # The report file is written after the run; fail before it if it cannot be.
        if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
            raise ConfigError(f"directory of --output {args.output!r} does not exist")
        if args.output and os.path.isdir(args.output):
            raise ConfigError(f"--output {args.output!r} is a directory")
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
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
