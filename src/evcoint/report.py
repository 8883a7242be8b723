"""Run configuration and report assembly.

The JSON rendering is the source of truth; csv and markdown are derived
from the same dictionary and never change a numeric value, only the
formatting (human formats round to 6 significant digits, JSON keeps full
double precision).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from . import __version__
from .cointegration import parse_threshold_policy
from .errors import ConfigError
from .fbst import CONVENTIONS, DEFAULT_BURN_IN, DEFAULT_N_DRAWS

#: Report schema.  evcoint/5: the config echo has no ``stream`` or
#: ``centered_dummies`` and the rank report no ``dummy_coding``.  README
#: "Reproducible sampling" says what each version changed.
SCHEMA = "evcoint/5"


@dataclass
class RunConfig:
    input_path: str
    engine: str                        # "unitroot" | "coint"
    columns: list | None = None
    transform: str = "none"            # "none" | "log"
    delimiter: str = ","
    skip_index_column: bool = False
    p: int = 1
    include_trend: bool = False
    include_intercept: bool = True
    include_constant: bool = True
    n_seasonal_dummies: int = 0
    dummy_period: int = 4
    start_period_index: int = 0
    n_draws: int = DEFAULT_N_DRAWS
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0
    threshold_policy: str = "bridge:p=0.01"
    dimension_convention: str = "paper-literal"
    output_format: str = "json"        # "json" | "csv" | "markdown"

    def validate(self):
        if self.engine not in ("unitroot", "coint"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if not self.n_draws > self.burn_in >= 0:
            raise ConfigError("need n_draws > burn_in >= 0")
        if self.transform not in ("none", "log"):
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.output_format not in ("json", "csv", "markdown"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.dimension_convention not in CONVENTIONS:
            raise ConfigError(f"unknown dimension convention {self.dimension_convention!r}")
        if self.p < 1:
            raise ConfigError(f"lag order p must be >= 1, got {self.p}")
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.engine == "coint":
            try:
                parse_threshold_policy(self.threshold_policy)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        return self


def _row(hypothesis, evidence, log_s_star, **statistics):
    """One report row: the e-value, its error, the constrained maximum and
    the classical statistics of one hypothesis."""
    return {
        "hypothesis": hypothesis,
        "ev": evidence.ev,
        "ev_bar": evidence.ev_bar,
        "mc_se": evidence.mc_se,
        "log_s_star": log_s_star,
        **statistics,
    }


def _report(engine, config, rows, wall_clock_s, **fields):
    return {
        "schema": SCHEMA,
        "version": __version__,
        "engine": engine,
        "config": asdict(config),
        "rows": rows,
        **fields,
        "wall_clock_s": wall_clock_s,
    }


def unitroot_report(config, result, wall_clock_s):
    row = _row("gamma0 = 0 (unit root)", result.evidence, result.log_s_star,
               p_nonstationary=result.p_nonstationary, adf_stat=result.adf_stat)
    return _report("unitroot", config, [row], wall_clock_s)


def rank_report(config, report, wall_clock_s):
    rows = [_row(f"rank = {h.rank}", h.evidence, h.log_s_star,
                 max_eig_stat=h.max_eig_stat, trace_stat=h.trace_stat,
                 threshold=h.threshold, rejected=h.rejected)
            for h in report.hypotheses]
    return _report(
        "coint", config, rows, wall_clock_s,
        eigenvalues=list(report.eigenvalues),
        selected_rank=report.selected_rank,
        threshold_policy=report.threshold_policy,
        dimension_convention=report.dimension_convention,
    )


def _sig6(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def render(report, output_format):
    if output_format == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = report["rows"]
    keys = list(rows[0].keys())
    if output_format == "csv":
        lines = [",".join(keys)]
        lines += [",".join(_sig6(r[k]) for k in keys) for r in rows]
        return "\n".join(lines) + "\n"
    if output_format == "markdown":
        lines = ["| " + " | ".join(keys) + " |", "|" + "---|" * len(keys)]
        lines += ["| " + " | ".join(_sig6(r[k]) for k in keys) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {output_format!r}")

