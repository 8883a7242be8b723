"""Run configuration and report assembly.

The JSON rendering is the source of truth; csv and markdown are derived
from the same dictionary and never change a numeric value, only the
formatting (human formats round to 6 significant digits, JSON keeps full
double precision).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .cointegration import parse_threshold_policy
from .errors import ConfigError
from .fbst import CONVENTIONS, DEFAULT_BURN_IN, DEFAULT_N_DRAWS

#: Report schema.  evcoint/2: the e-values and P(g0 >= 0) come from
#: independent draws of the exact posterior instead of a Gibbs chain.
SCHEMA = "evcoint/2"


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
    centered_dummies: bool = False
    start_period_index: int = 0
    n_draws: int = DEFAULT_N_DRAWS
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0
    stream: int = 0
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
        if self.seed < 0 or self.stream < 0:
            raise ConfigError(f"seed and stream must be >= 0, got {self.seed}, {self.stream}")
        if self.engine == "coint":
            try:
                parse_threshold_policy(self.threshold_policy)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        return self


def _evidence_dict(ev):
    d = {
        "ev": ev.ev,
        "ev_bar": ev.ev_bar,
        "log_s_star": ev.log_s_star,
        "n_draws": ev.n_draws,
        "burn_in": ev.burn_in,
        "mc_se": ev.mc_se,
    }
    if ev.mc_se_batch is not None:
        d["mc_se_batch"] = ev.mc_se_batch
    return d


def unitroot_report(config, result, wall_clock_s):
    row = {
        "hypothesis": "gamma0 = 0 (unit root)",
        "ev": result.evidence.ev,
        "ev_bar": result.evidence.ev_bar,
        "mc_se": result.evidence.mc_se,
        "p_nonstationary": result.p_nonstationary,
        "adf_stat": result.adf_stat,
    }
    return {
        "schema": SCHEMA,
        "version": __version__,
        "engine": "unitroot",
        "config": asdict(config),
        "rows": [row],
        "evidence": _evidence_dict(result.evidence),
        "wall_clock_s": wall_clock_s,
    }


def rank_report(config, report, wall_clock_s):
    rows = []
    for h in report.hypotheses:
        rows.append(
            {
                "hypothesis": f"rank = {h.rank}",
                "ev": h.evidence.ev,
                "ev_bar": h.evidence.ev_bar,
                "mc_se": h.evidence.mc_se,
                "log_s_star": h.log_s_star,
                "max_eig_stat": h.max_eig_stat,
                "threshold": h.threshold,
                "rejected": h.rejected,
            }
        )
    return {
        "schema": SCHEMA,
        "version": __version__,
        "engine": "coint",
        "config": asdict(config),
        "rows": rows,
        "eigenvalues": list(report.eigenvalues),
        "selected_rank": report.selected_rank,
        "threshold_policy": report.threshold_policy,
        "dimension_convention": report.dimension_convention,
        "dummy_coding": report.dummy_coding,
        "wall_clock_s": wall_clock_s,
    }


def _sig6(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


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


class Stopwatch:
    def __enter__(self):
        self._start = time.perf_counter()
        self._stop = None
        return self

    def __exit__(self, *exc):
        self._stop = time.perf_counter()
        return False

    @property
    def elapsed(self):
        end = self._stop if self._stop is not None else time.perf_counter()
        return end - self._start
