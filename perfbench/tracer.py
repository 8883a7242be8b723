"""Outside-in tracing of one ``evcoint.cli.main`` call.

Every public stage of each module is wrapped where its callers look it up,
so nothing inside ``src/`` changes.  Stage-level calls (a few per run) get
a span whose parent is the op span of the CLI call; per-draw calls get a
counter of calls and cumulative seconds instead.  Spans stay in memory and
the caller writes them out at the end.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import defaultdict

_UR_STAGES = ("build_design", "restricted_map", "gibbs_chain", "chain_log_posterior",
              "adf_statistic")
_CO_STAGES = ("build_vecm_design", "johansen_concentrate", "gibbs_chain",
              "chain_log_posterior", "log_posterior")


def _size(shape):
    return 1 if shape is None else math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _n_draws(chain):
    return len(chain.sigma) if hasattr(chain, "sigma") else len(chain.eta)


class Tracer:
    """Spans and counters of the traced calls, one record per op."""

    def __init__(self):
        self.ops = []
        self.spans = []

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name, work=None):
        spans, counts, op = self.spans, self._counts, len(self.ops)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.append({"name": name, "start": t0, "end": time.perf_counter(),
                              "parent": op})
            if work is not None:
                key, amount = work(out)
                counts[key] += amount
            return out
        return wrapper

    def _count(self, fn, name, work=None):
        counts, clock = self._counts, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name + ".s"] += clock() - t0
                counts[name + ".calls"] += 1
                if work is not None:
                    key, amount = work(args)
                    counts[key] += amount
        return wrapper

    def _rng_wrappers(self, rng_cls):
        counts = self._counts
        normal, uniform, gamma = rng_cls.standard_normal, rng_cls.uniform, rng_cls.gamma
        depth = [0]

        def standard_normal(state, size=None):
            counts["rng.normal.calls"] += 1
            counts["rng.normals"] += _size(size)
            if depth[0]:
                counts["rng.gamma.proposals"] += 1
            return normal(state, size)

        def uniform_(state, size=None):
            counts["rng.uniforms"] += _size(size)
            return uniform(state, size)

        def gamma_(state, shape, scale=1.0):
            counts["rng.gamma.calls"] += 1
            depth[0] += 1
            try:
                return gamma(state, shape, scale)
            finally:
                depth[0] -= 1

        return {"standard_normal": standard_normal, "uniform": uniform_, "gamma": gamma_}

    def _targets(self):
        """(object, attribute, replacement) for every patched name."""
        mods = {m: importlib.import_module(f"evcoint.{m}")
                for m in ("cli", "io", "linalg", "unitroot", "cointegration", "rng",
                          "fbst", "special")}
        cli, io, linalg = mods["cli"], mods["io"], mods["linalg"]
        ur, co, rng, fbst = mods["unitroot"], mods["cointegration"], mods["rng"], mods["fbst"]
        out = [
            (io, "read_csv", self._span(io.read_csv, "io.read_csv",
                                        lambda m: ("io.cells", m.values.size))),
            (linalg, "ols_solve", self._count(linalg.ols_solve, "linalg.ols_solve",
                                              lambda a: ("linalg.ols_cells", _size(a[0].shape)))),
            (linalg, "qr_r_factor", self._count(linalg.qr_r_factor, "linalg.qr_r_factor")),
        ]
        as_spd = self._count(linalg.as_spd, "linalg.as_spd")
        out += [(linalg, "as_spd", as_spd), (rng, "as_spd", as_spd)]
        for mod, stages in ((ur, _UR_STAGES), (co, _CO_STAGES)):
            name = mod.__name__.rsplit(".", 1)[1]
            for stage in stages:
                work = (lambda chain, key=f"{name}.draws": (key, _n_draws(chain))) \
                    if stage == "gibbs_chain" else None
                out.append((mod, stage, self._span(getattr(mod, stage), f"{name}.{stage}", work)))
            out.append((mod, "estimate_evidence",
                        self._span(getattr(mod, "estimate_evidence"), "fbst.estimate_evidence")))
        iw = self._count(rng.sample_inverse_wishart, "rng.inverse_wishart")
        out += [(co, "sample_inverse_wishart", iw), (rng, "sample_inverse_wishart", iw)]
        ev_p = self._count(fbst.ev_from_pvalue, "fbst.ev_from_pvalue")
        out += [(co, "ev_from_pvalue", ev_p), (fbst, "ev_from_pvalue", ev_p)]
        quantile = self._count(fbst.chi2_quantile, "special.chi2_quantile")
        out += [(fbst, "chi2_quantile", quantile), (mods["special"], "chi2_quantile", quantile)]
        for stage in ("unitroot_report", "rank_report"):
            out.append((cli, stage, self._span(getattr(cli, stage), f"report.{stage}")))
        out.append((cli, "render", self._span(cli.render, "report.render",
                                               lambda text: ("report.bytes", len(text)))))
        out += [(rng.RngState, k, v) for k, v in self._rng_wrappers(rng.RngState).items()]
        return out

    # -- one traced op --------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Patch every target for the duration of one CLI call and record
        the op span around it."""
        self._counts = defaultdict(float)
        targets = self._targets()
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        for obj, attr, new in targets:
            setattr(obj, attr, new)
        record = {"counts": self._counts}
        try:
            record["start"] = time.perf_counter()
            yield record
        finally:
            record["end"] = time.perf_counter()
            for obj, attr, old in saved:
                setattr(obj, attr, old)
            self.ops.append(record)

    def metrics(self, index):
        """Per-layer metrics of traced op ``index``."""
        rec = self.ops[index]
        c = rec["counts"]
        spans = [s for s in self.spans if s["parent"] == index]
        op_s = rec["end"] - rec["start"]
        busy = defaultdict(float)
        calls = defaultdict(int)
        for s in spans:
            busy[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1

        def rate(num, den):
            return num / den if den > 0 else 0.0

        m = {
            "io.read_csv_s": busy["io.read_csv"],
            "io.cells": c["io.cells"],
            "io.cells_per_s": rate(c["io.cells"], busy["io.read_csv"]),
            "linalg.ols_solve_calls": c["linalg.ols_solve.calls"],
            "linalg.ols_solve_s": c["linalg.ols_solve.s"],
            "linalg.ols_cells": c["linalg.ols_cells"],
            "linalg.qr_r_factor_calls": c["linalg.qr_r_factor.calls"],
            "linalg.as_spd_calls": c["linalg.as_spd.calls"],
            "linalg.as_spd_s": c["linalg.as_spd.s"],
        }
        for name, stages in (("unitroot", _UR_STAGES), ("cointegration", _CO_STAGES)):
            for stage in stages:
                m[f"{name}.{stage}_s"] = busy[f"{name}.{stage}"]
            m[f"{name}.draws_per_s"] = rate(c[f"{name}.draws"], busy[f"{name}.gibbs_chain"])
            m[f"{name}.sampler_share"] = rate(
                busy[f"{name}.gibbs_chain"] + busy[f"{name}.chain_log_posterior"], op_s)
        m.update({
            "rng.normal_calls": c["rng.normal.calls"],
            "rng.normals": c["rng.normals"],
            "rng.uniforms": c["rng.uniforms"],
            "rng.gamma_calls": c["rng.gamma.calls"],
            "rng.gamma_accept_ratio": rate(c["rng.gamma.calls"], c["rng.gamma.proposals"]),
            "rng.inverse_wishart_calls": c["rng.inverse_wishart.calls"],
            "rng.inverse_wishart_s": c["rng.inverse_wishart.s"],
            "fbst.estimate_evidence_calls": calls["fbst.estimate_evidence"],
            "fbst.estimate_evidence_s": busy["fbst.estimate_evidence"],
            "fbst.ev_from_pvalue_calls": c["fbst.ev_from_pvalue.calls"],
            "special.chi2_quantile_calls": c["special.chi2_quantile.calls"],
            "special.chi2_quantile_s": c["special.chi2_quantile.s"],
            "report.unitroot_report_s": busy["report.unitroot_report"],
            "report.rank_report_s": busy["report.rank_report"],
            "report.render_s": busy["report.render"],
            "report.bytes": c["report.bytes"],
            "cli.op_s": op_s,
            "cli.self_s": op_s - _covered(spans, rec["start"], rec["end"]),
        })
        return m


def _covered(spans, lo, hi):
    """Length of the part of [lo, hi] that the spans cover."""
    total, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s["start"]):
        start, end = max(s["start"], reach), min(s["end"], hi)
        if end > start:
            total += end - start
            reach = end
    return total
