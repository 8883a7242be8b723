"""The benchmark's tracer (``perfbench/tracer.py``) patches evcoint names
where their callers look them up; a renamed or deleted name fails every
traced benchmark call.  One traced op resolves each of them and restores
them afterwards."""
import importlib.util
from pathlib import Path

from evcoint import cli, cointegration, fbst, io, linalg, rng, special, unitroot

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
NAMESPACES = (cli, cointegration, fbst, io, linalg, rng, special, unitroot, rng.RngState)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {(ns.__name__, name): value for ns in NAMESPACES for name, value in vars(ns).items()}


def test_every_traced_name_resolves_and_is_restored():
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    with tracer.op():
        during = _snapshot()
    after = _snapshot()
    patched = {key for key, value in during.items() if before.get(key) is not value}
    assert ("evcoint.unitroot", "gibbs_chain") in patched
    assert ("RngState", "gamma") in patched
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert len(tracer.ops) == 1
