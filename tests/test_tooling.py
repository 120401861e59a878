"""The benchmark's span tracer against the current program."""

import importlib.util
import sys
from pathlib import Path

import imexlmm
from imexlmm import barrier, certify, chebpoly, models, pde, schemes, stability

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_restores(monkeypatch):
    # every name the traced bench patches must exist where it is looked up;
    # a renamed or deleted one fails here, not only in the bench selfcheck
    tracing = _load_tracing(monkeypatch)
    owners = (barrier, certify, chebpoly, models, pde, schemes, stability,
              pde.SpectralFlow, pde.EnergyTrace)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, imexlmm):
        assert barrier.reform is not before[0]["reform"]
        schemes.reform(schemes.lmm6_scheme())
    assert [dict(vars(owner)) for owner in owners] == before
    assert {"schemes.lmm_from_parameters", "schemes.reform"} <= {s.name for s in tracer.spans}


def test_module_exports_resolve():
    # a name left in __all__ after its definition is deleted fails here
    for module in (barrier, certify, chebpoly, models, pde, schemes, stability):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
