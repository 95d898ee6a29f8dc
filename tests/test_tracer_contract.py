"""The names the benchmark tracer wraps or reads must exist in seqmodes.

``perfbench/tracing.py`` patches functions at the module attributes where the
CLI looks them up, and reads ``LipschitzEstimates.power_iterations_converged``.
A refactor that deletes or renames one of them would break only the benchmark
suite, which the tests here do not run; this test reads the tracer without
changing it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from seqmodes.model import LipschitzEstimates

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrument_then_restore_puts_back_every_original(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_lipschitz_convergence_flag_exists():
    lip = LipschitzEstimates(M=1.0, Q=1.0, per_point_M=np.ones(1), per_point_Q=np.ones(1))
    assert lip.power_iterations_converged in (True, False)
