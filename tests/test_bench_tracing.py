"""The benchmark's tracer wraps only functions the package defines."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_is_a_package_function(monkeypatch):
    # load the tracer from its file without writing a bytecode cache
    # beside it; a layer that names a deleted function would otherwise
    # fail only when a traced benchmark run installs the tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        module_name, name = layer.split(".")
        module = importlib.import_module(f"smcplan.{module_name}")
        assert callable(getattr(module, name, None)), layer
