"""The benchmark's tracer and hooks wrap only functions the package
defines, and bind only parameters they have."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from smcplan import planner, training

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


# (module, attribute, defining module) of every call the benchmark's
# workloads hook by name: their op clocks and root-policy checks
HOOKED = [
    ("training", "collect_segment", "training"),
    ("training", "run_planner", "planner"),
    ("harness", "soft_value_iteration", "oracle"),
    ("harness", "run_planner", "planner"),
]


@pytest.mark.parametrize("module_name,name,home", HOOKED)
def test_every_hooked_call_is_the_package_function(module_name, name, home):
    hooked = getattr(importlib.import_module(f"smcplan.{module_name}"), name)
    assert hooked is getattr(importlib.import_module(f"smcplan.{home}"), name)
    assert hooked.__module__ == f"smcplan.{home}"


def test_the_tracer_binds_parameters_that_exist():
    # the root-policy check takes the MDP first; the observers read
    # run_planner's config and sgd_step's gradient and loss config by name
    assert list(inspect.signature(planner.run_planner).parameters)[0] == "mdp"
    assert "config" in inspect.signature(planner.run_planner).parameters
    assert {"grads", "cfg"} <= set(inspect.signature(training.sgd_step).parameters)
