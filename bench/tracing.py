"""Span tracing for the benchmark's traced run.

Each function named in ``LAYERS`` is wrapped, and the wrapper is bound in
place of the original in every ``smcplan`` module namespace that holds
it (``planner.solve_trust_region``, ``training.run_planner``,
``harness.run_planner`` ...), so calls made from inside the package are
recorded as well as calls made by the benchmark. Nothing under ``src/``
is edited; ``uninstall`` puts the originals back.

A span is (name, start, end, parent). Spans are kept in memory and
written out once the run ends. A span's self time is its duration minus
the time covered by its child spans; the benchmark's own ``bench.op``
root span around each call it makes keeps, as self time, whatever no
listed layer covers (the unattributed remainder).
"""

from __future__ import annotations

import inspect
import math
import sys
import time

import numpy as np

LAYERS = (
    "trust_region.solve_trust_region",
    "planner.run_planner",
    "planner.advance",
    "planner.multinomial_resample",
    "planner.normalized_weights",
    "planner.dirac_policy",
    "backups.accumulate_ancestor_q",
    "backups.message_passing_policy",
    "rng.stream",
    "oracle.soft_value_iteration",
    "oracle.policy_value",
    "training.collect_segment",
    "training.outer_targets",
    "training.grad",
    "training.sgd_step",
    "training.loss",
    "mdp.step",
    "harness.run",
    "harness.bootstrap_ci",
)
RATIOS = (
    "trust_region.shortcut_frac",
    "planner.ess_frac",
    "planner.ancestor_frac",
    "planner.terminal_frac",
    "training.clip_frac",
)
ROOT = "bench.op"


def per_layer_spec():
    """``(name, unit)`` of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "1/op"), (f"{layer}.self_ms", "ms/op"),
                 (f"{layer}.us_p50", "us")]
    spec += [(name, "ratio") for name in RATIOS]
    spec += [("trace.unattributed_frac", "ratio"), ("trace.overhead_frac", "ratio")]
    return spec


def _package_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "smcplan" or name.startswith("smcplan."))]


def rebind(original, replacement):
    """Bind ``replacement`` wherever a ``smcplan`` namespace holds
    ``original``; returns the ``(module, attribute)`` pairs changed."""
    changed = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """Records spans for the wrapped layers plus the outcome ratios read
    from their arguments and return values."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = [-1]
        self._restore = []
        # ratio name -> [sum of per-call values, calls]
        self.outcomes = {name: [0.0, 0] for name in RATIOS}

    def _record(self, name, fn, args, kwargs):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name``."""
        return self._record(name, fn, args, kwargs)

    def install(self):
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            original = getattr(sys.modules[f"smcplan.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, original, self._observer(layer, original))
            self._restore += [(mod, attr, original) for mod, attr in rebind(original, wrapper)]

    def uninstall(self):
        for mod, attr, original in self._restore:
            setattr(mod, attr, original)
        self._restore = []

    def _wrap(self, name, fn, observe):
        record = self._record

        def traced(*args, **kwargs):
            result = record(name, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, ratio, value):
        entry = self.outcomes[ratio]
        entry[0] += float(value)
        entry[1] += 1

    def _observer(self, layer, fn):
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            return signature.bind(*args, **kwargs).arguments

        if layer == "trust_region.solve_trust_region":
            def observe(args, kwargs, result):
                # epsilon 0 returns the prior (beta 0) and a radius past the
                # greedy divergence returns the greedy row (beta inf), both
                # before any tilt is evaluated
                self._add("trust_region.shortcut_frac",
                          result.beta == 0.0 or math.isinf(result.beta))
            return observe
        if layer == "planner.run_planner":
            def observe(args, kwargs, result):
                k = bound(args, kwargs)["config"].k
                diag = result.diagnostics
                self._add("planner.ess_frac", diag.ess[-1] / k)
                self._add("planner.ancestor_frac", diag.distinct_ancestors[-1] / k)
                self._add("planner.terminal_frac", diag.terminal_particles[-1] / k)
            return observe
        if layer == "training.sgd_step":
            def observe(args, kwargs, result):
                arguments = bound(args, kwargs)
                grads, cfg = arguments["grads"], arguments["cfg"]
                norm = math.sqrt(sum(float(np.square(part).sum()) for part in (
                    grads.policy_logits, grads.v_table, grads.q_table)))
                self._add("training.clip_frac", norm > cfg.clip_norm)
            return observe
        return None

    def summary(self, n_ops: int) -> dict:
        """Per-layer metrics normalised per operation, plus the share of
        root time that no layer covers."""
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.intp)
        names = np.asarray(self.names, dtype=object)
        duration = (ends - starts).astype(float)
        covered = np.zeros(duration.size)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_time = duration - covered

        out = {}
        for layer in LAYERS:
            mask = names == layer
            calls = int(mask.sum())
            out[f"{layer}.calls"] = calls / n_ops
            out[f"{layer}.self_ms"] = float(self_time[mask].sum()) / 1e6 / n_ops
            out[f"{layer}.us_p50"] = float(np.median(duration[mask])) / 1e3 if calls else 0.0
        for ratio, (total, calls) in self.outcomes.items():
            out[ratio] = total / calls if calls else 0.0
        root = names == ROOT
        root_total = float(duration[root].sum())
        out["trace.unattributed_frac"] = float(self_time[root].sum()) / root_total
        return out

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            handle.writelines(
                f"{n},{s},{e},{p}\n"
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            )
