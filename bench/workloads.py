"""The benchmark's three workloads.

Each workload is built from the workload seed alone and exposes
``warmup()`` and ``unit(j)``. A unit is one call the benchmark makes into
``smcplan``; it returns ``(latencies, attempted, failed)`` for the
operations it covered, with one latency on the ``timer.now()`` clock per
completed operation:

* ``train_chain5``: a unit is one ``training.train`` call of
  ``TRAIN_ITERATIONS`` outer iterations; an operation is one iteration.
* ``plan_wide``: a unit is one ``planner.run_planner`` call, which is
  also the operation.
* ``sweep_degeneracy``: a unit is one ``harness.run`` over the README
  ``path_degeneracy`` sweep; an operation is one (sweep point, seed)
  cell.

Where a unit covers several operations, their boundaries are read from
the call the package makes first in each operation (``collect_segment``
in each outer iteration, ``soft_value_iteration`` in each sweep cell): an
operation lasts from its call to the next one, and the last one to the
return of the unit, so the last sweep cell also carries the harness's
closing file writes and bootstrap intervals. Each run of
``latency_group`` consecutive operations in a unit of ``latency_period``
gets the mean latency of that run over all units: a sweep cell's latency
is the mean over its sweep point in every sweep of the run.

Every unit's outputs are checked, including the root policy of every
``run_planner`` call the package makes; the workload's output-quality
figure comes from its first ``quality_units`` units, which always run,
so it is the same for a given seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

import numpy as np

from smcplan import errors, harness, mdp, oracle, planner, training

from reference import Unscaled
from tracing import rebind

ERRORS = tuple(
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
)

TRAIN_ITERATIONS = 4
RETURN_TOL = 1e-9


def derive_seed(*parts: int) -> int:
    """A 32-bit seed for the stream named by ``parts``."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


class Hook:
    """Wraps every call the package makes to one function while the hook
    is entered, without changing what it computes."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr

    def wrap(self, original):
        raise NotImplementedError

    def __enter__(self):
        self.original = getattr(self.module, self.attr)
        self.changed = rebind(self.original, self.wrap(self.original))
        return self

    def __exit__(self, *exc):
        for mod, attr in self.changed:
            setattr(mod, attr, self.original)
        return False


class OpClock(Hook):
    """Records the time of every call. The timer may take a speed sample
    first; ``timer.now()`` leaves it out."""

    def __init__(self, module, attr, timer):
        super().__init__(module, attr)
        self.timer = timer
        self.ticks = []

    def wrap(self, original):
        timer, ticks = self.timer, self.ticks

        def ticked(*args, **kwargs):
            timer.sample()
            ticks.append(timer.now())
            return original(*args, **kwargs)

        return ticked

    def latencies(self, end=None):
        """Time from each tick to the next; the last lasts until ``end``,
        or is dropped when ``end`` is None."""
        return np.diff(self.ticks + ([] if end is None else [end])).tolist()


class PolicyCheck(Hook):
    """Keeps the root policy of every ``run_planner`` call; ``verify``
    checks, outside the timed calls, that each is a distribution over the
    MDP's actions."""

    def __init__(self, module, workload, label):
        super().__init__(module, "run_planner")
        self.workload, self.label = workload, label
        self.outputs = []

    def wrap(self, original):
        outputs = self.outputs

        def kept(mdp, *args, **kwargs):
            out = original(mdp, *args, **kwargs)
            outputs.append((mdp.n_actions, out.root_policy))
            return out

        return kept

    def verify(self, expected_calls=None):
        bad = sum(not _is_distribution(policy, n) for n, policy in self.outputs)
        self.workload.check(bad == 0, f"{self.label}: {bad} of {len(self.outputs)} "
                            "planner root policies are not distributions")
        if expected_calls is not None:
            self.workload.check(len(self.outputs) == expected_calls,
                                f"{self.label}: {len(self.outputs)} planner calls seen")


def _is_distribution(policy, n) -> bool:
    policy = np.asarray(policy, dtype=float)
    return (
        policy.shape == (n,)
        and bool(np.isfinite(policy).all())
        and policy.min() >= 0.0
        and abs(policy.sum() - 1.0) <= 1e-9
    )


class Workload:
    name = ""
    quality_name = ""
    quality_unit = ""
    quality_units = 1
    latency_group = 1
    latency_period = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.problems = []
        self.quality_samples = []
        self.timer = Unscaled()

    def check(self, ok: bool, message: str):
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def quality(self) -> float:
        return float(np.mean(self.quality_samples))

    def clock(self, module, attr) -> OpClock:
        return OpClock(module, attr, self.timer)


class TrainChain5(Workload):
    name = "train_chain5"
    quality_name = "return_frac"
    quality_unit = "ratio"
    quality_units = 16

    def __init__(self, seed):
        super().__init__(seed)
        self.mdp = mdp.make_chain(5)
        _, v_star = oracle.optimal_policy(self.mdp, 16)
        self.optimal = float(v_star[0])
        self.config = training.TrainConfig(
            planner=planner.PlannerConfig(
                k=4,
                depth=4,
                resample_period=3,
                alpha=0.1,
                temperature=0.1,
                lambda_smc=0.95,
                gamma=1.0,
                sigma=0.5,
                proposal_mode="trust_region",
                inference_mode="message_passing",
                resample_mode="revived",
            ),
            loss=training.LossConfig(
                c_v=0.5, c_pi=1.0, c_ent=0.03, lambda_outer=0.95, gamma_outer=0.97, lr=0.2
            ),
            horizon=16,
            buffer_capacity=256,
            batch_size=64,
            updates_per_iteration=16,
            eval_horizon=16,
        )

    def warmup(self):
        training.train(self.mdp, self.config, 1, derive_seed(self.seed, 1 << 30))

    def unit(self, j):
        clock = self.clock(training, "collect_segment")
        policies = PolicyCheck(training, self, f"train unit {j}")
        try:
            with clock, policies:
                result = training.train(
                    self.mdp, self.config, TRAIN_ITERATIONS, derive_seed(self.seed, j)
                )
        except ERRORS as exc:
            self.check(False, f"train unit {j}: {exc!r}")
            return clock.latencies(), len(clock.ticks), 1
        latencies = clock.latencies(self.timer.now())
        policies.verify()
        returns = np.concatenate([result.greedy_returns, result.policy_returns])
        self.check(
            bool(np.isfinite(returns).all())
            and returns.min() >= -RETURN_TOL
            and returns.max() <= self.optimal + RETURN_TOL,
            f"train unit {j}: returns outside [0, {self.optimal}]",
        )
        self.check(len(latencies) == TRAIN_ITERATIONS,
                   f"train unit {j}: {len(latencies)} iterations seen")
        if j < self.quality_units:
            self.quality_samples.append(float(result.greedy_returns[-1]) / self.optimal)
        return latencies, len(latencies), 0


class PlanWide(Workload):
    name = "plan_wide"
    quality_name = "tv_root"
    quality_unit = "tv"
    quality_units = 120
    depth = 16

    def __init__(self, seed):
        super().__init__(seed)
        self.mdp = mdp.make_gridworld(8, 8)
        self.model = training.Model.zeros(self.mdp.n_states, self.mdp.n_actions)
        self.configs = [
            planner.PlannerConfig(
                k=1024,
                depth=self.depth,
                resample_period=1,
                proposal_mode="prior",
                resample_mode="revived",
                inference_mode=mode,
            )
            for mode in ("dirac", "message_passing")
        ]
        self.reference = oracle.soft_value_iteration(
            self.mdp, self.model.policy(), self.depth, 1.0
        ).posterior_policy[0]

    def warmup(self):
        planner.run_planner(self.mdp, 0, self.model, self.configs[0],
                            derive_seed(self.seed, 1 << 30))

    def unit(self, j):
        start = self.timer.now()
        try:
            out = planner.run_planner(
                self.mdp, 0, self.model, self.configs[j % 2], derive_seed(self.seed, j)
            )
        except ERRORS as exc:
            self.check(False, f"planner call {j}: {exc!r}")
            return [], 1, 1
        end = self.timer.now()
        ok = _is_distribution(out.root_policy, self.mdp.n_actions)
        self.check(ok, f"planner call {j}: root policy is not a distribution")
        if ok and j < self.quality_units:
            self.quality_samples.append(0.5 * float(np.abs(out.root_policy - self.reference).sum()))
        return [end - start], 1, 0


class SweepDegeneracy(Workload):
    """``harness.run`` on the README ``path_degeneracy`` example."""

    name = "sweep_degeneracy"
    quality_name = "kl_root"
    quality_unit = "nat"
    quality_units = 1
    n_seeds = 200
    # Cell cost is set by the point's depth, so raw cell latencies form one
    # cluster per depth and their median falls in the gap between two
    # clusters. Each cell gets its point's mean latency instead, over all
    # the run's sweeps, so that no point's figure rests on one short
    # stretch of the machine's speed; the harness runs a point's seeds
    # back to back.
    latency_group = n_seeds
    sweep = {
        "planner.depth": [2, 4, 8, 16],
        "planner.inference_mode": ["dirac", "message_passing"],
    }

    def __init__(self, seed, scratch_dir):
        super().__init__(seed)
        self.scratch_dir = scratch_dir
        self.n_cells = self.n_seeds * math.prod(len(v) for v in self.sweep.values())
        self.latency_period = self.n_cells

    def _config(self, tag, seeds, sweep):
        return harness.config_from_dict({
            "experiment": "path_degeneracy",
            "env": {"name": "absorbing_zero", "n_actions": 4},
            "planner": {"k": 4, "depth": 2, "resample_period": 1},
            "sweep": sweep,
            "seeds": seeds,
            "output_dir": os.path.join(self.scratch_dir, tag),
        })

    def warmup(self):
        config = self._config("warmup", [derive_seed(self.seed, 1 << 30)], {})
        harness.run(config, force=True)
        shutil.rmtree(config.output_dir)

    def unit(self, j):
        seeds = [derive_seed(self.seed, j, i) for i in range(self.n_seeds)]
        config = self._config(f"unit{j}", seeds, self.sweep)
        clock = self.clock(harness, "soft_value_iteration")
        policies = PolicyCheck(harness, self, f"sweep {j}")
        try:
            with clock, policies:
                harness.run(config, force=True)
        except ERRORS as exc:
            self.check(False, f"sweep {j}: {exc!r}")
            shutil.rmtree(config.output_dir, ignore_errors=True)
            return [], self.n_cells, self.n_cells
        latencies = clock.latencies(self.timer.now())
        policies.verify(self.n_cells)
        kl = self._read_kl(config.output_dir, seeds, j)
        shutil.rmtree(config.output_dir)
        if j < self.quality_units and kl:
            self.quality_samples.append(float(np.mean(kl)))
        self.check(len(latencies) == self.n_cells, f"sweep {j}: {len(latencies)} cells seen")
        return latencies, self.n_cells, 0

    def _read_kl(self, output_dir, seeds, j):
        with open(os.path.join(output_dir, "metrics.csv"), newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["metric"] == "kl_root"]
        cells = {(row["sweep_planner.depth"], row["sweep_planner.inference_mode"], row["seed"])
                 for row in rows}
        expected = {(str(d), m, str(s)) for d in self.sweep["planner.depth"]
                    for m in self.sweep["planner.inference_mode"] for s in seeds}
        self.check(len(rows) == self.n_cells and cells == expected,
                   f"sweep {j}: metrics.csv lacks one kl_root row per cell")
        kl = [float(row["value"]) for row in rows]
        self.check(all(math.isfinite(v) and v >= 0.0 for v in kl),
                   f"sweep {j}: kl_root not finite and non-negative")
        with open(os.path.join(output_dir, "summary.json")) as handle:
            self.check(len(json.load(handle)) == len(expected) // self.n_seeds,
                       f"sweep {j}: summary.json lacks a sweep point")
        return kl


def build(name: str, seed: int, scratch_dir: str) -> Workload:
    if name == TrainChain5.name:
        return TrainChain5(seed)
    if name == PlanWide.name:
        return PlanWide(seed)
    if name == SweepDegeneracy.name:
        return SweepDegeneracy(seed, scratch_dir)
    raise ValueError(f"unknown workload {name!r}")

