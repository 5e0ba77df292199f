"""Experiment harness: config ingestion, drivers, and metrics files.

A run executes one experiment over the product of a parameter sweep and
a seed list, then writes three files into the output directory:

* ``metrics.csv``, long format with header
  ``sweep_<key>,...,seed,step,metric,value`` (sweep keys sorted
  lexicographically). Two runs of the same resolved config produce
  byte-identical files.
* ``summary.json`` mapping each sweep point to per-metric mean and
  percentile-bootstrap interval over seeds (of each seed's final value).
* ``config.resolved.json`` capturing every default so the exact run can
  be reproduced by loading it back.

A planning experiment builds one zero model, prior and set of planning
tables per sweep point; each cell (one seed) makes its own exact
reference solve and planner call. Planner policies can carry exact
zeros, so divergence metrics floor the compared policy at
``POLICY_FLOOR`` and renormalize before taking logs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import product
from typing import get_type_hints

import numpy as np

from . import rng as rng_mod
from .errors import ConfigError, ContractError, require_integers, require_range
from .mdp import TabularMdp, builtin_mdp, mdp_from_dict
from .oracle import soft_value_iteration
from .planner import plan_tables, run_planner
from .training import Model, TrainConfig, train
from .trust_region import kl_to_prior

EXPERIMENTS = ("path_degeneracy", "oracle_convergence", "train", "ablation")
POLICY_FLOOR = 1e-6

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def kl_to_reference(reference, policy) -> float:
    """``KL(reference || policy)`` with the policy floored and renormalized.
    Every smoothed entry is at least ``POLICY_FLOOR / (1 + A * POLICY_FLOOR)``,
    far above ``kl_to_prior``'s own floor, so that floor never applies."""
    smoothed = np.maximum(np.asarray(policy, dtype=float), POLICY_FLOOR)
    return kl_to_prior(reference, smoothed / smoothed.sum())


def bootstrap_ci(samples, level: float, resamples: int, rng: np.random.Generator):
    """Percentile bootstrap interval for the mean of ``samples``.

    ``level`` is the two-sided coverage; at 0 the interval collapses to
    the bootstrap median. Deterministic for a fixed generator.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ContractError("bootstrap_ci needs at least 2 samples")
    if not 0.0 <= level < 1.0:
        raise ContractError(f"level must lie in [0, 1), got {level}")
    idx = rng.integers(0, samples.size, size=(resamples, samples.size))
    means = samples[idx].mean(axis=1)
    if level == 0.0:
        med = float(np.median(means))
        return med, med
    lo = float(np.percentile(means, 100.0 * (1.0 - level) / 2.0))
    hi = float(np.percentile(means, 100.0 * (1.0 + level) / 2.0))
    return lo, hi


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its JSON form is flat: every ``TrainConfig`` field
    is a top-level key next to the keys declared here, except ``mdp``,
    which is ``make_env(env)``: the environment, built once at load."""

    experiment: str
    env: dict
    mdp: TabularMdp = field(repr=False, compare=False)
    train: TrainConfig
    iterations: int = 100
    seeds: tuple = (0,)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        require_integers(iterations=self.iterations)
        require_range(1, math.inf, iterations=self.iterations)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir: must be a string, got {self.output_dir!r}")
        if not self.seeds:
            raise ConfigError("seeds: must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: must not repeat a seed, got {list(self.seeds)}")
        # the loader applies every sweep point, which checks the keys
        for key, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep.{key}: must be a non-empty list of values")


# TrainConfig fields: nested config sections, and top-level scalars
_TRAIN_FIELDS = get_type_hints(TrainConfig)
_SECTIONS = {name: kind for name, kind in _TRAIN_FIELDS.items() if dataclasses.is_dataclass(kind)}
_SCALARS = set(_TRAIN_FIELDS) - set(_SECTIONS)
_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"mdp", "train"}
_TOP_KEYS |= set(_TRAIN_FIELDS)


def _dataclass_from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    try:
        return cls(**data)
    except (ContractError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict, source: str = "<config>") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: config must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown key {sorted(unknown)[0]!r}")
    for key in ("experiment", "env", "planner"):
        if key not in data:
            raise ConfigError(f"{source}: missing key {key!r}")
    sections = {
        name: _dataclass_from_dict(kind, data.get(name, {}), f"{source}: {name}")
        for name, kind in _SECTIONS.items()
    }
    seeds = data.get("seeds", [0])
    if type(seeds) is int:
        seeds = list(range(seeds))
    if not isinstance(seeds, list) or not all(type(s) is int for s in seeds):
        raise ConfigError(f"{source}: seeds: must be an integer count or list of integers")
    env = data["env"]
    if not isinstance(env, dict):
        raise ConfigError(f"{source}: env: must be an object")
    # built now so that a bad environment fails before any file is written
    mdp = make_env(env, source)
    try:
        scalars = {name: data[name] for name in _SCALARS if name in data}
        config = ExperimentConfig(
            experiment=data["experiment"],
            env=env,
            mdp=mdp,
            train=TrainConfig(**sections, **scalars),
            iterations=data.get("iterations", 100),
            seeds=tuple(seeds),
            sweep=dict(data.get("sweep", {})),
            output_dir=data.get("output_dir", "out"),
        )
    except ConfigError:
        raise
    except (ContractError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    # every cell's config is checked now, so a bad sweep value fails
    # before any cell runs
    for point in _sweep_points(config):
        where = f"{source}: sweep point {point}" if point else source
        try:
            s0 = _apply_sweep_point(config, point).train.s0
        except (ConfigError, ContractError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if not 0 <= s0 < mdp.n_states:
            raise ConfigError(f"{where}: s0: state {s0} out of range [0, {mdp.n_states})")
        if mdp.terminal[s0]:
            raise ConfigError(f"{where}: s0: state {s0} is terminal")
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "experiment": config.experiment,
        "env": config.env,
        **dataclasses.asdict(config.train),
        "iterations": config.iterations,
        "seeds": list(config.seeds),
        "sweep": config.sweep,
        "output_dir": config.output_dir,
    }


def make_env(env: dict, source: str = "<config>") -> TabularMdp:
    """Build the experiment environment: a named builtin or inline tensors."""
    if "name" in env:
        params = {k: v for k, v in env.items() if k != "name"}
        return builtin_mdp(env["name"], **params)
    return mdp_from_dict(env, source=f"{source}: env")


def set_by_path(data: dict, dotted: str, value, source: str = "<config>") -> None:
    """Assign ``value`` at a dotted key path inside a nested config dict.

    Missing intermediate sections are created; the final key is still
    validated by the config loader. Sweep keys are dotted themselves, so
    under ``sweep.`` the rest of the path is one key.
    """
    head, _, rest = dotted.partition(".")
    parts = [head, rest] if head == "sweep" and rest else dotted.split(".")
    node = data
    for part in parts[:-1]:
        if part not in node:
            node[part] = {}
        if not isinstance(node[part], dict):
            raise ConfigError(f"{source}: --set {dotted}: {part!r} is not a section")
        node = node[part]
    node[parts[-1]] = value


def _apply_sweep_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    """``config`` with each ``key: value`` of ``point`` set, where a key is
    ``iterations``, a top-level ``TrainConfig`` scalar or ``section.field``."""
    section_updates, train_updates, top_updates = {}, {}, {}
    for key, value in point.items():
        head, _, tail = key.partition(".")
        if head in _SECTIONS and tail in {f.name for f in dataclasses.fields(_SECTIONS[head])}:
            section_updates.setdefault(head, {})[tail] = value
        elif head in _SCALARS and not tail:
            train_updates[head] = value
        elif key == "iterations":
            top_updates[head] = value
        else:
            raise ConfigError(f"sweep.{key}: does not name a configurable field")
    for head, updates in section_updates.items():
        train_updates[head] = replace(getattr(config.train, head), **updates)
    return replace(config, train=replace(config.train, **train_updates), **top_updates)


def _tv_to_reference(reference, policy) -> float:
    return 0.5 * float(np.abs(policy - reference).sum())


# planning-only experiments: metric name and its divergence from the exact
# root posterior
_PLAN_METRICS = {
    "path_degeneracy": ("kl_root", kl_to_reference),
    "oracle_convergence": ("tv_root", _tv_to_reference),
}


def _drive(config: ExperimentConfig, seeds):
    """Run one sweep point's cell per seed, planning cells sharing one set
    of planning tables; yields ``(seed, rows)``, rows ``(step, metric, value)``."""
    mdp = config.mdp  # no sweep key reaches the environment
    if config.experiment in _PLAN_METRICS:
        name, divergence = _PLAN_METRICS[config.experiment]
        planner, s0 = config.train.planner, config.train.s0
        model = Model.zeros(mdp.n_states, mdp.n_actions)
        prior, tables = model.policy(), plan_tables(mdp, model, planner)
        for seed in seeds:
            soft = soft_value_iteration(mdp, prior, planner.depth, planner.temperature)
            out = run_planner(mdp, s0, model, planner, seed, tables)
            yield seed, [(0, name, divergence(soft.posterior_policy[s0], out.root_policy))]
        return
    for seed in seeds:
        result = train(mdp, config.train, config.iterations, seed)
        curves = ("greedy_return", result.greedy_returns), ("policy_return", result.policy_returns)
        if config.experiment == "ablation":
            window = min(10, config.iterations)
            yield seed, [(0, f"final_{m}", float(c[-window:].mean())) for m, c in curves]
        else:
            yield seed, [(n, m, float(c[n])) for n in range(config.iterations) for m, c in curves]


def _sweep_points(config: ExperimentConfig):
    keys = sorted(config.sweep)
    if not keys:
        return [{}]
    return [dict(zip(keys, combo)) for combo in product(*(config.sweep[k] for k in keys))]


def run(config: ExperimentConfig, force: bool = False) -> int:
    """Execute the experiment and write metrics, summary, and resolved
    config into ``config.output_dir``. Refuses to overwrite existing
    results unless ``force``."""
    os.makedirs(config.output_dir, exist_ok=True)
    metrics_path = os.path.join(config.output_dir, "metrics.csv")
    summary_path = os.path.join(config.output_dir, "summary.json")
    for path in (metrics_path, summary_path):
        if os.path.exists(path) and not force:
            raise ConfigError(f"{path}: already exists; pass --force to overwrite")
    resolved = config_to_dict(config)
    with open(os.path.join(config.output_dir, "config.resolved.json"), "w") as handle:
        json.dump(resolved, handle, indent=2, sort_keys=True)

    sweep_keys = sorted(config.sweep)
    rows = []  # (sweep values..., seed, step, metric, value)
    finals = {}  # (point key, metric) -> per-seed final values
    for point in _sweep_points(config):
        cell_config = _apply_sweep_point(config, point)
        point_label = ",".join(f"{k}={point[k]}" for k in sweep_keys) or "all"
        point_values = tuple(point.get(k) for k in sweep_keys)
        for seed, cell_rows in _drive(cell_config, config.seeds):
            last = {}
            for step_idx, metric, value in cell_rows:
                rows.append(point_values + (seed, step_idx, metric, value))
                last[metric] = value
            for metric, value in last.items():
                finals.setdefault((point_label, metric), []).append(value)

    with open(metrics_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"sweep_{k}" for k in sweep_keys] + ["seed", "step", "metric", "value"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    summary = {}
    for (label, metric), values in sorted(finals.items()):
        arr = np.asarray(values, dtype=float)
        if arr.size >= 2:
            lo, hi = bootstrap_ci(arr, 0.99, 2000, rng_mod.stream(0, len(values)))
        else:
            lo = hi = float(arr[0])
        summary.setdefault(label, {})[metric] = {
            "mean": float(arr.mean()),
            "lo": lo,
            "hi": hi,
        }
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return EXIT_OK


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
