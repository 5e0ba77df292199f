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

import copy
import csv
import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace
from itertools import product
from typing import get_type_hints

import numpy as np

from . import rng as rng_mod
from .errors import ConfigError, ContractError, require_integers, require_range
from .mdp import TabularMdp, mdp_from_dict
from .oracle import soft_value_iteration
from .planner import plan_tables, run_planner
from .training import Model, TrainConfig, train

EXPERIMENTS = ("path_degeneracy", "oracle_convergence", "train", "ablation")
POLICY_FLOOR = 1e-6
_BOOTSTRAP_DRAWS = 2**15  # resample indices drawn per block

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

log = logging.getLogger(__name__)


def kl_to_reference(reference, policy) -> float:
    """``KL(reference || policy)`` summed over the reference's support,
    with the policy floored and renormalized."""
    reference = np.asarray(reference, dtype=float)
    smoothed = np.maximum(np.asarray(policy, dtype=float), POLICY_FLOOR)
    support = reference > 0
    log_ratio = np.log(reference[support]) - np.log((smoothed / smoothed.sum())[support])
    return float(np.sum(reference[support] * log_ratio))


def bootstrap_ci(samples, level: float, resamples: int, rng: np.random.Generator):
    """Percentile bootstrap interval for the mean of ``samples``.

    ``level`` is the two-sided coverage; at 0 the interval collapses to
    the bootstrap median. Deterministic for a fixed generator.

    Resamples are drawn and averaged in blocks of ``max(1,
    _BOOTSTRAP_DRAWS // n)`` rows of ``n`` indices. Besides the
    ``resamples`` means, a call holds ``16 * max(_BOOTSTRAP_DRAWS, n)``
    bytes of indices and gathered values (512 KB up to 32768 samples)
    whatever the resample count. The stream runs on from block to block
    and each mean reduces its own row, so the result is that of one
    ``(resamples, n)`` draw, bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ContractError("bootstrap_ci needs at least 2 samples")
    if not 0.0 <= level < 1.0:
        raise ContractError(f"level must lie in [0, 1), got {level}")
    require_integers(resamples=resamples)
    require_range(1, math.inf, resamples=resamples)
    n = samples.size
    rows = max(1, _BOOTSTRAP_DRAWS // n)
    means = np.empty(resamples)
    for start in range(0, resamples, rows):
        block = means[start:start + rows]
        samples.take(rng.integers(0, n, size=(block.size, n))).mean(axis=1, out=block)
    if level == 0.0:
        med = float(np.median(means))
        return med, med
    lo, hi = np.percentile(means, [100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0])
    return float(lo), float(hi)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, and the one place its defaults and checks live: a
    config built in Python is checked as fully as one loaded from JSON,
    each sweep point's cell included (its ``s0`` must be a non-terminal
    state). Its JSON form is flat: every ``TrainConfig`` field is a
    top-level key next to the keys declared here. ``mdp`` is not an
    argument but ``mdp_from_dict`` of a copy of ``env``, built once here; no
    sweep key reaches it. Seeds are kept as a tuple and sweep values as
    lists, the forms ``config_to_dict`` output loads back to."""

    experiment: str
    env: dict
    train: TrainConfig
    iterations: int = 100
    seeds: tuple = (0,)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "out"
    mdp: TabularMdp = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if not isinstance(self.env, dict):
            raise ConfigError("env: must be an object")
        object.__setattr__(self, "env", copy.deepcopy(self.env))
        object.__setattr__(self, "mdp", mdp_from_dict(self.env, source="env"))
        require_integers(iterations=self.iterations)
        require_range(1, math.inf, iterations=self.iterations)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir: must be a string, got {self.output_dir!r}")
        if not self.output_dir:
            raise ConfigError("output_dir: must not be empty")
        if not isinstance(self.seeds, (list, tuple)) or not all(type(s) is int for s in self.seeds):
            raise ConfigError("seeds: must be an integer count or list of integers")
        if not self.seeds:
            raise ConfigError("seeds: must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: must not repeat a seed, got {list(self.seeds)}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not isinstance(self.sweep, dict) or not all(isinstance(k, str) for k in self.sweep):
            raise ConfigError("sweep: must be an object with string keys")
        for key, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep.{key}: must be a non-empty list of values")
            # values are told apart by their point label, as in the summary
            if len({str(value) for value in values}) != len(values):
                raise ConfigError(f"sweep.{key}: must not repeat a value, got {list(values)}")
        object.__setattr__(self, "sweep", {key: list(values) for key, values in self.sweep.items()})
        for point in _sweep_points(self):
            try:
                cell, iterations = _apply_sweep_point(self, point)
                require_integers(iterations=iterations)
                require_range(1, math.inf, iterations=iterations)
                if not 0 <= cell.s0 < self.mdp.n_states:
                    raise ConfigError(f"s0: state {cell.s0} out of range [0, {self.mdp.n_states})")
                if self.mdp.terminal[cell.s0]:
                    raise ConfigError(f"s0: state {cell.s0} is terminal")
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep point {point}: {exc}" if point else str(exc)) from exc


# TrainConfig fields: nested config sections, and top-level scalars
_TRAIN_FIELDS = get_type_hints(TrainConfig)
_SECTIONS = {name: kind for name, kind in _TRAIN_FIELDS.items() if dataclasses.is_dataclass(kind)}
_SCALARS = set(_TRAIN_FIELDS) - set(_SECTIONS)
_OWN_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.init and f.name != "train"]
_TOP_KEYS = set(_OWN_KEYS) | set(_TRAIN_FIELDS)


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
    """Map a flat JSON config onto the dataclasses, passing only the keys
    present, so every default and check is theirs; ``seeds`` may also be
    a count. Any error is a ``ConfigError`` prefixed with ``source``."""
    try:
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")
        for key in ("experiment", "env", "planner"):
            if key not in data:
                raise ConfigError(f"missing key {key!r}")
        train_args = {name: data[name] for name in _SCALARS if name in data}
        for name, kind in _SECTIONS.items():
            if name in data:
                train_args[name] = _dataclass_from_dict(kind, data[name], name)
        own = {name: data[name] for name in _OWN_KEYS if name in data}
        if type(own.get("seeds")) is int:
            own["seeds"] = list(range(own["seeds"]))
        return ExperimentConfig(**own, train=TrainConfig(**train_args))
    except (TypeError, ValueError) as exc:  # ConfigError and ContractError are ValueErrors
        raise ConfigError(f"{source}: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    data = {name: copy.deepcopy(getattr(config, name)) for name in _OWN_KEYS}
    return {**data, **dataclasses.asdict(config.train), "seeds": list(config.seeds)}


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


def _apply_sweep_point(config: ExperimentConfig, point: dict) -> tuple[TrainConfig, int]:
    """The ``(TrainConfig, iterations)`` of the cell at ``point``: those of
    ``config`` with each ``key: value`` of ``point`` set, where a key is
    ``iterations``, a top-level ``TrainConfig`` scalar or ``section.field``."""
    section_updates, train_updates, iterations = {}, {}, config.iterations
    for key, value in point.items():
        head, _, tail = key.partition(".")
        if head in _SECTIONS and tail in {f.name for f in dataclasses.fields(_SECTIONS[head])}:
            section_updates.setdefault(head, {})[tail] = value
        elif head in _SCALARS and not tail:
            train_updates[head] = value
        elif key == "iterations":
            iterations = value
        else:
            raise ConfigError(f"sweep.{key}: does not name a configurable field")
    for head, updates in section_updates.items():
        train_updates[head] = replace(getattr(config.train, head), **updates)
    return replace(config.train, **train_updates), iterations


def _tv_to_reference(reference, policy) -> float:
    return 0.5 * float(np.abs(policy - reference).sum())


# planning-only experiments: metric name and its divergence from the exact
# root posterior
_PLAN_METRICS = {
    "path_degeneracy": ("kl_root", kl_to_reference),
    "oracle_convergence": ("tv_root", _tv_to_reference),
}


def _drive(config: ExperimentConfig, point: dict, seeds):
    """Run the cell of sweep ``point`` once per seed on ``config.mdp``,
    planning cells sharing one set of planning tables; yields ``(seed,
    rows)``, rows ``(step, metric, value)``. Planning cells use
    ``Model.zeros`` (its trust-region radii are 0) and read the root policy
    only: ``proposal_mode``, ``alpha``, ``sigma`` and ``lambda_smc`` leave
    their metrics unchanged."""
    cell, iterations = _apply_sweep_point(config, point)
    mdp = config.mdp
    if config.experiment in _PLAN_METRICS:
        name, divergence = _PLAN_METRICS[config.experiment]
        planner, s0 = cell.planner, cell.s0
        model = Model.zeros(mdp.n_states, mdp.n_actions)
        prior, tables = model.policy(), plan_tables(mdp, model, planner)
        for seed in seeds:
            soft = soft_value_iteration(mdp, prior, planner.depth, planner.temperature)
            out = run_planner(mdp, s0, model, planner, seed, tables)
            yield seed, [(0, name, divergence(soft.posterior_policy[s0], out.root_policy))]
        return
    for seed in seeds:
        result = train(mdp, cell, iterations, seed)
        curves = ("greedy_return", result.greedy_returns), ("policy_return", result.policy_returns)
        if config.experiment == "ablation":
            window = min(10, iterations)
            yield seed, [(0, f"final_{m}", float(c[-window:].mean())) for m, c in curves]
        else:
            yield seed, [(n, m, float(c[n])) for n in range(iterations) for m, c in curves]


def _sweep_points(config: ExperimentConfig):
    keys = sorted(config.sweep)
    if not keys:
        return [{}]
    return [dict(zip(keys, combo)) for combo in product(*(config.sweep[k] for k in keys))]


def run(config: ExperimentConfig, force: bool = False) -> int:
    """Execute the experiment and write metrics, summary, and resolved
    config into ``config.output_dir``. Refuses to overwrite existing
    results unless ``force``. Logs one INFO record per finished cell on
    ``smcplan.harness``, e.g. ``cell 37/1600 planner.depth=4 seed 36``."""
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
    points = _sweep_points(config)
    cells, done = len(points) * len(config.seeds), 0
    for point in points:
        point_label = ",".join(f"{k}={point[k]}" for k in sweep_keys) or "all"
        point_values = tuple(point.get(k) for k in sweep_keys)
        for seed, cell_rows in _drive(config, point, config.seeds):
            last = {}
            for step_idx, metric, value in cell_rows:
                rows.append(point_values + (seed, step_idx, metric, value))
                last[metric] = value
            for metric, value in last.items():
                finals.setdefault((point_label, metric), []).append(value)
            done += 1
            log.info("cell %d/%d %s seed %d", done, cells, point_label, seed)

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
