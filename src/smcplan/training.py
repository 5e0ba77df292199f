"""Outer training loop: plan, act, store, and fit the tabular model.

One iteration collects a segment by model-predictive control (plan at
every visited state, act from the search policy), converts the segment
into lambda-return targets bootstrapped from the planner's own value
estimates, pushes the pairs into a FIFO replay buffer, and takes clipped
SGD steps on the joint value/policy loss. The planner always reads the
live model, so each iteration plans against the freshly updated prior.

The model is tabular (logit, value and action-value tables), which keeps
gradients exact and lets evaluation use exact dynamic programming
instead of sampled episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .errors import ContractError, require_integers
from .mdp import TabularMdp, step
from .oracle import policy_value
from .planner import PlannerConfig, plan_tables, run_planner
from .trust_region import greedy_row

_SEGMENT, _UPDATES = 0, 1
_PLAN, _ACT = 0, 1


@dataclass
class Model:
    """Tabular policy/value model; the policy is the row-softmax of the
    logits."""

    policy_logits: np.ndarray
    v_table: np.ndarray
    q_table: np.ndarray

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "Model":
        return cls(
            policy_logits=np.zeros((n_states, n_actions)),
            v_table=np.zeros(n_states),
            q_table=np.zeros((n_states, n_actions)),
        )

    def log_policy(self) -> np.ndarray:
        z = self.policy_logits - self.policy_logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def policy(self) -> np.ndarray:
        return np.exp(self.log_policy())

    def copy(self) -> "Model":
        return Model(
            self.policy_logits.copy(), self.v_table.copy(), self.q_table.copy()
        )


@dataclass(frozen=True)
class TransitionRecord:
    """One environment step with the planner outputs recorded at it."""

    state: int
    action: int
    reward: float
    search_policy: np.ndarray
    inner_value: float
    terminal: bool

    def __post_init__(self):
        policy = np.asarray(self.search_policy, dtype=float)
        if abs(policy.sum() - 1.0) > 1e-9:
            raise ContractError("search_policy must sum to 1")
        object.__setattr__(self, "search_policy", policy)


@dataclass(frozen=True)
class LossConfig:
    c_v: float = 0.5
    c_pi: float = 1.0
    c_ent: float = 0.1
    lambda_outer: float = 0.95
    gamma_outer: float = 1.0
    lr: float = 0.1
    clip_abs: float = 10.0
    clip_norm: float = 10.0

    def __post_init__(self):
        for name in ("c_v", "c_pi", "c_ent", "lr", "clip_abs", "clip_norm"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be non-negative")
        for name in ("lambda_outer", "gamma_outer"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"{name} must lie in [0, 1], got {value}")


class ReplayBuffer:
    """Fixed-capacity circular buffer of (record, target) pairs, FIFO."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractError("capacity must be at least 1")
        self.capacity = capacity
        self._items = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def add_segment(self, records, targets):
        if len(records) != len(targets):
            raise ContractError("need one target per record")
        for pair in zip(records, targets):
            if len(self._items) < self.capacity:
                self._items.append(pair)
            else:
                self._items[self._next] = pair
                self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        if not self._items:
            raise ContractError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


def collect_segment(
    mdp: TabularMdp,
    model: Model,
    planner_config: PlannerConfig,
    horizon: int,
    seed: int,
    s0: int = 0,
):
    """Roll out up to ``horizon`` environment steps under planner control.

    At each state the planner produces a search policy and a mixed value
    estimate; the environment action is sampled from the search policy.
    Returns ``(records, tail_value)`` where ``tail_value`` bootstraps the
    segment end: zero after termination, otherwise the planner's value
    estimate at the final state (one extra planning call). The model is
    fixed within a segment, so its planning tables are built once.
    """
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    tables = plan_tables(mdp, model, planner_config)
    records = []
    state = int(s0)
    for t in range(horizon):
        out = run_planner(
            mdp, state, model, planner_config, rng_mod.fold(seed, t, _PLAN), tables
        )
        gen = rng_mod.stream(seed, t, _ACT)
        action = int(rng_mod.categorical(np.cumsum(out.root_policy), gen.random()))
        nxt, reward, terminal = step(mdp, state, action, gen)
        records.append(
            TransitionRecord(state, action, reward, out.root_policy, out.root_value, terminal)
        )
        if terminal:
            return records, 0.0
        state = nxt
    tail = run_planner(
        mdp, state, model, planner_config, rng_mod.fold(seed, horizon, _PLAN), tables
    )
    return records, float(tail.root_value)


def outer_targets(records, gamma: float, lam: float, tail_value: float = 0.0) -> np.ndarray:
    """Truncated lambda-returns bootstrapped from the recorded inner values.

    ``G_t = r_t + gamma * ((1 - lam) * V'_{t+1} + lam * G_{t+1})`` with a
    zero bootstrap past terminal transitions and ``tail_value`` standing
    in for both ``V'`` and ``G`` beyond the segment end.
    """
    if not records:
        raise ContractError("need at least one record")
    n = len(records)
    targets = np.empty(n)
    next_g = tail_value
    next_v = tail_value
    for t in range(n - 1, -1, -1):
        rec = records[t]
        if rec.terminal:
            targets[t] = rec.reward
        else:
            targets[t] = rec.reward + gamma * ((1.0 - lam) * next_v + lam * next_g)
        next_g = targets[t]
        next_v = rec.inner_value
    return targets


def _batch_arrays(batch):
    states = np.array([rec.state for rec, _ in batch], dtype=np.intp)
    actions = np.array([rec.action for rec, _ in batch], dtype=np.intp)
    targets = np.array([float(t) for _, t in batch])
    search = np.stack([rec.search_policy for rec, _ in batch])
    return states, actions, targets, search


def loss(model: Model, batch, cfg: LossConfig) -> float:
    """Mean squared value errors plus policy cross-entropy and entropy
    penalty over a batch of (record, target) pairs."""
    if not batch:
        raise ContractError("batch must be non-empty")
    states, actions, targets, search = _batch_arrays(batch)
    log_pi = model.log_policy()
    pi = np.exp(log_pi)
    entropy = -(pi * log_pi).sum(axis=1)
    value_sq = (targets - model.v_table[states]) ** 2
    q_sq = (targets - model.q_table[states, actions]) ** 2
    cross_entropy = -(search * log_pi[states]).sum(axis=1)
    per_item = (
        0.5 * cfg.c_v * value_sq
        + 0.5 * cfg.c_v * q_sq
        + cfg.c_pi * cross_entropy
        - cfg.c_ent * entropy[states]
    )
    return float(per_item.mean())


@dataclass
class ModelGrads:
    policy_logits: np.ndarray
    v_table: np.ndarray
    q_table: np.ndarray


def grad(model: Model, batch, cfg: LossConfig) -> ModelGrads:
    """Exact analytic gradient of :func:`loss` for the tabular model.

    Only rows visited by the batch receive gradient; the cross-entropy
    term differentiates to ``c_pi * (pi - search_policy)`` per visited
    logit row, with the entropy penalty adding
    ``c_ent * pi * (log pi + H)``.
    """
    if not batch:
        raise ContractError("batch must be non-empty")
    states, actions, targets, search = _batch_arrays(batch)
    n = len(batch)
    log_pi = model.log_policy()
    pi = np.exp(log_pi)
    entropy = -(pi * log_pi).sum(axis=1)

    g_logits = np.zeros_like(model.policy_logits)
    g_v = np.zeros_like(model.v_table)
    g_q = np.zeros_like(model.q_table)
    np.add.at(g_v, states, cfg.c_v * (model.v_table[states] - targets) / n)
    np.add.at(g_q, (states, actions), cfg.c_v * (model.q_table[states, actions] - targets) / n)
    rows = cfg.c_pi * (pi[states] - search) + cfg.c_ent * pi[states] * (
        log_pi[states] + entropy[states, None]
    )
    np.add.at(g_logits, states, rows / n)
    return ModelGrads(g_logits, g_v, g_q)


def sgd_step(model: Model, grads: ModelGrads, cfg: LossConfig) -> Model:
    """Clip element-wise, rescale to the global norm cap, then descend."""
    parts = [
        np.clip(grads.policy_logits, -cfg.clip_abs, cfg.clip_abs),
        np.clip(grads.v_table, -cfg.clip_abs, cfg.clip_abs),
        np.clip(grads.q_table, -cfg.clip_abs, cfg.clip_abs),
    ]
    norm = float(np.sqrt(sum(float(np.square(p).sum()) for p in parts)))
    if norm > cfg.clip_norm and norm > 0:
        parts = [p * (cfg.clip_norm / norm) for p in parts]
    return Model(
        policy_logits=model.policy_logits - cfg.lr * parts[0],
        v_table=model.v_table - cfg.lr * parts[1],
        q_table=model.q_table - cfg.lr * parts[2],
    )


@dataclass(frozen=True)
class TrainConfig:
    """Bundle of everything one training run needs besides the MDP."""

    planner: PlannerConfig
    loss: LossConfig = field(default_factory=LossConfig)
    horizon: int = 16
    s0: int = 0
    buffer_capacity: int = 2048
    batch_size: int = 64
    updates_per_iteration: int = 16
    eval_horizon: int = 0  # 0 means "use horizon"

    def __post_init__(self):
        require_integers(
            horizon=self.horizon,
            s0=self.s0,
            buffer_capacity=self.buffer_capacity,
            batch_size=self.batch_size,
            updates_per_iteration=self.updates_per_iteration,
            eval_horizon=self.eval_horizon,
        )
        if self.horizon < 1:
            raise ContractError("horizon must be at least 1")
        for name in ("buffer_capacity", "batch_size", "updates_per_iteration"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.eval_horizon < 0:
            raise ContractError("eval_horizon must be non-negative (0 means horizon)")


@dataclass
class TrainResult:
    greedy_returns: np.ndarray
    policy_returns: np.ndarray
    losses: np.ndarray
    model: Model


def train(mdp: TabularMdp, config: TrainConfig, iterations: int, seed: int) -> TrainResult:
    """Alternate segment collection and SGD; returns per-iteration
    exact evaluation returns of the greedy and stochastic policies."""
    if iterations < 1:
        raise ContractError("iterations must be at least 1")
    eval_horizon = config.eval_horizon or config.horizon
    model = Model.zeros(mdp.n_states, mdp.n_actions)
    buffer = ReplayBuffer(config.buffer_capacity)
    greedy_returns = np.empty(iterations)
    policy_returns = np.empty(iterations)
    losses = np.empty(iterations)
    for n in range(iterations):
        records, tail = collect_segment(
            mdp,
            model,
            config.planner,
            config.horizon,
            rng_mod.fold(seed, n, _SEGMENT),
            s0=config.s0,
        )
        targets = outer_targets(
            records, config.loss.gamma_outer, config.loss.lambda_outer, tail
        )
        buffer.add_segment(records, targets)
        gen = rng_mod.stream(seed, n, _UPDATES)
        for _ in range(config.updates_per_iteration):
            batch = buffer.sample(config.batch_size, gen)
            model = sgd_step(model, grad(model, batch, config.loss), config.loss)
        losses[n] = loss(model, batch, config.loss)
        # greedy policy: argmax of the logits, ties split evenly
        greedy_returns[n] = policy_value(mdp, greedy_row(model.policy_logits), eval_horizon)[
            config.s0
        ]
        policy_returns[n] = policy_value(mdp, model.policy(), eval_horizon)[config.s0]
    return TrainResult(greedy_returns, policy_returns, losses, model)

