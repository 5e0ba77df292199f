"""Outer training loop: plan, act, store, and fit the tabular model.

One iteration collects a segment by model-predictive control (plan at
every visited state, act from the search policy) as per-step arrays,
converts it into lambda-return targets bootstrapped from the planner's
own value estimates, writes the (state, action, target, search policy)
columns into a fixed-capacity ring buffer, and takes clipped SGD steps
on the joint value/policy loss over batches gathered from those
columns, all of an iteration's batches in one draw. The planner always
reads the live model, so each iteration plans against the freshly
updated prior.

The model is tabular (logit, value and action-value tables), which keeps
gradients exact and lets evaluation use exact dynamic programming
instead of sampled episodes. The three tables are views of one parameter
vector, so a gradient is one ``bincount`` and an SGD step one update;
where each batch item's gradient lands is worked out once per iteration,
for all of its batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .errors import FINITE, ContractError, NumericalError, require_integers, require_range
from .mdp import TabularMdp, step
from .oracle import policy_value
from .planner import PlannerConfig, plan_tables, run_planner
from .trust_region import greedy_row

_SEGMENT, _UPDATES = 0, 1
_PLAN, _ACT = 0, 1


class Model:
    """Tabular policy/value model; the policy is the row-softmax of the
    logits. The three tables are views of one vector ``params =
    [policy_logits | v_table | q_table]``, so a write to a table is a
    write to the model; the constructor copies its arguments."""

    def __init__(self, policy_logits, v_table, q_table):
        shape = np.shape(policy_logits)
        if len(shape) != 2 or np.shape(v_table) != shape[:1] or np.shape(q_table) != shape:
            raise ContractError("need (S, A) logits and q_table and an (S,) v_table")
        self._bind(np.concatenate([np.ravel(t) for t in (policy_logits, v_table, q_table)],
                                  dtype=float), *shape)

    def _bind(self, params, n_states, n_actions):
        cells = n_states * n_actions
        self.params = params
        self.policy_logits = params[:cells].reshape(n_states, n_actions)
        self.v_table = params[cells : cells + n_states]
        self.q_table = params[cells + n_states :].reshape(n_states, n_actions)
        return self

    @classmethod
    def of_params(cls, params, n_states: int, n_actions: int) -> "Model":
        """The model whose tables are views of ``params`` itself."""
        return cls.__new__(cls)._bind(params, n_states, n_actions)

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "Model":
        return cls.of_params(np.zeros(n_states * (2 * n_actions + 1)), n_states, n_actions)

    def log_policy(self) -> np.ndarray:
        z = self.policy_logits - self.policy_logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def policy(self) -> np.ndarray:
        return np.exp(self.log_policy())


@dataclass(frozen=True)
class Segment:
    """Per-step arrays of one collected segment: ``search_policies`` is
    ``(n, A)``, the rest ``(n,)``; ``tail_value`` bootstraps its end."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    search_policies: np.ndarray
    inner_values: np.ndarray
    terminals: np.ndarray
    tail_value: float


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
        require_range(0, FINITE, c_v=self.c_v, c_pi=self.c_pi, c_ent=self.c_ent, lr=self.lr)
        require_range(0, math.inf, clip_abs=self.clip_abs, clip_norm=self.clip_norm)
        require_range(0, 1, lambda_outer=self.lambda_outer, gamma_outer=self.gamma_outer)


class ReplayBuffer:
    """Fixed-capacity FIFO buffer of (state, action, target, search
    policy) columns; the n-th pair added lives in slot ``n % capacity``."""

    def __init__(self, capacity: int, n_actions: int):
        require_integers(capacity=capacity)
        require_range(1, math.inf, capacity=capacity)
        self.states = np.zeros(capacity, dtype=np.intp)
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.targets = np.zeros(capacity)
        self.search_policies = np.zeros((capacity, n_actions))
        self._added = 0

    def __len__(self) -> int:
        return min(self._added, len(self.targets))

    def add_segment(self, segment: Segment, targets):
        n, capacity = len(targets), len(self.targets)
        if len(segment.states) != n:
            raise ContractError("need one target per step")
        if not (np.abs(segment.search_policies.sum(axis=1) - 1.0) <= 1e-9).all():
            raise ContractError("search policies must sum to 1")
        keep = slice(max(n - capacity, 0), n)  # older pairs would be overwritten
        slots = (self._added + np.arange(n)[keep]) % capacity
        self.states[slots] = segment.states[keep]
        self.actions[slots] = segment.actions[keep]
        self.targets[slots] = np.asarray(targets)[keep]
        self.search_policies[slots] = segment.search_policies[keep]
        self._added += n

    def sample(self, batch_size, rng: np.random.Generator):
        """``(states, actions, targets, search_policies)`` of a uniform
        draw of ``batch_size`` stored pairs, with replacement. A shape
        ``(u, b)`` draws ``u`` batches at once, as ``u`` successive draws
        of ``b`` would: the columns gain a leading axis of length ``u``."""
        if not len(self):
            raise ContractError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self), size=batch_size)
        columns = self.states, self.actions, self.targets, self.search_policies
        return tuple(column[idx] for column in columns)


def collect_segment(
    mdp: TabularMdp,
    model: Model,
    planner_config: PlannerConfig,
    horizon: int,
    seed: int,
    s0: int = 0,
) -> Segment:
    """Roll out up to ``horizon`` environment steps under planner control.

    At each state the planner produces a search policy and a mixed value
    estimate; the environment action is sampled from the search policy.
    The segment's ``tail_value`` is zero after termination, otherwise the
    planner's value estimate at the final state (one extra planning
    call). The model is fixed within a segment, so its planning tables
    are built once.
    """
    require_integers(horizon=horizon)
    require_range(1, math.inf, horizon=horizon)
    tables = plan_tables(mdp, model, planner_config)
    states = np.empty(horizon, dtype=np.intp)
    actions = np.empty(horizon, dtype=np.intp)
    rewards, values = np.empty(horizon), np.empty(horizon)
    search = np.empty((horizon, mdp.n_actions))
    terminals = np.zeros(horizon, dtype=bool)
    state = int(s0)
    for t in range(horizon):
        out = run_planner(mdp, state, model, planner_config, rng_mod.fold(seed, t, _PLAN), tables)
        gen = rng_mod.stream(seed, t, _ACT) if t == 0 else rng_mod.rekey(gen, seed, t, _ACT)
        action = int(rng_mod.categorical(rng_mod.cdf_rows(out.root_policy), gen.random()))
        states[t], actions[t] = state, action
        search[t], values[t] = out.root_policy, out.root_value
        state, rewards[t], terminals[t] = step(mdp, state, action, gen)
        if terminals[t]:
            break
    tail = 0.0
    if not terminals[t]:
        tail_seed = rng_mod.fold(seed, horizon, _PLAN)
        tail = float(run_planner(mdp, state, model, planner_config, tail_seed, tables).root_value)
    n = t + 1
    return Segment(
        states[:n], actions[:n], rewards[:n], search[:n], values[:n], terminals[:n], tail
    )


def outer_targets(segment: Segment, gamma: float, lam: float) -> np.ndarray:
    """Truncated lambda-returns bootstrapped from the recorded inner values.

    ``G_t = r_t + gamma * ((1 - lam) * V'_{t+1} + lam * G_{t+1})`` with a
    zero bootstrap past terminal transitions and the segment's
    ``tail_value`` standing in for both ``V'`` and ``G`` beyond its end.
    """
    n = len(segment.rewards)
    if not n:
        raise ContractError("need at least one step")
    targets = np.empty(n)
    next_g = next_v = segment.tail_value
    for t in range(n - 1, -1, -1):
        if segment.terminals[t]:
            targets[t] = segment.rewards[t]
        else:
            targets[t] = segment.rewards[t] + gamma * ((1.0 - lam) * next_v + lam * next_g)
        next_g = targets[t]
        next_v = segment.inner_values[t]
    return targets


def loss(model: Model, batch, cfg: LossConfig) -> float:
    """Mean squared value errors plus policy cross-entropy and entropy
    penalty over a ``(states, actions, targets, search_policies)`` batch."""
    states, actions, targets, search = batch
    if not len(targets):
        raise ContractError("batch must be non-empty")
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


def grad_index(states, actions, n_states: int, n_actions: int) -> np.ndarray:
    """Where each item's gradient lands in ``params = [policy_logits |
    v_table | q_table]``: its ``n_actions`` logits, then its v_table and
    q_table entries, along a new last axis. Takes arrays of any shape,
    so one call serves all of an iteration's batches."""
    cells = n_states * n_actions
    stride = np.array([n_actions] * n_actions + [1, n_actions])
    index = states[..., None] * stride + np.array([*range(n_actions), cells, cells + n_states])
    index[..., -1] += actions
    return index


def grad(model: Model, batch, cfg: LossConfig, index=None) -> Model:
    """Exact analytic gradient of :func:`loss` for the tabular model, as
    a :class:`Model` whose tables hold each table's gradient.

    Only rows visited by the batch receive gradient; the cross-entropy
    term differentiates to ``c_pi * (pi - search_policy)`` per visited
    logit row, with the entropy penalty adding
    ``c_ent * pi * (log pi + H)``; each cell sums in batch order from 0.
    ``index`` is the batch's :func:`grad_index`, built here when not
    given.
    """
    states, actions, targets, search = batch
    n = len(targets)
    if not n:
        raise ContractError("batch must be non-empty")
    log_pi = model.log_policy()
    pi = np.exp(log_pi)
    entropy = -(pi * log_pi).sum(axis=1)

    n_states, n_actions = pi.shape
    pi_s = pi[states]
    rows = cfg.c_pi * (pi_s - search) + cfg.c_ent * pi_s * (log_pi[states] + entropy[states, None])
    # one bincount: item i adds to its logit row, v_table entry and
    # q_table entry
    if index is None:
        index = grad_index(states, actions, n_states, n_actions)
    weights = np.empty(index.shape)
    weights[:, :n_actions] = rows
    weights[:, n_actions:] = cfg.c_v * (model.params[index[:, n_actions:]] - targets[:, None])
    weights /= n
    flat = np.bincount(index.ravel(), weights.ravel(), model.params.size)
    return Model.of_params(flat, n_states, n_actions)


def sgd_step(model: Model, grads: Model, cfg: LossConfig) -> Model:
    """Clip element-wise, rescale to the global norm cap, then descend; a
    clipped gradient whose norm is not finite raises NumericalError."""
    g = np.clip(grads.params, -cfg.clip_abs, cfg.clip_abs)
    squares = Model.of_params(np.square(g), *model.policy_logits.shape)
    p, v, q = (float(t.sum()) for t in (squares.policy_logits, squares.v_table, squares.q_table))
    norm = float(np.sqrt(p + v + q))  # left to right, as sum() added before Python 3.12
    if not math.isfinite(norm):
        raise NumericalError(f"gradient norm is {norm}")
    if norm > cfg.clip_norm and norm > 0:
        g = g * (cfg.clip_norm / norm)
    return Model.of_params(model.params - cfg.lr * g, *model.policy_logits.shape)


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
        counts = dict(
            horizon=self.horizon,
            buffer_capacity=self.buffer_capacity,
            batch_size=self.batch_size,
            updates_per_iteration=self.updates_per_iteration,
        )
        require_integers(**counts, s0=self.s0, eval_horizon=self.eval_horizon)
        require_range(1, math.inf, **counts)
        require_range(0, math.inf, eval_horizon=self.eval_horizon)


@dataclass
class TrainResult:
    greedy_returns: np.ndarray
    policy_returns: np.ndarray
    losses: np.ndarray
    model: Model


def train(mdp: TabularMdp, config: TrainConfig, iterations: int, seed: int) -> TrainResult:
    """Alternate segment collection and SGD; returns per-iteration
    exact evaluation returns of the greedy and stochastic policies."""
    require_integers(iterations=iterations)
    require_range(1, math.inf, iterations=iterations)
    eval_horizon = config.eval_horizon or config.horizon
    model = Model.zeros(mdp.n_states, mdp.n_actions)
    buffer = ReplayBuffer(config.buffer_capacity, mdp.n_actions)
    greedy_returns = np.empty(iterations)
    policy_returns = np.empty(iterations)
    losses = np.empty(iterations)
    for n in range(iterations):
        segment = collect_segment(
            mdp,
            model,
            config.planner,
            config.horizon,
            rng_mod.fold(seed, n, _SEGMENT),
            s0=config.s0,
        )
        targets = outer_targets(segment, config.loss.gamma_outer, config.loss.lambda_outer)
        buffer.add_segment(segment, targets)
        gen = rng_mod.stream(seed, n, _UPDATES)
        batches = buffer.sample((config.updates_per_iteration, config.batch_size), gen)
        index = grad_index(batches[0], batches[1], mdp.n_states, mdp.n_actions)
        for batch, batch_index in zip(zip(*batches), index):
            model = sgd_step(model, grad(model, batch, config.loss, batch_index), config.loss)
        losses[n] = loss(model, batch, config.loss)
        # greedy policy: argmax of the logits, ties split evenly
        greedy_returns[n] = policy_value(mdp, greedy_row(model.policy_logits), eval_horizon)[
            config.s0
        ]
        policy_returns[n] = policy_value(mdp, model.policy(), eval_horizon)[config.s0]
    return TrainResult(greedy_returns, policy_returns, losses, model)

