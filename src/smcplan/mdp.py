"""Finite tabular MDPs with absorbing terminal states.

States and actions are dense integer ids. Terminal states are modeled as
absorbing: every action loops back to the same state with zero reward,
so a simulator can run past termination without special cases. The
discount factor is stored on the MDP but is consumed by return and
weight estimators, never by :func:`step` itself.

Also provides exhaustive trajectory enumeration, which the oracle module
and the test-suite use as ground truth for sampled estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BudgetError, ConfigError, ContractError, is_integer, require_integers
from .errors import require_range
from .rng import categorical, cdf_rows

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Explicit-tensor MDP: ``transition[s, a, s']`` and ``reward[s, a]``.

    Immutable after construction; the arrays are marked read-only so an
    instance can be shared freely across threads. Row ``s * A + a`` of
    the derived successor tables holds the states ``(s, a)`` reaches with
    positive mass, ascending, and their cumulative masses (``cdf_rows``),
    padded to the widest row with entries that no draw reaches.
    """

    transition: np.ndarray
    reward: np.ndarray
    terminal: np.ndarray
    discount: float = 1.0
    successor_states: np.ndarray = field(init=False, repr=False, compare=False)
    successor_cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        transition = np.ascontiguousarray(self.transition, dtype=float)
        reward = np.ascontiguousarray(self.reward, dtype=float)
        terminal = np.ascontiguousarray(self.terminal, dtype=bool)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise ContractError("transition must have shape (S, A, S)")
        n_states, n_actions = transition.shape[:2]
        if n_states < 1 or n_actions < 1:
            raise ContractError("need at least one state and one action")
        if reward.shape != (n_states, n_actions):
            raise ContractError(
                f"reward must have shape ({n_states}, {n_actions}), got {reward.shape}"
            )
        if terminal.shape != (n_states,):
            raise ContractError(
                f"terminal must have shape ({n_states},), got {terminal.shape}"
            )
        discount = float(self.discount)
        require_range(0, 1, discount=discount)
        for name, arr in (("transition", transition), ("reward", reward)):
            if not np.isfinite(arr).all():
                raise ContractError(f"{name} has non-finite entries")
        if (transition < 0).any():
            raise ContractError("transition probabilities must be non-negative")
        row_gap = np.abs(transition.sum(axis=2) - 1.0)
        if row_gap.max() > _ROW_SUM_TOL:
            s, a = np.unravel_index(int(row_gap.argmax()), row_gap.shape)
            raise ContractError(
                f"transition[{s}][{a}]: row sums to {transition[s, a].sum()!r}"
            )
        for s in np.flatnonzero(terminal):
            if not (transition[s, :, s] == 1.0).all():
                raise ContractError(f"terminal state {s} must self-loop for all actions")
            if not (reward[s] == 0.0).all():
                raise ContractError(f"terminal state {s} must have zero reward")
        rows = transition.reshape(n_states * n_actions, n_states)
        width = np.count_nonzero(rows > 0, axis=1).max()
        # a stable sort puts each row's support first, in ascending order
        successor_states = np.argsort(rows <= 0, axis=1, kind="stable")[:, :width].copy()
        successor_cdf = cdf_rows(np.take_along_axis(rows, successor_states, axis=1))
        for arr in (transition, reward, terminal, successor_states, successor_cdf):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "successor_states", successor_states)
        object.__setattr__(self, "successor_cdf", successor_cdf)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "discount", discount)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """A realized path: one more state than actions, one reward per action."""

    states: tuple
    actions: tuple
    rewards: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))
        object.__setattr__(self, "rewards", tuple(float(r) for r in self.rewards))
        if len(self.states) != len(self.actions) + 1:
            raise ContractError("need exactly one more state than actions")
        if len(self.rewards) != len(self.actions):
            raise ContractError("need one reward per action")


def step(mdp: TabularMdp, state: int, action: int, rng: np.random.Generator):
    """Sample one transition; returns ``(next_state, reward, terminal)``.

    The discount is not applied here; estimators consume it explicitly.
    """
    if not 0 <= state < mdp.n_states:
        raise ContractError(f"state {state} out of range [0, {mdp.n_states})")
    if not 0 <= action < mdp.n_actions:
        raise ContractError(f"action {action} out of range [0, {mdp.n_actions})")
    row = state * mdp.n_actions + action
    nxt = int(mdp.successor_states[row, categorical(mdp.successor_cdf[row], rng.random())])
    return nxt, float(mdp.reward[state, action]), bool(mdp.terminal[nxt])


def _deterministic_mdp(next_state, reward, terminal) -> TabularMdp:
    """The undiscounted MDP in which action ``a`` moves state ``s`` to
    ``next_state[s, a]`` for ``reward[s, a]``, except that every terminal
    state absorbs: each action loops back to it with zero reward, whatever
    its rows say."""
    terminal = np.asarray(terminal, dtype=bool)
    absorbing = terminal[:, None]
    next_state = np.where(absorbing, np.arange(terminal.size)[:, None], next_state)
    return TabularMdp(np.eye(terminal.size)[next_state], np.where(absorbing, 0.0, reward), terminal)


def make_two_arm() -> TabularMdp:
    """One decision state with two arms: arm 1 pays 1, arm 0 pays 0.

    Both arms lead straight to the single terminal state.
    """
    return _deterministic_mdp([[1, 1], [1, 1]], [[0.0, 1.0], [0.0, 0.0]], [False, True])


def make_chain(n: int, goal_reward: float = 1.0) -> TabularMdp:
    """Chain of ``n`` walk states plus a terminal goal at the right end.

    Action 1 moves right (paying ``goal_reward`` on entering the goal),
    action 0 moves left, clamped at the left edge. Rewards are zero
    elsewhere.
    """
    require_integers(n=n)
    if n < 1:
        raise ContractError("chain length must be at least 1")
    reward = np.zeros((n + 1, 2))
    reward[n - 1, 1] = float(goal_reward)
    next_state = [[max(s - 1, 0), min(s + 1, n)] for s in range(n + 1)]
    return _deterministic_mdp(next_state, reward, np.arange(n + 1) == n)


def make_absorbing_zero(n_actions: int) -> TabularMdp:
    """Single non-terminal state where every action self-loops with zero
    reward, so the dynamics behave like an absorbing state."""
    require_integers(n_actions=n_actions)
    if n_actions < 1:
        raise ContractError("need at least one action")
    stay = np.zeros((1, n_actions), dtype=int)  # next state 0, and reward 0
    return _deterministic_mdp(stay, stay, [False])


# Row/column moves for gridworld actions 0..3: up, right, down, left.
_GRID_MOVES = np.array(((-1, 0), (0, 1), (1, 0), (0, -1)))


def make_gridworld(width: int, height: int, traps: Sequence = ()) -> TabularMdp:
    """Deterministic grid with a rewarding goal at the bottom-right cell.

    Cells are ``(row, col)`` pairs with id ``row * width + col``. Moves
    off the grid stay in place. Entering the goal pays 1 and terminates;
    trap cells terminate with zero reward.
    """
    require_integers(width=width, height=height)
    if width < 1 or height < 1:
        raise ContractError("grid dimensions must be at least 1")
    n_states = width * height
    goal = (height - 1, width - 1)
    terminal = np.zeros(n_states, dtype=bool)
    terminal[n_states - 1] = True  # the goal's id
    for cell in traps:
        pair = isinstance(cell, (list, tuple)) or (isinstance(cell, np.ndarray) and cell.ndim == 1)
        if not (pair and len(cell) == 2 and all(map(is_integer, cell))):
            raise ContractError(f"trap {cell!r} must be a [row, col] pair of integers")
        row, col = int(cell[0]), int(cell[1])
        if not (0 <= row < height and 0 <= col < width):
            raise ContractError(f"trap {cell!r} outside the {height}x{width} grid")
        if (row, col) == goal:
            raise ContractError("the goal cell cannot be a trap")
        terminal[row * width + col] = True
    rows, cols = np.divmod(np.arange(n_states)[:, None], width)
    next_state = (
        np.clip(rows + _GRID_MOVES[:, 0], 0, height - 1) * width
        + np.clip(cols + _GRID_MOVES[:, 1], 0, width - 1)
    )
    return _deterministic_mdp(next_state, next_state == n_states - 1, terminal)


_BUILTINS = {
    "two_arm": make_two_arm,
    "chain": make_chain,
    "absorbing_zero": make_absorbing_zero,
    "gridworld": make_gridworld,
}


def builtin_mdp(name: str, **params) -> TabularMdp:
    """Construct one of the built-in environments by name."""
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError(
            f"unknown environment {name!r}; choose from {sorted(_BUILTINS)}"
        )
    try:
        return _BUILTINS[name](**params)
    # a nan or infinite trap coordinate raises ValueError or OverflowError in int()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"environment {name!r}: {exc}") from exc


def check_policy_table(policy, n_states: int, n_actions: int, name: str = "policy"):
    """Validate and return a dense per-state action distribution."""
    table = np.asarray(policy, dtype=float)
    if table.shape != (n_states, n_actions):
        raise ContractError(
            f"{name} must have shape ({n_states}, {n_actions}), got {table.shape}"
        )
    if not (table >= 0).all():  # nan >= 0 is false; an infinite entry fails the sum
        raise ContractError(f"{name} has negative or nan probabilities")
    if np.abs(table.sum(axis=1) - 1.0).max() > 1e-9:
        raise ContractError(f"{name} rows must sum to 1")
    return table


def stage_policy_tables(policy, depth: int, mdp: TabularMdp, name: str = "policy"):
    """Normalize a policy argument to one validated table per stage.

    Accepts a single ``(S, A)`` table (used at every stage) or a sequence
    of at least ``depth`` tables for stage-dependent policies.
    """
    arr = np.asarray(policy, dtype=float)
    if arr.ndim == 2:
        table = check_policy_table(arr, mdp.n_states, mdp.n_actions, name)
        return [table] * depth
    if arr.ndim == 3:
        if arr.shape[0] < depth:
            raise ContractError(f"{name} provides {arr.shape[0]} stages, need {depth}")
        return [
            check_policy_table(arr[t], mdp.n_states, mdp.n_actions, f"{name}[{t}]")
            for t in range(depth)
        ]
    raise ContractError(f"{name} must be a (S, A) table or a stack of them")


def enumerate_trajectories(
    mdp: TabularMdp,
    s0: int,
    policy,
    depth: int,
    budget: int = 1_000_000,
):
    """Enumerate every trajectory of up to ``depth`` actions from ``s0``.

    Returns ``[(Trajectory, probability)]`` where the probability is the
    product of policy and transition probabilities along the path.
    Branches stop early at terminal states (their absorbing tail carries
    no information), so the probabilities always sum to 1.

    Raises :class:`BudgetError` when ``branching ** depth`` exceeds
    ``budget``, with branching the largest per-state out-degree.
    """
    require_integers(depth=depth)
    require_range(1, math.inf, depth=depth)
    if not 0 <= s0 < mdp.n_states:
        raise ContractError(f"state {s0} out of range [0, {mdp.n_states})")
    tables = stage_policy_tables(policy, depth, mdp)
    branching = int((mdp.transition > 0).sum(axis=2).sum(axis=1).max())
    if branching**depth > budget:
        raise BudgetError(
            f"enumeration of branching {branching} to depth {depth} exceeds "
            f"budget {budget}"
        )
    out = []

    def walk(state, t, prob, states, actions, rewards):
        if mdp.terminal[state] or t == depth:
            out.append((Trajectory(states, actions, rewards), prob))
            return
        table = tables[t]
        for a in range(mdp.n_actions):
            p_a = table[state, a]
            if p_a == 0.0:
                continue
            r = mdp.reward[state, a]
            for nxt in np.flatnonzero(mdp.transition[state, a]):
                p = prob * p_a * mdp.transition[state, a, nxt]
                walk(
                    int(nxt),
                    t + 1,
                    p,
                    states + [int(nxt)],
                    actions + [a],
                    rewards + [float(r)],
                )

    walk(int(s0), 0, 1.0, [int(s0)], [], [])
    return out


_ENV_KEYS = {"n_states", "n_actions", "transition", "reward", "terminal", "discount"}


def mdp_from_dict(data: dict, source: str = "<env>") -> TabularMdp:
    """Build a validated MDP from its JSON-style description: a builtin,
    ``{"name": ..., **params}`` (see :func:`builtin_mdp`), or inline
    tensors, the keys of ``_ENV_KEYS``.

    Every violation is reported with the offending key path, prefixed by
    ``source`` (typically the file name).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: environment description must be an object")
    if "name" in data:
        params = {k: v for k, v in data.items() if k != "name"}
        try:
            return builtin_mdp(data["name"], **params)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    unknown = set(data) - _ENV_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown key {sorted(unknown)[0]!r}")
    missing = _ENV_KEYS - {"discount"} - set(data)
    if missing:
        raise ConfigError(f"{source}: missing key {sorted(missing)[0]!r}")
    n_states, n_actions = data["n_states"], data["n_actions"]
    try:
        require_integers(n_states=n_states, n_actions=n_actions)
    except ContractError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    discount = data.get("discount", 1.0)
    if isinstance(discount, bool) or not isinstance(discount, (int, float)):
        raise ConfigError(f"{source}: discount: must be a number, got {discount!r}")
    try:
        transition = np.asarray(data["transition"], dtype=float)
        reward = np.asarray(data["reward"], dtype=float)
        terminal = np.asarray(data["terminal"], dtype=bool)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: malformed tensor: {exc}") from exc
    if transition.shape != (n_states, n_actions, n_states):
        raise ConfigError(
            f"{source}: transition: expected shape "
            f"({n_states}, {n_actions}, {n_states}), got {transition.shape}"
        )
    try:
        return TabularMdp(transition, reward, terminal, discount)
    # an integer discount too large for a float overflows in float()
    except (ContractError, OverflowError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
