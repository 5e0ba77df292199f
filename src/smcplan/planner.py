"""Particle-filter planner over tabular MDPs.

A planning call propagates K particles for m steps from the root state,
accumulating importance weights from the prior/proposal ratio, the
exponentiated reward, and the model value at the new state. Particles
are periodically resampled by their normalized weights. The root policy
is then read off either as the weighted point masses of surviving root
ancestors, or from per-atom backed-up values that survive ancestry
collapse, kept only for that ``message_passing`` readout. All weights
live in log space.

Randomness is addressed as (seed, step, lane): each planner step draws
vectors from its own counter-based stream, with vector position i
belonging to particle i, so runs are reproducible under any internal
parallelism.

The model is fixed for a whole planning call, so everything a step reads
is built once as :class:`PlanTables`: the proposal rows, the prior,
per ``(s, a)`` the log prior/proposal ratio and its retrace cap, and
per ``(s, a, successor)`` the weight increment and the retrace error.
They serve one MDP and config, built per call or once by a caller
planning repeatedly against one model (per training segment, per sweep
point). A step draws an action, then a slot of the MDP's
support-compressed successor row, and reads the next state, increment
and error at one flat index, so it costs K times the successor support,
not K times S. Each draw is one gather of the drawn rows' cumulative
masses and one comparison (``rng.categorical_rows``); on an MDP whose
successor rows have one slot (a deterministic one) the slot draw is
skipped, though its uniforms are still drawn, so the stream reads the
same either way. Each step normalizes its weights once, for the ESS,
resampling and readout; the particles' grouping by root atom is built
only at a resample, and the count of distinct root atoms is read off it.

A call with at most ``_SMALL_K`` particles holds them in Python lists
(:func:`_init_lists`), which :func:`advance` and
:func:`multinomial_resample` hand to their list kernels
(:func:`_advance_lists`, :func:`_resample_lists`), so traced runs charge
those kernels' time to the two: at a few particles a step is bound by
numpy's per-call cost, not by array work, up to the measured crossover
(between 16 and 32 particles on an 8x8 gridworld). Both layouts' results
go through one tail per operation, and the kernels agree to the bit by
construction: the same stream reads in the same order, the same draws
and the same IEEE ``+ - *`` in the same order. The list kernels draw
without ``rng``'s array helpers: they count with ``bisect`` on list
copies of the same cumulative masses (``_TableLists``), and the list
resample sums the weights with ``itertools.accumulate``, in
``rng.cdf_rows``'s sequential order, and cuts the sum with
``bisect_left`` where ``cdf_rows`` would write +inf (calling
``cdf_rows`` there costs 2.5-4 µs more per four-particle resample on a
2-vCPU Xeon).

Every list route, here and in ``numerics`` and ``backups``, keeps the
array route's bits by one rule. Only the elementwise ``exp``, ``log``
and ``log1p`` stay numpy calls, whose SIMD kernels round unlike
``math.*``. A list of fewer than 8 entries is added one by one from
``0.0``, which is numpy's own order (``numerics.psum``), and numpy sums
everything else; the builtin ``sum()``, compensated since Python 3.12,
is never used on floats. The one other order is a segment of
``np.add.reduceat``, which the atom backups sum: its head plus the
one-by-one sum of its tail, ``x0 + (x1 + x2)``, so ``x0 +
psum(tail)``, not ``psum`` of the segment (numpy starts the tail from
``-0.0``, which only a ``-0.0`` head would show, and no ``exp`` is
``-0.0``). So the message-passing readout of up to ``_SMALL_K`` atoms
and, below 8 particles, normalization, ESS, the weight checks and the
atom grouping and accumulators (``ancestor_logq`` is then a list) run
over lists inside the functions that name them; from 8 particles on,
numpy's own sum and per-call cost beat the list passes (a list
accumulation lost from K=8 on). The dirac readout and the retrace
value's dot product stay numpy calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import rng as rng_mod
from .backups import IDENTITY, AncestorGroups, accumulate_ancestor_q, group_ancestors
from .backups import message_passing_policy
from .errors import FINITE, POSITIVE, ContractError, DegenerateWeightsError, NumericalError
from .errors import require_counts, require_integers, require_range
from .mdp import TabularMdp
from .numerics import _SEQUENTIAL_SUM, _SMALL_K, normalized_weights, psum
from .trust_region import DISTRIBUTION_TOL, adaptive_epsilon, trust_region_rows

PROPOSAL_MODES = ("prior", "trust_region")
INFERENCE_MODES = ("dirac", "message_passing")
RESAMPLE_MODES = ("baseline", "revived")


@dataclass(frozen=True)
class PlannerConfig:
    """Planner hyperparameters. The weight update reads the model value
    at each particle's sampled successor, never a transition integral."""

    k: int
    depth: int
    resample_period: int = 1
    alpha: float = 0.0
    temperature: float = 1.0
    lambda_smc: float = 0.95
    gamma: float = 1.0
    sigma: float = 0.0
    proposal_mode: str = "prior"
    inference_mode: str = "dirac"
    resample_mode: str = "baseline"

    def __post_init__(self):
        require_counts(k=self.k, depth=self.depth, resample_period=self.resample_period)
        require_range(
            0, 1, alpha=self.alpha, lambda_smc=self.lambda_smc, gamma=self.gamma, sigma=self.sigma
        )
        require_range(POSITIVE, FINITE, temperature=self.temperature)
        for name, value, allowed in (
            ("proposal_mode", self.proposal_mode, PROPOSAL_MODES),
            ("inference_mode", self.inference_mode, INFERENCE_MODES),
            ("resample_mode", self.resample_mode, RESAMPLE_MODES),
        ):
            if value not in allowed:
                raise ContractError(f"{name} must be one of {allowed}, got {value!r}")


class ParticleSet(NamedTuple):
    """K particles with their weights and per-lineage bookkeeping.

    ``ancestors[i]`` is particle i's root atom id. ``root_actions`` is
    the atom-indexed record of first-step actions, written once at the
    first advance and never permuted afterwards; policies index it
    through ``ancestors``. ``ancestor_logq`` is likewise atom-indexed;
    only ``message_passing`` inference updates it (else zero), through
    ``ancestor_groups``: the identity until the first resample, rebuilt
    at each resample (where ``ancestors`` change), None under ``dirac``.
    ``ref_states`` track each lineage's last non-terminal state, and the
    retrace accumulator/decay pair carries its running return estimate.
    A named tuple: immutable, and cheap to build twice per step. In a
    call with at most ``_SMALL_K`` particles the per-particle fields are
    Python lists, stepped under the module docstring's list rule.
    """

    states: np.ndarray
    log_weights: np.ndarray
    ancestors: np.ndarray
    root_actions: np.ndarray
    ref_states: np.ndarray
    ancestor_logq: np.ndarray
    retrace_acc: np.ndarray
    retrace_decay: np.ndarray
    step: int = 0
    ancestor_groups: AncestorGroups | None = None

    @property
    def k(self) -> int:
        return len(self.states)


def init_particles(s0: int, config: PlannerConfig) -> ParticleSet:
    """All particles at the root state with unit weights; atom i is
    particle i."""
    k = config.k
    return ParticleSet(
        states=np.full(k, int(s0), dtype=np.intp),
        log_weights=np.zeros(k),
        ancestors=np.arange(k, dtype=np.intp),
        root_actions=np.full(k, -1, dtype=np.intp),
        ref_states=np.full(k, int(s0), dtype=np.intp),
        ancestor_logq=np.zeros(k),
        retrace_acc=np.zeros(k),
        retrace_decay=np.ones(k),
        step=0,
        ancestor_groups=IDENTITY if config.inference_mode == "message_passing" else None,
    )


def _init_lists(s0: int, config: PlannerConfig) -> ParticleSet:
    """:func:`init_particles` with the per-particle fields as Python lists,
    for the small-K loop; the atom-indexed ``ancestor_logq`` is a list
    below ``_SEQUENTIAL_SUM`` particles and an array from there on, the
    route ``accumulate_ancestor_q`` then takes."""
    k, s0 = config.k, int(s0)
    return ParticleSet(
        states=[s0] * k,
        log_weights=[0.0] * k,
        ancestors=list(range(k)),
        root_actions=[-1] * k,
        ref_states=[s0] * k,
        ancestor_logq=[0.0] * k if k < _SEQUENTIAL_SUM else np.zeros(k),
        retrace_acc=[0.0] * k,
        retrace_decay=[1.0] * k,
        step=0,
        ancestor_groups=IDENTITY if config.inference_mode == "message_passing" else None,
    )


def _require_weights(weights, k: int):
    """``weights`` as K normalized particle weights, a list kept as one.
    The check is O(K): a wrong shape is a :class:`ContractError`;
    negative, non-finite, all-zero or unnormalized weights raise
    :class:`DegenerateWeightsError` (a ``nan`` or infinite entry breaks
    the sum)."""
    on_lists = type(weights) is list
    if not on_lists:
        weights = np.asarray(weights, dtype=float)
    if ((len(weights),) if on_lists else weights.shape) != (k,):
        raise ContractError(f"weights must have shape ({k},)")
    low, total = ((min(weights), psum(weights)) if on_lists
                  else (np.minimum.reduce(weights), np.add.reduce(weights)))
    if not (low >= 0 and abs(total - 1.0) <= 1e-9):
        raise DegenerateWeightsError("weights must be non-negative, finite and sum to 1")
    return weights


@dataclass(frozen=True)
class PlanTables:
    """What every step on ``mdp`` under ``config``, the one pair a table
    serves, reads: the ``(S, A)`` ``proposal``, ``log_prior`` (the
    model's log-policy) and a copy of its ``(S,)`` ``v_table``. Derived
    per ``(s, a)``: ``proposal_cdf``, the cumulative masses the action
    draws read (never a zero-mass action, whose entries are thus never
    read), ``log_ratio = log_prior - log(proposal)`` and ``ratio_cap =
    min(1, exp(log_ratio))``. Derived per ``(s, a, successor slot)``,
    flat at ``(s * A + a) * W + slot`` over the MDP's successor rows:
    ``increment``, the log-weight factor at the successor's model value,
    and ``delta``, the retrace error ``R + gamma * v(s') - v(s)``; entries
    no draw reaches may be non-finite. The one ``v_table`` is read in
    reward/temperature units by ``increment = log_ratio + R / T + gamma *
    v(s') - v(s)`` and in raw reward units by ``delta``. ``v(s')`` stands
    in for the log expected exponentiated value at the successor, so with
    the prior as proposal and exact soft values the increment is exactly
    the log posterior-over-proposal ratio. Only the successor tables are
    read, never the dense ``mdp.transition``. Construction checks that
    every proposal row is a distribution, which covers every row a step
    can gather. ``model`` is the model :func:`plan_tables` built the
    table from; a hand-built table records none. The list views the
    small-K step reads and the one Philox generator every step draws
    from are built at the first call and kept with the table; a call
    re-keys the generator at every step, so a table serves one planning
    call at a time.
    """

    mdp: TabularMdp = field(repr=False)
    config: PlannerConfig
    proposal: np.ndarray
    log_prior: np.ndarray
    v_table: np.ndarray
    model: object = field(default=None, repr=False, compare=False)
    proposal_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    log_ratio: np.ndarray = field(init=False, repr=False, compare=False)
    ratio_cap: np.ndarray = field(init=False, repr=False, compare=False)
    increment: np.ndarray = field(init=False, repr=False, compare=False)
    delta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mdp, config = self.mdp, self.config
        shape = (mdp.n_states, mdp.n_actions)
        proposal = np.asarray(self.proposal, dtype=float)
        shapes = proposal.shape, np.shape(self.log_prior), np.shape(self.v_table)
        if shapes != (shape, shape, shape[:1]):
            raise ContractError(f"proposal and log_prior need shape {shape}, v_table {shape[:1]}")
        row_gap = np.abs(proposal.sum(axis=1) - 1.0).max()
        if not ((proposal >= 0).all() and row_gap <= DISTRIBUTION_TOL):
            raise ContractError("proposal rows must be probability distributions")
        # step tables: one row per (s, a), one column per successor slot
        v = np.array(self.v_table, dtype=float)
        v_cur, v_next = np.repeat(v, mdp.n_actions)[:, None], v[mdp.successor_states]
        reward = mdp.reward.reshape(-1, 1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_ratio = self.log_prior - np.log(proposal)
            derived = dict(
                proposal=proposal, v_table=v, proposal_cdf=rng_mod.cdf_rows(proposal),
                log_ratio=log_ratio, ratio_cap=np.minimum(1.0, np.exp(log_ratio)),
                increment=(log_ratio.reshape(-1, 1) + reward / config.temperature
                           + config.gamma * v_next - v_cur).ravel(),
                delta=(reward + config.gamma * v_next - v_cur).ravel(),
            )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @cached_property
    def _lists(self) -> _TableLists:
        mdp = self.mdp
        return _TableLists(
            mdp.n_actions, mdp.successor_states.shape[1], self.proposal_cdf[:, :-1].tolist(),
            mdp.successor_cdf[:, :-1].tolist(), mdp.successor_states.ravel().tolist(),
            self.increment.tolist(), self.delta.tolist(), self.ratio_cap.ravel().tolist(),
            mdp.terminal.tolist(),
        )

    @cached_property
    def _generator(self) -> np.random.Generator:
        # its key is replaced before any draw (see run_planner)
        return rng_mod.stream(0)


class _TableLists(NamedTuple):
    """The tables of a :class:`PlanTables` that a step reads, as Python
    lists indexed like the arrays. The CDF rows drop their last column,
    always ``+inf``, which no uniform reaches; a row's cumulative masses
    never decrease, so ``bisect_right`` counts the entries at or below a
    uniform, as ``rng.categorical_rows`` does."""

    n_actions: int
    width: int
    proposal_cdf: list
    successor_cdf: list
    successor_states: list
    increment: list
    delta: list
    ratio_cap: list
    terminal: list


def advance(particles: ParticleSet, tables: PlanTables, rng: np.random.Generator) -> ParticleSet:
    """Propagate every particle one step on the MDP and config of ``tables``.

    Samples an action and a successor slot per particle, reads the next
    state, weight increment and retrace error at that slot, refreshes
    the last-non-terminal reference states, and feeds the step into the
    retrace traces and, for ``message_passing``, the atom accumulators.
    A drawn non-finite increment raises :class:`NumericalError`.
    """
    if type(particles.states) is list:
        return _advance_lists(particles, tables, rng)
    mdp, config = tables.mdp, tables.config
    k = particles.k
    # one draw split in two: the action uniforms, then the state uniforms
    uniforms = rng.random(2 * k)
    actions = rng_mod.categorical_rows(tables.proposal_cdf, particles.states, uniforms[:k])
    flat = particles.states * mdp.n_actions + actions
    width = mdp.successor_states.shape[1]
    j = flat  # a one-slot successor row always draws slot 0
    if width > 1:
        j = flat * width + rng_mod.categorical_rows(mdp.successor_cdf, flat, uniforms[k:])
    next_states = mdp.successor_states.take(j)
    increments = tables.increment.take(j)
    if not np.isfinite(increments).all():
        raise NumericalError("weight update produced non-finite log weights")
    ref_states = np.where(mdp.terminal.take(next_states), particles.ref_states, next_states)

    # Retrace trace: the first step enters undecayed; later steps first
    # shrink the trace by gamma * lambda * min(1, prior/proposal).
    delta = tables.delta.take(j)
    if particles.step == 0:
        retrace_decay, retrace_acc = np.ones(k), delta
    else:
        ratio_cap = tables.ratio_cap.take(flat)
        retrace_decay = particles.retrace_decay * config.gamma * config.lambda_smc * ratio_cap
        retrace_acc = particles.retrace_acc + retrace_decay * delta
    return _stepped(particles, tables, actions, flat, increments, next_states,
                    particles.log_weights + increments, ref_states, retrace_acc, retrace_decay)


def _stepped(particles: ParticleSet, tables: PlanTables, actions, flat, increments, states,
             log_weights, ref_states, retrace_acc, retrace_decay) -> ParticleSet:
    """The set after a step of either kernel, from its results in the
    layout of ``particles``; ``flat`` is ``s * A + a`` per drawn action."""
    first = particles.step == 0
    # Atom accumulators estimate per-root-action values, so the root
    # step enters conditioned on its action: its prior/proposal ratio is
    # an importance correction for the atom sampling measure, not part
    # of the action's value, and leaving it in would bias the backed-up
    # policy against whatever the proposal was tilted toward. Later
    # steps keep their full ratios (their actions are marginalized).
    ancestor_logq = particles.ancestor_logq
    if tables.config.inference_mode == "message_passing":
        on_lists = type(ancestor_logq) is list  # below _SEQUENTIAL_SUM particles
        backed_up = increments if on_lists else np.asarray(increments)
        if first:
            backed_up = np.subtract(backed_up, tables.log_ratio.take(flat))
            backed_up = backed_up.tolist() if on_lists else backed_up
        ancestor_logq = accumulate_ancestor_q(ancestor_logq, particles.ancestor_groups, backed_up)
    return ParticleSet(
        states=states,
        log_weights=log_weights,
        ancestors=particles.ancestors,
        root_actions=actions if first else particles.root_actions,
        ref_states=ref_states,
        ancestor_logq=ancestor_logq,
        retrace_acc=retrace_acc,
        retrace_decay=retrace_decay,
        step=particles.step + 1,
        ancestor_groups=particles.ancestor_groups,
    )


def multinomial_resample(
    particles: ParticleSet, weights: np.ndarray, rng: np.random.Generator, mode: str = "baseline"
) -> ParticleSet:
    """Draw K particles by ``weights``, none of weight zero, and reset the
    weights to uniform.

    ``weights`` is ``normalized_weights(particles.log_weights)``.
    Per-lineage data (ancestors, reference states, retrace traces) is
    copied from the drawn indices; the atom-indexed records
    (``root_actions``, ``ancestor_logq``) are left in place; an ancestor
    grouping, if the particles carry one, is rebuilt. In
    ``revived`` mode the copies restart from their lineage's last
    non-terminal state instead of its current state, and the references
    reset to those restart states.
    """
    if mode not in RESAMPLE_MODES:
        raise ContractError(f"mode must be one of {RESAMPLE_MODES}, got {mode!r}")
    if type(particles.states) is list:
        return _resample_lists(particles, weights, rng, mode)
    k = particles.k
    weights = _require_weights(weights, k)
    # a lookup in sorted order walks the CDF once; particle i keeps uniform i
    uniforms = rng.random(k)
    order = uniforms.argsort()
    idx = np.empty(k, dtype=np.intp)
    idx[order] = rng_mod.categorical(rng_mod.cdf_rows(weights), uniforms[order])
    # indexing by ``idx`` copies; revived references get their own copy
    # so the two fields never alias
    if mode == "revived":
        states = particles.ref_states[idx]
        ref_states = states.copy()
    else:
        states = particles.states[idx]
        ref_states = particles.ref_states[idx]
    return _resampled(particles, states, np.zeros(k), particles.ancestors[idx], ref_states,
                      particles.retrace_acc[idx], particles.retrace_decay[idx])


def _resampled(particles: ParticleSet, states, log_weights, ancestors, ref_states, retrace_acc,
               retrace_decay) -> ParticleSet:
    """The set after a resample of either kernel, from the drawn fields in
    the layout of ``particles``; a grouping, if it carries one, is rebuilt."""
    groups = particles.ancestor_groups
    if groups is not None:
        groups = group_ancestors(ancestors, len(particles.ancestor_logq))
    return ParticleSet(
        states=states,
        log_weights=log_weights,
        ancestors=ancestors,
        root_actions=particles.root_actions,
        ref_states=ref_states,
        ancestor_logq=particles.ancestor_logq,
        retrace_acc=retrace_acc,
        retrace_decay=retrace_decay,
        step=particles.step,
        ancestor_groups=groups,
    )


def _advance_lists(particles: ParticleSet, tables: PlanTables, rng) -> ParticleSet:
    """:func:`advance` on a particle set held as lists (see
    :func:`_init_lists`), one particle at a time: the same stream read,
    draws and float operations, so the same bits."""
    config, lists = tables.config, tables._lists
    k, first = len(particles.states), particles.step == 0
    n_actions, width = lists.n_actions, lists.width
    gamma, lam = config.gamma, config.lambda_smc
    uniforms = rng.random(2 * k).tolist()
    actions, flat, next_states, increments = [], [], [], []
    log_weights, ref_states, retrace_acc, retrace_decay = [], [], [], []
    for i, s in enumerate(particles.states):
        a = bisect_right(lists.proposal_cdf[s], uniforms[i])
        f = s * n_actions + a
        # a one-slot successor row always draws slot 0
        j = f * width + bisect_right(lists.successor_cdf[f], uniforms[k + i]) if width > 1 else f
        x, s_next = lists.increment[j], lists.successor_states[j]
        if not math.isfinite(x):
            raise NumericalError("weight update produced non-finite log weights")
        actions.append(a)
        flat.append(f)
        next_states.append(s_next)
        increments.append(x)
        log_weights.append(particles.log_weights[i] + x)
        ref_states.append(particles.ref_states[i] if lists.terminal[s_next] else s_next)
        if first:
            retrace_decay.append(1.0)
            retrace_acc.append(lists.delta[j])
        else:
            decay = particles.retrace_decay[i] * gamma * lam * lists.ratio_cap[f]
            retrace_decay.append(decay)
            retrace_acc.append(particles.retrace_acc[i] + decay * lists.delta[j])
    return _stepped(particles, tables, actions, flat, increments, next_states, log_weights,
                    ref_states, retrace_acc, retrace_decay)


def _resample_lists(
    particles: ParticleSet, weights: np.ndarray, rng, mode: str = "baseline"
) -> ParticleSet:
    """:func:`multinomial_resample` on a particle set held as lists,
    ``mode`` already checked: the same stream read and draws. The lists
    are never written in place, so the revived references may share the
    states' list."""
    k = len(particles.states)
    weights = _require_weights(weights, k)
    cdf = list(accumulate(weights if type(weights) is list else weights.tolist()))
    # ``rng.cdf_rows`` makes every entry from the first that reaches the
    # total on +inf, so a draw counts only the entries before it, and
    # that count never passes the clamp at k - 1
    end = bisect_left(cdf, cdf[-1])
    drawn = [bisect_right(cdf, u, 0, end) for u in rng.random(k).tolist()]
    if mode == "revived":
        states = ref_states = [particles.ref_states[i] for i in drawn]
    else:
        states = [particles.states[i] for i in drawn]
        ref_states = [particles.ref_states[i] for i in drawn]
    return _resampled(particles, states, [0.0] * k, [particles.ancestors[i] for i in drawn],
                      ref_states, [particles.retrace_acc[i] for i in drawn],
                      [particles.retrace_decay[i] for i in drawn])


def dirac_policy(particles: ParticleSet, weights: np.ndarray, n_root_actions: int) -> np.ndarray:
    """Root policy as point masses on surviving root-atom actions, weighted
    by ``weights`` (``normalized_weights(particles.log_weights)``)."""
    if np.minimum.reduce(particles.root_actions) < 0:
        raise ContractError("root actions are recorded by the first advance")
    weights = _require_weights(weights, particles.k)
    # np.take also reads the small-K loop's lists
    root_actions = np.take(particles.root_actions, particles.ancestors)
    mass = np.bincount(root_actions, weights, n_root_actions)
    return mass / np.add.reduce(mass)


@dataclass(frozen=True)
class PlannerDiagnostics:
    """Per-step planner health counters plus the raw value estimates.

    ``log_evidence`` is the SMC estimate of the log normalizing constant:
    over resample epochs, the sum of ``logsumexp(log_w) - log K`` on each
    epoch's final weights. With a zero ``v_table``, ``gamma = 1`` and an
    undiscounted MDP, its exponential is an unbiased estimate of
    ``exp(v_soft[s0])``, the prior's soft value over ``depth`` steps.
    """

    ess: np.ndarray
    distinct_ancestors: np.ndarray
    terminal_particles: np.ndarray
    resample_steps: tuple
    value_smc: float
    value_model: float
    log_evidence: float


@dataclass(frozen=True)
class PlannerOutput:
    root_policy: np.ndarray
    root_value: float
    diagnostics: PlannerDiagnostics


def plan_tables(mdp: TabularMdp, model, config: PlannerConfig) -> PlanTables:
    """The :class:`PlanTables` of ``model`` under ``config``.

    A proposal row depends only on the model's policy and action values
    at its state, never on the particles, so one table serves every step
    of every planning call against the same model. ``prior`` mode is the
    model policy itself; ``trust_region`` mode tilts each non-terminal
    row toward its action values by the adaptive radius, and terminal
    rows keep the prior. The model's log-policy is read once.
    """
    log_prior = model.log_policy()
    proposal = np.exp(log_prior)
    if config.proposal_mode == "trust_region":
        live = ~mdp.terminal
        prior, q_values = proposal[live], model.q_table[live]
        eps = adaptive_epsilon(prior, q_values, config.alpha)
        proposal[live] = trust_region_rows(prior, q_values, eps)[0]
    return PlanTables(mdp, config, proposal, log_prior, model.v_table, model)


def run_planner(
    mdp: TabularMdp, s0: int, model, config: PlannerConfig, seed: int, tables=None
) -> PlannerOutput:
    """Plan at ``s0`` and return the root policy, value, and diagnostics.

    Runs ``depth`` advances with resampling every ``resample_period``
    steps; a resample that would land on the final step is skipped since
    inference always reads the final-step weights before any reset. The
    root value mixes the model value with the retrace estimate by
    ``sigma``. Identical ``(config, seed)`` gives bit-identical output.
    ``tables`` is ``plan_tables(mdp, model, config)``, built here when
    not given; callers planning repeatedly against one model pass it in
    to build it once, and one built for another MDP, config or model (a
    hand-built table records none) raises :class:`ContractError` before
    any step. Each step re-keys the table's generator to the stream
    ``(seed, step)``, so a call draws what fresh generators would. A
    numpy integer ``seed`` draws what its Python int would.
    """
    require_integers(seed=seed, s0=s0)
    seed = int(seed)
    if not 0 <= s0 < mdp.n_states:
        raise ContractError(f"state {s0} out of range [0, {mdp.n_states})")
    if mdp.terminal[s0]:
        raise ContractError("cannot plan from a terminal state")

    if tables is None:
        tables = plan_tables(mdp, model, config)
    elif tables.mdp is not mdp or (tables.config is not config and tables.config != config):
        raise ContractError("tables were built for another MDP or planner config")
    elif tables.model is not model:
        raise ContractError("tables were built from another model")
    # at most _SMALL_K particles are held as lists (see the module docstring)
    on_lists = config.k <= _SMALL_K
    particles = (_init_lists if on_lists else init_particles)(s0, config)
    terminal = tables._lists.terminal if on_lists else mdp.terminal
    ess = np.empty(config.depth)
    distinct = np.full(config.depth, config.k, dtype=np.intp)
    terminal_counts = np.empty(config.depth, dtype=np.intp)
    resample_steps = []
    log_k, log_evidence = math.log(config.k), 0.0

    for t in range(1, config.depth + 1):
        gen = rng_mod.rekey(tables._generator, seed, t)
        particles = advance(particles, tables, gen)
        # the final step never resamples, so its weights are the final ones
        weights, log_norm = normalized_weights(particles.log_weights, return_log_norm=True)
        ess[t - 1] = 1.0 / (psum([w * w for w in weights]) if type(weights) is list
                            else np.add.reduce(np.square(weights)))
        if t % config.resample_period == 0 and t < config.depth:
            log_evidence += log_norm - log_k
            particles = multinomial_resample(particles, weights, gen, config.resample_mode)
            resample_steps.append(t)
            # ancestors change only at a resample; a rebuilt grouping has
            # one entry per distinct atom
            groups = particles.ancestor_groups
            distinct[t - 1:] = (
                len(groups.atoms) if groups is not None
                else len(set(particles.ancestors)) if on_lists
                else np.count_nonzero(np.bincount(particles.ancestors))
            )
        terminal_counts[t - 1] = (
            [terminal[s] for s in particles.states].count(True) if on_lists
            else np.count_nonzero(terminal.take(particles.states))
        )

    if config.inference_mode == "dirac":
        root_policy = dirac_policy(particles, weights, mdp.n_actions)
    else:
        root_policy = message_passing_policy(
            np.exp(tables.log_prior[s0]), particles.root_actions, particles.ancestor_logq
        )
    value_model = float(tables.v_table[s0])
    value_smc = value_model + float(np.dot(weights, particles.retrace_acc))
    root_value = config.sigma * value_model + (1.0 - config.sigma) * value_smc
    diagnostics = PlannerDiagnostics(
        ess=ess,
        distinct_ancestors=distinct,
        terminal_particles=terminal_counts,
        resample_steps=tuple(resample_steps),
        value_smc=value_smc,
        value_model=value_model,
        log_evidence=float(log_evidence + (log_norm - log_k)),
    )
    return PlannerOutput(root_policy=root_policy, root_value=root_value, diagnostics=diagnostics)
