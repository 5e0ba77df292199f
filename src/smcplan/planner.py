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
They are built per call, or once by a caller planning repeatedly
against one model (per training segment, per sweep point). A step draws
an action, then a slot of the MDP's support-compressed successor row,
and reads the next state, increment and error at one flat index, so it
costs K times the successor support, not K times S. Each step
normalizes its weights once, for the ESS, resampling and readout; the
particles' grouping by root atom is built only at a resample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import rng as rng_mod
from .backups import IDENTITY, AncestorGroups, accumulate_ancestor_q, group_ancestors
from .backups import message_passing_policy, mix_value_target
from .errors import FINITE, POSITIVE, ContractError, DegenerateWeightsError, NumericalError
from .errors import require_integers, require_range
from .mdp import TabularMdp
from .numerics import normalized_weights
from .trust_region import adaptive_epsilon, trust_region_rows

PROPOSAL_MODES = ("prior", "trust_region")
INFERENCE_MODES = ("dirac", "message_passing")
RESAMPLE_MODES = ("baseline", "revived")
_TABLE_KEY = attrgetter("temperature", "gamma", "proposal_mode", "alpha")


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
        counts = dict(k=self.k, depth=self.depth, resample_period=self.resample_period)
        require_integers(**counts)
        require_range(1, math.inf, **counts)
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


@dataclass(frozen=True)
class ParticleSet:
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
        return self.states.size


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


def weight_update(log_ratio, reward, v_next, v_cur, temperature: float, gamma: float):
    """One multiplicative weight factor, in log space.

    ``log_ratio`` is the sampled action's log prior-over-proposal ratio;
    ``v_next`` stands in for the log expected exponentiated value at the
    next state. With the prior as proposal and exact soft values the
    increment is exactly the log posterior-over-proposal ratio.
    Broadcasts over scalars and arrays.
    """
    return log_ratio + reward / temperature + gamma * v_next - v_cur


def _require_weights(weights, k: int) -> np.ndarray:
    """``weights`` as K normalized particle weights. The check is O(K):
    a wrong shape is a :class:`ContractError`; negative, non-finite,
    all-zero or unnormalized weights raise :class:`DegenerateWeightsError`
    (``nan >= 0`` is false and an infinite entry breaks the sum)."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (k,):
        raise ContractError(f"weights must have shape ({k},)")
    if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-9):
        raise DegenerateWeightsError("weights must be non-negative, finite and sum to 1")
    return weights


@dataclass(frozen=True)
class PlanTables:
    """What every step on ``mdp`` under ``config`` (its ``_TABLE_KEY``
    fields) reads: the ``(S, A)`` ``proposal``, ``log_prior`` (the
    model's log-policy) and a copy of its ``(S,)`` ``v_table``. Derived
    per ``(s, a)``: ``proposal_cdf``, the cumulative masses the action
    draws read (never a zero-mass action, whose entries are thus never
    read), ``log_ratio = log_prior - log(proposal)`` and ``ratio_cap =
    min(1, exp(log_ratio))``. Derived per ``(s, a, successor slot)``,
    flat at ``(s * A + a) * W + slot`` over the MDP's successor rows:
    ``increment``, the log-weight factor at the successor's model value,
    and ``delta``, the retrace error ``R + gamma * v(s') - v(s)``; entries
    no draw reaches may be non-finite. Only the successor tables are
    read, never the dense ``mdp.transition``. Construction checks that
    every proposal row is a distribution, which covers every row a step
    can gather.
    """

    mdp: TabularMdp = field(repr=False)
    config: PlannerConfig
    proposal: np.ndarray
    log_prior: np.ndarray
    v_table: np.ndarray
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
        if not ((proposal >= 0).all() and np.abs(proposal.sum(axis=1) - 1.0).max() <= 1e-6):
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
                increment=weight_update(log_ratio.reshape(-1, 1), reward, v_next, v_cur,
                                        config.temperature, config.gamma).ravel(),
                delta=(reward + config.gamma * v_next - v_cur).ravel(),
            )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def advance(
    particles: ParticleSet,
    mdp: TabularMdp,
    tables: PlanTables,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> ParticleSet:
    """Propagate every particle one step and update all statistics.

    Samples an action and a successor slot per particle, reads the next
    state, weight increment and retrace error at that slot, refreshes
    the last-non-terminal reference states, and feeds the step into the
    retrace traces and, for ``message_passing``, the atom accumulators.
    A drawn non-finite increment raises :class:`NumericalError`.
    """
    if tables.mdp is not mdp or (
        tables.config is not config and _TABLE_KEY(tables.config) != _TABLE_KEY(config)
    ):
        raise ContractError("tables were built for another MDP or planner config")
    k = particles.k
    # one draw split in two: the action uniforms, then the state uniforms
    uniforms = rng.random(2 * k)
    actions = rng_mod.categorical_rows(tables.proposal_cdf, particles.states, uniforms[:k])
    flat = particles.states * mdp.n_actions + actions
    j = flat * mdp.successor_states.shape[1]
    j += rng_mod.categorical_rows(mdp.successor_cdf, flat, uniforms[k:])
    next_states = mdp.successor_states.take(j)
    increments = tables.increment.take(j)
    if not np.isfinite(increments).all():
        raise NumericalError("weight update produced non-finite log weights")
    log_weights = particles.log_weights + increments

    ref_states = np.where(mdp.terminal.take(next_states), particles.ref_states, next_states)
    root_actions = actions if particles.step == 0 else particles.root_actions
    # Atom accumulators estimate per-root-action values, so the root
    # step enters conditioned on its action: its prior/proposal ratio is
    # an importance correction for the atom sampling measure, not part
    # of the action's value, and leaving it in would bias the backed-up
    # policy against whatever the proposal was tilted toward. Later
    # steps keep their full ratios (their actions are marginalized).
    ancestor_logq = particles.ancestor_logq
    if config.inference_mode == "message_passing":
        backed_up = increments - tables.log_ratio.take(flat) if particles.step == 0 else increments
        ancestor_logq = accumulate_ancestor_q(ancestor_logq, particles.ancestor_groups, backed_up)

    # Retrace trace: the first step enters undecayed; later steps first
    # shrink the trace by gamma * lambda * min(1, prior/proposal).
    delta = tables.delta.take(j)
    if particles.step == 0:
        retrace_decay, retrace_acc = np.ones(k), delta
    else:
        ratio_cap = tables.ratio_cap.take(flat)
        retrace_decay = particles.retrace_decay * config.gamma * config.lambda_smc * ratio_cap
        retrace_acc = particles.retrace_acc + retrace_decay * delta

    return ParticleSet(
        states=next_states,
        log_weights=log_weights,
        ancestors=particles.ancestors,
        root_actions=root_actions,
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
    k = particles.k
    weights = _require_weights(weights, k)
    # a lookup in sorted order walks the CDF once; particle i keeps uniform i
    uniforms = rng.random(k)
    order = np.argsort(uniforms)
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
    ancestors, groups = particles.ancestors[idx], particles.ancestor_groups
    if groups is not None:
        groups = group_ancestors(ancestors, particles.ancestor_logq.size)
    return ParticleSet(
        states=states,
        log_weights=np.zeros(k),
        ancestors=ancestors,
        root_actions=particles.root_actions,
        ref_states=ref_states,
        ancestor_logq=particles.ancestor_logq,
        retrace_acc=particles.retrace_acc[idx],
        retrace_decay=particles.retrace_decay[idx],
        step=particles.step,
        ancestor_groups=groups,
    )


def dirac_policy(particles: ParticleSet, weights: np.ndarray, n_root_actions: int) -> np.ndarray:
    """Root policy as point masses on surviving root-atom actions, weighted
    by ``weights`` (``normalized_weights(particles.log_weights)``)."""
    if (particles.root_actions < 0).any():
        raise ContractError("root actions are recorded by the first advance")
    weights = _require_weights(weights, particles.k)
    mass = np.bincount(particles.root_actions.take(particles.ancestors), weights, n_root_actions)
    return mass / mass.sum()


@dataclass(frozen=True)
class PlannerDiagnostics:
    """Per-step planner health counters plus the raw value estimates."""

    ess: np.ndarray
    distinct_ancestors: np.ndarray
    terminal_particles: np.ndarray
    resample_steps: tuple
    value_smc: float
    value_model: float


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
    return PlanTables(mdp, config, proposal, log_prior, model.v_table)


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
    to build it once.
    """
    if not 0 <= s0 < mdp.n_states:
        raise ContractError(f"state {s0} out of range [0, {mdp.n_states})")
    if mdp.terminal[s0]:
        raise ContractError("cannot plan from a terminal state")

    if tables is None:
        tables = plan_tables(mdp, model, config)
    particles = init_particles(s0, config)
    ess = np.empty(config.depth)
    distinct = np.full(config.depth, config.k, dtype=np.intp)
    terminal_counts = np.empty(config.depth, dtype=np.intp)
    resample_steps = []

    for t in range(1, config.depth + 1):
        gen = rng_mod.stream(seed, t) if t == 1 else rng_mod.rekey(gen, seed, t)
        particles = advance(particles, mdp, tables, config, gen)
        # the final step never resamples, so its weights are the final ones
        weights = normalized_weights(particles.log_weights)
        ess[t - 1] = 1.0 / np.square(weights).sum()
        if t % config.resample_period == 0 and t < config.depth:
            particles = multinomial_resample(particles, weights, gen, config.resample_mode)
            resample_steps.append(t)
            # ancestors change only at a resample
            distinct[t - 1:] = np.count_nonzero(np.bincount(particles.ancestors))
        terminal_counts[t - 1] = np.count_nonzero(mdp.terminal[particles.states])

    if config.inference_mode == "dirac":
        root_policy = dirac_policy(particles, weights, mdp.n_actions)
    else:
        root_policy = message_passing_policy(
            np.exp(tables.log_prior[s0]), particles.root_actions, particles.ancestor_logq
        )
    value_model = float(tables.v_table[s0])
    value_smc = value_model + float(weights @ particles.retrace_acc)
    root_value = mix_value_target(value_model, value_smc, config.sigma)
    diagnostics = PlannerDiagnostics(
        ess=ess,
        distinct_ancestors=distinct,
        terminal_particles=terminal_counts,
        resample_steps=tuple(resample_steps),
        value_smc=value_smc,
        value_model=value_model,
    )
    return PlannerOutput(root_policy=root_policy, root_value=root_value, diagnostics=diagnostics)
