"""Particle-filter planner over tabular MDPs.

A planning call propagates K particles for m steps from the root state,
accumulating importance weights from the prior/proposal ratio, the
exponentiated reward, and the model value at the new state. Particles
are periodically resampled by their normalized weights. The root policy
is then read off either as the weighted point masses of surviving root
ancestors, or from per-atom backed-up values that survive ancestry
collapse. All weights live in log space.

Randomness is addressed as (seed, step, lane): each planner step draws
vectors from its own counter-based stream, with vector position i
belonging to particle i, so runs are reproducible under any internal
parallelism.

The model is fixed for a whole planning call, so everything a step reads
from it is built once as :class:`PlanTables` (proposal rows and their
cumulative masses, the log-policy, the value table), per call or, by a
caller planning repeatedly against one model, per model. A step reads
the reward, log-prior, proposal and the MDP's support-compressed
successor rows through one flat ``s * A + a`` index, so it costs K
times the successor support, not K times S. Each step normalizes its
weights once, and that one vector feeds the ESS, resampling and the
final readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .backups import accumulate_ancestor_q, message_passing_policy, mix_value_target
from .errors import ContractError, DegenerateWeightsError, NumericalError, require_integers
from .mdp import TabularMdp
from .numerics import logsumexp
from .trust_region import adaptive_epsilon, trust_region_rows

PROPOSAL_MODES = ("prior", "trust_region")
INFERENCE_MODES = ("dirac", "message_passing")
RESAMPLE_MODES = ("baseline", "revived")
VALUE_MODES = ("sampled", "exact")


@dataclass(frozen=True)
class PlannerConfig:
    """Planner hyperparameters.

    ``value_mode`` selects how the expected exponentiated next value in
    the weight update is estimated: ``sampled`` plugs in the value at the
    sampled next state (the forward-simulation default), ``exact``
    integrates over the full transition row and exists to isolate
    sampling error in oracle tests.
    """

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
    value_mode: str = "sampled"

    def __post_init__(self):
        require_integers(k=self.k, depth=self.depth, resample_period=self.resample_period)
        if self.k < 1:
            raise ContractError("need at least one particle")
        if self.depth < 1:
            raise ContractError("depth must be at least 1")
        if self.resample_period < 1:
            raise ContractError("resample_period must be at least 1")
        for name, value in (
            ("alpha", self.alpha),
            ("lambda_smc", self.lambda_smc),
            ("gamma", self.gamma),
            ("sigma", self.sigma),
        ):
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"{name} must lie in [0, 1], got {value}")
        if not self.temperature > 0:
            raise ContractError("temperature must be positive")
        for name, value, allowed in (
            ("proposal_mode", self.proposal_mode, PROPOSAL_MODES),
            ("inference_mode", self.inference_mode, INFERENCE_MODES),
            ("resample_mode", self.resample_mode, RESAMPLE_MODES),
            ("value_mode", self.value_mode, VALUE_MODES),
        ):
            if value not in allowed:
                raise ContractError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class ParticleSet:
    """K particles with their weights and per-lineage bookkeeping.

    ``ancestors[i]`` is particle i's root atom id. ``root_actions`` is
    the atom-indexed record of first-step actions, written once at the
    first advance and never permuted afterwards; policies index it
    through ``ancestors``. ``ancestor_logq`` is likewise atom-indexed.
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
    )


def weight_update(
    log_w_prev,
    prior_logp,
    proposal_logp,
    reward,
    v_next,
    v_cur,
    temperature: float,
    gamma: float,
):
    """One multiplicative weight factor, in log space.

    ``v_next`` stands in for the log expected exponentiated value at the
    next state; with the prior as proposal and exact soft values the
    increment is exactly the log posterior-over-proposal ratio.
    Broadcasts over arrays.
    """
    out = (
        np.asarray(log_w_prev, dtype=float)
        + (np.asarray(prior_logp, dtype=float) - np.asarray(proposal_logp, dtype=float))
        + np.asarray(reward, dtype=float) / temperature
        + gamma * np.asarray(v_next, dtype=float)
        - np.asarray(v_cur, dtype=float)
    )
    if not np.isfinite(out).all():
        raise NumericalError("weight update produced non-finite log weights")
    return out if out.ndim else float(out)


def normalized_weights(log_weights) -> np.ndarray:
    """Exponentiate and normalize log weights; rejects degenerate sets."""
    log_weights = np.asarray(log_weights, dtype=float)
    norm = logsumexp(log_weights)
    if not np.isfinite(norm):
        raise DegenerateWeightsError("all particle weights underflowed to zero")
    w = np.exp(log_weights - norm)
    return w / w.sum()


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
    """Per-state tables that every step of one planning call reads.

    ``proposal`` is the ``(S, A)`` proposal table, ``log_prior`` the
    model's log-policy (the prior in the weight update) and ``v_table``
    its state values. ``proposal_cdf`` is derived: the row-wise
    cumulative masses the action draws read (never a zero-mass action).
    Construction checks that every proposal row is a distribution, which
    covers every row a step can gather.
    """

    proposal: np.ndarray
    log_prior: np.ndarray
    v_table: np.ndarray
    proposal_cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        proposal = np.asarray(self.proposal, dtype=float)
        if proposal.ndim != 2 or proposal.shape != np.shape(self.log_prior):
            raise ContractError("proposal and log_prior must be (S, A) tables of one shape")
        if not ((proposal >= 0).all() and np.abs(proposal.sum(axis=1) - 1.0).max() <= 1e-6):
            raise ContractError("proposal rows must be probability distributions")
        object.__setattr__(self, "proposal", proposal)
        object.__setattr__(self, "proposal_cdf", rng_mod.cdf_rows(proposal))


def advance(
    particles: ParticleSet,
    mdp: TabularMdp,
    tables: PlanTables,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> ParticleSet:
    """Propagate every particle one step and update all statistics.

    Samples an action from each particle's proposal row, steps the MDP,
    applies the weight update with the model's policy as prior and its
    value table for bootstrapping, refreshes the last-non-terminal
    reference states, and feeds the per-step weight ratios into the atom
    accumulators and retrace traces.
    """
    k = particles.k
    if tables.proposal.shape != (mdp.n_states, mdp.n_actions):
        raise ContractError(f"proposal must have shape ({mdp.n_states}, {mdp.n_actions})")

    # one draw split in two: the action uniforms, then the state uniforms
    uniforms = rng.random(2 * k)
    states = particles.states
    actions = rng_mod.categorical_rows(tables.proposal_cdf, states, uniforms[:k])
    flat = states * mdp.n_actions + actions
    successors = rng_mod.categorical_rows(mdp.successor_cdf, flat, uniforms[k:])
    next_states = mdp.successor_states[flat, successors]
    rewards = np.take(mdp.reward, flat)

    prior_logp = np.take(tables.log_prior, flat)
    proposal_logp = np.log(np.take(tables.proposal, flat))
    v_table = tables.v_table
    v_cur, v_sampled = v_table[states], v_table[next_states]
    v_next = v_sampled
    if config.value_mode == "exact":
        with np.errstate(divide="ignore"):
            log_p = np.log(mdp.transition[states, actions])
        v_next = logsumexp(log_p + v_table[None, :], axis=1)
    increments = weight_update(
        0.0,
        prior_logp,
        proposal_logp,
        rewards,
        v_next,
        v_cur,
        config.temperature,
        config.gamma,
    )
    log_weights = particles.log_weights + increments

    ref_states = np.where(mdp.terminal[next_states], particles.ref_states, next_states)
    root_actions = actions.copy() if particles.step == 0 else particles.root_actions
    # Atom accumulators estimate per-root-action values, so the root
    # step enters conditioned on its action: its prior/proposal ratio is
    # an importance correction for the atom sampling measure, not part
    # of the action's value, and leaving it in would bias the backed-up
    # policy against whatever the proposal was tilted toward. Later
    # steps keep their full ratios (their actions are marginalized).
    backup_increments = increments
    if particles.step == 0:
        backup_increments = increments - (prior_logp - proposal_logp)
    ancestor_logq = accumulate_ancestor_q(
        particles.ancestor_logq, particles.ancestors, backup_increments
    )

    # Retrace trace: the first step enters undecayed; later steps first
    # shrink the trace by gamma * lambda * min(1, prior/proposal).
    delta = rewards + config.gamma * v_sampled - v_cur
    if particles.step == 0:
        retrace_decay = np.ones(k)
        retrace_acc = delta.astype(float)
    else:
        ratio = np.exp(prior_logp - proposal_logp)
        retrace_decay = (
            particles.retrace_decay
            * config.gamma
            * config.lambda_smc
            * np.minimum(1.0, ratio)
        )
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
    )


def multinomial_resample(
    particles: ParticleSet, weights: np.ndarray, rng: np.random.Generator, mode: str = "baseline"
) -> ParticleSet:
    """Draw K particles by ``weights`` and reset the weights to uniform.

    ``weights`` is ``normalized_weights(particles.log_weights)``.
    Per-lineage data (ancestors, reference states, retrace traces) is
    copied from the drawn indices; the atom-indexed records
    (``root_actions``, ``ancestor_logq``) are left in place. In
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
    idx[order] = rng_mod.categorical(np.cumsum(weights), uniforms[order])
    # indexing by ``idx`` copies; revived references get their own copy
    # so the two fields never alias
    if mode == "revived":
        states = particles.ref_states[idx]
        ref_states = states.copy()
    else:
        states = particles.states[idx]
        ref_states = particles.ref_states[idx]
    return ParticleSet(
        states=states,
        log_weights=np.zeros(k),
        ancestors=particles.ancestors[idx],
        root_actions=particles.root_actions,
        ref_states=ref_states,
        ancestor_logq=particles.ancestor_logq,
        retrace_acc=particles.retrace_acc[idx],
        retrace_decay=particles.retrace_decay[idx],
        step=particles.step,
    )


def dirac_policy(particles: ParticleSet, weights: np.ndarray, n_root_actions: int) -> np.ndarray:
    """Root policy as point masses on surviving root-atom actions, weighted
    by ``weights`` (``normalized_weights(particles.log_weights)``)."""
    if (particles.root_actions < 0).any():
        raise ContractError("root actions are recorded by the first advance")
    weights = _require_weights(weights, particles.k)
    mass = np.zeros(n_root_actions)
    np.add.at(mass, particles.root_actions[particles.ancestors], weights)
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

    def to_dict(self) -> dict:
        return {
            "ess": self.ess.tolist(),
            "distinct_ancestors": self.distinct_ancestors.tolist(),
            "terminal_particles": self.terminal_particles.tolist(),
            "resample_steps": list(self.resample_steps),
            "value_smc": self.value_smc,
            "value_model": self.value_model,
        }


@dataclass(frozen=True)
class PlannerOutput:
    root_policy: np.ndarray
    root_value: float
    diagnostics: PlannerDiagnostics

    def to_dict(self) -> dict:
        return {
            "root_policy": self.root_policy.tolist(),
            "root_value": self.root_value,
            "diagnostics": self.diagnostics.to_dict(),
        }


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
    return PlanTables(proposal, log_prior, model.v_table)


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
    distinct = np.empty(config.depth, dtype=np.intp)
    terminal_counts = np.empty(config.depth, dtype=np.intp)
    resample_steps = []

    for t in range(1, config.depth + 1):
        gen = rng_mod.stream(seed, t)
        particles = advance(particles, mdp, tables, config, gen)
        # the final step never resamples, so its weights are the final ones
        weights = normalized_weights(particles.log_weights)
        ess[t - 1] = 1.0 / np.square(weights).sum()
        if t % config.resample_period == 0 and t < config.depth:
            particles = multinomial_resample(particles, weights, gen, config.resample_mode)
            resample_steps.append(t)
        distinct[t - 1] = np.count_nonzero(np.bincount(particles.ancestors, minlength=config.k))
        terminal_counts[t - 1] = int(mdp.terminal[particles.states].sum())

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
