"""Exact solvers used as ground truth for the sampled planner.

Everything here is exact (no sampling): finite-horizon soft values
solved backward in log space, posterior trajectory distributions by
exhaustive enumeration, the evidence decomposition into a lower bound
plus a non-negative gap, and plain value iteration. Outputs are exact up
to floating point, which is what makes them usable as oracles in the
test-suite. The solvers read the full transition tensor, except that
the soft backups of a deterministic MDP (one successor per ``(s, a)``)
read its successor table: there each row's log-expectation is its one
entry, so a gather gives the same bits as the dense log-sum-exp.

Conventions: rewards enter likelihoods as ``reward / temperature``. The
enumeration oracles discount the reward at step t by an explicit
``gamma ** (t - 1)`` factor; the soft backups instead multiply the
log-expectation by ``gamma`` (see :func:`soft_value_iteration`). The
soft backups scale the reward once per call and form only the
posteriors a caller reads (the root's, or every stage's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, ContractError, NumericalError, SupportError
from .errors import require_counts, require_integers, require_range
from .mdp import TabularMdp, check_policy_table, enumerate_trajectories, stage_policy_tables
from .numerics import logsumexp


@dataclass(frozen=True)
class SoftSolution:
    """Soft values at the root planning stage.

    ``v_soft[s]`` is the log-expected exponentiated return under the
    prior, ``q_soft[s, a]`` its action-conditioned counterpart, and
    ``posterior_policy`` the prior reweighted by ``exp(q_soft)``.
    """

    v_soft: np.ndarray
    q_soft: np.ndarray
    posterior_policy: np.ndarray


def _soft_backup_sweeps(mdp: TabularMdp, prior, horizon: int, temperature: float):
    """Yield ``(v, q, log_prior)`` per backward sweep, boundary values zero,
    up to the first sweep that returns its input byte for byte (``-0.0``
    and ``0.0`` differ): a sweep is a function of that input alone, so
    :func:`posterior_policy_stages` repeats it for the remaining stages.
    """
    require_counts(horizon=horizon)
    require_range(POSITIVE, math.inf, temperature=temperature)
    table = check_policy_table(prior, mdp.n_states, mdp.n_actions, "prior")
    with np.errstate(divide="ignore", over="ignore"):  # an overflow raises NumericalError below
        log_prior = np.log(table)
        scaled_reward = mdp.reward / temperature
    if mdp.successor_states.shape[1] == 1:
        # a row's log-sum-exp over one finite entry returns that entry;
        # the row's maximum is its one positive mass
        successors = mdp.successor_states.reshape(mdp.n_states, mdp.n_actions)
        log_p1 = np.log(mdp.transition.max(axis=2))

        def log_expectation(v):
            return log_p1 + v.take(successors)
    else:
        with np.errstate(divide="ignore"):
            log_p = np.log(mdp.transition)

        def log_expectation(v):
            return logsumexp(log_p + v[None, None, :], axis=2)

    v = np.zeros(mdp.n_states)
    for _ in range(horizon):
        prev = v
        q = scaled_reward + mdp.discount * log_expectation(v)
        v = logsumexp(log_prior + q, axis=1)
        if not np.isfinite(v).all():
            raise NumericalError("soft values overflowed; check reward/temperature scale")
        yield v, q, log_prior
        if v.tobytes() == prev.tobytes():
            return


def _posterior(v, q, log_prior) -> np.ndarray:
    """The prior reweighted by ``exp(q)``, each row normalized."""
    posterior = np.exp(log_prior + q - v[:, None])
    posterior /= np.add.reduce(posterior, axis=1, keepdims=True)
    return posterior


def soft_value_iteration(
    mdp: TabularMdp, prior, horizon: int, temperature: float
) -> SoftSolution:
    """Finite-horizon soft Bellman recursion with zero boundary values.

    The backup is ``q[s, a] = R(s, a)/T + gamma * log Eexp v(s')`` with
    ``v[s] = log sum_a prior(a|s) exp q[s, a]``, evaluated exactly over
    the full transition row (by a gather of the successor's value when
    the MDP is deterministic). The discount multiplies the whole
    log-expectation of the next stage's soft value, whereas the
    enumeration oracles (:func:`exact_posterior_trajectories`,
    :func:`elbo_and_gap`) discount each reward by ``gamma ** t``; the two
    agree only at ``gamma == 1``. Returns the root-stage solution.
    Sweeping stops once a sweep reproduces its input bit for bit (after
    one sweep on ``absorbing_zero`` under a uniform prior), which leaves
    the result unchanged.
    """
    for v, q, log_prior in _soft_backup_sweeps(mdp, prior, horizon, temperature):
        pass
    return SoftSolution(v, q, _posterior(v, q, log_prior))


def posterior_policy_stages(
    mdp: TabularMdp, prior, horizon: int, temperature: float
) -> np.ndarray:
    """Stage-dependent exact posterior policies, index 0 at the root.

    Stage t's table is the posterior with ``horizon - t`` steps to go, so
    stacking them gives the exact (non-stationary) posterior policy for a
    depth-``horizon`` problem. The stages past the sweeps' fixed point
    repeat its posterior, bit for bit what further sweeps would give.
    """
    sweeps = [_posterior(*sweep) for sweep in _soft_backup_sweeps(mdp, prior, horizon, temperature)]
    sweeps += sweeps[-1:] * (horizon - len(sweeps))
    return np.stack(sweeps[::-1], axis=0)


def _discounted_loglik(trajectory, gamma: float, temperature: float) -> float:
    # added left to right: the builtin sum() is compensated from Python 3.12
    total = 0.0
    for t, r in enumerate(trajectory.rewards):
        total += (gamma**t) * r / temperature
    return total


def exact_posterior_trajectories(
    mdp: TabularMdp, prior, s0: int, depth: int, temperature: float
):
    """Posterior over depth-limited trajectories by exhaustive enumeration.

    Each trajectory's prior probability is reweighted by the exponential
    of its discounted reward sum over the temperature, then normalized.
    """
    require_range(POSITIVE, math.inf, temperature=temperature)
    pairs = enumerate_trajectories(mdp, s0, prior, depth)
    log_w = np.array(
        [np.log(p) + _discounted_loglik(traj, mdp.discount, temperature) for traj, p in pairs]
    )
    log_norm = logsumexp(log_w)
    posterior = np.exp(log_w - log_norm)
    return [(traj, float(w)) for (traj, _), w in zip(pairs, posterior)]


def root_action_marginal(weighted_trajectories, n_actions: int) -> np.ndarray:
    """Marginal distribution of the first action of weighted trajectories."""
    mass = np.zeros(n_actions)
    for traj, p in weighted_trajectories:
        if not traj.actions:
            raise ContractError("trajectory has no root action to marginalize")
        mass[traj.actions[0]] += p
    return mass / mass.sum()


def elbo_and_gap(
    mdp: TabularMdp, proposal, prior, s0: int, depth: int, temperature: float
):
    """Evidence decomposition at ``s0``: ``(elbo, gap, log_evidence)``.

    The lower bound is the proposal's expected discounted reward (over
    temperature) minus its accumulated log-ratio to the prior; the gap is
    the divergence of the proposal path measure from the exact posterior,
    ``log_evidence - elbo``. The evidence comes from a separate
    enumeration of the prior's paths, so ``gap >= 0`` is a meaningful
    check; ``elbo + gap == log_evidence`` holds by construction.
    """
    require_integers(depth=depth)
    require_range(POSITIVE, math.inf, temperature=temperature)
    prior_table = check_policy_table(prior, mdp.n_states, mdp.n_actions, "prior")
    proposal_tables = stage_policy_tables(proposal, depth, mdp, "proposal")
    pairs = enumerate_trajectories(mdp, s0, proposal_tables[:depth], depth)

    elbo = 0.0
    for traj, p_q in pairs:
        log_ratio = 0.0  # accumulated log q_t(a|s) - log prior(a|s)
        for t, (s, a) in enumerate(zip(traj.states, traj.actions)):
            q_prob = proposal_tables[t][s, a]
            pi_prob = prior_table[s, a]
            if pi_prob == 0.0:
                raise SupportError(
                    f"proposal puts mass on action {a} at state {s} where the "
                    "prior has none"
                )
            log_ratio += np.log(q_prob) - np.log(pi_prob)
        loglik = _discounted_loglik(traj, mdp.discount, temperature)
        elbo += p_q * (loglik - log_ratio)

    prior_pairs = enumerate_trajectories(mdp, s0, prior_table, depth)
    log_evidence = float(
        logsumexp(
            [
                np.log(p) + _discounted_loglik(traj, mdp.discount, temperature)
                for traj, p in prior_pairs
            ]
        )
    )
    return float(elbo), float(log_evidence - elbo), log_evidence


def optimal_policy(mdp: TabularMdp, horizon: int):
    """Finite-horizon value iteration; greedy ties split uniformly.

    Returns ``(policy, v_star)`` at the root stage.
    """
    require_counts(horizon=horizon)
    v = np.zeros(mdp.n_states)
    for _ in range(horizon):
        q = mdp.reward + mdp.discount * mdp.transition @ v
        v = q.max(axis=1)
    ties = np.abs(q - v[:, None]) <= 1e-9
    policy = ties / ties.sum(axis=1, keepdims=True)
    return policy, v


def policy_value(mdp: TabularMdp, policy, horizon: int) -> np.ndarray:
    """Exact expected discounted return of a policy over ``horizon`` steps.

    Accepts a stationary table or a stack of per-stage tables (root
    first). Exact dynamic programming, equivalent to enumerating every
    trajectory.
    """
    require_counts(horizon=horizon)
    tables = stage_policy_tables(policy, horizon, mdp)
    v = np.zeros(mdp.n_states)
    for steps_to_go in range(1, horizon + 1):
        table = tables[horizon - steps_to_go]
        q = mdp.reward + mdp.discount * mdp.transition @ v
        v = (table * q).sum(axis=1)
    return v
