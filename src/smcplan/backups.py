"""Per-ancestor statistics backed up from particle weights.

Resampling discards most particle ancestries, so naive point-mass policy
inference at the root degenerates with depth. These helpers keep one
running log-value per root atom, fed by each step's weight ratios, and
turn those into a root policy that never loses atoms.
``mix_value_target`` blends the model value with the search value, the
retrace trace that ``planner.advance`` keeps per particle.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .errors import ContractError, NumericalError


def accumulate_ancestor_q(ancestor_logq, ancestors, log_ratio) -> np.ndarray:
    """Add each atom's mean weight-ratio (in log space) to its accumulator.

    ``log_ratio[i]`` is the log of particle i's single-step weight
    factor. For every root atom j with at least one surviving particle,
    the accumulator grows by ``log(mean(exp(log_ratio)))`` over those
    particles; atoms with no survivors are left unchanged. The reduction
    runs over a stable sort, so results are bit-reproducible.
    """
    logq = np.asarray(ancestor_logq, dtype=float)
    anc = np.asarray(ancestors, dtype=np.intp)
    ratios = np.asarray(log_ratio, dtype=float)
    if anc.shape != ratios.shape or anc.ndim != 1:
        raise ContractError("ancestors and log_ratio must be equal-length vectors")
    if anc.size and (anc.min() < 0 or anc.max() >= logq.size):
        raise ContractError("ancestor ids out of range")
    order = np.argsort(anc, kind="stable")
    anc_sorted = anc[order]
    ratio_sorted = ratios[order]
    uniq, starts, counts = np.unique(anc_sorted, return_index=True, return_counts=True)
    seg_max = np.maximum.reduceat(ratio_sorted, starts)
    sums = np.add.reduceat(np.exp(ratio_sorted - np.repeat(seg_max, counts)), starts)
    out = logq.copy()
    out[uniq] += seg_max + np.log(sums) - np.log(counts)
    return out


def message_passing_policy(prior_row, root_actions, ancestor_logq) -> np.ndarray:
    """Root policy from accumulated atom values.

    Atoms sharing an action are independent estimates of the same
    action value, so they are averaged (in exponential space) before the
    action's mass is formed as prior probability times estimated value
    exponential. Sampled actions define the support; no atom is ever
    dropped, whether or not its ancestry survived resampling. Averaging
    rather than summing keeps the estimate free of the sampling
    frequency, so it converges to the exact posterior policy for any
    prior. Temperature is not reapplied here: it is already inside the
    accumulated weights.
    """
    prior = np.asarray(prior_row, dtype=float)
    actions = np.asarray(root_actions, dtype=np.intp)
    logq = np.asarray(ancestor_logq, dtype=float)
    if actions.shape != logq.shape or actions.ndim != 1:
        raise ContractError("root_actions and ancestor_logq must be equal-length vectors")
    if actions.size == 0:
        raise ContractError("need at least one root atom")
    if actions.min() < 0 or actions.max() >= prior.size:
        raise ContractError("root actions out of range")
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    log_mass = np.full(prior.size, -np.inf)
    for a in range(prior.size):
        members = logq[actions == a]
        if members.size:
            log_mass[a] = log_prior[a] + logsumexp(members) - np.log(members.size)
    norm = logsumexp(log_mass)
    if not np.isfinite(norm):
        raise NumericalError("all root atoms carry zero mass")
    policy = np.exp(log_mass - norm)
    return policy / policy.sum()


def mix_value_target(v_model: float, v_smc: float, sigma: float) -> float:
    """Interpolate the model value and the search value: ``sigma`` at 1
    returns the model value, at 0 the search value."""
    if not 0.0 <= sigma <= 1.0:
        raise ContractError(f"sigma must lie in [0, 1], got {sigma}")
    return sigma * v_model + (1.0 - sigma) * v_smc
