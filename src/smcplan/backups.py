"""Per-ancestor statistics backed up from particle weights.

Resampling discards most particle ancestries, so naive point-mass policy
inference at the root degenerates with depth. These helpers keep one
running log-value per root atom, fed by each step's weight ratios, and
turn those into a root policy that never loses atoms; the planner feeds
them only for this ``message_passing`` readout, through a grouping of
the particles by atom that it rebuilds only when it resamples. The
readout normalizes its per-action masses with the planner's own
``numerics.normalized_weights``.
``mix_value_target`` blends the model value with the search value, the
retrace trace that ``planner.advance`` keeps per particle.

The planner's small-K loop hands the readout its root actions as a
list, and the readout then takes a list route with the array route's
bits, under the rule of ``numerics``: only ``exp``, ``log`` and
``log1p`` stay numpy calls (``math.*`` rounds differently), and every
sum goes through ``numerics.psum`` (the builtin ``sum()`` is compensated
from Python 3.12). The grouping and the accumulators stay on arrays at
every K: a list route for them gained under a microsecond a call at
K=4 and lost from K=8 on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, require_range
from .numerics import log_count, logsumexp, logsumexp_lists, normalized_weights


class AncestorGroups(NamedTuple):
    """Particles by root atom: atom ``atoms[j]`` holds ``counts[j]``
    particles, from ``starts[j]`` on in ``order`` (a stable sort by atom
    id). ``IDENTITY`` (``order`` None) is particle i alone in atom i."""

    order: np.ndarray | None
    starts: np.ndarray | None
    counts: np.ndarray | None
    atoms: np.ndarray | None
    log_counts: np.ndarray | None


IDENTITY = AncestorGroups(None, None, None, None, None)


def group_ancestors(ancestors, n_atoms: int) -> AncestorGroups:
    """Group particles by their root atom ids (each in ``[0, n_atoms)``);
    the readout groups atoms by their root actions the same way. The ids
    are sorted stably in the narrowest type that holds them (a radix
    sort), so sums over a group run in particle order."""
    anc = np.asarray(ancestors, dtype=np.intp)
    if anc.ndim != 1:
        raise ContractError("ancestors must be a vector")
    try:  # bincount rejects a negative id and counts past n_atoms for a large one
        counts = np.bincount(anc, minlength=n_atoms)
    except ValueError:
        counts = None
    if counts is None or counts.size > n_atoms:
        raise ContractError("ancestor ids out of range")
    # atom j's particles are the j-th run of the sorted order
    atoms = counts.nonzero()[0]
    counts = counts[atoms]
    order = anc.astype(np.min_scalar_type(n_atoms)).argsort(kind="stable")
    return AncestorGroups(order, counts.cumsum() - counts, counts, atoms, np.log(counts))


def accumulate_ancestor_q(ancestor_logq, groups: AncestorGroups, log_ratio) -> np.ndarray:
    """Add each atom's mean weight-ratio (in log space) to its accumulator.

    ``log_ratio[i]`` is the log of particle i's single-step weight
    factor. For every root atom j with at least one surviving particle
    in ``groups``, the accumulator grows by ``log(mean(exp(log_ratio)))``
    over those particles (under ``IDENTITY``, the one finite ratio);
    atoms with no survivors are left unchanged.
    """
    if groups.order is None:
        return ancestor_logq + log_ratio
    ratio_sorted = log_ratio[groups.order]
    seg_max = np.maximum.reduceat(ratio_sorted, groups.starts)
    sums = np.add.reduceat(np.exp(ratio_sorted - seg_max.repeat(groups.counts)), groups.starts)
    out = ancestor_logq.copy()
    out[groups.atoms] += seg_max + np.log(sums) - groups.log_counts
    return out


def message_passing_policy(prior_row, root_actions, ancestor_logq) -> np.ndarray:
    """Root policy from accumulated atom values.

    Atoms sharing an action are independent estimates of the same
    action value, so they are averaged (in exponential space) before the
    action's mass is formed as prior probability times estimated value
    exponential. Sampled actions define the support; no atom is ever
    dropped, whether or not its ancestry survived resampling. Averaging
    rather than summing keeps the estimate free of the sampling
    frequency, so without resampling it converges to the exact posterior
    policy for any prior (resampling leaves a bias: total variation about
    0.024 at K=100000, ``resample_period=1``). At small K, resampling
    pulls the readout toward the proposal: at depth 3,
    ``resample_period=2`` with the prior as proposal, its expected value
    is 0.046 (K=2) and 0.054 (K=3) in total variation from the exact root
    posterior, against 0.0007 and 0.0014 for dirac. Temperature is not
    reapplied here: it is already inside the accumulated weights. Masses
    that are all zero, or ``nan`` or ``+inf`` anywhere, raise
    :class:`DegenerateWeightsError`.
    """
    prior = np.asarray(prior_row, dtype=float)
    if type(root_actions) is list:
        logq = np.asarray(ancestor_logq, dtype=float)
        if (logq.shape == (len(root_actions),) and root_actions
                and 0 <= min(root_actions) <= max(root_actions) < prior.size):
            policy = _message_passing_lists(prior, root_actions, logq.tolist())
            if policy is not None:
                return policy
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
    # grouped by action, each action's atoms form one run, in atom order
    groups = group_ancestors(actions, prior.size)
    logq = logq[groups.order]
    log_mass = np.full(prior.size, -np.inf)
    for a, start, count, log_count in zip(groups.atoms.tolist(), groups.starts.tolist(),
                                          groups.counts.tolist(), groups.log_counts.tolist()):
        log_mass[a] = log_prior[a] + logsumexp(logq[start:start + count]) - log_count
    return normalized_weights(log_mass)


def _message_passing_lists(prior, root_actions: list, logq: list):
    """:func:`message_passing_policy` of the small-K loop's root actions,
    valid ids, with the array route's bits; ``None`` when an action's
    atoms have no finite maximum, which the array route handles."""
    runs = {}
    for a, q in zip(root_actions, logq):  # each action's atoms, in atom order
        runs.setdefault(a, []).append(q)
    actions = sorted(runs)
    tops = [max(runs[a]) for a in actions]
    if not all(map(math.isfinite, tops)):
        return None
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior).tolist()
    log_mass = [-math.inf] * prior.size
    for a, value in zip(actions, logsumexp_lists([runs[a] for a in actions], tops)):
        log_mass[a] = log_prior[a] + value - log_count(len(runs[a]))
    return np.array(normalized_weights(log_mass))


def mix_value_target(v_model: float, v_smc: float, sigma: float) -> float:
    """Interpolate the model value and the search value: ``sigma`` at 1
    returns the model value, at 0 the search value."""
    require_range(0, 1, sigma=sigma)
    return sigma * v_model + (1.0 - sigma) * v_smc
