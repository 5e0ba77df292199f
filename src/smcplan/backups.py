"""Per-ancestor statistics backed up from particle weights.

Resampling discards most particle ancestries, so naive point-mass policy
inference at the root degenerates with depth. These helpers keep one
running log-value per root atom, fed by each step's weight ratios, and
turn those into a root policy that never loses atoms; the planner feeds
them only for this ``message_passing`` readout, through a grouping of
the particles by atom that it rebuilds only when it resamples. The
readout normalizes its per-action masses with the planner's own
``numerics.normalized_weights``.

The planner's small-K loop hands the readout its root actions as a
list; up to ``_SMALL_K`` atoms the readout then takes a list route with
the array route's bits, under the list rule of the ``planner`` module
docstring. Below ``_SEQUENTIAL_SUM`` (8) particles the loop also holds
the accumulators as a list, and the grouping of its list of ids and the
accumulation take list routes by the same rule; from 8 particles on
they stay on arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .numerics import _LOG_COUNTS, _SEQUENTIAL_SUM, _SMALL_K, logsumexp, logsumexp_lists
from .numerics import normalized_weights, psum


class AncestorGroups(NamedTuple):
    """Particles by root atom: atom ``atoms[j]`` holds ``counts[j]``
    particles, from ``starts[j]`` on in ``order`` (a stable sort by atom
    id). ``IDENTITY`` (``order`` None) is particle i alone in atom i.
    A grouping of a list lists ``atoms`` in first-seen order and holds in
    ``order`` one list per atom of its particles, in particle order; its
    other fields are None."""

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
    sort), so sums over a group run in particle order. A list of fewer
    than ``_SEQUENTIAL_SUM`` ints is grouped in a dict instead."""
    if (type(ancestors) is list and 0 < len(ancestors) < _SEQUENTIAL_SUM
            and set(map(type, ancestors)) == {int}):
        runs = {}
        for i, a in enumerate(ancestors):
            runs.setdefault(a, []).append(i)
        if not 0 <= min(runs) <= max(runs) < n_atoms:
            raise ContractError("ancestor ids out of range")
        return AncestorGroups(list(runs.values()), None, None, list(runs), None)
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
    atoms with no survivors are left unchanged. A list ``ancestor_logq``
    with a grouping of a list (or ``IDENTITY``) gives a list, by one
    ``np.exp`` and one ``np.log`` over all atoms.
    """
    if type(ancestor_logq) is list:
        if groups.order is None:
            return [q + r for q, r in zip(ancestor_logq, log_ratio)]
        runs = [[log_ratio[i] for i in run] for run in groups.order]
        tops = list(map(max, runs))
        shifted = np.exp([x - top for run, top in zip(runs, tops) for x in run]).tolist()
        sums, start = [], 0
        for run in runs:  # a segment of np.add.reduceat: its head plus the rest
            sums.append(shifted[start] + psum(shifted[start + 1:start + len(run)]))
            start += len(run)
        out = ancestor_logq.copy()
        for j, run, top, log_sum in zip(groups.atoms, runs, tops, np.log(sums).tolist()):
            out[j] += top + log_sum - _LOG_COUNTS[len(run) - 1]
        return out
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
    logq = np.asarray(ancestor_logq, dtype=float)
    if (type(root_actions) is list and 0 < len(root_actions) <= _SMALL_K
            and logq.shape == (len(root_actions),)
            and 0 <= min(root_actions) <= max(root_actions) < prior.size):
        return _message_passing_lists(prior, root_actions, logq.tolist())
    actions = np.asarray(root_actions, dtype=np.intp)
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
    valid ids, with the array route's bits or its error."""
    runs = {}
    for a, q in zip(root_actions, logq):  # each action's atoms, in atom order
        runs.setdefault(a, []).append(q)
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior).tolist()
    log_mass = [-math.inf] * prior.size
    for (a, run), value in zip(runs.items(), logsumexp_lists(list(runs.values()))):
        log_mass[a] = log_prior[a] + value - _LOG_COUNTS[len(run) - 1]
    return np.array(normalized_weights(log_mass))
