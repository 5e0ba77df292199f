"""KL-constrained greedy tilting of policy rows.

A proposal row is drawn from the exponential family
``q_beta ∝ prior * exp(beta * q_values)``. The divergence
``KL(q_beta || prior)`` grows monotonically from 0 with beta, so the
largest beta whose divergence stays inside a radius ``epsilon`` is found
by bracketing (doubling beta) and bisection. The radius itself is set
adaptively as a fraction of the prior-to-greedy divergence, which makes
the tilt interpolate between the prior (radius 0) and the greedy policy
(full radius), whatever the scale of the values.

One kernel, :func:`trust_region_rows`, solves a whole table at once;
every row follows its own beta sequence, so each row's result is
bit-identical to solving it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .numerics import logsumexp

PRIOR_FLOOR = 1e-12
TOL = 1e-4
MAX_ITERATIONS = 100
BETA_CAP = 1e6


def greedy_row(q_values) -> np.ndarray:
    """Uniform distribution over the argmax set of ``q_values``; a table
    is taken row by row."""
    q = np.asarray(q_values, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] == 0:
        raise ContractError("q_values must be a non-empty vector or table")
    mask = q == q.max(axis=-1, keepdims=True)
    return mask / mask.sum(axis=-1, keepdims=True)


def _kl_rows(dist, log_ref) -> np.ndarray:
    """Row-wise ``sum(dist * (log(dist) - log_ref))`` over ``dist > 0``."""
    support = dist > 0
    terms = np.where(support, dist * (np.log(np.where(support, dist, 1.0)) - log_ref), 0.0)
    kl = terms.sum(axis=1)
    # numpy sums eight or more entries pairwise, so there the zeros left
    # off the support would regroup the additions: sum those rows over
    # their support alone
    if dist.shape[1] >= 8:
        for i in np.flatnonzero(~support.all(axis=1)):
            kl[i] = terms[i][support[i]].sum()
    return kl


def kl_to_prior(dist, prior_row):
    """``KL(dist || prior_row)`` with the prior floored at ``PRIOR_FLOOR``;
    tables give one divergence per row."""
    dist = np.asarray(dist, dtype=float)
    log_ref = np.log(np.maximum(np.asarray(prior_row, dtype=float), PRIOR_FLOOR))
    kl = _kl_rows(np.atleast_2d(dist), np.atleast_2d(log_ref))
    return float(kl[0]) if dist.ndim == 1 else kl


def adaptive_epsilon(prior_row, q_values, alpha: float):
    """Trust-region radius: ``alpha`` times the greedy-to-prior divergence
    (per row for tables)."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * kl_to_prior(greedy_row(q_values), prior_row)


@dataclass(frozen=True)
class TrustRegionSolution:
    """Solved proposal row plus the divergence it actually achieved.

    ``saturated`` marks outcomes where the radius was not active: either
    it already contains the greedy policy, or no member of the family
    reaches it (beta capped).
    """

    q: np.ndarray
    beta: float
    achieved_kl: float
    epsilon: float
    saturated: bool = False


def trust_region_rows(prior, q_values, epsilon):
    """Largest tilt of each row of ``prior`` toward the same row of
    ``q_values`` within that row's radius ``epsilon[i]``.

    Takes ``(S, A)`` probability and value tables and ``S`` radii, and
    returns ``(rows, beta, achieved_kl, saturated)``, one entry per row.
    Radius 0 returns the prior row bit-exactly. A radius at or beyond
    the greedy-to-prior divergence returns the greedy-tie row. In
    between, beta is bracketed by doubling from 1 (capped at
    ``BETA_CAP``) and bisected until the achieved divergence is within
    ``TOL`` of the radius or ``MAX_ITERATIONS`` is exhausted; a row is
    evaluated only while its own search is still running.
    """
    prior = np.asarray(prior, dtype=float)
    q = np.asarray(q_values, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    log_ref = np.log(np.maximum(prior, PRIOR_FLOOR))
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    greedy = greedy_row(q)
    kl_greedy = _kl_rows(greedy, log_ref)

    rows = prior.copy()
    beta = np.zeros(len(prior))
    kl = np.zeros(len(prior))
    saturated = (epsilon > 0.0) & (epsilon >= kl_greedy)
    rows[saturated] = greedy[saturated]
    beta[saturated] = math.inf
    kl[saturated] = kl_greedy[saturated]

    def evaluate(idx, b):
        z = log_prior[idx] + b[:, None] * q[idx]
        tilted = np.exp(z - logsumexp(z, axis=1)[:, None])
        rows[idx] = tilted
        beta[idx] = b
        kl[idx] = _kl_rows(tilted, log_ref[idx])

    idx = np.flatnonzero((epsilon > 0.0) & ~saturated)
    eps = epsilon[idx]
    hi = np.ones(idx.size)
    evaluate(idx, hi)
    grow = (kl[idx] < eps) & (hi < BETA_CAP)
    while grow.any():
        hi[grow] = np.minimum(hi[grow] * 2.0, BETA_CAP)
        evaluate(idx[grow], hi[grow])
        grow = (kl[idx] < eps) & (hi < BETA_CAP)
    # a row whose family cannot reach the radius (e.g. ties) keeps the
    # cap, as far as the tilt can go while satisfying the constraint
    capped = kl[idx] < eps
    saturated[idx[capped]] = True

    idx, eps, hi = idx[~capped], eps[~capped], hi[~capped]
    lo = np.zeros(idx.size)
    for _ in range(MAX_ITERATIONS):
        live = ~(np.abs(kl[idx] - eps) <= TOL)
        if not live.any():
            break
        mid = 0.5 * (lo[live] + hi[live])
        evaluate(idx[live], mid)
        below = kl[idx[live]] < eps[live]
        lo[live] = np.where(below, mid, lo[live])
        hi[live] = np.where(below, hi[live], mid)
    return rows, beta, kl, saturated


def solve_trust_region(prior_row, q_values, epsilon: float) -> TrustRegionSolution:
    """Largest tilt of ``prior_row`` toward ``q_values`` within radius
    ``epsilon``: the one-row case of :func:`trust_region_rows`."""
    prior = np.asarray(prior_row, dtype=float)
    if prior.ndim != 1 or prior.size == 0:
        raise ContractError("prior_row must be a non-empty vector")
    if (prior < 0).any() or abs(prior.sum() - 1.0) > 1e-9:
        raise ContractError("prior_row must be a probability vector")
    q = np.asarray(q_values, dtype=float)
    if q.shape != prior.shape:
        raise ContractError("prior_row and q_values must have the same length")
    if epsilon < 0:
        raise ContractError(f"epsilon must be non-negative, got {epsilon}")
    rows, beta, kl, saturated = trust_region_rows(prior[None], q[None], [epsilon])
    return TrustRegionSolution(rows[0], float(beta[0]), float(kl[0]), epsilon, bool(saturated[0]))
