"""KL-constrained greedy tilting of policy rows.

A proposal row is drawn from the exponential family
``q_beta ∝ prior * exp(beta * q_values)``. The divergence
``KL(q_beta || prior)`` grows from 0 with beta at the rate
``beta * Var_{q_beta}(q_values)``, so the beta whose divergence equals a
radius ``epsilon`` is the root of a one-dimensional equation, found by
safeguarded Newton steps. The radius itself is set adaptively as a
fraction of the divergence of the greedy row over the prior's support,
which makes the tilt interpolate between the prior (radius 0) and the
greedy policy (full radius), whatever the scale of the values.

One kernel, :func:`trust_region_rows`, solves a whole table at once; a
row's result never depends on the table's other rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError, require_range

TOL = 1e-4
MAX_ITERATIONS = 100
BETA_CAP = 1e6
DISTRIBUTION_TOL = 1e-6  # how far a proposal row's sum may stray from 1


def greedy_row(q_values) -> np.ndarray:
    """Uniform distribution over the argmax set of ``q_values``; a table
    is taken row by row."""
    q = np.asarray(q_values, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] == 0:
        raise ContractError("q_values must be a non-empty vector or table")
    mask = q == q.max(axis=-1, keepdims=True)
    return mask / mask.sum(axis=-1, keepdims=True)


def kl_to_prior(dist, prior_row):
    """``KL(dist || prior_row)`` over ``dist > 0`` (``inf`` for mass off the
    prior's support); tables give one divergence per row."""
    dist = np.asarray(dist, dtype=float)
    rows = np.atleast_2d(dist)
    support = rows > 0
    log_ref = np.log(np.where(support, prior_row, 1.0))
    kl = np.where(support, rows * (np.log(np.where(support, rows, 1.0)) - log_ref), 0.0).sum(axis=1)
    return float(kl[0]) if dist.ndim == 1 else kl


def adaptive_epsilon(prior_row, q_values, alpha: float):
    """Trust-region radius: ``alpha`` times the divergence from the prior
    of the greedy row over the prior's support (per row for tables)."""
    require_range(0, 1, alpha=alpha)
    return alpha * _greedy_on_support(np.asarray(prior_row, dtype=float), q_values)[1]


def _greedy_on_support(prior, q_values):
    """The greedy-tie rows of ``q_values`` over the actions with
    ``prior > 0``, and their divergences from ``prior``."""
    greedy = greedy_row(np.where(prior > 0, q_values, -np.inf))
    return greedy, kl_to_prior(greedy, prior)


@dataclass(frozen=True)
class TrustRegionSolution:
    """Solved proposal row plus the divergence it actually achieved.

    ``saturated`` marks outcomes where the radius was not active: either
    it already contains the greedy policy, or no tilt up to the cap
    reaches it.
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
    the divergence of the greedy-tie row over the prior's support returns
    that row. In between, a row's values are centred on their best value
    inside the prior's support and scaled to ``[-1, 0]`` there, so no
    tilt overflows, and the search runs in the scaled ``g = beta *
    spread``. It starts where ``g**2 * Var_prior(u) / 2`` meets the
    radius, capped at ``BETA_CAP``, then takes Newton steps for all live
    rows at once. A step that leaves its row's bracket is replaced by the
    bracket's midpoint in log g, or by the cap while no tilt has passed
    the radius. A row stops within ``TOL`` of its radius, at the cap if
    that still reads below the radius (the row is then saturated), or
    after ``MAX_ITERATIONS`` tilts. A row whose values tie on the prior's
    support keeps the prior, saturated at the cap, since every tilt of it
    is the prior. Every step is computed row by row, so a row's result
    never depends on the table's other rows. A searched row whose kept
    divergence is not finite, or whose kept tilt is not a distribution
    (its sum is off 1 by more than ``DISTRIBUTION_TOL``), raises
    :class:`NumericalError`.
    """
    prior = np.asarray(prior, dtype=float)
    q = np.asarray(q_values, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    greedy, kl_greedy = _greedy_on_support(prior, q)

    rows = prior.copy()
    beta = np.zeros(len(prior))
    kl = np.zeros(len(prior))
    saturated = (epsilon > 0.0) & (epsilon >= kl_greedy)
    rows[saturated] = greedy[saturated]
    beta[saturated] = math.inf
    kl[saturated] = kl_greedy[saturated]

    idx = searched = np.flatnonzero((epsilon > 0.0) & ~saturated)
    support = prior[idx] > 0
    # values whose spread overflows leave nan in the tilt, which the
    # check below reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        top = np.where(support, q[idx], -np.inf).max(axis=1)
        spread = top - np.where(support, q[idx], np.inf).min(axis=1)
        # values tied on the prior's support tilt nowhere: the row keeps the
        # prior, saturated at the cap, with divergence 0, not a rounding residue
        tied = spread == 0
        if tied.any():
            beta[idx[tied]], saturated[idx[tied]] = BETA_CAP, True
            idx, support, top, spread = (a[~tied] for a in (idx, support, top, spread))
        p, eps = prior[idx], epsilon[idx]
        scale = np.where(spread > 0, spread, 1.0)
        u = np.where(support, (q[idx] - top[:, None]) / scale[:, None], 0.0)
        centred = u - (p * u).sum(axis=1, keepdims=True)
        g = np.minimum(np.sqrt(2.0 * eps / (p * centred**2).sum(axis=1)), BETA_CAP)
        # dKL/dg = g * Var(u) <= g / 4 on [-1, 0], so the root is at
        # least sqrt(8 eps)
        lo, hi = np.sqrt(8.0 * eps), np.full(idx.size, np.inf)
        for _ in range(MAX_ITERATIONS):
            if not idx.size:
                break
            tilted = p * np.exp(g[:, None] * u)
            z = tilted.sum(axis=1, keepdims=True)
            tilted /= z
            # log(tilt / prior) for the tilt p * exp(g * u) / z
            log_ratio = g[:, None] * u - np.log(z)
            divergence = (tilted * log_ratio).sum(axis=1)
            rows[idx], beta[idx], kl[idx] = tilted, g / scale, divergence
            miss = divergence - eps
            capped = (miss < 0) & (g >= BETA_CAP)
            saturated[idx[capped]] = True
            lo, hi = np.where(miss < 0, g, lo), np.where(miss < 0, hi, g)
            # the divergence's slope in g is Cov_tilt(u, log_ratio)
            centred = u - (tilted * u).sum(axis=1, keepdims=True)
            slope = (tilted * centred * log_ratio).sum(axis=1)
            step = np.minimum(g - miss / slope, BETA_CAP)
            bisect = np.where(hi < np.inf, np.sqrt(lo) * np.sqrt(hi), BETA_CAP)
            g = np.where((lo < step) & (step < hi), step, bisect)
            live = ~(np.abs(miss) <= TOL) & ~capped
            if not live.all():
                idx, p, eps, u, scale, lo, hi, g = (
                    a[live] for a in (idx, p, eps, u, scale, lo, hi, g))
    # a nan or infinite entry also puts its row's sum off 1
    sums = rows[searched].sum(axis=1)
    if not ((np.abs(sums - 1.0) <= DISTRIBUTION_TOL).all() and np.isfinite(kl[searched]).all()):
        raise NumericalError("a kept tilt is not a distribution or its divergence is not finite")
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
    require_range(0, math.inf, epsilon=epsilon)
    rows, beta, kl, saturated = trust_region_rows(prior[None], q[None], [epsilon])
    return TrustRegionSolution(rows[0], float(beta[0]), float(kl[0]), epsilon, bool(saturated[0]))
