"""KL-constrained greedy tilting of policy rows.

A proposal row is drawn from the exponential family
``q_beta ∝ prior * exp(beta * q_values)``. The divergence
``KL(q_beta || prior)`` grows monotonically from 0 with beta, so the
largest beta whose divergence stays inside a radius ``epsilon`` is found
by a k-section search: a bracket from doubling beta, then bisection, with
many betas tilted per row at once. The radius itself is set adaptively as
a fraction of the prior-to-greedy divergence, which makes the tilt
interpolate between the prior (radius 0) and the greedy policy (full
radius), whatever the scale of the values.

One kernel, :func:`trust_region_rows`, solves a whole table at once; each
row's result is bit-identical to a serial search of that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, require_range
from .numerics import logsumexp

PRIOR_FLOOR = 1e-12
TOL = 1e-4
MAX_ITERATIONS = 100
BETA_CAP = 1e6
TREE_DEPTH = 4  # bisection levels a round evaluates at once


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
    # their support alone, all rows of one support size at once
    if dist.shape[1] >= 8:
        size = support.sum(axis=1)
        for m in np.unique(size[(size > 0) & (size < dist.shape[1])]):
            kl[size == m] = terms[size == m][support[size == m]].reshape(-1, m).sum(axis=1)
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
    require_range(0, 1, alpha=alpha)
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
    between, the result is that of a serial search, which doubles beta
    from 1 (capped at ``BETA_CAP``) until the divergence reaches the
    radius, then bisects until it is within ``TOL`` of the radius or
    ``MAX_ITERATIONS`` midpoints are spent. Each round of the search
    tilts a row at many betas in one evaluation: all the doublings, then
    the midpoints of the next ``TREE_DEPTH`` bisection levels, which the
    row walks by the serial rule. Every tilt is computed row by row, so
    each row's result is bit-identical to solving it alone.
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
        """Tilts of row ``idx[i]`` at each beta of ``b[i]`` (or ``b``)."""
        shape = idx.size, b.shape[-1]
        # a beta past the serial search's stop may overflow; it is never kept
        with np.errstate(over="ignore", invalid="ignore"):
            z = (log_prior[idx, None] + b[..., None] * q[idx, None]).reshape(-1, q.shape[1])
            tilted = np.exp(z - logsumexp(z, axis=1)[:, None])
        kl_b = _kl_rows(tilted, np.repeat(log_ref[idx], shape[1], axis=0))
        return tilted.reshape(*shape, q.shape[1]), kl_b.reshape(shape)

    idx = np.flatnonzero((epsilon > 0.0) & ~saturated)
    eps = epsilon[idx]
    doublings = np.minimum(2.0 ** np.arange(math.ceil(math.log2(BETA_CAP)) + 1), BETA_CAP)
    tilted, kl_b = evaluate(idx, doublings)
    # the doubling stops at the first divergence not below the radius
    at = (kl_b[:, :-1] < eps[:, None]).cumprod(axis=1).sum(axis=1)
    r = np.arange(idx.size)
    rows[idx], beta[idx], kl[idx] = tilted[r, at], doublings[at], kl_b[r, at]
    # a row whose family cannot reach the radius (e.g. ties) keeps the
    # cap, as far as the tilt can go while satisfying the constraint
    capped = kl[idx] < eps
    saturated[idx[capped]] = True

    idx, eps, hi = idx[~capped], eps[~capped], doublings[at[~capped]]
    lo, spent = np.zeros(idx.size), np.zeros(idx.size, dtype=int)
    live = ~(np.abs(kl[idx] - eps) <= TOL) & (spent < MAX_ITERATIONS)
    while live.any():
        idx, eps, lo, hi, spent = idx[live], eps[live], lo[live], hi[live], spent[live]
        # the bisection tree under [lo, hi], its midpoints formed level by level
        edges = np.empty((idx.size, 2**TREE_DEPTH + 1))
        edges[:, 0], edges[:, -1] = lo, hi
        for width in 2 ** np.arange(TREE_DEPTH, 0, -1):
            edges[:, width // 2 :: width] = 0.5 * (edges[:, :-1:width] + edges[:, width::width])
        tilted, kl_b = evaluate(idx, edges[:, 1:-1])
        # each row walks its tree of midpoints as the serial bisection
        # would; node, left and right index the row's edges
        walks = []
        for kl_row, e, k, n in zip(kl_b.tolist(), eps.tolist(), kl[idx].tolist(), spent.tolist()):
            left, right, node = 0, 2**TREE_DEPTH, 0
            while right - left > 1 and not abs(k - e) <= TOL and n < MAX_ITERATIONS:
                node = (left + right) // 2
                k, n = kl_row[node - 1], n + 1
                left, right = (node, right) if k < e else (left, node)
            walks.append((node, left, right, n, not abs(k - e) <= TOL and n < MAX_ITERATIONS))
        node, left, right, spent, live = np.array(walks).T
        r = np.arange(idx.size)
        rows[idx], beta[idx], kl[idx] = tilted[r, node - 1], edges[r, node], kl_b[r, node - 1]
        lo, hi, live = edges[r, left], edges[r, right], live.astype(bool)
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
