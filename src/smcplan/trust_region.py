"""KL-constrained greedy tilting of a single policy row.

A proposal row is drawn from the exponential family
``q_beta ∝ prior * exp(beta * q_values)``. The divergence
``KL(q_beta || prior)`` grows monotonically from 0 with beta, so the
largest beta whose divergence stays inside a radius ``epsilon`` is found
by bracketing (doubling beta) and bisection. The radius itself is set
adaptively as a fraction of the prior-to-greedy divergence, which makes
the tilt interpolate between the prior (radius 0) and the greedy policy
(full radius), whatever the scale of the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ContractError

PRIOR_FLOOR = 1e-12


def greedy_row(q_values) -> np.ndarray:
    """Uniform distribution over the argmax set of ``q_values``."""
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ContractError("q_values must be a non-empty vector")
    mask = q == q.max()
    return mask / mask.sum()


def kl_to_prior(dist, prior_row) -> float:
    """``KL(dist || prior_row)`` with the prior floored at ``PRIOR_FLOOR``."""
    dist = np.asarray(dist, dtype=float)
    ref = np.maximum(np.asarray(prior_row, dtype=float), PRIOR_FLOOR)
    support = dist > 0
    return float(np.sum(dist[support] * (np.log(dist[support]) - np.log(ref[support]))))


def adaptive_epsilon(prior_row, q_values, alpha: float) -> float:
    """Trust-region radius: ``alpha`` times the greedy-to-prior divergence."""
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


def solve_trust_region(
    prior_row,
    q_values,
    epsilon: float,
    tol: float = 1e-4,
    max_iterations: int = 100,
    beta_cap: float = 1e6,
) -> TrustRegionSolution:
    """Largest tilt of ``prior_row`` toward ``q_values`` within radius
    ``epsilon``.

    Radius 0 returns the prior bit-exactly. A radius at or beyond the
    greedy-to-prior divergence returns the greedy-tie distribution. In
    between, beta is bracketed by doubling from 1 (capped at
    ``beta_cap``) and bisected until the achieved divergence is within
    ``tol`` of ``epsilon`` or ``max_iterations`` is exhausted.
    """
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
    if epsilon == 0.0:
        return TrustRegionSolution(prior.copy(), 0.0, 0.0, 0.0)

    greedy = greedy_row(q)
    kl_greedy = kl_to_prior(greedy, prior)
    if epsilon >= kl_greedy:
        return TrustRegionSolution(greedy, math.inf, kl_greedy, epsilon, saturated=True)

    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)

    def evaluate(beta):
        z = log_prior + beta * q
        tilted = np.exp(z - logsumexp(z))
        return kl_to_prior(tilted, prior), tilted

    hi = 1.0
    kl_hi, q_hi = evaluate(hi)
    while kl_hi < epsilon and hi < beta_cap:
        hi = min(hi * 2.0, beta_cap)
        kl_hi, q_hi = evaluate(hi)
    if kl_hi < epsilon:
        # Family cannot reach the radius (e.g. ties); the cap is as far
        # as the tilt can go while still satisfying the constraint.
        return TrustRegionSolution(q_hi, hi, kl_hi, epsilon, saturated=True)

    lo = 0.0
    beta, kl_beta, q_beta = hi, kl_hi, q_hi
    for _ in range(max_iterations):
        if abs(kl_beta - epsilon) <= tol:
            break
        mid = 0.5 * (lo + hi)
        kl_mid, q_mid = evaluate(mid)
        beta, kl_beta, q_beta = mid, kl_mid, q_mid
        if kl_mid < epsilon:
            lo = mid
        else:
            hi = mid
    return TrustRegionSolution(q_beta, beta, kl_beta, epsilon)
