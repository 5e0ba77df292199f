"""Greedy rows, adaptive radii, and the constrained tilt solver."""

import math

import numpy as np
import pytest

from smcplan import (
    ContractError,
    adaptive_epsilon,
    greedy_row,
    solve_trust_region,
)
from smcplan.trust_region import kl_to_prior


def test_greedy_row_unique_argmax():
    assert greedy_row([1.0, 2.0]).tolist() == [0.0, 1.0]
    assert greedy_row([0.0, 0.0, 5.0, 0.0]).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_greedy_row_splits_ties():
    assert greedy_row([3.0, 3.0]).tolist() == [0.5, 0.5]


def test_greedy_row_rejects_empty():
    with pytest.raises(ContractError):
        greedy_row([])


def test_adaptive_epsilon_values():
    uniform = np.array([0.5, 0.5])
    # point mass against uniform over two actions diverges by ln 2
    assert adaptive_epsilon(uniform, [0.0, 1.0], 0.1) == pytest.approx(
        0.1 * math.log(2.0), abs=1e-12
    )
    assert adaptive_epsilon(uniform, [0.0, 1.0], 0.0) == 0.0
    # prior already greedy: zero radius at any tolerance
    assert adaptive_epsilon(np.array([0.0, 1.0]), [0.0, 1.0], 0.7) == pytest.approx(
        0.0, abs=1e-12
    )


def test_zero_radius_returns_prior_bit_exact():
    prior = np.array([0.3, 0.2, 0.5])
    sol = solve_trust_region(prior, [1.0, 5.0, 2.0], 0.0)
    assert (sol.q == prior).all()
    assert sol.beta == 0.0
    assert sol.achieved_kl == 0.0


def test_full_radius_returns_greedy_point_mass():
    prior = np.array([0.6, 0.3, 0.1])
    q_values = np.array([0.0, 2.0, 1.0])
    eps = adaptive_epsilon(prior, q_values, 1.0)
    sol = solve_trust_region(prior, q_values, eps)
    assert sol.q.tolist() == [0.0, 1.0, 0.0]
    assert sol.saturated
    assert sol.achieved_kl == pytest.approx(eps, abs=1e-12)


def test_bisection_against_independent_root_find():
    # Binary case with uniform prior: the tilted row is (1-p, p) and its
    # divergence is p log(2p) + (1-p) log(2(1-p)). Solve for p directly
    # and compare with the beta-bisection result.
    eps = 0.069315
    prior = np.array([0.5, 0.5])

    def kl_of_p(p):
        return p * math.log(2 * p) + (1 - p) * math.log(2 * (1 - p))

    lo, hi = 0.5, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_of_p(mid) < eps:
            lo = mid
        else:
            hi = mid
    p_expected = 0.5 * (lo + hi)

    sol = solve_trust_region(prior, [0.0, 1.0], eps)
    assert sol.q[1] > 0.5
    assert abs(sol.achieved_kl - eps) <= 1e-4
    assert sol.q[1] == pytest.approx(p_expected, abs=1e-3)


def test_solver_feasibility_on_random_rows():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        prior = rng.dirichlet(np.ones(n))
        q_values = rng.normal(size=n)
        eps = adaptive_epsilon(prior, q_values, 0.1)
        sol = solve_trust_region(prior, q_values, eps)
        assert sol.achieved_kl <= eps + 1e-3
        greedy_kl = kl_to_prior(greedy_row(q_values), prior)
        if eps < greedy_kl:
            assert sol.achieved_kl >= eps - 1e-3
        if not sol.saturated:
            # solution stays inside the exponential family
            tilted = prior * np.exp(sol.beta * q_values)
            tilted /= tilted.sum()
            assert np.abs(sol.q - tilted).max() <= 1e-9
        assert abs(sol.q.sum() - 1.0) <= 1e-12


def test_beta_monotone_in_radius():
    prior = np.array([0.4, 0.35, 0.25])
    q_values = np.array([0.1, 0.9, 0.4])
    betas = []
    for eps in np.linspace(0.0, kl_to_prior(greedy_row(q_values), prior) * 1.2, 25):
        betas.append(solve_trust_region(prior, q_values, float(eps)).beta)
    assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))


def test_constant_values_saturate_at_prior():
    prior = np.array([0.7, 0.2, 0.1])
    sol = solve_trust_region(prior, [1.0, 1.0, 1.0], 0.05)
    assert sol.saturated
    assert np.abs(sol.q - prior).max() <= 1e-12 or sol.achieved_kl <= 0.05


def test_rejects_bad_inputs():
    with pytest.raises(ContractError):
        solve_trust_region([0.5, 0.6], [0.0, 1.0], 0.1)
    with pytest.raises(ContractError):
        solve_trust_region([0.5, 0.5], [0.0, 1.0], -0.1)
    with pytest.raises(ContractError):
        adaptive_epsilon([0.5, 0.5], [0.0, 1.0], 1.5)
