"""Greedy rows, adaptive radii, and the constrained tilt solver."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from smcplan import (
    ContractError,
    Model,
    NumericalError,
    PlannerConfig,
    TabularMdp,
    adaptive_epsilon,
    greedy_row,
    plan_tables,
    solve_trust_region,
    trust_region_rows,
)
from smcplan import numerics, trust_region
from smcplan.trust_region import BETA_CAP, DISTRIBUTION_TOL, PRIOR_FLOOR, TOL, kl_to_prior


# Reference implementation: the scalar solver, one row at a time, with
# scipy's log-sum-exp and the divergence summed over the support only.
# The package solves whole tables at once, evaluating many betas per row
# in each round; the tests below require it to match this bit for bit.
def reference_kl(dist, prior_row) -> float:
    ref = np.maximum(prior_row, PRIOR_FLOOR)
    support = dist > 0
    return float(np.sum(dist[support] * (np.log(dist[support]) - np.log(ref[support]))))


def reference_solve(prior, q, epsilon, tol=1e-4, max_iterations=100, beta_cap=1e6):
    """``(row, beta, achieved_kl, saturated)`` for one prior row."""
    if epsilon == 0.0:
        return prior.copy(), 0.0, 0.0, False
    mask = q == q.max()
    greedy = mask / mask.sum()
    kl_greedy = reference_kl(greedy, prior)
    if epsilon >= kl_greedy:
        return greedy, math.inf, kl_greedy, True

    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)

    def evaluate(beta):
        z = log_prior + beta * q
        tilted = np.exp(z - logsumexp(z))
        return reference_kl(tilted, prior), tilted

    hi = 1.0
    kl_hi, q_hi = evaluate(hi)
    while kl_hi < epsilon and hi < beta_cap:
        hi = min(hi * 2.0, beta_cap)
        kl_hi, q_hi = evaluate(hi)
    if kl_hi < epsilon:
        return q_hi, hi, kl_hi, True

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
    return q_beta, beta, kl_beta, False


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def random_tables(gen, n_rows, n_actions, kind):
    """Prior and value tables of one kind: full-support Dirichlet priors,
    one-hot priors, priors with a zero entry (a partial support, which
    changes how numpy groups the divergence sum), or tied values."""
    prior = gen.dirichlet(np.full(n_actions, gen.choice([0.2, 1.0, 5.0])), size=n_rows)
    q = gen.normal(size=(n_rows, n_actions)) * 10.0 ** gen.uniform(-2, 2)
    if kind == "one_hot":
        prior = np.eye(n_actions)[gen.integers(0, n_actions, n_rows)]
    elif kind == "zero_entry":
        prior[:, gen.integers(0, n_actions)] = 0.0
        prior /= prior.sum(axis=1, keepdims=True)
    elif kind == "tied":
        q = np.round(q / q.std()) if q.std() > 0 else q
    return prior, q


@pytest.mark.parametrize("kind", ["dirichlet", "one_hot", "zero_entry", "tied"])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
def test_kernel_matches_scalar_reference_bitwise(kind, alpha):
    gen = np.random.default_rng([ord(c) for c in kind] + [int(alpha * 10)])
    for n_actions in range(2, 12):
        for _ in range(6):
            prior, q = random_tables(gen, 5, n_actions, kind)
            eps = adaptive_epsilon(prior, q, alpha)
            assert bits(eps) == bits([alpha * reference_kl(greedy_row(r), p)
                                      for p, r in zip(prior, q)])
            rows, beta, kl, saturated = trust_region_rows(prior, q, eps)
            for i in range(len(prior)):
                row, b, k, sat = reference_solve(prior[i], q[i], eps[i])
                assert bits(rows[i]) == bits(row)
                assert bits([beta[i], kl[i]]) == bits([b, k])
                assert saturated[i] == sat
                one = solve_trust_region(prior[i], q[i], eps[i])
                assert bits(one.q) == bits(row)
                assert bits([one.beta, one.achieved_kl]) == bits([b, k])
                assert one.saturated == sat and isinstance(one.beta, float)


def test_kernel_matches_reference_at_intermediate_radii():
    # radii strictly inside (0, greedy divergence) exercise the bracketing
    # and the bisection on every row, with rows finishing at different
    # iterations
    gen = np.random.default_rng(7)
    for n_actions in range(2, 12):
        prior, q = random_tables(gen, 40, n_actions, "dirichlet")
        eps = adaptive_epsilon(prior, q, 1.0) * gen.uniform(0.01, 0.99, 40)
        rows, beta, kl, saturated = trust_region_rows(prior, q, eps)
        for i in range(40):
            row, b, k, sat = reference_solve(prior[i], q[i], eps[i])
            assert bits(rows[i]) == bits(row)
            assert bits([beta[i], kl[i]]) == bits([b, k]) and saturated[i] == sat


# Reference for the round-based search: the serial bracket-and-bisect
# table solver it replaced, which evaluates one beta per row at a time
# and only while that row's search runs. Its helpers are the package's
# own and it reads MAX_ITERATIONS when called, so the property below
# pins the order of the search alone.
def serial_trust_region_rows(prior, q_values, epsilon):
    prior = np.asarray(prior, dtype=float)
    q = np.asarray(q_values, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    log_ref = np.log(np.maximum(prior, PRIOR_FLOOR))
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    greedy = greedy_row(q)
    kl_greedy = trust_region._kl_rows(greedy, log_ref)

    rows = prior.copy()
    beta = np.zeros(len(prior))
    kl = np.zeros(len(prior))
    saturated = (epsilon > 0.0) & (epsilon >= kl_greedy)
    rows[saturated] = greedy[saturated]
    beta[saturated] = math.inf
    kl[saturated] = kl_greedy[saturated]

    def evaluate(idx, b):
        z = log_prior[idx] + b[:, None] * q[idx]
        tilted = np.exp(z - numerics.logsumexp(z, axis=1)[:, None])
        rows[idx] = tilted
        beta[idx] = b
        kl[idx] = trust_region._kl_rows(tilted, log_ref[idx])

    idx = np.flatnonzero((epsilon > 0.0) & ~saturated)
    eps = epsilon[idx]
    hi = np.ones(idx.size)
    evaluate(idx, hi)
    grow = (kl[idx] < eps) & (hi < BETA_CAP)
    while grow.any():
        hi[grow] = np.minimum(hi[grow] * 2.0, BETA_CAP)
        evaluate(idx[grow], hi[grow])
        grow = (kl[idx] < eps) & (hi < BETA_CAP)
    capped = kl[idx] < eps
    saturated[idx[capped]] = True

    idx, eps, hi = idx[~capped], eps[~capped], hi[~capped]
    lo = np.zeros(idx.size)
    for _ in range(trust_region.MAX_ITERATIONS):
        live = ~(np.abs(kl[idx] - eps) <= TOL)
        if not live.any():
            break
        mid = 0.5 * (lo[live] + hi[live])
        evaluate(idx[live], mid)
        below = kl[idx[live]] < eps[live]
        lo[live] = np.where(below, mid, lo[live])
        hi[live] = np.where(below, hi[live], mid)
    return rows, beta, kl, saturated


@st.composite
def search_tables(draw):
    """A table, its radii and an iteration budget. Priors may have zero
    entries (with eight or more actions that takes the divergence's
    support path); small integer values tie often, so some rows can only
    stop at the cap; radii are 0, inside, or past the greedy divergence;
    and values of order 1e303 overflow at betas the serial search never
    reaches."""
    n_rows, n_actions = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(
        st.lists(mass, min_size=n_actions, max_size=n_actions), min_size=n_rows, max_size=n_rows)))
    assume((weights.sum(axis=1) > 0).all())
    prior = weights / weights.sum(axis=1, keepdims=True)
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-10.0, 10.0))
    q = np.array(draw(st.lists(
        st.lists(value, min_size=n_actions, max_size=n_actions), min_size=n_rows, max_size=n_rows)))
    q *= draw(st.sampled_from([1.0, 1e-3, 1e303]))
    fraction = st.one_of(st.just(0.0), st.floats(0.0, 1.2))
    eps = np.array(draw(st.lists(fraction, min_size=n_rows, max_size=n_rows)))
    eps *= kl_to_prior(greedy_row(q), prior)
    return prior, q, eps, draw(st.sampled_from([3, 100]))


@settings(max_examples=200, deadline=None)
@given(problem=search_tables())
# a tie the tilt cannot leave: the row stops at BETA_CAP, saturated
@example(problem=(np.array([[1 / 3, 2 / 3, 0.0, 0.0, 0.0]]), np.array([[10.0, 10.0, 0, 0, 0]]),
                  np.array([0.03]), 100))
# a tie at values of order 1e303 that the tilt cannot leave: the tilt
# overflows before the cap, so the search raises
@example(problem=(np.array([[1.0, 0.0]]), np.array([[1e303, 1e303]]), np.array([1.0]), 100))
# a tie at values of order 1e303 that rounds the prior's log-differences
# away: the serial search keeps the finite row [1, 1, 0], so the search
# raises
@example(problem=(np.array([[1 / 3, 2 / 3, 0.0]]), np.array([[1e304, 1e304, 1e304]]),
                  np.array([1.0]), 100))
# eight actions, one without prior mass, bisected to the tolerance
@example(problem=(np.array([[0.0] + [1 / 7] * 7]), np.arange(8.0)[None] / 8, np.array([0.3]), 100))
# the budget runs out before the tolerance is met
@example(problem=(np.array([[0.5, 0.5]] * 2), np.array([[0.0, 1.0], [0.0, 5.0]]),
                  np.array([0.1, 0.2]), 3))
def test_round_search_equals_the_serial_search_bit_for_bit(problem):
    prior, q, eps, max_iterations = problem
    with mock.patch.object(trust_region, "MAX_ITERATIONS", max_iterations):
        # the serial search may itself overflow on values of order 1e303
        with np.errstate(over="ignore", invalid="ignore"):
            expected = serial_trust_region_rows(prior, q, eps)
        sums = expected[0].sum(axis=1)
        if not ((np.abs(sums - 1.0) <= DISTRIBUTION_TOL).all() and np.isfinite(expected[2]).all()):
            # where the serial search keeps an overflowed tilt or a row
            # that is not a distribution, the rounds raise instead of
            # returning it
            with pytest.raises(NumericalError):
                trust_region_rows(prior, q, eps)
            return
        got = trust_region_rows(prior, q, eps)
    for name, ours, theirs in zip(("rows", "beta", "kl", "saturated"), got, expected):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


def test_a_kept_row_that_is_not_a_distribution_raises():
    # values of order 1e303 round the prior's log-differences away, so
    # the search keeps the row [1, 1, 0]; a proposal table built from it
    # raises the same error instead of a ContractError from PlanTables
    prior, q = np.array([[1 / 3, 2 / 3, 0.0]]), np.array([[10.0, 10.0, 10.0]]) * 1e303
    with pytest.raises(NumericalError, match="not a distribution"):
        trust_region_rows(prior, q, [1.0])
    transition = np.zeros((2, 3, 2))
    transition[:, :, 1] = 1.0
    mdp = TabularMdp(transition, np.zeros((2, 3)), np.array([False, True]))
    logits = np.array([[0.0, math.log(2.0), -math.inf], [0.0, 0.0, 0.0]])
    model = Model(logits, np.zeros(2), np.vstack([q, np.zeros((1, 3))]))
    config = PlannerConfig(k=2, depth=1, proposal_mode="trust_region", alpha=0.1)
    with pytest.raises(NumericalError, match="not a distribution"):
        plan_tables(mdp, model, config)


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


@st.composite
def tilt_problems(draw):
    """A prior row (some entries may be 0), its action values, and radii:
    0 first, then fractions of the greedy-to-prior divergence, some past
    it."""
    n_actions = draw(st.integers(1, 6))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(mass, min_size=n_actions, max_size=n_actions)))
    assume(weights.sum() > 0)
    prior = weights / weights.sum()
    q = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n_actions, max_size=n_actions)))
    fractions = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6))
    eps = np.array([0.0] + fractions) * kl_to_prior(greedy_row(q), prior)
    return prior, q, eps


@settings(max_examples=200, deadline=None)
@given(problem=tilt_problems())
def test_kernel_radius_properties(problem):
    prior, q, eps = problem
    n = eps.size
    rows, _, kl, saturated = trust_region_rows(np.tile(prior, (n, 1)), np.tile(q, (n, 1)), eps)
    assert bits(rows[0]) == bits(prior)
    # a row that neither reached the greedy row nor hit the beta cap
    # stopped its bisection on the tolerance
    assert (np.abs(kl - eps)[~saturated] <= TOL).all()
    # tied values tilt to the prior itself, but a row capped at BETA_CAP
    # rounds log-values as large as BETA_CAP * |q|, so its divergence can
    # read slightly below the exact 0 of radius 0
    slack = 16 * np.finfo(float).eps * BETA_CAP * max(np.abs(q).max(), 1.0)
    for i in range(n):
        for j in range(n):
            if eps[j] - eps[i] > 2 * TOL:
                assert kl[i] <= kl[j] + slack


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


@pytest.mark.parametrize("solve", [
    lambda x: solve_trust_region([0.5, 0.5], [0.0, 1.0], x),
    lambda x: adaptive_epsilon([0.5, 0.5], [0.0, 1.0], x),
], ids=["solve_trust_region_epsilon", "adaptive_epsilon_alpha"])
def test_rejects_a_nan_radius(solve):
    with pytest.raises(ContractError, match="must lie in"):
        solve(math.nan)
