"""Greedy rows, adaptive radii, and the constrained tilt solver."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smcplan import (
    ContractError,
    Model,
    NumericalError,
    PlannerConfig,
    TabularMdp,
    adaptive_epsilon,
    greedy_row,
    make_chain,
    plan_tables,
    solve_trust_region,
    train,
    trust_region_rows,
)
from smcplan import planner, trust_region
from test_golden import CRITERION_8
from smcplan.trust_region import BETA_CAP, TOL, kl_to_prior


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def tilt(prior, q, beta):
    """``prior * exp(beta * q)``, normalised, computed on the prior's
    support after subtracting the support's best value."""
    support = prior > 0
    centred = np.where(support, q - q[support].max(), 0.0)
    with np.errstate(over="ignore"):
        w = prior * np.exp(beta * centred)
    return w / w.sum()


def greedy_on_support(prior, q):
    """The greedy row over the prior's support: ties split, no mass where
    the prior has none."""
    return greedy_row(np.where(prior > 0, q, -np.inf))


def greedy_divergence(prior, q):
    """``KL(greedy || prior)`` for the greedy row over the prior's
    support, the largest radius a tilt can meet."""
    return kl_to_prior(greedy_on_support(prior, q), prior)


def check_rows(prior, q, eps, solved):
    """The solver's contract on every row of one table: radius 0 (or a
    negative one, which rounding can give) keeps the prior bit-exactly,
    a radius at or past the greedy divergence over the prior's support
    returns that greedy row, and every searched row is the family member
    at its beta, within ``TOL`` of its radius unless it is saturated."""
    rows, beta, kl, saturated = solved
    greedy = greedy_on_support(prior, q)
    kl_greedy = kl_to_prior(greedy, prior)
    for i in range(len(prior)):
        if eps[i] <= 0.0:
            assert bits(rows[i]) == bits(prior[i]) and beta[i] == 0.0 and kl[i] == 0.0
            assert not saturated[i]
        elif eps[i] >= kl_greedy[i]:
            assert bits(rows[i]) == bits(greedy[i]) and beta[i] == math.inf and saturated[i]
            assert kl[i] == kl_greedy[i]
        else:
            # the cap is on beta times the spread of the values on the
            # prior's support, the scale the search runs in
            spread = np.ptp(q[i][prior[i] > 0])
            assert 0.0 <= beta[i] * (spread or 1.0) <= BETA_CAP * (1 + 1e-15)
            assert np.abs(rows[i] - tilt(prior[i], q[i], beta[i])).max() <= 1e-9
            assert abs(rows[i].sum() - 1.0) <= 1e-12
            # the divergence reported is the kept row's
            assert abs(kl[i] - kl_to_prior(rows[i], prior[i])) <= 1e-9
            assert saturated[i] or abs(kl[i] - eps[i]) <= TOL
            # a row saturates only at the cap, below its radius
            assert not saturated[i] or kl[i] < eps[i]
            if spread == 0:
                # values tied on the support (of any size) leave the
                # prior wherever beta goes, so the row stops at the cap
                assert saturated[i] and beta[i] == BETA_CAP
                assert np.abs(rows[i] - prior[i]).max() <= 1e-15


def random_tables(gen, n_rows, n_actions, kind):
    """Prior and value tables of one kind: full-support Dirichlet priors,
    one-hot priors, priors with a zero entry, or tied values."""
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
def test_kernel_properties_on_random_tables(kind, alpha):
    gen = np.random.default_rng([ord(c) for c in kind] + [int(alpha * 10)])
    for n_actions in range(2, 12):
        for _ in range(6):
            prior, q = random_tables(gen, 5, n_actions, kind)
            eps = adaptive_epsilon(prior, q, alpha)
            solved = trust_region_rows(prior, q, eps)
            check_rows(prior, q, eps, solved)
            # the one-row solver is the table solver on that row alone
            for i in range(len(prior)):
                one = solve_trust_region(prior[i], q[i], eps[i])
                assert bits(one.q) == bits(solved[0][i])
                assert bits([one.beta, one.achieved_kl]) == bits([solved[1][i], solved[2][i]])
                assert one.saturated == solved[3][i] and isinstance(one.beta, float)


def test_kernel_meets_intermediate_radii():
    # radii strictly inside (0, greedy divergence) search every row, and
    # the rows finish at different iterations
    gen = np.random.default_rng(7)
    for n_actions in range(2, 12):
        prior, q = random_tables(gen, 40, n_actions, "dirichlet")
        eps = adaptive_epsilon(prior, q, 1.0) * gen.uniform(0.01, 0.99, 40)
        solved = trust_region_rows(prior, q, eps)
        assert not solved[3].any()
        check_rows(prior, q, eps, solved)


@st.composite
def search_tables(draw):
    """A table and its radii. Priors may have zero entries; small integer
    values tie often, so some rows can only stop at the cap; radii are
    0, inside, or past the greedy divergence; and values of order 1e303
    would overflow an uncentred tilt."""
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
    eps *= greedy_divergence(prior, q)
    return prior, q, eps


@settings(max_examples=200, deadline=None)
@given(problem=search_tables())
# a tie the tilt cannot leave: the row stops at BETA_CAP, saturated
@example(problem=(np.array([[1 / 3, 2 / 3, 0.0, 0.0, 0.0]]), np.array([[10.0, 10.0, 0, 0, 0]]),
                  np.array([0.03])))
# ties at values of order 1e303 that the tilt cannot leave: saturated
# at the prior, where an uncentred tilt overflowed or rounded the
# prior's log-differences away
@example(problem=(np.array([[1.0, 0.0]]), np.array([[1e303, 1e303]]), np.array([1.0])))
@example(problem=(np.array([[1 / 3, 2 / 3, 0.0]]), np.array([[1e304, 1e304, 1e304]]),
                  np.array([1.0])))
# the best action's prior mass lies below 1e-12
@example(problem=(np.array([[1e-20, 0.5, 0.5 - 1e-20]]), np.array([[1.0, 0.0, -1.0]]),
                  np.array([20.0])))
# eight actions, one without prior mass
@example(problem=(np.array([[0.0] + [1 / 7] * 7]), np.arange(8.0)[None] / 8, np.array([0.3])))
# a tie under a radius far below rounding, on a prior summing to 1 - 1e-16:
# the tilt at the cap read a divergence of 1e-16 and the row was not saturated
@example(problem=(np.array([[0, 0, 0, 4, 3, 2]]) / 9, np.zeros((1, 6)), np.array([8.95906685e-65])))
def test_search_properties_on_generated_tables(problem):
    prior, q, eps = problem
    check_rows(prior, q, eps, trust_region_rows(prior, q, eps))


@st.composite
def sparse_prior_tables(draw):
    """Dirichlet(0.01) priors, which hold exact zeros and masses far
    below 1e-12, integer values in [-3, 3], and radii inside (0, the
    greedy divergence)."""
    n_rows, n_actions = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = gen.dirichlet(np.full(n_actions, 0.01), size=n_rows)
    value = st.integers(-3, 3).map(float)
    q = np.array(draw(st.lists(
        st.lists(value, min_size=n_actions, max_size=n_actions), min_size=n_rows, max_size=n_rows)))
    fraction = st.floats(1e-6, 1.0, exclude_max=True)
    eps = np.array(draw(st.lists(fraction, min_size=n_rows, max_size=n_rows)))
    return prior, q, eps * greedy_divergence(prior, q)


@settings(max_examples=300, deadline=None)
@given(problem=sparse_prior_tables())
def test_every_radius_below_the_greedy_divergence_is_met(problem):
    # the divergence rises with beta to the greedy divergence over the
    # prior's support, however small the greedy action's prior mass; the
    # top two integer values on the support lie at least 1/6 of their
    # spread apart, so the cap separates them and every searched row
    # whose best value is unique on the support meets its radius
    prior, q, eps = problem
    solved = trust_region_rows(prior, q, eps)
    check_rows(prior, q, eps, solved)
    _, _, kl, saturated = solved
    for i in range(len(prior)):
        on_support = q[i][prior[i] > 0]
        if eps[i] > 0 and (on_support == on_support.max()).sum() == 1:
            assert not saturated[i] and abs(kl[i] - eps[i]) <= TOL


def test_the_iteration_budget_stops_the_search():
    prior, q, eps = np.array([[0.5, 0.5]]), np.array([[0.0, 5.0]]), [0.2]
    with mock.patch.object(trust_region, "MAX_ITERATIONS", 1):
        rows, beta, kl, saturated = trust_region_rows(prior, q, eps)
    # the first tilt misses the radius and is kept, inside the family
    assert abs(kl[0] - eps[0]) > TOL and not saturated[0]
    assert np.abs(rows[0] - tilt(prior[0], q[0], beta[0])).max() <= 1e-12
    assert abs(trust_region_rows(prior, q, eps)[2][0] - eps[0]) <= TOL


def test_the_tables_of_a_training_run_meet_their_radii(monkeypatch):
    # every proposal table a short criterion-8 run solves; a searched row
    # that misses TOL after MAX_ITERATIONS tilts fails check_rows
    tables = []

    def record(prior, q_values, epsilon):
        solved = trust_region_rows(prior, q_values, epsilon)
        tables.append((prior, q_values, epsilon, solved))
        return solved

    monkeypatch.setattr(planner, "trust_region_rows", record)
    for seed in (0, 1):
        train(make_chain(5), CRITERION_8, iterations=50, seed=seed)
    assert len(tables) == 100
    searched = 0
    for prior, q, eps, solved in tables:
        check_rows(prior, q, eps, solved)
        searched += ((eps > 0) & (solved[1] < math.inf)).sum()
    assert searched > 250  # of the 500 rows, most are searched


def test_a_kept_row_that_is_not_a_distribution_raises():
    # finite values whose spread overflows a float leave nan in the
    # tilt; a proposal table built from them raises the same error
    # instead of a ContractError from PlanTables
    prior, q = np.array([[0.25, 0.25, 0.5]]), np.array([[1e308, -1e308, 0.0]])
    with pytest.raises(NumericalError, match="not a distribution"):
        trust_region_rows(prior, q, [1.0])
    transition = np.zeros((2, 3, 2))
    transition[:, :, 1] = 1.0
    mdp = TabularMdp(transition, np.zeros((2, 3)), np.array([False, True]))
    logits = np.log(np.array([[0.25, 0.25, 0.5], [1 / 3, 1 / 3, 1 / 3]]))
    model = Model(logits, np.zeros(2), np.vstack([q, np.zeros((1, 3))]))
    config = PlannerConfig(k=2, depth=1, proposal_mode="trust_region", alpha=0.1)
    with pytest.raises(NumericalError, match="not a distribution"):
        plan_tables(mdp, model, config)


def test_a_radius_below_the_greedy_divergence_is_met_under_a_tiny_greedy_mass():
    # the greedy action's prior mass is 4.5e-16 and its value lies 6e-6
    # above the next one's: the greedy row diverges by 35.3, and a radius
    # of 27.2 is met by a tilt beyond beta = BETA_CAP in raw value
    # units, yet inside the cap on the scaled values
    prior = np.array([0.249, 0.0035, 0.747, 4.5e-16, 0.0])
    prior /= prior.sum()
    q = np.array([-1.96e-4, 2.28e-4, -1.18e-4, 2.34e-4, 6.6e-5])
    assert greedy_divergence(prior, q) > 35.3
    solved = trust_region_rows(prior[None], q[None], [27.2])
    check_rows(prior[None], q[None], [27.2], solved)
    rows, beta, kl, saturated = solved
    assert not saturated[0] and abs(kl[0] - 27.2) <= TOL
    assert BETA_CAP < beta[0] < math.inf


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
    eps = np.array([0.0] + fractions) * greedy_divergence(prior, q)
    return prior, q, eps


@settings(max_examples=200, deadline=None)
@given(problem=tilt_problems())
def test_kernel_radius_properties(problem):
    prior, q, eps = problem
    n = eps.size
    prior, q = np.tile(prior, (n, 1)), np.tile(q, (n, 1))
    rows, beta, kl, saturated = solved = trust_region_rows(prior, q, eps)
    check_rows(prior, q, eps, solved)
    # radii more than 2 TOL apart cannot share a divergence: the larger
    # radius tilts at least as far, and its divergence is at least the
    # smaller one's up to a few ulps
    for i in range(n):
        for j in range(n):
            if eps[j] - eps[i] > 2 * TOL:
                assert beta[i] <= beta[j]
                assert kl[i] <= kl[j] + 4 * np.finfo(float).eps * max(kl[j], 1.0)


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
