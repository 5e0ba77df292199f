"""Exact-solver behavior, checked against hand computation and enumeration."""

import math

import numpy as np
import pytest

from conftest import make_random_mdp, make_random_policy
from smcplan import (
    ContractError,
    SupportError,
    TabularMdp,
    elbo_and_gap,
    enumerate_trajectories,
    exact_posterior_trajectories,
    make_absorbing_zero,
    make_chain,
    make_gridworld,
    make_two_arm,
    optimal_policy,
    policy_value,
    posterior_policy_stages,
    root_action_marginal,
    soft_value_iteration,
)
from smcplan import oracle as oracle_mod
from smcplan.numerics import logsumexp

UNIFORM2 = np.full((2, 2), 0.5)

# Hand-computed: with arms paying 0 and 1 at unit temperature, the
# evidence is log((e^0 + e^1) / 2) and the better arm's posterior mass
# is e / (1 + e).
TWO_ARM_LOG_EVIDENCE = math.log((1.0 + math.e) / 2.0)
TWO_ARM_POSTERIOR_1 = math.e / (1.0 + math.e)


def uniform_table(mdp):
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


def test_two_arm_soft_values_match_hand_computation():
    sol = soft_value_iteration(make_two_arm(), UNIFORM2, 1, 1.0)
    assert sol.v_soft[0] == pytest.approx(TWO_ARM_LOG_EVIDENCE, abs=1e-12)
    assert sol.posterior_policy[0, 1] == pytest.approx(TWO_ARM_POSTERIOR_1, abs=1e-12)


def test_soft_solution_invariants():
    mdp = make_random_mdp(4, 3, seed=11, terminal_states=(3,))
    prior = make_random_policy(4, 3, seed=12)
    sol = soft_value_iteration(mdp, prior, 4, 0.7)
    # v is the log-normalizer of prior * exp(q)
    recon = np.log((prior * np.exp(sol.q_soft)).sum(axis=1))
    assert np.abs(recon - sol.v_soft).max() <= 1e-9
    assert np.abs(sol.posterior_policy.sum(axis=1) - 1.0).max() <= 1e-12
    expected = prior * np.exp(sol.q_soft - sol.v_soft[:, None])
    assert np.abs(sol.posterior_policy - expected).max() <= 1e-9


def test_absorbing_zero_soft_values_vanish():
    mdp = make_absorbing_zero(4)
    for horizon in (1, 3, 8):
        sol = soft_value_iteration(mdp, uniform_table(mdp), horizon, 0.5)
        assert np.abs(sol.v_soft).max() <= 1e-12
        assert np.abs(sol.posterior_policy - 0.25).max() <= 1e-12


def test_soft_values_reject_bad_arguments():
    mdp = make_two_arm()
    with pytest.raises(ContractError):
        soft_value_iteration(mdp, UNIFORM2, 0, 1.0)
    with pytest.raises(ContractError):
        soft_value_iteration(mdp, UNIFORM2, 1, 0.0)
    with pytest.raises(ContractError):
        soft_value_iteration(mdp, np.full((2, 2), 0.4), 1, 1.0)


TEMPERATURE_ORACLES = {
    "soft_value_iteration": lambda t: soft_value_iteration(make_two_arm(), UNIFORM2, 2, t),
    "posterior_policy_stages": lambda t: posterior_policy_stages(make_two_arm(), UNIFORM2, 2, t),
    "exact_posterior_trajectories": lambda t: exact_posterior_trajectories(
        make_two_arm(), UNIFORM2, 0, 2, t
    ),
    "elbo_and_gap": lambda t: elbo_and_gap(make_two_arm(), UNIFORM2, UNIFORM2, 0, 2, t),
}


@pytest.mark.parametrize("oracle", sorted(TEMPERATURE_ORACLES))
@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan])
def test_oracles_reject_a_temperature_that_is_not_positive(oracle, temperature):
    with pytest.raises(ContractError, match="temperature must lie in"):
        TEMPERATURE_ORACLES[oracle](temperature)
    TEMPERATURE_ORACLES[oracle](0.5)


def test_two_arm_posterior_masses():
    pairs = exact_posterior_trajectories(make_two_arm(), UNIFORM2, 0, 1, 1.0)
    marginal = root_action_marginal(pairs, 2)
    assert marginal[0] == pytest.approx(1.0 - TWO_ARM_POSTERIOR_1, abs=1e-12)
    assert marginal[1] == pytest.approx(TWO_ARM_POSTERIOR_1, abs=1e-12)


def test_zero_reward_posterior_equals_prior():
    mdp = make_absorbing_zero(3)
    prior = make_random_policy(1, 3, seed=5)
    posterior = exact_posterior_trajectories(mdp, prior, 0, 3, 1.0)
    plain = enumerate_trajectories(mdp, 0, prior, 3)
    for (traj_a, p_post), (traj_b, p_prior) in zip(posterior, plain):
        assert traj_a == traj_b
        assert p_post == pytest.approx(p_prior, abs=1e-12)


def test_deterministic_mdp_posterior_is_degenerate():
    mdp = make_chain(2)
    right = np.zeros((3, 2))
    right[:, 1] = 1.0
    pairs = exact_posterior_trajectories(mdp, right, 0, 2, 1.0)
    assert len(pairs) == 1
    assert pairs[0][1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "mdp",
    [make_two_arm(), make_chain(3), make_random_mdp(4, 2, seed=21, terminal_states=(2,))],
)
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("temperature", [1.0, 0.1])
def test_posterior_consistency_recursion_vs_enumeration(mdp, depth, temperature):
    prior = uniform_table(mdp)
    sol = soft_value_iteration(mdp, prior, depth, temperature)
    pairs = exact_posterior_trajectories(mdp, prior, 0, depth, temperature)
    marginal = root_action_marginal(pairs, mdp.n_actions)
    tv = 0.5 * np.abs(marginal - sol.posterior_policy[0]).sum()
    assert tv <= 1e-8


@pytest.mark.parametrize(
    "gamma,temperature,gap",
    [(1.0, 1.0, 0.0), (1.0, 0.5, 0.0), (0.9, 1.0, 9.65842e-5), (0.5, 0.5, 1.36929e-3)],
)
def test_recursion_and_enumeration_discount_differently(gamma, temperature, gap):
    # the convention pinned: the soft backups multiply the next stage's
    # log-expectation by gamma, the enumeration discounts each reward by
    # gamma ** t; their root posteriors agree only at gamma == 1
    mdp = make_random_mdp(4, 2, seed=31, terminal_states=(3,), discount=gamma)
    prior = uniform_table(mdp)
    sol = soft_value_iteration(mdp, prior, 3, temperature)
    marginal = root_action_marginal(exact_posterior_trajectories(mdp, prior, 0, 3, temperature), 2)
    tv = 0.5 * np.abs(marginal - sol.posterior_policy[0]).sum()
    assert tv == pytest.approx(gap, rel=1e-6, abs=1e-12)


def test_elbo_two_arm_uniform_proposal():
    elbo, gap, log_z = elbo_and_gap(make_two_arm(), UNIFORM2, UNIFORM2, 0, 1, 1.0)
    assert log_z == pytest.approx(TWO_ARM_LOG_EVIDENCE, abs=1e-12)
    assert elbo == pytest.approx(0.5, abs=1e-12)
    assert gap == pytest.approx(log_z - 0.5, abs=1e-12)


def test_elbo_zero_reward_environment():
    mdp = make_absorbing_zero(4)
    table = uniform_table(mdp)
    elbo, gap, log_z = elbo_and_gap(mdp, table, table, 0, 3, 1.0)
    assert elbo == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert log_z == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "mdp,depth",
    [
        (make_two_arm(), 3),
        (make_chain(3), 4),
        (make_absorbing_zero(4), 3),
        (make_gridworld(3, 3, traps=[(1, 1)]), 3),
    ],
)
def test_elbo_identity_random_proposals(mdp, depth):
    prior = uniform_table(mdp)
    for trial in range(100):
        proposal = make_random_policy(mdp.n_states, mdp.n_actions, seed=1000 + trial)
        elbo, gap, log_z = elbo_and_gap(mdp, proposal, prior, 0, depth, 1.0)
        assert elbo + gap == pytest.approx(log_z, abs=1e-8)
        assert gap >= -1e-12


@pytest.mark.parametrize(
    "mdp,depth",
    [
        (make_two_arm(), 3),
        (make_chain(3), 4),
        (make_absorbing_zero(4), 3),
        (make_gridworld(3, 3, traps=[(1, 1)]), 3),
    ],
)
def test_elbo_tight_at_exact_posterior(mdp, depth):
    prior = uniform_table(mdp)
    stages = posterior_policy_stages(mdp, prior, depth, 1.0)
    elbo, gap, log_z = elbo_and_gap(mdp, stages, prior, 0, depth, 1.0)
    assert gap == pytest.approx(0.0, abs=1e-8)
    assert elbo == pytest.approx(log_z, abs=1e-8)


def test_elbo_rejects_support_violation():
    mdp = make_two_arm()
    prior = np.array([[1.0, 0.0], [0.5, 0.5]])
    proposal = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(SupportError):
        elbo_and_gap(mdp, proposal, prior, 0, 1, 1.0)


def test_optimal_policy_examples():
    policy, v_star = optimal_policy(make_two_arm(), 1)
    assert v_star[0] == pytest.approx(1.0)
    assert policy[0].tolist() == [0.0, 1.0]

    policy, v_star = optimal_policy(make_chain(3), 3)
    assert v_star[0] == pytest.approx(1.0)

    _, v_star = optimal_policy(make_absorbing_zero(4), 5)
    assert np.abs(v_star).max() == 0.0


def test_optimal_policy_splits_ties():
    mdp = make_absorbing_zero(3)
    policy, _ = optimal_policy(mdp, 2)
    assert np.allclose(policy[0], 1 / 3)


def test_policy_value_matches_enumeration():
    mdp = make_random_mdp(4, 2, seed=31, terminal_states=(3,), discount=0.9)
    policy = make_random_policy(4, 2, seed=32)
    horizon = 4
    pairs = enumerate_trajectories(mdp, 0, policy, horizon)
    expected = sum(
        p * sum(mdp.discount**t * r for t, r in enumerate(traj.rewards))
        for traj, p in pairs
    )
    assert policy_value(mdp, policy, horizon)[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_policy_value_rejects_a_non_finite_policy(bad):
    policy = np.full((3, 2), 0.5)
    policy[1, 0] = bad
    for table in (policy, np.full((3, 2), bad)):
        with pytest.raises(ContractError):
            policy_value(make_chain(2), table, 3)


@pytest.mark.parametrize(
    "mdp,depth",
    [
        (make_two_arm(), 2),
        (make_chain(3), 4),
        (make_absorbing_zero(4), 3),
        (make_gridworld(2, 2), 3),
    ],
)
def test_posterior_policy_improves_on_prior(mdp, depth):
    prior = uniform_table(mdp)
    stages = posterior_policy_stages(mdp, prior, depth, 1.0)
    prior_return = policy_value(mdp, prior, depth)[0]
    posterior_return = policy_value(mdp, stages, depth)[0]
    assert posterior_return >= prior_return - 1e-10


def dense_soft_backups(mdp, prior, horizon, temperature):
    """``(v, q, posterior)`` per sweep of the soft backup over full
    transition rows: ``logsumexp(log_p + v)`` on every ``(s, a)`` row.
    Every sweep is computed: the reference for the oracle's stop at a
    fixed point."""
    with np.errstate(divide="ignore"):
        log_p = np.log(mdp.transition)
        log_prior = np.log(prior)
    scaled_reward = mdp.reward / temperature
    v = np.zeros(mdp.n_states)
    sweeps = []
    for _ in range(horizon):
        q = scaled_reward + mdp.discount * logsumexp(log_p + v[None, None, :], axis=2)
        v = logsumexp(log_prior + q, axis=1)
        posterior = np.exp(log_prior + q - v[:, None])
        posterior /= posterior.sum(axis=1, keepdims=True)
        sweeps.append((v, q, posterior))
    return sweeps


def make_near_one():
    """Deterministic, but each non-terminal row's one positive transition
    mass is ``1 - 1e-12``, so its log is not 0."""
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = transition[0, 1, 2] = transition[1, 0, 0] = transition[1, 1, 2] = 1 - 1e-12
    transition[2, :, 2] = 1.0
    reward = np.array([[0.3, -0.2], [0.5, 1.0], [0.0, 0.0]])
    return TabularMdp(transition, reward, np.array([False, False, True]))


DETERMINISTIC_MDPS = {
    "chain": lambda: make_chain(4),
    "gridworld_traps": lambda: make_gridworld(4, 3, traps=[(1, 1), (0, 3)]),
    "absorbing_zero": lambda: make_absorbing_zero(4),
    "two_arm": make_two_arm,
    "near_one": make_near_one,
}


@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("name", list(DETERMINISTIC_MDPS))
def test_deterministic_soft_backups_match_the_dense_backup_bit_for_bit(name, discount):
    base = DETERMINISTIC_MDPS[name]()
    mdp = TabularMdp(base.transition, base.reward, base.terminal, discount)
    assert mdp.successor_states.shape[1] == 1
    gen = np.random.default_rng(len(name))
    # a prior with zero entries: every row loses a random subset of its
    # actions and the one after the action it keeps
    sparse = make_random_policy(mdp.n_states, mdp.n_actions, seed=len(name))
    rows, kept = np.arange(mdp.n_states), gen.integers(0, mdp.n_actions, mdp.n_states)
    sparse[gen.random(sparse.shape) < 0.4] = 0.0
    sparse[rows, (kept + 1) % mdp.n_actions] = 0.0
    sparse[rows, kept] += 0.1
    sparse /= sparse.sum(axis=1, keepdims=True)
    for prior in (uniform_table(mdp), sparse):
        for temperature in (1.0, 0.5, 0.1):
            reference = dense_soft_backups(mdp, prior, 16, temperature)
            for depth in range(1, 17):
                v, q, posterior = reference[depth - 1]
                sol = soft_value_iteration(mdp, prior, depth, temperature)
                assert sol.v_soft.tobytes() == v.tobytes()
                assert sol.q_soft.tobytes() == q.tobytes()
                assert sol.posterior_policy.tobytes() == posterior.tobytes()
                stages = np.stack([sweep[2] for sweep in reference[:depth][::-1]])
                got = posterior_policy_stages(mdp, prior, depth, temperature)
                assert got.shape == stages.shape and got.tobytes() == stages.tobytes()


STOP_MDPS = {
    "random_terminal": lambda: make_random_mdp(5, 3, seed=31, terminal_states=(2,)),
    "random_sparse": lambda: make_random_mdp(5, 3, seed=32, terminal_states=(4,), sparse=True),
    "chain": lambda: make_chain(3),
    "two_arm": make_two_arm,
    "absorbing_zero": lambda: make_absorbing_zero(4),
    "gridworld": lambda: make_gridworld(4, 3, traps=[(1, 1)]),
}


@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("name", list(STOP_MDPS))
def test_soft_backups_that_stop_at_a_fixed_point_match_every_sweep_bit_for_bit(name, discount):
    base = STOP_MDPS[name]()
    mdp = TabularMdp(base.transition, base.reward, base.terminal, discount)
    for prior in (uniform_table(mdp), make_random_policy(mdp.n_states, mdp.n_actions, seed=33)):
        for temperature in (1.0, 0.5, 0.1):
            reference = dense_soft_backups(mdp, prior, 20, temperature)
            for horizon in range(1, 21):
                v, q, posterior = reference[horizon - 1]
                sol = soft_value_iteration(mdp, prior, horizon, temperature)
                assert sol.v_soft.tobytes() == v.tobytes()
                assert sol.q_soft.tobytes() == q.tobytes()
                assert sol.posterior_policy.tobytes() == posterior.tobytes()
                stages = np.stack([sweep[2] for sweep in reference[:horizon][::-1]])
                got = posterior_policy_stages(mdp, prior, horizon, temperature)
                assert got.shape == stages.shape and got.tobytes() == stages.tobytes()


@pytest.mark.parametrize(
    "mdp,sweeps",
    [(make_absorbing_zero(4), 1), (make_two_arm(), 2), (make_chain(3), 16)],
    ids=["absorbing_zero", "two_arm", "chain3"],
)
def test_soft_backups_stop_once_a_sweep_reproduces_its_input(mdp, sweeps, monkeypatch):
    # every sweep of a deterministic MDP makes one log-sum-exp: the
    # reduction over actions that forms its value vector
    axes = []

    def counted(a, axis=None):
        axes.append(axis)
        return logsumexp(a, axis)

    monkeypatch.setattr(oracle_mod, "logsumexp", counted)
    soft_value_iteration(mdp, uniform_table(mdp), 16, 1.0)
    assert axes == [1] * sweeps
    axes.clear()
    assert posterior_policy_stages(mdp, uniform_table(mdp), 16, 1.0).shape[0] == 16
    assert axes == [1] * sweeps
