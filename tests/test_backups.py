"""Ancestor accumulators, backed-up root policies, and return estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_mdp
from smcplan import (
    ContractError,
    DegenerateWeightsError,
    Model,
    PlannerConfig,
    accumulate_ancestor_q,
    advance,
    group_ancestors,
    init_particles,
    message_passing_policy,
    mix_value_target,
    multinomial_resample,
    plan_tables,
    run_planner,
)
from smcplan import rng as rng_mod
from smcplan.backups import IDENTITY
from smcplan.numerics import logsumexp
from smcplan.planner import _SMALL_K, normalized_weights


# Reference implementation of the retrace return estimate, written in
# closed form over a whole rollout. The planner keeps the same estimate
# incrementally, step by step, inside ``advance``; the tests below pin
# the reference and then check the planner against it.
def retrace_root_value(
    rewards,
    is_ratios,
    v_next,
    v_cur,
    lam: float,
    gamma: float,
    weights=None,
) -> float:
    """Off-policy corrected return estimate at the rollout root.

    Arguments are ``(steps, particles)`` arrays from one planner run
    (1-d input is treated as a single particle); ``is_ratios`` holds the
    prior-over-proposal probability ratio of each sampled action. Each
    particle's temporal-difference errors are summed with the trace
    coefficient ``lam * min(1, ratio)`` and discounting, on top of its
    first-step value; the result is the weighted average over particles.
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float).T).T
    is_ratios = np.atleast_2d(np.asarray(is_ratios, dtype=float).T).T
    v_next = np.atleast_2d(np.asarray(v_next, dtype=float).T).T
    v_cur = np.atleast_2d(np.asarray(v_cur, dtype=float).T).T
    if not (rewards.shape == is_ratios.shape == v_next.shape == v_cur.shape):
        raise ContractError("per-step arrays must share one (steps, particles) shape")
    n_steps, n_particles = rewards.shape
    if n_steps == 0:
        raise ContractError("need at least one step")
    if weights is None:
        w = np.full(n_particles, 1.0 / n_particles)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_particles,):
            raise ContractError("weights must have one entry per particle")
    trace = lam * np.minimum(1.0, is_ratios)
    coeff = np.ones_like(rewards)
    if n_steps > 1:
        coeff[1:] = np.cumprod(gamma * trace[1:], axis=0)
    delta = rewards + gamma * v_next - v_cur
    per_particle = v_cur[0] + (coeff * delta).sum(axis=0)
    return float(w @ per_particle)


# Reference grouping for the atom accumulators: a stable sort of the
# ids in their own type, then one segment per run of equal ids, rebuilt
# on every call. The package groups the same way but only when the ids
# change, takes the runs from a count of each id and sorts the ids in a
# narrower type; the tests pin the two together.
def accumulate_reference(ancestor_logq, ancestors, log_ratio) -> np.ndarray:
    logq = np.asarray(ancestor_logq, dtype=float)
    anc = np.asarray(ancestors, dtype=np.intp)
    ratios = np.asarray(log_ratio, dtype=float)
    order = np.argsort(anc, kind="stable")
    anc_sorted = anc[order]
    ratio_sorted = ratios[order]
    starts = np.flatnonzero(np.concatenate(([anc.size > 0], anc_sorted[1:] != anc_sorted[:-1])))
    counts = np.diff(np.append(starts, anc.size))
    uniq = anc_sorted[starts]
    seg_max = np.maximum.reduceat(ratio_sorted, starts)
    sums = np.add.reduceat(np.exp(ratio_sorted - np.repeat(seg_max, counts)), starts)
    out = logq.copy()
    out[uniq] += seg_max + np.log(sums) - np.log(counts)
    return out


def accumulate(ancestor_logq, ancestors, log_ratio):
    """``accumulate_ancestor_q`` with the grouping built from the ids."""
    return accumulate_ancestor_q(
        ancestor_logq, group_ancestors(ancestors, len(ancestor_logq)), log_ratio
    )


def test_accumulate_identical_ratios_add_exactly():
    # every particle keeps atom 1 and carries ratio e^r: increment is r
    r = 0.7
    out = accumulate(np.zeros(3), np.array([1, 1, 1]), np.full(3, r))
    assert out[1] == pytest.approx(r, abs=1e-12)
    assert out[0] == 0.0 and out[2] == 0.0


def test_accumulate_leaves_empty_atoms_unchanged():
    logq = np.array([0.3, -0.2, 0.9])
    out = accumulate(logq, np.array([0, 0, 0]), np.zeros(3))
    assert out[1] == logq[1] and out[2] == logq[2]


def test_accumulate_two_member_mean():
    # ratios e^0 and e^2 average to (1 + e^2)/2 before the log
    out = accumulate(np.zeros(2), np.array([0, 0]), np.array([0.0, 2.0]))
    assert out[0] == pytest.approx(math.log((1.0 + math.e**2) / 2.0), abs=1e-12)


def test_accumulate_matches_bruteforce_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        ancestors = rng.integers(0, k, size=k)
        ratios = rng.normal(size=k)
        logq = rng.normal(size=k)
        out = accumulate(logq, ancestors, ratios)
        for j in range(k):
            members = ratios[ancestors == j]
            expected = logq[j]
            if members.size:
                expected += math.log(np.exp(members).mean())
            assert out[j] == pytest.approx(expected, abs=1e-9)


def test_group_ancestors_rejects_bad_ids():
    with pytest.raises(ContractError):
        group_ancestors(np.array([0, 5]), 2)
    with pytest.raises(ContractError):
        group_ancestors(np.array([0, 2]), 2)
    with pytest.raises(ContractError):
        group_ancestors(np.array([-1, 0]), 2)
    with pytest.raises(ContractError):
        group_ancestors(np.zeros((2, 2), dtype=int), 2)


# atom counts on both sides of the uint8 and uint16 limits, so the ids
# are sorted as uint8, uint16 and uint32
N_ATOMS = st.one_of(st.integers(1, 2048), st.sampled_from([255, 256, 257, 65535, 65536, 65537]))


def random_ids(n_atoms, k, data, gen):
    """``k`` atom ids below ``n_atoms``: uniform, or a few live atoms with
    skewed counts, ids at both ends of each narrow type's range among them."""
    edges = [i for i in (0, 1, 254, 255, 256, 65534, 65535, 65536, n_atoms - 1) if i < n_atoms]
    live = data.draw(st.lists(
        st.one_of(st.sampled_from(edges), st.integers(0, n_atoms - 1)), min_size=1, max_size=12
    ))
    if data.draw(st.booleans()):
        # every atom but the live ones is empty
        return gen.choice(live, size=k, p=gen.dirichlet(np.full(len(live), 0.3)))
    return gen.integers(0, n_atoms, size=k)


@settings(max_examples=200, deadline=None)
@given(n_atoms=N_ATOMS, k=st.integers(1, 2048), data=st.data())
def test_accumulate_matches_sort_reference_bit_for_bit(n_atoms, k, data):
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = random_ids(n_atoms, k, data, gen)
    ratios = gen.normal(scale=data.draw(st.sampled_from([1e-3, 1.0, 30.0])), size=k)
    logq = gen.normal(size=n_atoms)
    out = accumulate(logq, ids, ratios)
    assert out.tobytes() == accumulate_reference(logq, ids, ratios).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n_atoms=N_ATOMS,
    k=st.integers(1, 2048),
    identity=st.booleans(),
    steps=st.integers(1, 6),
    data=st.data(),
)
def test_grouped_backups_match_reference_across_resamples(n_atoms, k, identity, steps, data):
    # a resample chain as the planner runs it: the particles start on the
    # identity grouping (atom i is particle i) or on random ids, and each
    # resample draws the new ancestors from the previous ones and rebuilds
    # the grouping the backups read until the next one
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    config = PlannerConfig(k=n_atoms if identity else k, depth=1,
                           inference_mode="message_passing")
    particles = init_particles(0, config)
    if identity:
        assert particles.ancestor_groups is IDENTITY
    else:
        ids = random_ids(n_atoms, k, data, gen)
        particles = particles._replace(ancestors=ids, ancestor_logq=gen.normal(size=n_atoms),
                                       ancestor_groups=group_ancestors(ids, n_atoms))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
    for _ in range(steps):
        ratios = gen.normal(scale=scale, size=particles.k)
        logq = particles.ancestor_logq
        out = accumulate_ancestor_q(logq, particles.ancestor_groups, ratios)
        assert out.tobytes() == accumulate_reference(logq, particles.ancestors, ratios).tobytes()
        weights = normalized_weights(gen.normal(scale=scale, size=particles.k))
        particles = multinomial_resample(particles._replace(ancestor_logq=out), weights, gen)


def test_message_passing_equal_values_recovers_prior_on_atoms():
    prior = np.array([0.1, 0.2, 0.3, 0.4])
    # atoms cover actions 1 and 3, with a duplicate on 3; equal values
    policy = message_passing_policy(prior, np.array([1, 3, 3]), np.zeros(3))
    expected = np.array([0.0, 0.2, 0.0, 0.4])
    expected /= expected.sum()
    assert np.abs(policy - expected).max() <= 1e-12


def test_message_passing_uniform_case():
    prior = np.full(4, 0.25)
    policy = message_passing_policy(prior, np.arange(4), np.zeros(4))
    assert np.abs(policy - 0.25).max() <= 1e-12


def test_message_passing_averages_duplicate_atoms():
    prior = np.array([0.5, 0.5])
    logq = np.array([0.0, 2.0, 1.0])
    policy = message_passing_policy(prior, np.array([0, 0, 1]), logq)
    mass0 = 0.5 * (1.0 + math.e**2) / 2.0
    mass1 = 0.5 * math.e
    assert policy[0] == pytest.approx(mass0 / (mass0 + mass1), abs=1e-12)


def test_message_passing_keeps_dead_atoms():
    # atom 0 never survived resampling (value stuck at 0) but still votes
    prior = np.array([0.5, 0.5])
    policy = message_passing_policy(prior, np.array([0, 1]), np.array([0.0, 1.0]))
    assert policy[0] == pytest.approx(1.0 / (1.0 + math.e), abs=1e-12)


def message_passing_reference(prior, actions, logq):
    """The readout's former per-action loop, kept as its reference: one
    boolean mask per action."""
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    log_mass = np.full(prior.size, -np.inf)
    for a in range(prior.size):
        members = logq[actions == a]
        if members.size:
            log_mass[a] = log_prior[a] + logsumexp(members) - np.log(members.size)
    return normalized_weights(log_mass)


@settings(max_examples=200, deadline=None)
@given(n_actions=st.integers(1, 8), k=st.integers(1, 2048), data=st.data())
def test_message_passing_matches_the_mask_loop_bit_for_bit(n_actions, k, data):
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prior = gen.dirichlet(np.ones(n_actions)) * (gen.random(n_actions) < 0.8)
    prior[gen.integers(n_actions)] += 0.5
    prior /= prior.sum()
    # atoms on the prior's support, some actions with none
    odds = gen.dirichlet(np.full(n_actions, 0.5)) * (prior > 0)
    actions = gen.choice(n_actions, size=k, p=odds / odds.sum())
    logq = gen.normal(scale=data.draw(st.sampled_from([1e-3, 1.0, 30.0])), size=k)
    out = message_passing_policy(prior, actions, logq)
    assert out.tobytes() == message_passing_reference(prior, actions, logq).tobytes()


def _bits(values):
    values = np.asarray(values)
    return values.dtype.str, values.tobytes()


@settings(max_examples=300, deadline=None)
@given(n_actions=st.integers(1, _SMALL_K), k=st.integers(1, _SMALL_K), data=st.data())
def test_list_readout_has_the_array_bits(n_actions, k, data):
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prior = gen.dirichlet(np.ones(n_actions)) * (gen.random(n_actions) < 0.8)
    prior[gen.integers(n_actions)] += 0.5
    prior /= prior.sum()
    # one live action puts all k atoms in one run, many give singletons
    actions = random_ids(n_actions, k, data, gen).tolist()
    logq = gen.normal(scale=data.draw(st.sampled_from([1e-3, 1.0, 30.0])), size=k)
    logq[gen.random(k) < 0.3] = logq.max()  # ties at an action's maximum
    if data.draw(st.booleans()):
        logq[gen.integers(k)] = -np.inf  # an atom whose value underflowed

    def readout(policy, actions, logq):  # the bits, or the error when every mass is zero
        try:
            return _bits(policy(prior, actions, logq))
        except DegenerateWeightsError as error:
            return type(error)

    # the array route and the per-action mask loop, which normalizes an array
    expected = readout(message_passing_policy, np.array(actions), logq)
    assert readout(message_passing_reference, np.array(actions), logq) == expected
    # list root actions, as the small-K loop holds them, with either layout of logq
    assert readout(message_passing_policy, actions, logq) == expected
    assert readout(message_passing_policy, actions, logq.tolist()) == expected


def test_message_passing_rejects_empty():
    with pytest.raises(ContractError):
        message_passing_policy(np.array([1.0]), np.array([], dtype=int), np.array([]))


def test_retrace_single_step():
    # one-step case: estimate is r + gamma * v_next for any trace setting
    value = retrace_root_value([2.0], [1.0], [3.0], [5.0], lam=1.0, gamma=0.9)
    assert value == pytest.approx(2.0 + 0.9 * 3.0, abs=1e-12)


def test_retrace_lambda_zero_cuts_trace():
    rewards = [[1.0], [100.0]]
    ratios = [[1.0], [1.0]]
    v_next = [[0.5], [0.0]]
    v_cur = [[0.0], [0.5]]
    value = retrace_root_value(rewards, ratios, v_next, v_cur, lam=0.0, gamma=1.0)
    assert value == pytest.approx(1.0 + 0.5, abs=1e-12)


def test_retrace_two_deterministic_steps():
    value = retrace_root_value(
        [[1.0], [2.0]], [[1.0], [1.0]], [[0.0], [0.0]], [[0.0], [0.0]], lam=1.0, gamma=1.0
    )
    assert value == pytest.approx(3.0, abs=1e-12)


def test_retrace_on_policy_equals_monte_carlo_on_chain():
    # deterministic 4-step rollout with gamma discounting and exact
    # terminal bootstrap: the trace telescopes to the discounted return
    gamma = 0.9
    rewards = np.array([[0.0], [0.0], [0.0], [1.0]])
    ratios = np.ones((4, 1))
    v_cur = np.array([[0.3], [0.5], [0.7], [0.9]])
    v_next = np.array([[0.5], [0.7], [0.9], [0.0]])
    value = retrace_root_value(rewards, ratios, v_next, v_cur, lam=1.0, gamma=gamma)
    mc = sum(gamma**t * r for t, r in enumerate(rewards[:, 0]))
    assert value - v_cur[0, 0] == pytest.approx(mc - v_cur[0, 0], abs=1e-12)
    assert value == pytest.approx(mc, abs=1e-12)


def test_retrace_weighted_average_over_particles():
    rewards = np.array([[1.0, 3.0]])
    ones = np.ones((1, 2))
    value = retrace_root_value(
        rewards, ones, np.zeros((1, 2)), np.zeros((1, 2)),
        lam=1.0, gamma=1.0, weights=np.array([0.25, 0.75]),
    )
    assert value == pytest.approx(0.25 * 1.0 + 0.75 * 3.0, abs=1e-12)


def test_retrace_shape_validation():
    with pytest.raises(ContractError):
        retrace_root_value([[1.0]], [[1.0], [1.0]], [[0.0]], [[0.0]], 1.0, 1.0)


def test_planner_retrace_matches_reference():
    # trust-region proposals make the trace off-policy; a resample period
    # equal to the depth means no resampling, so every lineage is whole
    gamma, lam, depth, seed = 0.9, 0.8, 6, 13
    mdp = make_random_mdp(5, 3, seed=41, discount=0.9)
    gen = np.random.default_rng(42)
    model = Model(gen.normal(size=(5, 3)), gen.normal(size=5), gen.normal(size=(5, 3)))
    config = PlannerConfig(
        k=8, depth=depth, resample_period=depth, alpha=0.5, gamma=gamma,
        lambda_smc=lam, proposal_mode="trust_region",
    )
    pi = model.policy()
    tables = plan_tables(mdp, model, config)
    table = tables.proposal
    rows = np.arange(config.k)
    particles = init_particles(0, config)
    rewards, ratios, v_next, v_cur = [], [], [], []
    for t in range(1, depth + 1):
        proposal = table[particles.states]
        # advance draws its action uniforms first from the step's stream
        uniforms = rng_mod.stream(seed, t).random(config.k)
        actions = rng_mod.categorical_rows(np.cumsum(table, axis=1), particles.states, uniforms)
        states = particles.states
        particles = advance(particles, tables, rng_mod.stream(seed, t))
        rewards.append(mdp.reward[states, actions])
        ratios.append(pi[states, actions] / proposal[rows, actions])
        v_next.append(model.v_table[particles.states])
        v_cur.append(model.v_table[states])
        if t == 1:
            assert np.array_equal(actions, particles.root_actions)
    assert min(r.min() for r in ratios[1:]) < 1.0
    w = normalized_weights(particles.log_weights)
    reference = retrace_root_value(rewards, ratios, v_next, v_cur, lam, gamma, weights=w)
    incremental = model.v_table[0] + w @ particles.retrace_acc
    assert abs(reference - incremental) <= 1e-12
    out = run_planner(mdp, 0, model, config, seed)
    assert abs(reference - out.diagnostics.value_smc) <= 1e-12


def test_mix_value_target_endpoints_and_midpoint():
    assert mix_value_target(2.0, 4.0, 1.0) == 2.0
    assert mix_value_target(2.0, 4.0, 0.0) == 4.0
    assert mix_value_target(2.0, 4.0, 0.5) == 3.0
    with pytest.raises(ContractError):
        mix_value_target(2.0, 4.0, 1.5)
