"""Property tests of the planner's step invariants on random MDPs, of
its draws against the dense inverse-CDF draw they replaced, and of the
small-K list loop against the vector loop."""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedUniforms, make_random_mdp
from smcplan import (
    Model,
    PlannerConfig,
    PlanTables,
    TabularMdp,
    advance,
    dirac_policy,
    init_particles,
    message_passing_policy,
    multinomial_resample,
    plan_tables,
    run_planner,
    step,
)
from smcplan import planner as planner_mod
from smcplan import rng as rng_mod
from smcplan.planner import (
    INFERENCE_MODES,
    PROPOSAL_MODES,
    RESAMPLE_MODES,
    _SMALL_K,
    _advance_lists,
    _init_lists,
    _resample_lists,
    normalized_weights,
)


@st.composite
def planning_problems(draw):
    """A random MDP with some terminal states, a random model, a config
    and a seed; state 0 is the (non-terminal) root."""
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    terminal = draw(st.sets(st.integers(1, max(n_states - 1, 1)), max_size=n_states - 1))
    mdp = make_random_mdp(n_states, n_actions, seed, terminal_states=terminal)
    gen = rng_mod.stream(seed, 1)
    model = Model(
        6.0 * gen.random((n_states, n_actions)) - 3.0,
        gen.random(n_states),
        gen.random((n_states, n_actions)),
    )
    config = PlannerConfig(
        k=draw(st.integers(1, 24)),
        depth=draw(st.integers(2, 5)),
        resample_period=draw(st.integers(1, 3)),
        alpha=draw(st.sampled_from([0.0, 0.3, 1.0])),
        temperature=draw(st.sampled_from([0.1, 1.0])),
        gamma=draw(st.sampled_from([0.9, 1.0])),
        proposal_mode=draw(st.sampled_from(["prior", "trust_region"])),
        resample_mode=draw(st.sampled_from(RESAMPLE_MODES)),
    )
    return mdp, model, config, seed


def _plan(mdp, model, config, seed, on_step=None):
    """The step loop of ``run_planner``; ``on_step(t, before, after)`` sees
    the particles on both sides of every advance. It must mirror
    ``run_planner``'s loop: ``test_readout_policies_live_on_sampled_root_actions``
    checks that its final weights and particles give ``run_planner``'s
    root policies and value for the same seed."""
    tables = plan_tables(mdp, model, config)
    particles = init_particles(0, config)
    for t in range(1, config.depth + 1):
        gen = rng_mod.stream(seed, t)
        advanced = advance(particles, tables, gen)
        if on_step:
            on_step(t, particles, advanced)
        particles = advanced
        weights = normalized_weights(particles.log_weights)
        if t % config.resample_period == 0 and t < config.depth:
            particles = multinomial_resample(particles, weights, gen, config.resample_mode)
    return particles, weights, tables


@settings(max_examples=60, deadline=None)
@given(problem=planning_problems())
def test_advance_keeps_weights_finite_and_root_actions_fixed(problem):
    mdp, model, config, seed = problem
    first = []

    def check(t, before, after):
        assert np.isfinite(after.log_weights).all()
        assert after.step == t
        if t == 1:
            assert ((0 <= after.root_actions) & (after.root_actions < mdp.n_actions)).all()
            first.append(after.root_actions.copy())
        else:
            assert np.array_equal(after.root_actions, first[0])
            assert np.array_equal(after.ancestors, before.ancestors)

    _plan(mdp, model, config, seed, check)


@settings(max_examples=60, deadline=None)
@given(problem=planning_problems(), log_weights=st.data())
def test_resample_leaves_atom_records_alone(problem, log_weights):
    mdp, model, config, seed = problem
    particles, _, _ = _plan(mdp, model, config, seed)
    # log weights in [-30, 30] or -inf, with at least one particle alive
    raw = log_weights.draw(st.lists(
        st.one_of(st.just(-np.inf), st.floats(-30.0, 30.0)),
        min_size=config.k, max_size=config.k,
    ).filter(lambda w: max(w) > -np.inf))
    particles = particles._replace(log_weights=np.asarray(raw))
    root_actions = particles.root_actions.copy()
    ancestor_logq = particles.ancestor_logq.copy()
    for mode in RESAMPLE_MODES:
        weights = normalized_weights(particles.log_weights)
        out = multinomial_resample(particles, weights, rng_mod.stream(seed, 99), mode)
        assert out.root_actions is particles.root_actions
        assert out.ancestor_logq is particles.ancestor_logq
        assert np.array_equal(particles.root_actions, root_actions)
        assert np.array_equal(particles.ancestor_logq, ancestor_logq)
        # every drawn particle copies one that had weight
        assert set(out.ancestors.tolist()) <= set(particles.ancestors[weights > 0].tolist())


@settings(max_examples=60, deadline=None)
@given(problem=planning_problems())
def test_readout_policies_live_on_sampled_root_actions(problem):
    mdp, model, config, seed = problem
    # atom values are backed up only when the message-passing readout
    # reads them; the particles and weights are the same in both modes
    config = replace(config, inference_mode="message_passing")
    particles, weights, tables = _plan(mdp, model, config, seed)
    sampled = np.zeros(mdp.n_actions, dtype=bool)
    sampled[particles.root_actions] = True
    dirac = dirac_policy(particles, weights, mdp.n_actions)
    backed_up = message_passing_policy(
        np.exp(tables.log_prior[0]), particles.root_actions, particles.ancestor_logq
    )
    for policy in (dirac, backed_up):
        assert policy.shape == (mdp.n_actions,)
        assert (policy >= 0).all()
        assert abs(policy.sum() - 1.0) <= 1e-12
        assert (policy[~sampled] == 0.0).all()
    # point masses sit on the actions of surviving lineages only
    surviving = np.zeros(mdp.n_actions, dtype=bool)
    surviving[particles.root_actions[particles.ancestors]] = True
    assert (dirac[~surviving] == 0.0).all()
    # the same readouts come out of run_planner itself
    for mode, policy in (("dirac", dirac), ("message_passing", backed_up)):
        out = run_planner(mdp, 0, model, replace(config, inference_mode=mode), seed)
        assert out.root_policy.tolist() == policy.tolist()
        value_smc = float(model.v_table[0]) + float(weights @ particles.retrace_acc)
        assert out.diagnostics.value_smc == value_smc


@settings(max_examples=100, deadline=None)
@given(
    problem=planning_problems(),
    sparse_seed=st.integers(0, 2**32 - 1),
    temperature=st.sampled_from([1.0, 0.1]),
    gamma=st.sampled_from([1.0, 0.9]),
)
def test_step_tables_equal_the_per_particle_arithmetic(problem, sparse_seed, temperature, gamma):
    dense, model, config, _ = problem
    terminal = np.flatnonzero(dense.terminal)
    mdp = make_random_mdp(*dense.reward.shape, sparse_seed, terminal_states=terminal, sparse=True)
    config = replace(config, temperature=temperature, gamma=gamma)
    tables = plan_tables(mdp, model, config)
    # one particle per drawable (s, a, successor): positive proposal and
    # transition mass
    states, actions, next_states = np.nonzero(
        (tables.proposal > 0)[:, :, None] & (mdp.transition > 0)
    )
    flat = states * mdp.n_actions + actions
    slots = np.argmax(mdp.successor_states[flat] == next_states[:, None], axis=1)
    j = flat * mdp.successor_states.shape[1] + slots
    assert np.array_equal(mdp.successor_states.ravel()[j], next_states)
    # advance's former per-particle arithmetic, the reference
    log_ratio = model.log_policy()[states, actions] - np.log(tables.proposal[states, actions])
    rewards = mdp.reward[states, actions]
    v_table = model.v_table
    v_cur, v_next = v_table[states], v_table[next_states]
    increment = log_ratio + rewards / temperature + gamma * v_next - v_cur
    delta = rewards + gamma * v_next - v_cur
    assert np.isfinite(increment).all()
    assert tables.increment[j].tolist() == increment.tolist()
    assert tables.delta[j].tolist() == delta.tolist()


def dense_draw(masses, u):
    """The draw on a dense row, the reference for every table-based
    draw: the count of the row's cumulative masses at or below ``u``,
    clamped to the last index. Past the row's total mass the clamp may
    land on a zero-mass entry, so there the reference is the row's last
    positive-mass entry instead."""
    cdf = np.cumsum(masses)
    if u >= cdf[-1]:
        return int(np.flatnonzero(masses)[-1])
    return min(int(np.count_nonzero(u >= cdf)), cdf.size - 1)


def boundary_uniforms(masses):
    """0, every cumulative mass of the row, and the float just below each."""
    cdf = np.cumsum(masses)
    return sorted({0.0, *cdf.tolist(), *np.nextafter(cdf, 0.0).tolist()})


@st.composite
def sparse_problems(draw):
    """A random sparse MDP and a sparse proposal table; some rows of both
    fall short of 1 by less than their constructors accept."""
    n_states, n_actions = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    terminal = draw(st.sets(st.integers(1, max(n_states - 1, 1)), max_size=n_states - 1))
    mdp = make_random_mdp(n_states, n_actions, seed, terminal_states=terminal, sparse=True)
    gen = rng_mod.stream(seed, 2)
    transition = mdp.transition.copy()
    short = (gen.random((n_states, n_actions)) < 0.3) & ~mdp.terminal[:, None]
    transition[short] *= 1.0 - 4e-13
    mdp = TabularMdp(transition, mdp.reward, mdp.terminal)
    proposal = gen.random((n_states, n_actions)) * (gen.random((n_states, n_actions)) < 0.6)
    proposal[np.arange(n_states), gen.integers(0, n_actions, n_states)] += 0.5
    proposal /= proposal.sum(axis=1, keepdims=True)
    proposal[gen.random(n_states) < 0.3] *= 1.0 - 5e-7
    log_prior = gen.normal(size=(n_states, n_actions))
    tables = PlanTables(mdp, PlannerConfig(k=1, depth=1), proposal, log_prior, gen.random(n_states))
    return mdp, tables, draw(st.data())


@settings(max_examples=60, deadline=None)
@given(problem=sparse_problems())
def test_draws_equal_the_dense_draw_below_each_rows_last_mass(problem):
    mdp, tables, data = problem
    # every state at every boundary of its proposal row, each action it
    # draws at every boundary of that successor row, plus random uniforms
    case_states, action_u, state_u, actions, successors = [], [], [], [], []
    for s in range(mdp.n_states):
        row = tables.proposal[s]
        random_u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))
        for ua in boundary_uniforms(row) + random_u:
            a = dense_draw(row, ua)
            masses = mdp.transition[s, a]
            for us in boundary_uniforms(masses) + random_u:
                case_states.append(s)
                action_u.append(ua)
                state_u.append(us)
                actions.append(a)
                successors.append(dense_draw(masses, us))
    for s, a, us, nxt in zip(case_states, actions, state_u, successors):
        assert step(mdp, s, a, FixedUniforms([us]))[0] == nxt
    config = PlannerConfig(k=len(case_states), depth=1)
    particles = init_particles(0, config)._replace(states=np.array(case_states))
    out = advance(particles, tables, FixedUniforms(action_u + state_u))
    assert out.root_actions.tolist() == actions
    assert out.states.tolist() == successors
    particles = _init_lists(0, config)._replace(states=case_states)
    out = _advance_lists(particles, tables, FixedUniforms(action_u + state_u))
    assert out.root_actions == actions
    assert out.states == successors


@settings(max_examples=200, deadline=None)
@given(
    masses=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=12)
    .filter(lambda w: sum(w) > 0),
    data=st.data(),
)
def test_resample_equals_the_unsorted_lookup(masses, data):
    weights = np.asarray(masses) / sum(masses)
    k = weights.size
    # uniforms from a small pool repeat often; the pool holds every
    # cumulative mass and the float below it
    pool = boundary_uniforms(weights)
    uniforms = data.draw(st.lists(
        st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=k, max_size=k,
    ))
    config = PlannerConfig(k=k, depth=1)
    particles = init_particles(0, config)._replace(states=np.arange(k))
    out = multinomial_resample(particles, weights, FixedUniforms(uniforms), "baseline")
    expected = [dense_draw(weights, u) for u in uniforms]
    assert out.states.tolist() == expected
    assert out.ancestors.tolist() == expected
    particles = _init_lists(0, config)._replace(states=list(range(k)))
    out = _resample_lists(particles, weights, FixedUniforms(uniforms), "baseline")
    assert out.states == expected
    assert out.ancestors == expected


def _deterministic(mdp):
    """``mdp`` with every row moved onto its most likely successor: one
    successor slot per row."""
    transition = np.eye(mdp.n_states)[mdp.transition.argmax(axis=2)]
    return TabularMdp(transition, mdp.reward, mdp.terminal, mdp.discount)


@st.composite
def small_k_problems(draw):
    """A deterministic or stochastic random MDP with terminal states, a
    zero or random model, a config with at most ``_SMALL_K`` particles,
    temperature != 1 and discount < 1, and a seed."""
    n_states, n_actions = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    terminal = draw(st.sets(st.integers(1, n_states - 1), min_size=1, max_size=n_states - 1))
    mdp = make_random_mdp(n_states, n_actions, seed, terminal_states=terminal)
    if draw(st.booleans()):
        mdp = _deterministic(mdp)
    model = Model.zeros(n_states, n_actions)
    if draw(st.booleans()):
        gen = rng_mod.stream(seed, 1)
        model = Model(6.0 * gen.random((n_states, n_actions)) - 3.0, gen.random(n_states),
                      gen.random((n_states, n_actions)))
    config = PlannerConfig(
        k=draw(st.integers(1, _SMALL_K)),
        depth=draw(st.integers(1, 6)),
        resample_period=draw(st.integers(1, 3)),
        alpha=0.3,
        temperature=draw(st.sampled_from([0.5, 2.0])),
        lambda_smc=0.8,
        gamma=draw(st.sampled_from([0.5, 0.9])),
        sigma=0.3,
        proposal_mode=draw(st.sampled_from(PROPOSAL_MODES)),
        inference_mode=draw(st.sampled_from(INFERENCE_MODES)),
        resample_mode=draw(st.sampled_from(RESAMPLE_MODES)),
    )
    return mdp, model, config, seed


def _output_bits(out):
    """Every field of a ``PlannerOutput`` as bytes or exact hex floats."""
    d = out.diagnostics
    arrays = (out.root_policy, d.ess, d.distinct_ancestors, d.terminal_particles)
    floats = (out.root_value, d.value_smc, d.value_model, d.log_evidence)
    return ([(a.dtype.str, a.tobytes()) for a in arrays], [float(x).hex() for x in floats],
            d.resample_steps)


@settings(max_examples=300, deadline=None)
@given(problem=small_k_problems())
def test_list_loop_reproduces_the_vector_loop_bit_for_bit(problem):
    mdp, model, config, seed = problem
    tables = plan_tables(mdp, model, config)
    lists = run_planner(mdp, 0, model, config, seed, tables)
    with mock.patch.object(planner_mod, "_SMALL_K", 0):
        vector = run_planner(mdp, 0, model, config, seed, tables)
    assert _output_bits(lists) == _output_bits(vector)


def _set_bits(particles):
    """Every field of a ``ParticleSet`` as (dtype, bytes), a list read as
    the array it converts to, ``ancestor_groups`` field by field."""
    def bits(x):
        return None if x is None else (np.asarray(x).dtype.str, np.asarray(x).tobytes())

    groups = particles.ancestor_groups
    return ([bits(x) for x in particles[:-2]], particles.step,
            None if groups is None else [bits(x) for x in groups])


@settings(max_examples=100, deadline=None)
@given(problem=small_k_problems())
def test_both_layouts_step_and_resample_to_the_same_bits(problem):
    # advance and multinomial_resample take a list-held set and an array
    # set of the same problem to the same fields, each in its own layout
    mdp, model, config, seed = problem
    tables = plan_tables(mdp, model, config)
    lists, arrays = _init_lists(0, config), init_particles(0, config)
    for t in range(1, config.depth + 1):
        gens = rng_mod.stream(seed, t), rng_mod.stream(seed, t)
        lists, arrays = advance(lists, tables, gens[0]), advance(arrays, tables, gens[1])
        assert type(lists.states) is list and type(arrays.states) is np.ndarray
        assert _set_bits(lists) == _set_bits(arrays)
        if t % config.resample_period == 0 and t < config.depth:
            lists, arrays = (
                multinomial_resample(p, normalized_weights(p.log_weights), gen,
                                     config.resample_mode)
                for p, gen in ((lists, gens[0]), (arrays, gens[1]))
            )
            assert type(lists.states) is list and type(arrays.states) is np.ndarray
            assert _set_bits(lists) == _set_bits(arrays)


def test_particle_sets_up_to_small_k_step_over_lists():
    # every step and resample goes through advance and multinomial_resample,
    # and only K <= _SMALL_K reaches the list kernels
    mdp = make_random_mdp(4, 2, seed=3, terminal_states=(3,))
    model = Model.zeros(4, 2)
    names = ("advance", "_advance_lists", "multinomial_resample", "_resample_lists")
    kernels = {name: getattr(planner_mod, name) for name in names}
    for k, on_lists in ((_SMALL_K, 1), (_SMALL_K + 1, 0)):
        with mock.patch.multiple(planner_mod, **{name: mock.Mock(side_effect=kernel)
                                                 for name, kernel in kernels.items()}):
            run_planner(mdp, 0, model, PlannerConfig(k=k, depth=3), seed=0)
            calls = {name: getattr(planner_mod, name).call_count for name in names}
        assert calls == {"advance": 3, "_advance_lists": 3 * on_lists,
                         "multinomial_resample": 2, "_resample_lists": 2 * on_lists}
