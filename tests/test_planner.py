"""Particle propagation, weighting, resampling, and root inference."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import UNHASHED_DIAGNOSTICS, FixedUniforms, make_random_mdp, output_to_dict
from smcplan import (
    ContractError,
    DegenerateWeightsError,
    Model,
    NumericalError,
    PlannerConfig,
    PlanTables,
    TabularMdp,
    adaptive_epsilon,
    advance,
    collect_segment,
    dirac_policy,
    exact_posterior_trajectories,
    init_particles,
    make_absorbing_zero,
    make_chain,
    make_two_arm,
    multinomial_resample,
    plan_tables,
    root_action_marginal,
    run_planner,
    soft_value_iteration,
    solve_trust_region,
)
from smcplan import harness as harness_mod
from smcplan import planner as planner_mod
from smcplan import rng as rng_mod
from smcplan import training as training_mod
from smcplan.planner import normalized_weights


def uniform_model(mdp):
    return Model.zeros(mdp.n_states, mdp.n_actions)


def test_init_particles_layout():
    cfg = PlannerConfig(k=3, depth=2)
    p = init_particles(0, cfg)
    assert p.ancestors.tolist() == [0, 1, 2]
    assert p.log_weights.tolist() == [0.0, 0.0, 0.0]
    assert p.ref_states.tolist() == [0, 0, 0]
    assert p.ancestor_logq.tolist() == [0.0, 0.0, 0.0]
    single = init_particles(2, PlannerConfig(k=1, depth=1))
    assert single.ancestors.tolist() == [0]
    assert single.states.tolist() == [2]


def test_weight_update_rejects_nonfinite():
    # the prior puts no mass on action 1, so its increment is -inf:
    # advance raises when a particle draws it, and not before
    mdp = make_absorbing_zero(2)
    cfg = PlannerConfig(k=2, depth=1)
    log_prior = np.array([[0.0, -np.inf]])
    tables = PlanTables(mdp, cfg, np.full((1, 2), 0.5), log_prior, np.zeros(1))
    assert np.isneginf(tables.increment[1])
    out = advance(init_particles(0, cfg), tables, FixedUniforms([0.1, 0.2, 0.5, 0.5]))
    assert out.log_weights.tolist() == [math.log(2.0)] * 2
    with pytest.raises(NumericalError):
        advance(init_particles(0, cfg), tables, FixedUniforms([0.1, 0.7, 0.5, 0.5]))


def test_advance_zero_reward_keeps_weights_flat():
    mdp = make_absorbing_zero(4)
    cfg = PlannerConfig(k=64, depth=3, inference_mode="message_passing")
    model = uniform_model(mdp)
    p = init_particles(0, cfg)
    p = advance(p, plan_tables(mdp, model, cfg), rng_mod.stream(0, 1))
    assert np.abs(p.log_weights).max() == 0.0
    assert np.abs(p.ancestor_logq).max() == 0.0


def test_advance_weight_equals_sampled_reward():
    # two-arm with uniform prior as proposal and zero values: each
    # particle's log weight is exactly the reward of its sampled arm
    mdp = make_two_arm()
    cfg = PlannerConfig(k=256, depth=1, inference_mode="message_passing")
    model = uniform_model(mdp)
    p = init_particles(0, cfg)
    p = advance(p, plan_tables(mdp, model, cfg), rng_mod.stream(1, 1))
    rewards = mdp.reward[0, p.root_actions]
    assert np.abs(p.log_weights - rewards).max() <= 1e-12
    # per-atom accumulators hold exactly the temperature-scaled rewards
    assert np.abs(p.ancestor_logq - rewards).max() <= 1e-12
    assert set(p.root_actions.tolist()) == {0, 1}


def test_advance_tracks_last_nonterminal_reference():
    mdp = make_two_arm()
    cfg = PlannerConfig(k=8, depth=2, resample_mode="revived")
    model = uniform_model(mdp)
    p = init_particles(0, cfg)
    p = advance(p, plan_tables(mdp, model, cfg), rng_mod.stream(2, 1))
    assert (p.states == 1).all()  # everyone hit the terminal arm end
    assert (p.ref_states == 0).all()  # reference stays at the decision state


def test_advance_validates_proposal_rows():
    mdp = make_two_arm()
    cfg = PlannerConfig(k=4, depth=1)
    p = init_particles(0, cfg)
    model = uniform_model(mdp)
    bad = np.full((2, 2), 0.4)
    with pytest.raises(ContractError):
        tables = PlanTables(mdp, cfg, bad, model.log_policy(), model.v_table)
        advance(p, tables, rng_mod.stream(0, 1))


def test_plan_tables_reject_a_value_table_of_the_wrong_shape():
    # make_chain(5) has 6 states: a longer table used to plan silently, a
    # shorter one to fail as an IndexError inside advance
    mdp, cfg = make_chain(5), PlannerConfig(k=4, depth=2)
    tables = plan_tables(mdp, uniform_model(mdp), cfg)
    for v_table in (np.zeros(9), np.zeros(2), np.zeros((6, 1))):
        with pytest.raises(ContractError, match="v_table"):
            PlanTables(mdp, cfg, tables.proposal, tables.log_prior, v_table)
    PlanTables(mdp, cfg, tables.proposal, tables.log_prior, np.zeros(6))


def test_plan_tables_hold_the_per_action_ratios():
    proposal = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    log_prior = np.log(np.full((2, 3), 1.0 / 3.0))
    mdp = make_random_mdp(2, 3, seed=5)
    tables = PlanTables(mdp, PlannerConfig(k=1, depth=1), proposal, log_prior, np.zeros(2))
    live = proposal > 0
    with np.errstate(divide="ignore"):
        expected = log_prior - np.log(proposal)
    assert np.array_equal(tables.log_ratio[live], expected[live])
    assert np.array_equal(tables.ratio_cap[live], np.minimum(1.0, np.exp(tables.log_ratio))[live])
    assert tables.ratio_cap[1].tolist() == [1.0, 1.0, np.exp(tables.log_ratio[1, 2])]


def test_step_tables_read_one_value_table_in_two_units():
    # the convention pinned: the weight increment reads v_table in
    # reward/temperature units, the retrace error in raw reward units
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,), sparse=True)
    model = random_model(5, 3, seed=9)
    cfg = PlannerConfig(k=4, depth=2, proposal_mode="trust_region", alpha=0.6,
                        temperature=0.5, gamma=0.9)
    tables = plan_tables(mdp, model, cfg)
    v, width, checked = model.v_table, mdp.successor_states.shape[1], 0
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            for slot in range(width):
                s_next = mdp.successor_states[s * mdp.n_actions + a, slot]
                if mdp.transition[s, a, s_next] == 0:
                    continue  # padding no draw reaches
                flat, r = (s * mdp.n_actions + a) * width + slot, mdp.reward[s, a]
                increment = tables.log_ratio[s, a] + r / 0.5 + 0.9 * v[s_next] - v[s]
                assert tables.increment[flat] == pytest.approx(increment, rel=1e-12, abs=1e-12)
                assert tables.delta[flat] == pytest.approx(r + 0.9 * v[s_next] - v[s],
                                                           rel=1e-12, abs=1e-12)
                checked += 1
    assert checked > mdp.n_states * mdp.n_actions


def test_advance_never_draws_a_zero_mass_action_or_successor():
    # state 0's proposal row and its transition row for action 1 both
    # fall short of 1 by less than their tolerances and end on zero mass;
    # uniforms past their total mass still draw the last positive-mass
    # action (1, not 2) and successor (1, not the terminal state 2)
    transition = np.zeros((3, 3, 3))
    transition[0, :, 1] = 1.0
    transition[0, 1, 1] = 1.0 - 4e-13
    transition[1, :, 1] = transition[2, :, 2] = 1.0
    mdp = TabularMdp(transition, np.zeros((3, 3)), np.array([False, False, True]))
    proposal = np.full((3, 3), 1.0 / 3.0)
    proposal[0] = [0.5, 0.5 - 5e-7, 0.0]
    cfg = PlannerConfig(k=2, depth=1)
    tables = PlanTables(mdp, cfg, proposal, np.log(np.full((3, 3), 1.0 / 3.0)), np.zeros(3))
    p = init_particles(0, cfg)
    out = advance(p, tables, FixedUniforms([0.5, 1.0 - 1e-7, 1.0 - 1e-13, 0.25]))
    assert out.root_actions.tolist() == [1, 1]
    assert out.states.tolist() == [1, 1]
    assert np.isfinite(out.log_weights).all()


def _advanced_particle_set(seed=3, k=16):
    mdp = make_chain(3)
    cfg = PlannerConfig(k=k, depth=2)
    model = uniform_model(mdp)
    p = init_particles(0, cfg)
    return (
        advance(p, plan_tables(mdp, model, cfg), rng_mod.stream(seed, 1)),
        mdp,
        cfg,
    )


def test_resample_point_mass_copies_winner():
    p, _, _ = _advanced_particle_set()
    log_w = np.full(p.k, -np.inf)
    log_w[0] = 0.0
    p = type(p)(
        states=p.states,
        log_weights=log_w,
        ancestors=p.ancestors,
        root_actions=p.root_actions,
        ref_states=p.ref_states,
        ancestor_logq=p.ancestor_logq,
        retrace_acc=p.retrace_acc,
        retrace_decay=p.retrace_decay,
        step=p.step,
    )
    out = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(5), "baseline")
    assert (out.states == p.states[0]).all()
    assert (out.ancestors == p.ancestors[0]).all()
    assert (out.log_weights == 0.0).all()


# root policy and value of a K=4 message-passing call at seed 3, recorded
# before run_planner checked its seed
SEED_3_BITS = (["0x1.004783b52ff2ap-1", "0x1.ff70f895a01abp-2"], "0x1.ddee56d965700p-1")


@pytest.mark.parametrize("seed,python_seed", [
    (3, 3), (np.int64(3), 3), (np.uint64(3), 3), (np.int32(3), 3), (np.uint8(3), 3),
    (np.int64(-5), -5), (np.uint64(2**63 + 5), 2**63 + 5),
])
def test_numpy_integer_seeds_plan_the_bits_of_their_python_int(seed, python_seed):
    mdp = make_random_mdp(4, 2, seed=3, terminal_states=(3,))
    config = PlannerConfig(k=4, depth=3, inference_mode="message_passing")
    out = run_planner(mdp, np.int64(0), Model.zeros(4, 2), config, seed)
    expected = run_planner(mdp, 0, Model.zeros(4, 2), config, python_seed)
    assert output_to_dict(out) == output_to_dict(expected)
    if python_seed == 3:
        assert ([float(x).hex() for x in out.root_policy], out.root_value.hex()) == SEED_3_BITS


def test_resample_is_seed_deterministic():
    p, _, _ = _advanced_particle_set()
    a = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(9), "baseline")
    b = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(9), "baseline")
    assert (a.states == b.states).all()
    assert (a.ancestors == b.ancestors).all()


def test_resample_preserves_ancestor_multiset():
    p, _, _ = _advanced_particle_set(seed=11, k=32)
    out = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(13), "baseline")
    before = set(p.ancestors.tolist())
    after = set(out.ancestors.tolist())
    assert after <= before


def test_resample_rejects_degenerate_weights():
    p, _, _ = _advanced_particle_set()
    bad = type(p)(
        states=p.states,
        log_weights=np.full(p.k, -np.inf),
        ancestors=p.ancestors,
        root_actions=p.root_actions,
        ref_states=p.ref_states,
        ancestor_logq=p.ancestor_logq,
        retrace_acc=p.retrace_acc,
        retrace_decay=p.retrace_decay,
        step=p.step,
    )
    with pytest.raises(DegenerateWeightsError):
        multinomial_resample(bad, normalized_weights(bad.log_weights), rng_mod.stream(1), "baseline")
    # the resampler checks the weights it is handed, not only their shape
    for weights in _degenerate_weights(p.k):
        with pytest.raises(DegenerateWeightsError):
            multinomial_resample(p, weights, rng_mod.stream(1), "baseline")
    with pytest.raises(ContractError):
        multinomial_resample(p, np.full(p.k + 1, 1.0 / (p.k + 1)), rng_mod.stream(1), "baseline")


def test_resample_looks_up_each_particles_own_uniform():
    # uniforms out of order, repeated and on CDF boundaries, and weights
    # with zeros: particle i still gets the index that uniform i selects
    p, _, _ = _advanced_particle_set(k=6)
    p = p._replace(states=np.arange(6))
    weights = np.array([0.0, 0.25, 0.25, 0.0, 0.5, 0.0])
    uniforms = [0.9, 0.25, 0.0, 0.25, 0.5, 0.1]
    out = multinomial_resample(p, weights, FixedUniforms(uniforms), "baseline")
    assert out.states.tolist() == [4, 2, 1, 2, 4, 1]
    assert out.states.tolist() == rng_mod.categorical(np.cumsum(weights), uniforms).tolist()


def test_resample_never_copies_a_zero_weight_particle():
    # the weights fall short of 1 by less than the tolerance and end on
    # zero; a uniform past their total still copies particle 0
    p, _, _ = _advanced_particle_set(k=2)
    p = p._replace(states=np.arange(2))
    weights = np.array([1.0 - 1e-10, 0.0])
    out = multinomial_resample(p, weights, FixedUniforms([0.5, 1.0 - 1e-11]), "baseline")
    assert out.states.tolist() == [0, 0]
    assert out.ancestors.tolist() == [p.ancestors[0]] * 2


def _degenerate_weights(k):
    """Weight vectors no normalization can produce: all zero, nan, +inf,
    a negative entry, and uniform weights that sum to 2."""
    uniform = np.full(k, 1.0 / k)
    negative = uniform.copy()
    negative[:2] = [-uniform[0], 3 * uniform[0]]
    return [
        np.zeros(k),
        np.full(k, np.nan),
        np.where(np.arange(k) == 0, np.inf, 0.0),
        negative,
        2 * uniform,
    ]


def test_revived_resample_restores_reference_states():
    mdp = make_two_arm()
    cfg = PlannerConfig(k=8, depth=2, resample_mode="revived")
    model = uniform_model(mdp)
    p = init_particles(0, cfg)
    p = advance(p, plan_tables(mdp, model, cfg), rng_mod.stream(4, 1))
    assert (p.states == 1).all()
    out = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(6), "revived")
    assert (out.states == 0).all()  # moved back to the last non-terminal state
    assert (out.ref_states == 0).all()
    baseline = multinomial_resample(p, normalized_weights(p.log_weights), rng_mod.stream(6), "baseline")
    assert (baseline.states == 1).all()  # stays trapped without revival


def test_dirac_policy_groups_by_ancestor_action():
    cfg = PlannerConfig(k=4, depth=1)
    p = init_particles(0, cfg)
    p = type(p)(
        states=p.states,
        log_weights=np.log(np.array([0.4, 0.1, 0.3, 0.2])),
        ancestors=np.array([0, 1, 2, 3]),
        root_actions=np.array([0, 0, 1, 2]),
        ref_states=p.ref_states,
        ancestor_logq=p.ancestor_logq,
        retrace_acc=p.retrace_acc,
        retrace_decay=p.retrace_decay,
        step=1,
    )
    policy = dirac_policy(p, normalized_weights(p.log_weights), 3)
    assert np.abs(policy - np.array([0.5, 0.3, 0.2])).max() <= 1e-12


def test_dirac_policy_collapsed_ancestry_is_point_mass():
    cfg = PlannerConfig(k=4, depth=1)
    p = init_particles(0, cfg)
    p = type(p)(
        states=p.states,
        log_weights=np.zeros(4),
        ancestors=np.zeros(4, dtype=np.intp),
        root_actions=np.array([2, 0, 1, 1]),
        ref_states=p.ref_states,
        ancestor_logq=p.ancestor_logq,
        retrace_acc=p.retrace_acc,
        retrace_decay=p.retrace_decay,
        step=1,
    )
    policy = dirac_policy(p, normalized_weights(p.log_weights), 3)
    assert policy.tolist() == [0.0, 0.0, 1.0]


def test_dirac_policy_requires_recorded_roots():
    p = init_particles(0, PlannerConfig(k=2, depth=1))
    with pytest.raises(ContractError):
        dirac_policy(p, normalized_weights(p.log_weights), 2)


def test_dirac_policy_rejects_degenerate_weights():
    p, _, _ = _advanced_particle_set()
    for weights in _degenerate_weights(p.k):
        with pytest.raises(DegenerateWeightsError):
            dirac_policy(p, weights, 2)
    with pytest.raises(ContractError):
        dirac_policy(p, np.ones(1), 2)


def test_run_planner_rejects_terminal_root():
    mdp = make_two_arm()
    with pytest.raises(ContractError):
        run_planner(mdp, 1, uniform_model(mdp), PlannerConfig(k=2, depth=1), seed=0)


def test_single_particle_single_step_point_mass():
    mdp = make_two_arm()
    out = run_planner(
        mdp, 0, uniform_model(mdp), PlannerConfig(k=1, depth=1, resample_period=1), seed=5
    )
    assert set(out.root_policy.tolist()) == {0.0, 1.0}


def test_run_planner_bit_deterministic():
    mdp = make_chain(3)
    cfg = PlannerConfig(
        k=32,
        depth=4,
        resample_period=2,
        alpha=0.2,
        proposal_mode="trust_region",
        inference_mode="message_passing",
        resample_mode="revived",
        sigma=0.5,
    )
    model = uniform_model(mdp)
    a = run_planner(mdp, 0, model, cfg, seed=42)
    b = run_planner(mdp, 0, model, cfg, seed=42)
    assert a.root_policy.tolist() == b.root_policy.tolist()
    assert a.root_value == b.root_value
    assert a.diagnostics.ess.tolist() == b.diagnostics.ess.tolist()
    c = run_planner(mdp, 0, model, cfg, seed=43)
    assert a.root_policy.tolist() != c.root_policy.tolist()


def random_model(n_states, n_actions, seed):
    gen = np.random.default_rng(seed)
    return Model(
        gen.normal(size=(n_states, n_actions)),
        gen.normal(size=n_states),
        gen.normal(size=(n_states, n_actions)),
    )


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_proposal_table_solves_each_state_alone(alpha):
    mdp = make_random_mdp(6, 4, seed=21, terminal_states=(5,))
    model = random_model(6, 4, seed=22)
    pi = model.policy()
    prior_cfg = PlannerConfig(k=4, depth=2, alpha=alpha)
    assert plan_tables(mdp, model, prior_cfg).proposal.tolist() == pi.tolist()
    table = plan_tables(mdp, model, replace(prior_cfg, proposal_mode="trust_region")).proposal
    assert table[5].tolist() == pi[5].tolist()
    for s in range(5):
        eps = adaptive_epsilon(pi[s], model.q_table[s], alpha)
        assert table[s].tolist() == solve_trust_region(pi[s], model.q_table[s], eps).q.tolist()


@pytest.mark.parametrize("proposal_mode", ["prior", "trust_region"])
@pytest.mark.parametrize("inference_mode", ["dirac", "message_passing"])
def test_run_planner_precomputed_table_is_bit_identical(proposal_mode, inference_mode):
    mdp = make_random_mdp(6, 3, seed=31, terminal_states=(4,), discount=0.9)
    model = random_model(6, 3, seed=32)
    cfg = PlannerConfig(
        k=16, depth=5, resample_period=2, alpha=0.4, gamma=0.9, sigma=0.5,
        proposal_mode=proposal_mode, inference_mode=inference_mode,
    )
    tables = plan_tables(mdp, model, cfg)
    for seed in range(3):
        fresh = output_to_dict(run_planner(mdp, 0, model, cfg, seed))
        assert output_to_dict(run_planner(mdp, 0, model, cfg, seed, tables)) == fresh


def _output_bits(out) -> dict:
    """Every field of a ``PlannerOutput``, diagnostics included: each array
    as its dtype, shape and bytes, each float as its hex form."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return float(value).hex() if isinstance(value, float) else value

    diagnostics = out.diagnostics
    return {"root_policy": bits(out.root_policy), "root_value": bits(out.root_value),
            **{f.name: bits(getattr(diagnostics, f.name)) for f in fields(diagnostics)}}


@pytest.mark.parametrize("k", [4, 32])
@pytest.mark.parametrize("inference_mode", ["dirac", "message_passing"])
def test_a_reused_table_plans_what_a_fresh_table_plans(k, inference_mode):
    # a table's one generator is re-keyed at every step of every call, so
    # neither the table's earlier calls nor calls on another table between
    # them move a bit; the other table steps the other layout (lists at
    # K=4, arrays at K=32)
    mdp = make_random_mdp(6, 3, seed=31, terminal_states=(4,), discount=0.9)
    model = random_model(6, 3, seed=32)
    cfg = PlannerConfig(
        k=k, depth=5, resample_period=2, alpha=0.4, gamma=0.9, sigma=0.5,
        proposal_mode="trust_region", inference_mode=inference_mode,
    )
    other = replace(cfg, k=36 - k, depth=3, resample_period=1, proposal_mode="prior",
                    resample_mode="revived")
    tables, other_tables = plan_tables(mdp, model, cfg), plan_tables(mdp, model, other)
    for seed in (0, 1, 0, 2):
        reused = run_planner(mdp, 0, model, cfg, seed, tables)
        assert _output_bits(reused) == _output_bits(run_planner(mdp, 0, model, cfg, seed))
        reused = run_planner(mdp, 1, model, other, seed + 7, other_tables)
        assert _output_bits(reused) == _output_bits(run_planner(mdp, 1, model, other, seed + 7))
    generator = tables._generator
    run_planner(mdp, 0, model, cfg, 3, tables)
    assert tables._generator is generator is not other_tables._generator


@pytest.mark.parametrize(
    "field,value",
    [("temperature", 0.5), ("gamma", 0.9), ("proposal_mode", "prior"), ("alpha", 0.3),
     ("k", 4), ("depth", 2), ("sigma", 0.5), ("inference_mode", "message_passing")],
)
def test_run_planner_rejects_tables_built_for_another_config(field, value, monkeypatch):
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    model = random_model(5, 3, seed=9)
    cfg = PlannerConfig(k=8, depth=3, proposal_mode="trust_region", alpha=0.6)
    tables = plan_tables(mdp, model, replace(cfg, **{field: value}))
    expected = output_to_dict(run_planner(mdp, 0, model, cfg, seed=1))

    def no_step(*args):
        raise AssertionError("a step ran before the tables were checked")

    with monkeypatch.context() as patch:
        patch.setattr(planner_mod, "advance", no_step)
        with pytest.raises(ContractError, match="another MDP or planner config"):
            run_planner(mdp, 0, model, cfg, seed=1, tables=tables)
    # a table serves only its own config: any equal config, but no other
    tables = plan_tables(mdp, model, cfg)
    assert output_to_dict(run_planner(mdp, 0, model, replace(cfg), 1, tables)) == expected


def test_run_planner_rejects_tables_built_for_another_mdp():
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    twin = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    model, cfg = random_model(5, 3, seed=9), PlannerConfig(k=8, depth=3)
    with pytest.raises(ContractError, match="another MDP or planner config"):
        run_planner(mdp, 0, model, cfg, seed=1, tables=plan_tables(twin, model, cfg))


def test_run_planner_rejects_tables_built_from_another_model(monkeypatch):
    # a table records its model by identity: an equal copy is another
    # model, and a hand-built table records none
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    model = random_model(5, 3, seed=9)
    cfg = PlannerConfig(k=8, depth=3, proposal_mode="trust_region", alpha=0.6)
    tables = plan_tables(mdp, model, cfg)
    copy = Model(model.policy_logits, model.v_table, model.q_table)  # copies its arguments
    others = [
        plan_tables(mdp, random_model(5, 3, seed=10), cfg),
        plan_tables(mdp, copy, cfg),
        PlanTables(mdp, cfg, tables.proposal, tables.log_prior, tables.v_table),
    ]
    expected = output_to_dict(run_planner(mdp, 0, model, cfg, seed=1))

    def no_step(*args):
        raise AssertionError("a step ran before the tables were checked")

    with monkeypatch.context() as patch:
        patch.setattr(planner_mod, "advance", no_step)
        for other in others:
            with pytest.raises(ContractError, match="tables were built from another model"):
                run_planner(mdp, 0, model, cfg, seed=1, tables=other)
    assert output_to_dict(run_planner(mdp, 0, model, cfg, 1, tables)) == expected


def test_callers_plan_with_the_model_their_tables_were_built_from(monkeypatch, tmp_path):
    seen = []

    def recording_run_planner(mdp, s0, model, config, seed, tables=None):
        seen.append((model, tables.model))
        return run_planner(mdp, s0, model, config, seed, tables)

    monkeypatch.setattr(training_mod, "run_planner", recording_run_planner)
    monkeypatch.setattr(harness_mod, "run_planner", recording_run_planner)
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    cfg = PlannerConfig(k=8, depth=3, proposal_mode="trust_region", alpha=0.6)
    collect_segment(mdp, random_model(5, 3, seed=9), cfg, horizon=3, seed=0)
    config = harness_mod.config_from_dict({
        "experiment": "path_degeneracy", "env": {"name": "two_arm"},
        "planner": {"k": 4, "depth": 2}, "output_dir": str(tmp_path),
    })
    list(harness_mod._drive(config, {}, (0, 1)))
    assert len(seen) > 2
    assert all(model is built_from for model, built_from in seen)


def test_run_planner_reads_the_model_once_per_call():
    # the log-policy is a whole-table softmax; a step must not redo it
    class CountingModel(Model):
        calls = 0

        def log_policy(self):
            CountingModel.calls += 1
            return super().log_policy()

    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    base = random_model(5, 3, seed=9)
    model = CountingModel(base.policy_logits, base.v_table, base.q_table)
    for depth in (1, 6):
        for mode in ("dirac", "message_passing"):
            cfg = PlannerConfig(k=8, depth=depth, inference_mode=mode)
            tables = plan_tables(mdp, model, cfg)
            CountingModel.calls = 0
            run_planner(mdp, 0, model, cfg, seed=1, tables=tables)
            assert CountingModel.calls == 0
            # built in the call: one log_policy() gives the prior and the proposal
            run_planner(mdp, 0, model, cfg, seed=1)
            assert CountingModel.calls == 1


@pytest.mark.parametrize("resample_mode", ["baseline", "revived"])
@pytest.mark.parametrize("inference_mode", ["dirac", "message_passing"])
def test_distinct_ancestors_count_the_ancestors_at_every_step(
    monkeypatch, inference_mode, resample_mode
):
    # under message passing the count is read off the resample's atom
    # grouping; it must equal a count of the ancestor ids themselves. K=8
    # and K=16 resample in the list kernel, K=32 in the array kernel.
    recorded, resample = {}, planner_mod.multinomial_resample

    def recording_resample(particles, weights, rng, mode="baseline"):
        out = resample(particles, weights, rng, mode)
        recorded[out.step] = np.count_nonzero(np.bincount(out.ancestors))
        return out

    monkeypatch.setattr(planner_mod, "multinomial_resample", recording_resample)
    for mdp in (make_random_mdp(6, 3, seed=41, terminal_states=(5,)), make_chain(6)):
        model = random_model(mdp.n_states, mdp.n_actions, seed=42)
        for seed, (k, period) in enumerate([(16, 1), (8, 2), (32, 3)]):
            cfg = PlannerConfig(k=k, depth=7, resample_period=period,
                                inference_mode=inference_mode, resample_mode=resample_mode)
            recorded.clear()
            out = run_planner(mdp, 0, model, cfg, seed)
            assert sorted(recorded) == list(out.diagnostics.resample_steps)
            expected, count = [], k
            for t in range(1, cfg.depth + 1):
                count = recorded.get(t, count)
                expected.append(count)
            assert out.diagnostics.distinct_ancestors.tolist() == expected


def test_run_planner_normalizes_weights_every_step():
    mdp = make_random_mdp(5, 3, seed=8, terminal_states=(4,))
    cfg = PlannerConfig(k=64, depth=5, resample_period=2)
    out = run_planner(mdp, 0, uniform_model(mdp), cfg, seed=3)
    assert out.diagnostics.ess.shape == (5,)
    assert (out.diagnostics.ess >= 1.0 - 1e-9).all()
    assert (out.diagnostics.ess <= 64.0 + 1e-9).all()
    assert abs(out.root_policy.sum() - 1.0) <= 1e-9


def test_dirac_estimator_consistent_with_exact_posterior():
    # prior proposal plus exact soft values: the self-normalized
    # estimator converges to the exact posterior (checked at large K)
    mdp = make_two_arm()
    prior = np.full((2, 2), 0.5)
    exact = root_action_marginal(
        exact_posterior_trajectories(mdp, prior, 0, 3, 1.0), 2
    )
    soft = soft_value_iteration(mdp, prior, 3, 1.0)
    model = Model.zeros(2, 2)
    model.v_table[:] = np.where(mdp.terminal, 0.0, soft.v_soft)
    cfg = PlannerConfig(k=100_000, depth=3, resample_period=1)
    for seed in (0, 1, 2):
        out = run_planner(mdp, 0, model, cfg, seed=seed)
        tv = 0.5 * np.abs(out.root_policy - exact).sum()
        assert tv <= 0.02


def test_message_passing_flat_on_zero_reward_env():
    mdp = make_absorbing_zero(4)
    model = uniform_model(mdp)
    cfg = PlannerConfig(k=20_000, depth=4, inference_mode="message_passing")
    out = run_planner(mdp, 0, model, cfg, seed=12)
    tv = 0.5 * np.abs(out.root_policy - 0.25).sum()
    assert tv <= 0.02


def test_planner_output_serializes_to_json():
    # the golden digests hash this form, so it must hold every output field
    import json

    mdp = make_chain(3)
    out = run_planner(mdp, 0, uniform_model(mdp), PlannerConfig(k=8, depth=3), seed=0)
    decoded = json.loads(json.dumps(output_to_dict(out)))
    assert set(decoded) == {f.name for f in fields(out)}
    assert set(decoded["diagnostics"]) | UNHASHED_DIAGNOSTICS == {
        f.name for f in fields(out.diagnostics)}
    assert decoded["root_policy"] == out.root_policy.tolist()
    assert decoded["diagnostics"]["resample_steps"] == [1, 2]


def test_terminal_counts_diagnostic():
    mdp = make_two_arm()
    cfg = PlannerConfig(k=16, depth=3, resample_period=3)
    out = run_planner(mdp, 0, uniform_model(mdp), cfg, seed=2)
    # all particles reach the arm end at step 1 and stay there
    assert out.diagnostics.terminal_particles.tolist() == [16, 16, 16]


def test_sigma_mixes_root_value():
    mdp = make_two_arm()
    model = uniform_model(mdp)
    lo = run_planner(mdp, 0, model, PlannerConfig(k=512, depth=1, sigma=0.0), seed=7)
    hi = run_planner(mdp, 0, model, PlannerConfig(k=512, depth=1, sigma=1.0), seed=7)
    mid = run_planner(mdp, 0, model, PlannerConfig(k=512, depth=1, sigma=0.5), seed=7)
    assert hi.root_value == pytest.approx(model.v_table[0])  # pure model value
    assert lo.root_value == pytest.approx(hi.diagnostics.value_smc)
    assert mid.root_value == pytest.approx(0.5 * (lo.root_value + hi.root_value))


def test_normalized_weights_helper():
    w = normalized_weights(np.array([0.0, math.log(3.0)]))
    assert np.abs(w - np.array([0.25, 0.75])).max() <= 1e-12


def test_root_value_telescopes_to_monte_carlo_return():
    # deterministic rollout, on-policy proposal, full trace: the return
    # estimate telescopes to the discounted rewards plus the (zero)
    # terminal bootstrap, whatever the intermediate model values are
    mdp = make_chain(3)
    model = Model.zeros(4, 2)
    model.policy_logits[:, 1] = 25.0  # effectively deterministic RIGHT
    model.v_table[:] = [0.4, -0.2, 0.7, 0.0]
    gamma = 0.9
    cfg = PlannerConfig(
        k=4, depth=4, resample_period=4, gamma=gamma, lambda_smc=1.0, sigma=0.0
    )
    out = run_planner(mdp, 0, model, cfg, seed=0)
    assert out.root_value == pytest.approx(gamma**2 * 1.0, abs=1e-9)


def _deterministic_mdp(n_states, n_actions, seed):
    """Random successors and rewards in [-1, 1]; the last state is terminal."""
    gen = np.random.default_rng(seed)
    successors = gen.integers(0, n_states, size=(n_states, n_actions))
    successors[-1] = n_states - 1
    transition = np.zeros((n_states, n_actions, n_states))
    np.put_along_axis(transition, successors[:, :, None], 1.0, axis=2)
    reward = gen.uniform(-1.0, 1.0, size=(n_states, n_actions))
    reward[-1] = 0.0
    terminal = np.arange(n_states) == n_states - 1
    return TabularMdp(transition, reward, terminal)


def _midpoint(masses, j):
    """The midpoint of outcome j's interval of the inverse-CDF draw."""
    cum = np.cumsum(masses)
    return 0.5 * ((cum[j - 1] if j else 0.0) + cum[j])


def _planner_outcomes(tables, s0, depth):
    """``(uniforms, probability)`` of every outcome of the discrete draws
    of a ``resample_period=1`` call on a deterministic MDP: each action
    and ancestor uniform is the midpoint of its outcome's interval, and
    each step's K state uniforms, which a one-slot successor row never
    reads, are 0.5."""
    mdp, k = tables.mdp, tables.config.k
    successors = mdp.successor_states[:, 0]

    def walk(states, t, uniforms, prob):
        for actions in itertools.product(range(mdp.n_actions), repeat=k):
            masses = tables.proposal[states, actions]
            if not masses.all():
                continue
            step = uniforms + [_midpoint(tables.proposal[s], a) for s, a in zip(states, actions)]
            step += [0.5] * k
            flat, p_step = states * mdp.n_actions + np.array(actions), prob * masses.prod()
            if t == depth:
                yield step, p_step
                continue
            weights = normalized_weights(tables.increment[flat])
            for parents in itertools.product(range(k), repeat=k):
                parents = list(parents)
                if weights[parents].all():
                    yield from walk(successors[flat[parents]], t + 1,
                                    step + [_midpoint(weights, j) for j in parents],
                                    p_step * weights[parents].prod())

    yield from walk(np.full(k, s0), 1, [], 1.0)


@pytest.mark.parametrize("temperature", [1.0, 0.5])
@pytest.mark.parametrize("proposal_mode", ["prior", "trust_region"])
def test_log_evidence_is_unbiased_for_the_soft_value(proposal_mode, temperature, monkeypatch):
    # with a zero v_table the increments are log prior/proposal + R / T,
    # so over every outcome of the draws E[exp(log_evidence)] is the
    # prior's expected exp(return / T): exp(v_soft[s0]) at discount 1
    mdp = _deterministic_mdp(4, 2, seed=7)
    gen = np.random.default_rng(8)
    model = Model(gen.normal(size=(4, 2)), np.zeros(4), gen.normal(size=(4, 2)))
    draws = []
    # every step re-keys the table's generator, and gets the call's uniforms
    monkeypatch.setattr(rng_mod, "rekey", lambda gen, seed, *path: draws[-1])
    for depth in (1, 2):
        soft = soft_value_iteration(mdp, model.policy(), depth, temperature)
        for k in (1, 2, 3):
            cfg = PlannerConfig(k=k, depth=depth, alpha=0.3, temperature=temperature,
                                proposal_mode=proposal_mode)
            tables = plan_tables(mdp, model, cfg)
            assert (tables.proposal > 0).all()
            expected, total = 0.0, 0.0
            for uniforms, prob in _planner_outcomes(tables, 0, depth):
                draws.append(FixedUniforms(uniforms))
                out = run_planner(mdp, 0, model, cfg, 0, tables)
                with pytest.raises(AssertionError, match="0 left"):
                    draws[-1].random(1)  # the call read every uniform
                expected += prob * math.exp(out.diagnostics.log_evidence)
                total += prob
            assert total == pytest.approx(1.0, rel=1e-12)
            assert expected == pytest.approx(math.exp(soft.v_soft[0]), rel=1e-12)
