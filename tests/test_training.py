"""Targets, loss, gradients, SGD, the replay buffer, and the outer loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FixedUniforms, make_random_mdp
from smcplan import (
    ContractError,
    LossConfig,
    Model,
    NumericalError,
    PlannerConfig,
    ReplayBuffer,
    Segment,
    TrainConfig,
    collect_segment,
    elbo_and_gap,
    enumerate_trajectories,
    exact_posterior_trajectories,
    grad,
    loss,
    make_absorbing_zero,
    make_chain,
    make_gridworld,
    make_two_arm,
    optimal_policy,
    outer_targets,
    policy_value,
    posterior_policy_stages,
    sgd_step,
    soft_value_iteration,
    train,
    training,
)
from smcplan import rng as rng_mod


def segment(rewards, values, terminals=None, tail_value=0.0, policies=None):
    """A segment of single-action steps from state 0 unless ``policies``
    are given."""
    n = len(rewards)
    return Segment(
        states=np.zeros(n, dtype=np.intp),
        actions=np.zeros(n, dtype=np.intp),
        rewards=np.asarray(rewards, dtype=float),
        search_policies=np.ones((n, 1)) if policies is None else np.asarray(policies),
        inner_values=np.asarray(values, dtype=float),
        terminals=np.zeros(n, dtype=bool) if terminals is None else np.asarray(terminals),
        tail_value=tail_value,
    )


def batch_of(states, actions, targets, policies):
    return (
        np.asarray(states, dtype=np.intp),
        np.asarray(actions, dtype=np.intp),
        np.asarray(targets, dtype=float),
        np.asarray(policies, dtype=float),
    )


def random_model(n_states, n_actions, seed):
    rng = np.random.default_rng(seed)
    return Model(
        policy_logits=rng.normal(size=(n_states, n_actions)),
        v_table=rng.normal(size=n_states),
        q_table=rng.normal(size=(n_states, n_actions)),
    )


def random_batch(model, seed, size=6):
    rng = np.random.default_rng(seed)
    n_states, n_actions = model.policy_logits.shape
    rows = []
    for _ in range(size):
        s = int(rng.integers(n_states))
        a = int(rng.integers(n_actions))
        policy = rng.dirichlet(np.ones(n_actions))
        _reward, _inner_value, target = rng.normal(size=3)
        rows.append((s, a, target, policy))
    return batch_of(*zip(*rows))


# ---------------------------------------------------------------- targets


def test_single_terminal_transition_bootstraps_zero():
    seg = segment([2.5], [9.0], terminals=[True])
    for lam in (0.0, 0.5, 1.0):
        assert outer_targets(seg, 0.9, lam).tolist() == [2.5]


def test_lambda_zero_gives_one_step_targets():
    seg = segment([1.0, 2.0, 3.0], [5.0, 7.0, 9.0], terminals=[False, False, True])
    targets = outer_targets(seg, 0.5, 0.0)
    assert targets.tolist() == [1.0 + 0.5 * 7.0, 2.0 + 0.5 * 9.0, 3.0]


def test_lambda_one_accumulates_rewards():
    seg = segment([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], terminals=[False, False, True])
    assert outer_targets(seg, 1.0, 1.0).tolist() == [6.0, 5.0, 3.0]


def test_tail_value_bootstraps_truncated_segment():
    seg = segment([1.0], [4.0], tail_value=2.0)
    assert outer_targets(seg, 1.0, 1.0).tolist() == [3.0]


def test_outer_targets_reject_empty():
    with pytest.raises(ContractError):
        outer_targets(segment([], []), 1.0, 0.5)


# ---------------------------------------------------------------- loss/grad


def test_loss_zero_when_all_coefficients_vanish():
    model = random_model(3, 2, seed=0)
    cfg = LossConfig(c_v=0.0, c_pi=0.0, c_ent=0.0)
    assert loss(model, random_batch(model, 1), cfg) == 0.0


def test_loss_at_perfect_model():
    # model matches targets and search policy exactly: only the entropy
    # terms remain, (c_pi - c_ent) * H of the search policy
    target_policy = np.array([0.7, 0.3])
    target_value = 1.3
    logits = np.log(target_policy)
    model = Model(
        policy_logits=np.stack([logits, logits]),
        v_table=np.full(2, target_value),
        q_table=np.full((2, 2), target_value),
    )
    cfg = LossConfig(c_v=0.5, c_pi=1.0, c_ent=0.1)
    batch = batch_of([0], [1], [target_value], [target_policy])
    entropy = -(target_policy * np.log(target_policy)).sum()
    assert loss(model, batch, cfg) == pytest.approx(
        (cfg.c_pi - cfg.c_ent) * entropy, abs=1e-12
    )


def test_loss_mean_invariant_to_duplication():
    model = random_model(4, 3, seed=2)
    cfg = LossConfig()
    batch = random_batch(model, 3, size=1)
    doubled = tuple(np.concatenate([column, column]) for column in batch)
    assert loss(model, batch, cfg) == pytest.approx(loss(model, doubled, cfg))


def _flatten(grads):
    return np.concatenate(
        [grads.policy_logits.ravel(), grads.v_table.ravel(), grads.q_table.ravel()]
    )


def _numeric_grad(model, batch, cfg, h=1e-5):
    def fresh():
        return Model(model.policy_logits.copy(), model.v_table.copy(), model.q_table.copy())

    def perturb(setter):
        base = fresh()
        setter(base, +h)
        up = loss(base, batch, cfg)
        base = fresh()
        setter(base, -h)
        down = loss(base, batch, cfg)
        return (up - down) / (2 * h)

    out = Model.zeros(*model.policy_logits.shape)
    n_states, n_actions = model.policy_logits.shape
    for s in range(n_states):
        for a in range(n_actions):
            def bump_logit(m, d, s=s, a=a):
                m.policy_logits[s, a] += d

            def bump_q(m, d, s=s, a=a):
                m.q_table[s, a] += d

            out.policy_logits[s, a] = perturb(bump_logit)
            out.q_table[s, a] = perturb(bump_q)
        def bump_v(m, d, s=s):
            m.v_table[s] += d

        out.v_table[s] = perturb(bump_v)
    return out


@pytest.mark.parametrize("trial", range(50))
def test_gradient_matches_finite_differences(trial):
    model = random_model(3, 2, seed=100 + trial)
    cfg = LossConfig(c_v=0.6, c_pi=1.1, c_ent=0.2)
    batch = random_batch(model, 200 + trial, size=4)
    analytic = _flatten(grad(model, batch, cfg))
    numeric = _flatten(_numeric_grad(model, batch, cfg))
    scale = np.maximum(np.abs(numeric), 1.0)
    assert (np.abs(analytic - numeric) / scale).max() <= 1e-6


# Reference scatter for the gradient: ``np.add.at`` adds the batch rows
# into zeroed tables one after another, in batch order. The package sums
# the same rows per cell with ``bincount``; the test pins the two together.
def grad_add_at(model, batch, cfg):
    states, actions, targets, search = batch
    n = len(targets)
    log_pi = model.log_policy()
    pi = np.exp(log_pi)
    entropy = -(pi * log_pi).sum(axis=1)
    g_logits = np.zeros_like(model.policy_logits)
    g_v = np.zeros_like(model.v_table)
    g_q = np.zeros_like(model.q_table)
    np.add.at(g_v, states, cfg.c_v * (model.v_table[states] - targets) / n)
    np.add.at(g_q, (states, actions), cfg.c_v * (model.q_table[states, actions] - targets) / n)
    rows = cfg.c_pi * (pi[states] - search) + cfg.c_ent * pi[states] * (
        log_pi[states] + entropy[states, None]
    )
    np.add.at(g_logits, states, rows / n)
    return g_logits, g_v, g_q


@settings(max_examples=200, deadline=None)
@given(
    n_states=st.integers(1, 8),
    n_actions=st.integers(1, 5),
    size=st.integers(1, 128),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_matches_add_at_reference_bit_for_bit(n_states, n_actions, size, seed):
    # few states and actions, so the batch repeats cells many times over
    gen = np.random.default_rng(seed)
    model = random_model(n_states, n_actions, seed)
    model.policy_logits *= gen.choice([0.1, 1.0, 30.0])
    batch = batch_of(
        gen.integers(n_states, size=size),
        gen.integers(n_actions, size=size),
        gen.normal(scale=10.0, size=size),
        gen.dirichlet(np.ones(n_actions), size=size),
    )
    cfg = LossConfig(c_v=0.6, c_pi=1.1, c_ent=0.2)
    grads = grad(model, batch, cfg)
    ours = (grads.policy_logits, grads.v_table, grads.q_table)
    for got, expected in zip(ours, grad_add_at(model, batch, cfg)):
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_policy_gradient_stationary_at_search_policy():
    search = np.array([0.6, 0.4])
    model = Model(
        policy_logits=np.stack([np.log(search), np.zeros(2)]),
        v_table=np.zeros(2),
        q_table=np.zeros((2, 2)),
    )
    cfg = LossConfig(c_v=0.0, c_pi=1.0, c_ent=0.0)
    batch = batch_of([0], [0], [0.0], [search])
    grads = grad(model, batch, cfg)
    assert np.abs(grads.policy_logits[0]).max() <= 1e-12
    assert np.abs(grads.policy_logits[1]).max() == 0.0  # unvisited row


def test_unvisited_states_get_zero_gradient():
    model = random_model(5, 2, seed=7)
    cfg = LossConfig()
    batch = batch_of([2], [1], [0.8], [[0.5, 0.5]])
    grads = grad(model, batch, cfg)
    for s in (0, 1, 3, 4):
        assert np.abs(grads.policy_logits[s]).max() == 0.0
        assert grads.v_table[s] == 0.0
        assert np.abs(grads.q_table[s]).max() == 0.0


# ---------------------------------------------------------------- sgd


def test_sgd_zero_gradient_is_identity():
    model = random_model(3, 2, seed=9)
    cfg = LossConfig(lr=0.5)
    zeros = Model(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)))
    out = sgd_step(model, zeros, cfg)
    assert (out.policy_logits == model.policy_logits).all()
    assert (out.v_table == model.v_table).all()


def test_sgd_zero_learning_rate_is_identity():
    model = random_model(3, 2, seed=10)
    cfg = LossConfig(lr=0.0)
    grads = grad(model, random_batch(model, 11), cfg)
    out = sgd_step(model, grads, cfg)
    assert (out.policy_logits == model.policy_logits).all()


def test_sgd_norm_rescaling():
    # all-ones gradient over 3*2 + 3 + 3*2 = 15 entries has norm
    # sqrt(15) > 1; with clip_norm=1 every entry becomes 1/sqrt(15)
    model = Model.zeros(3, 2)
    ones = Model(np.ones((3, 2)), np.ones(3), np.ones((3, 2)))
    cfg = LossConfig(lr=1.0, clip_abs=10.0, clip_norm=1.0)
    out = sgd_step(model, ones, cfg)
    expected = -1.0 / np.sqrt(15.0)
    assert np.abs(out.policy_logits - expected).max() <= 1e-12
    assert np.abs(out.v_table - expected).max() <= 1e-12


def test_sgd_elementwise_clip_applies_before_norm():
    model = Model.zeros(1, 1)
    grads = Model(np.array([[100.0]]), np.array([0.0]), np.array([[0.0]]))
    cfg = LossConfig(lr=1.0, clip_abs=2.0, clip_norm=10.0)
    out = sgd_step(model, grads, cfg)
    assert out.policy_logits[0, 0] == -2.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_sgd_rejects_a_non_finite_gradient_norm(bad):
    # an infinite entry survives an infinite clip_abs; nan survives any clip
    model = Model.zeros(2, 2)
    grads = Model.zeros(2, 2)
    grads.policy_logits[0, 0] = bad
    with pytest.raises(NumericalError, match="gradient norm"):
        sgd_step(model, grads, LossConfig(clip_abs=np.inf))
    assert (model.params == 0.0).all()


# ---------------------------------------------------------------- model


def test_model_tables_are_views_of_one_parameter_vector():
    model = random_model(3, 2, seed=30)
    batch = random_batch(model, 31)
    before_policy, before_grad = model.log_policy(), grad(model, batch, LossConfig())
    model.policy_logits[0, 0] = 2.0
    assert (model.log_policy()[0] != before_policy[0]).all()
    assert model.params[0] == 2.0
    model.v_table[0] = 0.7
    assert model.params[6] == 0.7
    assert (batch[0] == 0).any()  # state 0 is in the batch, so its value gradient moves
    assert grad(model, batch, LossConfig()).v_table[0] != before_grad.v_table[0]


def test_model_copies_its_arguments():
    logits, v, q = np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3))
    model = Model(logits, v, q)
    logits[0, 0], v[0], q[0, 0] = 1.0, 1.0, 1.0
    assert (model.params == 0.0).all()
    assert model.params.size == logits.size + v.size + q.size


@pytest.mark.parametrize("shapes", [((2, 3), (3,), (2, 3)), ((2, 3), (2,), (3, 2)), ((6,), (1,), (6,))])
def test_model_rejects_tables_of_mismatched_shapes(shapes):
    with pytest.raises(ContractError, match="need"):
        Model(*(np.zeros(shape) for shape in shapes))


def test_loss_decreases_on_frozen_batch():
    model = random_model(4, 3, seed=21)
    cfg = LossConfig(c_v=0.5, c_pi=1.0, c_ent=0.05, lr=0.05)
    batch = random_batch(model, 22, size=8)
    losses = [loss(model, batch, cfg)]
    for _ in range(100):
        model = sgd_step(model, grad(model, batch, cfg), cfg)
        losses.append(loss(model, batch, cfg))
    diffs = np.diff(losses)
    assert (diffs <= 1e-9).mean() >= 0.95
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------- buffer


class ListReplayBuffer:
    """Reference buffer: a list of (state, action, target, search policy)
    rows, appended until full, then overwritten oldest first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.next = 0

    def add_segment(self, seg, targets):
        for row in zip(seg.states, seg.actions, targets, seg.search_policies):
            if len(self.items) < self.capacity:
                self.items.append(row)
            else:
                self.items[self.next] = row
                self.next = (self.next + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.items), size=batch_size)
        return batch_of(*zip(*[self.items[i] for i in idx]))


def random_segment(gen, n, n_actions):
    return Segment(
        states=gen.integers(0, 50, size=n),
        actions=gen.integers(0, n_actions, size=n),
        rewards=gen.normal(size=n),
        search_policies=gen.dirichlet(np.ones(n_actions), size=n),
        inner_values=gen.normal(size=n),
        terminals=np.zeros(n, dtype=bool),
        tail_value=0.0,
    )


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8))
# the buffer holds 1, 37, then 49 and 61 pairs, then is full and wraps
@example(capacity=64, lengths=[1, 36, 12, 12, 12])
def test_buffer_matches_list_reference(capacity, lengths):
    gen = rng_mod.stream(11)
    buf, ref = ReplayBuffer(capacity, 3), ListReplayBuffer(capacity)
    for i, n in enumerate(lengths):
        seg = random_segment(gen, n, 3)
        targets = gen.normal(size=n)
        buf.add_segment(seg, targets)
        ref.add_segment(seg, targets)
        assert len(buf) == len(ref.items)
        got = buf.sample(16, rng_mod.stream(5, i))
        want = ref.sample(16, rng_mod.stream(5, i))
        for column, expected in zip(got, want):
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()
        # a (u, b) draw is u successive draws of b from the same stream
        batches = buf.sample((3, 16), rng_mod.stream(6, i))
        ref_gen = rng_mod.stream(6, i)
        for u in range(3):
            want = ref.sample(16, ref_gen)
            for column, expected in zip(batches, want):
                assert column[u].dtype == expected.dtype
                assert column[u].tobytes() == expected.tobytes()


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=10, n_actions=1)
    buf.add_segment(segment(np.zeros(14), np.zeros(14)), np.arange(14.0))
    assert len(buf) == 10
    assert buf.targets.tolist() == [10, 11, 12, 13, 4, 5, 6, 7, 8, 9]


def test_buffer_sampling_is_uniform_ish():
    buf = ReplayBuffer(capacity=4, n_actions=1)
    buf.add_segment(segment(np.zeros(4), np.zeros(4)), [0, 1, 2, 3])
    draws = buf.sample(4000, rng_mod.stream(5))[2].astype(int)
    counts = np.bincount(draws, minlength=4)
    assert counts.min() > 800


def test_add_segment_rejects_unnormalised_search_policy():
    buf = ReplayBuffer(capacity=4, n_actions=2)
    seg = segment([0.0, 0.0], [0.0, 0.0], policies=[[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(ContractError, match="sum to 1"):
        buf.add_segment(seg, [0.0, 0.0])
    assert len(buf) == 0


def test_add_segment_rejects_a_nan_search_policy():
    buf = ReplayBuffer(capacity=4, n_actions=2)
    seg = segment([0.0, 0.0], [0.0, 0.0], policies=[[0.5, 0.5], [np.nan, 0.5]])
    with pytest.raises(ContractError, match="sum to 1"):
        buf.add_segment(seg, [0.0, 0.0])
    assert len(buf) == 0


# ---------------------------------------------------------------- loop


def test_collect_segment_two_arm_single_step():
    mdp = make_two_arm()
    model = Model.zeros(2, 2)
    cfg = PlannerConfig(k=8, depth=2)
    seg = collect_segment(mdp, model, cfg, horizon=5, seed=0)
    assert seg.terminals.tolist() == [True]
    assert seg.search_policies.shape == (1, 2)
    assert seg.tail_value == 0.0


def test_collect_segment_rejects_zero_horizon():
    mdp = make_two_arm()
    with pytest.raises(ContractError):
        collect_segment(mdp, Model.zeros(2, 2), PlannerConfig(k=2, depth=1), 0, seed=0)


def test_collect_segment_never_acts_on_a_zero_mass_action(monkeypatch):
    # the search policy falls short of 1 and ends on a zero; an action
    # uniform past its total still picks the last action with mass
    mdp, model, cfg = make_random_mdp(3, 3, seed=5), Model.zeros(3, 3), PlannerConfig(k=4, depth=2)
    out = training.run_planner(mdp, 0, model, cfg, 0)
    out = replace(out, root_policy=np.array([0.5, 0.5 - 1e-12, 0.0]))
    monkeypatch.setattr(training, "run_planner", lambda *args: out)
    monkeypatch.setattr(rng_mod, "stream", lambda *path: FixedUniforms([1.0 - 1e-13, 0.5]))
    seg = collect_segment(mdp, model, cfg, horizon=1, seed=0)
    assert seg.actions.tolist() == [1]


def test_collect_segment_deterministic():
    mdp = make_chain(4)
    model = Model.zeros(5, 2)
    cfg = PlannerConfig(k=4, depth=3, resample_period=2)
    a = collect_segment(mdp, model, cfg, horizon=6, seed=31)
    b = collect_segment(mdp, model, cfg, horizon=6, seed=31)
    for name in ("states", "actions", "rewards", "search_policies", "inner_values", "terminals"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.tail_value == b.tail_value


def test_collect_segment_bootstraps_nonterminal_tail():
    mdp = make_absorbing_zero(2)
    model = Model.zeros(1, 2)
    model.v_table[0] = 0.7
    cfg = PlannerConfig(k=4, depth=2, sigma=1.0)  # value comes straight from the model
    seg = collect_segment(mdp, model, cfg, horizon=3, seed=0)
    assert len(seg.states) == 3
    assert not seg.terminals.any()
    assert seg.tail_value == pytest.approx(0.7)


@pytest.mark.parametrize(
    "mdp",
    [make_two_arm(), make_chain(3), make_absorbing_zero(3), make_gridworld(2, 2)],
)
def test_train_single_iteration_smoke(mdp):
    cfg = TrainConfig(
        planner=PlannerConfig(k=4, depth=2, sigma=0.5, inference_mode="message_passing"),
        loss=LossConfig(),
        horizon=4,
        buffer_capacity=64,
        batch_size=8,
        updates_per_iteration=2,
    )
    result = train(mdp, cfg, iterations=1, seed=0)
    assert result.greedy_returns.shape == (1,)
    assert np.isfinite(result.losses).all()


def test_train_zero_reward_env_stays_high_entropy():
    mdp = make_absorbing_zero(4)
    cfg = TrainConfig(
        planner=PlannerConfig(k=8, depth=3, inference_mode="message_passing", sigma=0.5),
        loss=LossConfig(c_ent=0.05, lr=0.2),
        horizon=6,
        buffer_capacity=128,
        batch_size=16,
        updates_per_iteration=4,
    )
    result = train(mdp, cfg, iterations=40, seed=1)
    pi = result.model.policy()[0]
    entropy = -(pi * np.log(pi)).sum()
    assert entropy >= 0.9 * np.log(4)


def test_train_is_seed_deterministic():
    mdp = make_chain(3)
    cfg = TrainConfig(
        planner=PlannerConfig(k=4, depth=2, sigma=0.5),
        loss=LossConfig(lr=0.1),
        horizon=4,
        buffer_capacity=64,
        batch_size=8,
        updates_per_iteration=2,
    )
    a = train(mdp, cfg, iterations=3, seed=7)
    b = train(mdp, cfg, iterations=3, seed=7)
    assert a.greedy_returns.tolist() == b.greedy_returns.tolist()
    assert (a.model.policy_logits == b.model.policy_logits).all()


def reference_train(mdp, config, iterations, seed):
    """``train``'s loop drawing one batch at a time, each ``grad``
    building its own index: the final model and per-iteration losses."""
    model = Model.zeros(mdp.n_states, mdp.n_actions)
    buffer = ReplayBuffer(config.buffer_capacity, mdp.n_actions)
    losses = []
    for n in range(iterations):
        segment = collect_segment(mdp, model, config.planner, config.horizon,
                                  rng_mod.fold(seed, n, training._SEGMENT), s0=config.s0)
        lam, gamma = config.loss.lambda_outer, config.loss.gamma_outer
        buffer.add_segment(segment, outer_targets(segment, gamma, lam))
        gen = rng_mod.stream(seed, n, training._UPDATES)
        for _ in range(config.updates_per_iteration):
            batch = buffer.sample(config.batch_size, gen)
            model = sgd_step(model, grad(model, batch, config.loss), config.loss)
        losses.append(loss(model, batch, config.loss))
    return model, np.array(losses)


@pytest.mark.parametrize(
    "mdp", [make_chain(5), make_random_mdp(6, 3, seed=5, terminal_states=(5,))],
    ids=["chain5", "random"],
)
def test_train_equals_per_batch_grad_and_sgd_bit_for_bit(mdp):
    cfg = TrainConfig(
        planner=PlannerConfig(
            k=4, depth=4, resample_period=3, alpha=0.1, temperature=0.1, sigma=0.5,
            proposal_mode="trust_region", inference_mode="message_passing",
        ),
        loss=LossConfig(c_ent=0.03, gamma_outer=0.97, lr=0.2),
        horizon=8,
        buffer_capacity=32,
        batch_size=16,
        updates_per_iteration=5,
    )
    for seed in range(4):
        result = train(mdp, cfg, iterations=6, seed=seed)
        model, losses = reference_train(mdp, cfg, 6, seed)
        assert result.model.params.tobytes() == model.params.tobytes()
        assert result.losses.tobytes() == losses.tobytes()


def test_policy_return_trend_on_chain():
    # smoothed exact return of the stochastic policy trends upward over
    # a training run, within a 5%-of-optimal slack
    mdp = make_chain(5)
    cfg = TrainConfig(
        planner=PlannerConfig(
            k=4, depth=4, resample_period=3, alpha=0.1, temperature=0.1, sigma=0.5,
            proposal_mode="trust_region", inference_mode="message_passing",
            resample_mode="revived",
        ),
        loss=LossConfig(c_ent=0.03, gamma_outer=0.97, lr=0.2),
        horizon=16,
        buffer_capacity=256,
        batch_size=64,
        updates_per_iteration=16,
    )
    result = train(mdp, cfg, iterations=200, seed=2)
    window = 20
    kernel = np.ones(window) / window
    smoothed = np.convolve(result.policy_returns, kernel, mode="valid")
    slack = 0.05 * 1.0  # optimal return on this chain is 1
    assert (np.diff(smoothed) >= -slack).all()
    assert smoothed[-1] > smoothed[0]


@pytest.mark.parametrize(
    "fields",
    [{"lambda_outer": 1.5}, {"gamma_outer": 2.0}, {"lambda_outer": 1.5, "gamma_outer": 2.0},
     {"lambda_outer": -0.1}, {"gamma_outer": -0.5}],
)
def test_loss_config_bounds_outer_trace_and_discount(fields):
    with pytest.raises(ContractError, match="must lie in"):
        LossConfig(**fields)
    LossConfig(lambda_outer=0.0, gamma_outer=1.0)
    LossConfig(lambda_outer=1.0, gamma_outer=0.0)


def _count_entry_points():
    """Each entry point that takes a count, called with ``n`` as it."""
    mdp = make_chain(3)
    cfg = TrainConfig(planner=PlannerConfig(k=4, depth=2), horizon=2, batch_size=4)
    policy = np.full((mdp.n_states, mdp.n_actions), 0.5)
    model = Model.zeros(mdp.n_states, mdp.n_actions)
    return {
        "train": lambda n: train(mdp, cfg, n, 0),
        "collect_segment": lambda n: collect_segment(mdp, model, cfg.planner, n, 0),
        "ReplayBuffer": lambda n: ReplayBuffer(n, mdp.n_actions),
        "soft_value_iteration": lambda n: soft_value_iteration(mdp, policy, n, 1.0),
        "posterior_policy_stages": lambda n: posterior_policy_stages(mdp, policy, n, 1.0),
        "policy_value": lambda n: policy_value(mdp, policy, n),
        "optimal_policy": lambda n: optimal_policy(mdp, n),
        "enumerate_trajectories": lambda n: enumerate_trajectories(mdp, 0, policy, n),
        "exact_posterior_trajectories": lambda n: exact_posterior_trajectories(
            mdp, policy, 0, n, 1.0
        ),
        "elbo_and_gap": lambda n: elbo_and_gap(mdp, policy, policy, 0, n, 1.0),
    }


@pytest.mark.parametrize("entry", sorted(_count_entry_points()))
@pytest.mark.parametrize("count", [2.5, True, 2.0])
def test_count_arguments_must_be_integers(entry, count):
    call = _count_entry_points()[entry]
    with pytest.raises(ContractError, match="must be an integer"):
        call(count)
    call(2)
