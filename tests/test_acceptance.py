"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline statistic.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import time

import numpy as np
import pytest

from conftest import make_random_mdp
from smcplan import (
    LossConfig,
    Model,
    PlannerConfig,
    TabularMdp,
    TrainConfig,
    adaptive_epsilon,
    elbo_and_gap,
    exact_posterior_trajectories,
    grad,
    greedy_row,
    make_absorbing_zero,
    make_chain,
    make_gridworld,
    make_two_arm,
    optimal_policy,
    posterior_policy_stages,
    root_action_marginal,
    run_planner,
    soft_value_iteration,
    solve_trust_region,
    train,
)
from smcplan.harness import config_from_dict, kl_to_reference, run
from smcplan.trust_region import kl_to_prior


def _report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number}: {name}: {detail}"


def uniform_table(mdp):
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


def test_criterion_1_oracle_equivalence():
    start = time.time()
    worst = 0.0
    envs = [
        make_two_arm(),
        make_chain(3),
        make_random_mdp(4, 2, seed=17, terminal_states=(3,)),
    ]
    for mdp in envs:
        prior = uniform_table(mdp)
        for depth in (1, 2, 3, 4):
            for temperature in (1.0, 0.1):
                sol = soft_value_iteration(mdp, prior, depth, temperature)
                marginal = root_action_marginal(
                    exact_posterior_trajectories(mdp, prior, 0, depth, temperature),
                    mdp.n_actions,
                )
                worst = max(worst, 0.5 * np.abs(marginal - sol.posterior_policy[0]).sum())
    elapsed = time.time() - start
    _report(
        1,
        "recursion matches enumerated posterior",
        worst <= 1e-8 and elapsed < 1.0,
        f"max TV {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_smc_consistency():
    start = time.time()
    mdp = make_two_arm()
    prior = uniform_table(mdp)
    exact = root_action_marginal(
        exact_posterior_trajectories(mdp, prior, 0, 3, 1.0), 2
    )
    soft = soft_value_iteration(mdp, prior, 3, 1.0)
    model = Model.zeros(2, 2)
    model.v_table[:] = np.where(mdp.terminal, 0.0, soft.v_soft)
    config = PlannerConfig(k=100_000, depth=3, resample_period=1)
    worst = 0.0
    for seed in (0, 1, 2):
        out = run_planner(mdp, 0, model, config, seed=seed)
        worst = max(worst, 0.5 * float(np.abs(out.root_policy - exact).sum()))
    elapsed = time.time() - start
    _report(
        2,
        "point-mass estimator recovers exact posterior",
        worst <= 0.02 and elapsed < 30.0,
        f"max TV {worst:.4f} at K=1e5, {elapsed:.1f}s",
    )


def test_criterion_3_path_degeneracy():
    start = time.time()
    mdp = make_absorbing_zero(4)
    model = Model.zeros(1, 4)
    uniform = np.full(4, 0.25)
    depths = (2, 4, 8, 16)
    means = {}
    for mode in ("dirac", "message_passing"):
        means[mode] = []
        for depth in depths:
            config = PlannerConfig(k=4, depth=depth, resample_period=1, inference_mode=mode)
            kls = [
                kl_to_reference(uniform, run_planner(mdp, 0, model, config, seed=s).root_policy)
                for s in range(200)
            ]
            means[mode].append(float(np.mean(kls)))
    dirac = means["dirac"]
    backed = means["message_passing"]
    increasing = all(b > a for a, b in zip(dirac, dirac[1:]))
    stable = backed[-1] <= 2.0 * backed[0]
    elapsed = time.time() - start
    _report(
        3,
        "point-mass inference degenerates with depth, backups do not",
        increasing and stable and elapsed < 60.0,
        f"dirac KL {np.round(dirac, 2).tolist()}, backup KL m16/m2 "
        f"{backed[-1] / backed[0]:.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_trust_region_solver():
    start = time.time()
    rng = np.random.default_rng(1234)
    worst_violation = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        prior = rng.dirichlet(np.ones(n))
        q_values = rng.normal(size=n)
        eps = adaptive_epsilon(prior, q_values, 0.1)
        sol = solve_trust_region(prior, q_values, eps)
        # the largest radius a tilt can meet: the greedy row over the
        # prior's support
        greedy_kl = kl_to_prior(greedy_row(np.where(prior > 0, q_values, -np.inf)), prior)
        violation = sol.achieved_kl - eps
        if eps < greedy_kl:
            violation = max(violation, eps - sol.achieved_kl)
        worst_violation = max(worst_violation, violation)
    prior = np.array([0.55, 0.25, 0.2])
    q_values = np.array([0.1, 1.4, 0.3])
    exact_prior = solve_trust_region(prior, q_values, adaptive_epsilon(prior, q_values, 0.0))
    alpha_zero_ok = (exact_prior.q == prior).all()
    greedy_sol = solve_trust_region(prior, q_values, adaptive_epsilon(prior, q_values, 1.0))
    alpha_one_ok = greedy_sol.q.tolist() == [0.0, 1.0, 0.0]
    elapsed = time.time() - start
    _report(
        4,
        "constrained tilt achieves its radius",
        worst_violation <= 1e-3 and alpha_zero_ok and alpha_one_ok and elapsed < 5.0,
        f"max |KL - radius| violation {worst_violation:.2e}, endpoints exact, {elapsed:.1f}s",
    )


def test_criterion_5_ancestor_backup_exactness():
    mdp = make_two_arm()
    prior = uniform_table(mdp)
    exact = root_action_marginal(exact_posterior_trajectories(mdp, prior, 0, 1, 1.0), 2)
    config = PlannerConfig(k=100_000, depth=1, inference_mode="message_passing")
    out = run_planner(mdp, 0, Model.zeros(2, 2), config, seed=0)
    tv = 0.5 * float(np.abs(out.root_policy - exact).sum())
    _report(5, "backed-up policy matches exact posterior", tv <= 0.02, f"TV {tv:.4f}")


def test_criterion_6_elbo_identity():
    envs = [
        ("two_arm", make_two_arm(), 3),
        ("chain", make_chain(3), 4),
        ("absorbing_zero", make_absorbing_zero(4), 3),
        ("gridworld", make_gridworld(3, 3, traps=[(1, 1)]), 3),
    ]
    worst_identity = 0.0
    worst_tightness = 0.0
    rng = np.random.default_rng(55)
    for _, mdp, depth in envs:
        prior = uniform_table(mdp)
        for _ in range(100):
            proposal = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
            elbo, gap, log_z = elbo_and_gap(mdp, proposal, prior, 0, depth, 1.0)
            worst_identity = max(worst_identity, abs(elbo + gap - log_z))
        stages = posterior_policy_stages(mdp, prior, depth, 1.0)
        _, gap, _ = elbo_and_gap(mdp, stages, prior, 0, depth, 1.0)
        worst_tightness = max(worst_tightness, abs(gap))
    _report(
        6,
        "evidence decomposition identity and tightness",
        worst_identity <= 1e-8 and worst_tightness <= 1e-8,
        f"max identity error {worst_identity:.2e}, max gap at posterior {worst_tightness:.2e}",
    )


def test_criterion_7_gradient_correctness():
    from test_training import _flatten, _numeric_grad, random_batch, random_model

    worst = 0.0
    for trial in range(50):
        model = random_model(3, 2, seed=900 + trial)
        cfg = LossConfig(c_v=0.7, c_pi=1.0, c_ent=0.15)
        batch = random_batch(model, 1900 + trial, size=5)
        analytic = _flatten(grad(model, batch, cfg))
        numeric = _flatten(_numeric_grad(model, batch, cfg))
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(rel.max()))
    _report(7, "analytic gradients match finite differences", worst <= 1e-6, f"max rel err {worst:.2e}")


@pytest.mark.slow
def test_criterion_8_end_to_end_training():
    start = time.time()
    mdp = make_chain(5)
    _, v_star = optimal_policy(mdp, 16)
    optimal_return = float(v_star[0])
    config = TrainConfig(
        planner=PlannerConfig(
            k=4,
            depth=4,
            resample_period=3,
            alpha=0.1,
            temperature=0.1,
            lambda_smc=0.95,
            gamma=1.0,
            sigma=0.5,
            proposal_mode="trust_region",
            inference_mode="message_passing",
            resample_mode="revived",
        ),
        loss=LossConfig(
            c_v=0.5, c_pi=1.0, c_ent=0.03, lambda_outer=0.95, gamma_outer=0.97, lr=0.2
        ),
        horizon=16,
        buffer_capacity=256,
        batch_size=64,
        updates_per_iteration=16,
        eval_horizon=16,
    )
    passes = 0
    finals = []
    for seed in range(30):
        result = train(mdp, config, iterations=500, seed=seed)
        finals.append(float(result.greedy_returns[-1]))
        if finals[-1] >= 0.95 * optimal_return:
            passes += 1
    elapsed = time.time() - start
    _report(
        8,
        "training reaches near-optimal return on the 5-chain",
        passes >= 28 and elapsed < 600.0,
        f"{passes}/30 seeds >= 95% of optimal ({optimal_return:.2f}), {elapsed:.0f}s",
    )


def _trap_mdp() -> TabularMdp:
    # two non-terminal states exchanging under action 1; action 0 falls
    # into a zero-reward terminal trap from either of them
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = 1.0
    transition[0, 1, 2] = 1.0
    transition[2, 0, 1] = 1.0
    transition[2, 1, 0] = 1.0
    transition[1, :, 1] = 1.0
    reward = np.zeros((3, 2))
    terminal = np.array([False, True, False])
    return TabularMdp(transition, reward, terminal)


def test_criterion_9_revived_resampling_mechanism():
    mdp = _trap_mdp()
    model = Model.zeros(3, 2)
    fractions = {}
    for mode in ("baseline", "revived"):
        config = PlannerConfig(k=4, depth=9, resample_period=3, resample_mode=mode)
        stuck = []
        for seed in range(200):
            out = run_planner(mdp, 0, model, config, seed=seed)
            counts = out.diagnostics.terminal_particles
            stuck.append(float((counts > 0).mean()))
            assert abs(out.root_policy.sum() - 1.0) <= 1e-9
            assert (out.diagnostics.ess >= 1.0 - 1e-9).all()
            assert (out.diagnostics.distinct_ancestors <= config.k).all()
        fractions[mode] = float(np.mean(stuck))
    ok = fractions["revived"] < fractions["baseline"]
    _report(
        9,
        "revival keeps particles out of terminal traps",
        ok,
        f"stuck-step fraction revived {fractions['revived']:.3f} "
        f"< baseline {fractions['baseline']:.3f}",
    )


def test_criterion_10_reproducible_metrics(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = config_from_dict(
            {
                "experiment": "path_degeneracy",
                "env": {"name": "absorbing_zero", "n_actions": 4},
                "planner": {"k": 4, "depth": 4, "resample_period": 1},
                "sweep": {"planner.inference_mode": ["dirac", "message_passing"]},
                "seeds": 25,
                "output_dir": str(out),
            }
        )
        run(config)
        digests.append((out / "metrics.csv").read_bytes())
    ok = digests[0] == digests[1]
    _report(10, "identical configs give byte-identical metrics", ok, f"{len(digests[0])} bytes")
