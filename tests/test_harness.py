"""Config loading, experiment drivers, output files, and the CLI."""

import json
import logging
import math
import tracemalloc
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcplan import ConfigError, ContractError, ExperimentConfig, LossConfig, PlannerConfig
from smcplan import TrainConfig, bootstrap_ci, builtin_mdp, make_chain, make_two_arm, mdp_from_dict
from smcplan import harness
from smcplan import mdp as mdp_mod
from smcplan import rng as rng_mod
from smcplan.cli import main
from smcplan.harness import (
    POLICY_FLOOR,
    _apply_sweep_point,
    config_from_dict,
    config_to_dict,
    kl_to_reference,
    run,
)


def base_config(output_dir, **overrides):
    data = {
        "experiment": "oracle_convergence",
        "env": {"name": "two_arm"},
        "planner": {"k": 64, "depth": 2},
        "seeds": [0, 1],
        "output_dir": str(output_dir),
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------- pieces


def test_bootstrap_ci_constant_samples():
    lo, hi = bootstrap_ci([2.0] * 10, 0.99, 500, rng_mod.stream(0))
    assert lo == hi == 2.0


def test_bootstrap_ci_zero_level_collapses_to_median():
    lo, hi = bootstrap_ci([1.0, 2.0, 3.0], 0.0, 500, rng_mod.stream(1))
    assert lo == hi


def test_bootstrap_ci_binomial_sanity():
    samples = [0.0, 1.0] * 50
    lo, hi = bootstrap_ci(samples, 0.99, 10_000, rng_mod.stream(2))
    assert lo < 0.5 < hi
    assert hi - lo < 0.3


def test_bootstrap_ci_needs_two_samples():
    with pytest.raises(ContractError):
        bootstrap_ci([1.0], 0.99, 100, rng_mod.stream(0))


@pytest.mark.parametrize("resamples", [0, -1, 2.5, True])
def test_bootstrap_ci_needs_a_positive_whole_resample_count(resamples):
    # 0 used to fail as an IndexError inside np.percentile
    with pytest.raises(ContractError, match="resamples must"):
        bootstrap_ci([1.0, 2.0], 0.99, resamples, rng_mod.stream(0))


def one_shot_bootstrap_ci(samples, level, resamples, rng):
    """The interval from one ``(resamples, n)`` draw, kept as the
    reference for the blocked draw."""
    samples = np.asarray(samples, dtype=float)
    means = samples[rng.integers(0, samples.size, size=(resamples, samples.size))].mean(axis=1)
    if level == 0.0:
        med = float(np.median(means))
        return med, med
    lo = float(np.percentile(means, 100.0 * (1.0 - level) / 2.0))
    hi = float(np.percentile(means, 100.0 * (1.0 + level) / 2.0))
    return lo, hi


@pytest.mark.parametrize("n", [2, 3, 7, 200, 1001])
@pytest.mark.parametrize("resamples", [1, 500, 2000, 2001])
@pytest.mark.parametrize("level", [0.0, 0.99])
def test_bootstrap_ci_equals_the_one_shot_draw_bit_for_bit(n, resamples, level):
    # blocks hold 32768 // n rows, so most of these counts end in a part block
    samples = rng_mod.stream(n, 1).normal(size=n)
    got = bootstrap_ci(samples, level, resamples, rng_mod.stream(0, n))
    assert got == one_shot_bootstrap_ci(samples, level, resamples, rng_mod.stream(0, n))


def test_bootstrap_ci_memory_does_not_grow_with_the_resample_count():
    # one (2000, 1000) draw of indices and gathered values takes 32 MB
    tracemalloc.start()
    try:
        bootstrap_ci(np.arange(1000.0), 0.99, 2000, rng_mod.stream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_kl_to_reference_handles_zero_mass():
    ref = np.array([0.5, 0.5])
    assert kl_to_reference(ref, np.array([1.0, 0.0])) < np.inf
    assert kl_to_reference(ref, ref) == pytest.approx(0.0, abs=1e-9)


def kl_over_support(reference, policy) -> float:
    """The metric's former own divergence, kept as its reference: the
    sum runs over the reference's support, compressed out of the array."""
    reference = np.asarray(reference, dtype=float)
    smoothed = np.maximum(np.asarray(policy, dtype=float), POLICY_FLOOR)
    smoothed = smoothed / smoothed.sum()
    support = reference > 0
    return float(
        np.sum(reference[support] * (np.log(reference[support]) - np.log(smoothed[support])))
    )


@st.composite
def policy_pairs(draw):
    """A reference and a planner policy over 1-300 actions, each with
    exact zeros (the reference keeps at least one positive entry)."""
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    rows = gen.random((2, n)) ** draw(st.sampled_from([1.0, 4.0, 30.0]))
    rows[gen.random((2, n)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = 0.0
    rows[0, gen.integers(n)] += 1.0
    if not rows[1].any():
        rows[1, gen.integers(n)] = 1.0
    return rows[0] / rows[0].sum(), rows[1] / rows[1].sum()


@settings(max_examples=300, deadline=None)
@given(policy_pairs())
def test_kl_to_reference_matches_the_support_sum_bit_for_bit(pair):
    reference, policy = pair
    assert kl_to_reference(reference, policy) == kl_over_support(reference, policy)


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_keys(tmp_out):
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(base_config(tmp_out, bogus=1))


def test_config_rejects_unknown_sweep_target(tmp_out):
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict(base_config(tmp_out, sweep={"planner.warp": [1]}))


def test_config_rejects_bad_planner_field(tmp_out):
    data = base_config(tmp_out)
    data["planner"]["k"] = 0
    with pytest.raises(ConfigError, match="planner"):
        config_from_dict(data)


def test_config_seed_count_shorthand(tmp_out):
    config = config_from_dict(base_config(tmp_out, seeds=3))
    assert config.seeds == (0, 1, 2)


def test_config_env_inline_validation(tmp_out):
    data = base_config(tmp_out)
    data["env"] = {"n_states": 1, "n_actions": 1, "transition": [[[0.5]]],
                   "reward": [[0.0]], "terminal": [False]}
    with pytest.raises(ConfigError, match="transition"):
        config_from_dict(data, source="cfg.json")
    with pytest.raises(ConfigError, match="transition"):
        mdp_from_dict(data["env"], source="env")


def test_config_round_trip(tmp_out):
    config = config_from_dict(
        base_config(tmp_out, sweep={"planner.depth": [1, 2]}, iterations=7)
    )
    again = config_from_dict(config_to_dict(config))
    assert again == config


def test_config_builds_its_mdp_from_env_alone(tmp_out):
    # an MDP can no longer be passed beside an env it does not match
    train = TrainConfig(planner=PlannerConfig(k=4, depth=2))
    with pytest.raises(TypeError, match="mdp"):
        ExperimentConfig(experiment="path_degeneracy", env={}, mdp=make_two_arm(), train=train)
    with pytest.raises(ConfigError, match="env: missing key 'n_actions'"):
        ExperimentConfig(experiment="path_degeneracy", env={}, train=train)
    with pytest.raises(ConfigError, match="env: must be an object"):
        ExperimentConfig(experiment="path_degeneracy", env=[], train=train)
    config = ExperimentConfig(
        experiment="path_degeneracy", env={"name": "chain", "n": 4}, train=train,
        iterations=3, seeds=(2, 5), sweep={"planner.depth": [1, 3]}, output_dir=str(tmp_out),
    )
    assert config.mdp.transition.tobytes() == make_chain(4).transition.tobytes()
    again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert again == config
    assert again.mdp.transition.tobytes() == config.mdp.transition.tobytes()


def test_tuple_sweep_values_and_list_seeds_round_trip(tmp_out):
    # JSON writes a tuple back as a list, and a list of seeds loads as a tuple
    config = ExperimentConfig(
        experiment="path_degeneracy", env={"name": "two_arm"},
        train=TrainConfig(planner=PlannerConfig(k=4, depth=2)),
        seeds=[3, 1], sweep={"planner.depth": (1, 3)}, output_dir=str(tmp_out),
    )
    assert (config.seeds, config.sweep) == ((3, 1), {"planner.depth": [1, 3]})
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_changing_the_env_dict_afterwards_changes_neither_env_nor_mdp():
    # the config keeps its own copy of env, nested lists included, and
    # hands out copies, so the MDP it built and the env it writes to
    # config.resolved.json agree
    env = {"name": "chain", "n": 4}
    config = ExperimentConfig(experiment="path_degeneracy", env=env,
                              train=TrainConfig(planner=PlannerConfig(k=4, depth=2)))
    env["n"] = 9
    config_to_dict(config)["env"]["n"] = 9
    assert config_to_dict(config)["env"] == {"name": "chain", "n": 4}
    assert config.mdp.n_states == mdp_from_dict(config_to_dict(config)["env"]).n_states == 5
    inline = json.loads(json.dumps(INLINE_ENV))
    config = ExperimentConfig(experiment="path_degeneracy", env=inline,
                              train=TrainConfig(planner=PlannerConfig(k=4, depth=2)))
    inline["reward"][0][0] = 7.0
    assert config.env["reward"][0][0] == config.mdp.reward[0, 0] == 1.0


def test_a_sweep_builds_its_mdp_once(tmp_out, monkeypatch):
    # no sweep key reaches the environment: loading builds the MDP once
    # and running the sweep builds it no more
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return builtin_mdp(*args, **kwargs)

    monkeypatch.setattr(mdp_mod, "builtin_mdp", counted)
    config = config_from_dict(base_config(
        tmp_out, experiment="path_degeneracy", env={"name": "absorbing_zero", "n_actions": 4},
        planner={"k": 4, "depth": 2, "resample_period": 1}, seeds=2,
        sweep={"planner.depth": [2, 4, 8, 16],
               "planner.inference_mode": ["dirac", "message_passing"]},
    ))
    assert builds == [("absorbing_zero",)]
    assert run(config) == 0
    assert builds == [("absorbing_zero",)]
    assert len(json.loads((tmp_out / "summary.json").read_text())) == 8


# ---------------------------------------------------------------- run


def test_run_writes_expected_files(tmp_out):
    config = config_from_dict(base_config(tmp_out, sweep={"planner.depth": [1, 2]}))
    assert run(config) == 0
    files = {p.name for p in tmp_out.iterdir()}
    assert files == {"metrics.csv", "summary.json", "config.resolved.json"}
    header = (tmp_out / "metrics.csv").read_text().splitlines()[0]
    assert header == "sweep_planner.depth,seed,step,metric,value"
    summary = json.loads((tmp_out / "summary.json").read_text())
    assert set(summary) == {"planner.depth=1", "planner.depth=2"}
    for point in summary.values():
        stats = point["tv_root"]
        assert stats["lo"] <= stats["mean"] <= stats["hi"]


def test_run_is_byte_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        config = config_from_dict(
            base_config(out, experiment="path_degeneracy",
                        env={"name": "absorbing_zero", "n_actions": 4},
                        planner={"k": 4, "depth": 2},
                        sweep={"planner.inference_mode": ["dirac", "message_passing"]},
                        seeds=5)
        )
        run(config)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_solves_one_reference_and_plans_once_per_cell(tmp_out, monkeypatch):
    # the benchmark marks a sweep cell by its soft_value_iteration call
    # and expects one run_planner call per cell; the planning tables are
    # built once per sweep point and shared by its cells
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append((name, out if name == "plan_tables" else kwargs.get("tables", args[-1])))
            return out

        return wrapper

    for name in ("soft_value_iteration", "run_planner", "plan_tables"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    config = config_from_dict(
        base_config(tmp_out, experiment="path_degeneracy",
                    env={"name": "absorbing_zero", "n_actions": 4},
                    planner={"k": 4, "depth": 2},
                    sweep={"planner.depth": [2, 4]},
                    seeds=3)
    )
    assert run(config) == 0
    assert [name for name, _ in calls] == (
        ["plan_tables"] + ["soft_value_iteration", "run_planner"] * 3
    ) * 2
    for point in (calls[:7], calls[7:]):
        tables = point[0][1]
        assert all(arg is tables for _, arg in point[2::2])


def test_run_refuses_overwrite_without_force(tmp_out):
    config = config_from_dict(base_config(tmp_out))
    run(config)
    with pytest.raises(ConfigError, match="force"):
        run(config)
    assert run(config, force=True) == 0


def test_resolved_config_reproduces_run(tmp_path):
    out_a = tmp_path / "a"
    config = config_from_dict(base_config(out_a, seeds=3))
    run(config)
    resolved = config_from_dict(json.loads((out_a / "config.resolved.json").read_text()))
    out_b = tmp_path / "b"
    resolved = config_from_dict(dict(config_to_dict(resolved), output_dir=str(out_b)))
    run(resolved)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_train_experiment_emits_learning_curve(tmp_out):
    config = config_from_dict(
        base_config(
            tmp_out,
            experiment="train",
            env={"name": "chain", "n": 2},
            planner={"k": 4, "depth": 2, "sigma": 0.5},
            iterations=3,
            horizon=4,
            buffer_capacity=64,
            batch_size=8,
            updates_per_iteration=2,
            seeds=[0],
        )
    )
    run(config)
    rows = (tmp_out / "metrics.csv").read_text().splitlines()[1:]
    metrics = {line.split(",")[2] for line in rows}
    assert metrics == {"greedy_return", "policy_return"}
    steps = {int(line.split(",")[1]) for line in rows}
    assert steps == {0, 1, 2}


def test_oracle_convergence_tv_shrinks_with_budget(tmp_out):
    config = config_from_dict(
        base_config(
            tmp_out,
            experiment="oracle_convergence",
            planner={"k": 100, "depth": 2},
            sweep={"planner.k": [100, 1000, 10000]},
            seeds=5,
        )
    )
    run(config)
    summary = json.loads((tmp_out / "summary.json").read_text())
    means = [summary[f"planner.k={k}"]["tv_root"]["mean"] for k in (100, 1000, 10000)]
    assert means[0] > means[1] > means[2]


def test_ablation_experiment_emits_final_returns(tmp_out):
    config = config_from_dict(
        base_config(
            tmp_out,
            experiment="ablation",
            env={"name": "chain", "n": 2},
            planner={"k": 4, "depth": 2},
            sweep={"planner.alpha": [0.0, 0.1]},
            iterations=2,
            horizon=4,
            buffer_capacity=64,
            batch_size=8,
            updates_per_iteration=1,
            seeds=[0, 1],
        )
    )
    run(config)
    summary = json.loads((tmp_out / "summary.json").read_text())
    assert set(summary) == {"planner.alpha=0.0", "planner.alpha=0.1"}
    assert "final_greedy_return" in summary["planner.alpha=0.0"]


# ---------------------------------------------------------------- cli


def test_cli_happy_path(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(out)))
    assert main([str(config_path)]) == 0
    assert (out / "metrics.csv").exists()


def test_cli_prints_one_progress_line_per_cell(tmp_path, capsys):
    data = base_config(tmp_path / "cli", experiment="path_degeneracy",
                       planner={"k": 4, "depth": 2}, sweep={"planner.depth": [1, 2]}, seeds=3)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    assert main([str(config_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"plan-run: cell {i + 1}/6 planner.depth={depth} seed {seed}"
        for i, (depth, seed) in enumerate((d, s) for d in (1, 2) for s in range(3))
    ]
    # the handler lives only for the run, and the outputs do not see it
    assert not harness.log.handlers and harness.log.level == logging.NOTSET
    assert run(config_from_dict(dict(data, output_dir=str(tmp_path / "lib")))) == 0
    for name in ("metrics.csv", "summary.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "nope"}))
    assert main([str(config_path)]) == 2
    assert main([str(tmp_path / "missing.json")]) == 2
    assert "missing.json: No such file or directory" in capsys.readouterr().err
    # a config path that cannot be read as a file is a config error too
    assert main([str(tmp_path)]) == 2
    assert f"plan-run: {tmp_path}: Is a directory" in capsys.readouterr().err


# one decision state with a single action into an absorbing terminal
INLINE_ENV = {
    "n_states": 2,
    "n_actions": 1,
    "transition": [[[0.0, 1.0]], [[0.0, 1.0]]],
    "reward": [[1.0], [0.0]],
    "terminal": [False, True],
}

TRAIN_CONFIG = {
    "experiment": "train",
    "env": {"name": "chain", "n": 2},
    "planner": {"k": 4, "depth": 2},
    "iterations": 2,
    "horizon": 4,
    "buffer_capacity": 16,
    "batch_size": 4,
    "updates_per_iteration": 1,
}


@pytest.mark.parametrize(
    "overrides,message",
    [(overrides, "") for overrides in [
        dict(TRAIN_CONFIG, horizon=0),
        dict(TRAIN_CONFIG, batch_size=0),
        dict(TRAIN_CONFIG, iterations=0),
        dict(TRAIN_CONFIG, sweep={"planner.k": [4, 0]}),
        dict(TRAIN_CONFIG, sweep={"iterations": [2, 0]}),
        dict(TRAIN_CONFIG, sweep={"loss.gamma_outer": [0.9, 1.5]}),
        {"experiment": "path_degeneracy", "env": {"name": "two_arm"},
         "planner": {"k": 4, "depth": 2}, "horizon": 0},
        dict(TRAIN_CONFIG, planner={"k": 2.5, "depth": 2}),
        dict(TRAIN_CONFIG, horizon=2.7),
        dict(TRAIN_CONFIG, sweep={"planner.depth": [2, 2.5]}),
        dict(TRAIN_CONFIG, seeds=[0, True]),
        dict(TRAIN_CONFIG, eval_horizon=-1),
        dict(TRAIN_CONFIG, env={"name": "chain", "n": 0}),
        dict(TRAIN_CONFIG, env={"name": "gridworld", "width": 2}),
        dict(TRAIN_CONFIG, env=dict(INLINE_ENV, n_states=2.7)),
        dict(TRAIN_CONFIG, env=dict(INLINE_ENV, reward=[[None], [0.0]])),
        dict(TRAIN_CONFIG, env=dict(INLINE_ENV, transition=[[[float("nan"), 1.0]], [[0.0, 1.0]]])),
        dict(TRAIN_CONFIG, env={"name": "chain", "n": 3}, s0=99),
        dict(TRAIN_CONFIG, env={"name": "chain", "n": 3}, s0=3),
        dict(TRAIN_CONFIG, env={"name": "chain", "n": 3}, sweep={"s0": [0, 7]}),
        dict(TRAIN_CONFIG, seeds=[0, 0]),
        dict(TRAIN_CONFIG, loss={"lr": math.nan}),
        dict(TRAIN_CONFIG, planner={"k": 4, "depth": 2, "temperature": math.inf}),
        dict(TRAIN_CONFIG, sweep={"loss.c_ent": [0.1, math.nan]}),
        dict(TRAIN_CONFIG, env={"name": "gridworld", "width": 3, "height": 3,
                                "traps": [[math.nan, 0]]}),
        dict(TRAIN_CONFIG, env={"name": "gridworld", "width": 3, "height": 3,
                                "traps": [[math.inf, 0]]}),
    ]]
    + [(dict(TRAIN_CONFIG, env=dict(INLINE_ENV, discount=bad)), "env: discount: must be a number")
       for bad in ("abc", None, [0.9], "0.9", True)]
    + [(dict(TRAIN_CONFIG, env=dict(INLINE_ENV, discount=10**400)), "env: ")]
    + [
        (dict(TRAIN_CONFIG, env={"name": "gridworld", "width": True, "height": 2}),
         "width must be an integer"),
        (dict(TRAIN_CONFIG, env={"name": "chain", "n": True}), "n must be an integer"),
        # a config.resolved.json written while planners had a value mode
        (dict(TRAIN_CONFIG, planner={"k": 4, "depth": 2, "value_mode": "exact"}),
         "planner.value_mode: unknown field"),
    ],
    ids=["horizon", "batch_size", "iterations", "sweep_planner_k", "sweep_iterations",
         "sweep_gamma_outer", "path_degeneracy_horizon", "planner_k_float",
         "horizon_float", "sweep_planner_depth_float", "seeds_bool", "eval_horizon",
         "env_chain_zero", "env_gridworld_no_height", "env_n_states_float",
         "env_reward_null", "env_transition_nan", "s0_out_of_range", "s0_terminal",
         "sweep_s0_out_of_range", "seeds_duplicate", "loss_lr_nan",
         "planner_temperature_infinity", "sweep_loss_c_ent_nan", "env_trap_nan",
         "env_trap_infinity", "env_discount_string", "env_discount_null", "env_discount_list",
         "env_discount_numeric_string", "env_discount_bool", "env_discount_huge_integer",
         "env_gridworld_width_bool", "env_chain_n_bool", "planner_value_mode"],
)
def test_cli_rejects_bad_values_at_load(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(out, **overrides)))
    assert main([str(config_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env", [
    {"name": "gridworld", "width": True, "height": 2},
    {"name": "chain", "n": 0},
    {"name": "no_such_env"},
    {"name": ["chain"]},
], ids=["gridworld_width_bool", "chain_zero", "unknown_name", "unhashable_name"])
def test_cli_prefixes_builtin_env_errors_with_the_config_path(tmp_path, capsys, env):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(tmp_path / "out", env=env)))
    assert main([str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"plan-run: {config_path}: env: ")


def test_cli_rejects_an_output_dir_that_is_not_a_string(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a "nan" directory would land here
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(TRAIN_CONFIG, output_dir=math.nan)))
    assert main([str(config_path)]) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def _float_fields(section):
    return [name for name, kind in get_type_hints(section).items() if kind is float]


@pytest.mark.parametrize(
    "section,name,value",
    [("planner", name, math.nan) for name in _float_fields(PlannerConfig)]
    + [("loss", name, math.nan) for name in _float_fields(LossConfig)]
    + [("planner", "temperature", math.inf), ("planner", "temperature", 0.0)]
    + [("loss", name, math.inf) for name in ("c_v", "c_pi", "c_ent", "lr")],
)
def test_cli_rejects_a_non_finite_config_field_before_writing(tmp_path, section, name, value):
    out = tmp_path / "out"
    data = base_config(out)
    data.setdefault(section, {})[name] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    assert main([str(config_path)]) == 2
    assert not out.exists()


def test_config_accepts_unbounded_clipping(tmp_out):
    data = base_config(tmp_out, loss={"clip_abs": math.inf, "clip_norm": math.inf})
    assert config_from_dict(data).train.loss.clip_norm == math.inf


@pytest.mark.parametrize(
    "key", ["planner", "loss.", "env.name", "mdp", "train", "output_dir", "seeds",
            "iterations.k", "horizon.x", "planner.k.x"],
)
def test_config_rejects_every_key_that_names_no_sweepable_field(tmp_out, key):
    with pytest.raises(ConfigError, match="does not name a configurable field"):
        config_from_dict(base_config(tmp_out, sweep={key: [1]}))


def test_config_sweeps_top_level_section_and_scalar_keys(tmp_out):
    sweep = {"iterations": [1, 2], "horizon": [3], "loss.lr": [0.2], "planner.k": [8]}
    config = config_from_dict(base_config(tmp_out, sweep=sweep))
    train, iterations = _apply_sweep_point(config, {k: v[-1] for k, v in sweep.items()})
    assert (iterations, train.horizon) == (2, 3)
    assert (train.loss.lr, train.planner.k) == (0.2, 8)


@pytest.mark.parametrize("reader", [main])
def test_malformed_json_names_file_and_line(tmp_path, capsys, reader):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": "train",\n  oops\n}\n')
    assert reader([str(path)]) == 2
    assert "broken.json:3: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"experiment": "nope"}, "experiment: must be one of"),
        ({"seeds": [1, 1]}, "seeds: must not repeat a seed"),
        ({"output_dir": ""}, "output_dir: must not be empty"),
        ({"sweep": {"planner.depth": [2, 2]}}, "sweep.planner.depth: must not repeat a value"),
    ],
)
def test_cli_names_the_config_file_for_a_bad_experiment_field(
    tmp_path, capsys, monkeypatch, overrides, message
):
    # the checks of ExperimentConfig itself carry the config path too
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**base_config(tmp_path / "out"), **overrides}))
    assert main([str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"plan-run: {config_path}: {message}")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_cli_set_seed_and_output_overrides(tmp_path):
    out = tmp_path / "cli_out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(tmp_path / "ignored")))
    code = main(
        [
            str(config_path),
            "--seed",
            "7",
            "--output",
            str(out),
            "--set",
            "planner.depth=3",
            "--set",
            "loss.lr=0.05",
            "--set",
            "planner.proposal_mode=trust_region",  # not JSON: kept as the bare string
        ]
    )
    assert code == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["seeds"] == [7]
    assert resolved["planner"]["depth"] == 3
    assert resolved["loss"]["lr"] == 0.05
    assert resolved["planner"]["proposal_mode"] == "trust_region"


def test_cli_set_overrides_a_sweep_entry(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(out, sweep={"planner.k": [4, 8]})))
    assert main([str(config_path), "--set", "sweep.planner.k=[16]"]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["sweep"] == {"planner.k": [16]}
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_planner.k,seed,")
    assert {line.split(",")[0] for line in lines[1:]} == {"16"}


def test_cli_force_required_for_rerun(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(out)))
    assert main([str(config_path)]) == 0
    assert main([str(config_path)]) == 2
    assert main([str(config_path), "--force"]) == 0
