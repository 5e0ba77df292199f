"""Config loading, experiment drivers, output files, and the CLI."""

import json

import numpy as np
import pytest

from smcplan import ConfigError, ContractError, bootstrap_ci
from smcplan import rng as rng_mod
from smcplan.cli import main
from smcplan.harness import (
    config_from_dict,
    config_to_dict,
    kl_to_reference,
    load_config,
    make_env,
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


def test_kl_to_reference_handles_zero_mass():
    ref = np.array([0.5, 0.5])
    assert kl_to_reference(ref, np.array([1.0, 0.0])) < np.inf
    assert kl_to_reference(ref, ref) == pytest.approx(0.0, abs=1e-9)


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
        make_env(data["env"], source="cfg.json")


def test_config_round_trip(tmp_out):
    config = config_from_dict(
        base_config(tmp_out, sweep={"planner.depth": [1, 2]}, iterations=7)
    )
    again = config_from_dict(config_to_dict(config))
    assert again == config


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
    resolved = load_config(out_a / "config.resolved.json")
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
    "overrides",
    [
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
    ],
    ids=["horizon", "batch_size", "iterations", "sweep_planner_k", "sweep_iterations",
         "sweep_gamma_outer", "path_degeneracy_horizon", "planner_k_float",
         "horizon_float", "sweep_planner_depth_float", "seeds_bool", "eval_horizon",
         "env_chain_zero", "env_gridworld_no_height", "env_n_states_float",
         "env_reward_null", "env_transition_nan", "s0_out_of_range", "s0_terminal",
         "sweep_s0_out_of_range", "seeds_duplicate"],
)
def test_cli_rejects_bad_values_at_load(tmp_path, overrides):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(out, **overrides)))
    assert main([str(config_path)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("reader", [load_config, main])
def test_malformed_json_names_file_and_line(tmp_path, capsys, reader):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": "train",\n  oops\n}\n')
    if reader is main:
        assert main([str(path)]) == 2
        assert "broken.json:3: " in capsys.readouterr().err
    else:
        with pytest.raises(ConfigError, match=r"broken\.json:3: "):
            reader(path)


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
        ]
    )
    assert code == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["seeds"] == [7]
    assert resolved["planner"]["depth"] == 3
    assert resolved["loss"]["lr"] == 0.05


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
