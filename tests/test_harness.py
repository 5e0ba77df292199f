"""Config loading, experiment drivers, output files, and the CLI."""

import json
import math
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcplan import ConfigError, ContractError, LossConfig, PlannerConfig, bootstrap_ci
from smcplan import harness
from smcplan import rng as rng_mod
from smcplan.cli import main
from smcplan.harness import (
    POLICY_FLOOR,
    _apply_sweep_point,
    config_from_dict,
    config_to_dict,
    kl_to_reference,
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
    cell = _apply_sweep_point(config, {k: v[-1] for k, v in sweep.items()})
    assert (cell.iterations, cell.train.horizon) == (2, 3)
    assert (cell.train.loss.lr, cell.train.planner.k) == (0.2, 8)


@pytest.mark.parametrize("reader", [main])
def test_malformed_json_names_file_and_line(tmp_path, capsys, reader):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": "train",\n  oops\n}\n')
    assert reader([str(path)]) == 2
    assert "broken.json:3: " in capsys.readouterr().err


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
