"""Every documented precondition raises its typed error, one case per
check, and the CLI maps a runtime failure to its exit code."""

import json

import numpy as np
import pytest

from smcplan import (
    ConfigError,
    ContractError,
    DegenerateWeightsError,
    ExperimentConfig,
    LossConfig,
    Model,
    NumericalError,
    PlannerConfig,
    PlanTables,
    ReplayBuffer,
    Segment,
    TabularMdp,
    TrainConfig,
    Trajectory,
    bootstrap_ci,
    enumerate_trajectories,
    grad,
    init_particles,
    loss,
    make_absorbing_zero,
    make_gridworld,
    make_two_arm,
    mdp_from_dict,
    message_passing_policy,
    multinomial_resample,
    root_action_marginal,
    run_planner,
    soft_value_iteration,
    solve_trust_region,
)
from smcplan import rng as rng_mod
from smcplan.cli import main
from smcplan.harness import EXIT_CONFIG, EXIT_RUNTIME, config_from_dict, set_by_path
from smcplan.numerics import normalized_weights
from smcplan.planner import _SMALL_K, _init_lists

PLANNER = PlannerConfig(k=2, depth=1)
NO_ITEMS = np.zeros(0, dtype=np.intp)
EMPTY_BATCH = (NO_ITEMS, NO_ITEMS, np.zeros(0), np.zeros((0, 2)))
# one action; state 0 moves to state 1
TWO_STATES = [[[0.0, 1.0]], [[0.0, 1.0]]]
# state 0 pays a reward that overflows once divided by the temperature
# below; state 1 is terminal
OVERFLOW_ENV = {
    "n_states": 2,
    "n_actions": 1,
    "transition": TWO_STATES,
    "reward": [[1e300], [0.0]],
    "terminal": [False, True],
}
TINY_TEMPERATURE = 1e-10


def _plan_off_the_prior(k):
    """Plan with K particles on a hand-built table whose proposal draws
    only an action the prior never takes: every increment is -inf."""
    config = PlannerConfig(k=k, depth=1)
    tables = PlanTables(make_absorbing_zero(2), config, np.array([[0.0, 1.0]]),
                        np.array([[0.0, -np.inf]]), np.zeros(1))
    return run_planner(tables.mdp, 0, None, config, 0, tables)


def _mdp(transition=TWO_STATES, reward=((0.0,), (0.0,)), terminal=(False, False)):
    return TabularMdp(np.array(transition, dtype=float), np.array(reward), np.array(terminal))


def _grid_with_trap(trap):
    return {"name": "gridworld", "width": 3, "height": 3, "traps": [trap]}


def _segment(n):
    return Segment(np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), np.zeros(n),
                   np.full((n, 2), 0.5), np.zeros(n), np.zeros(n, dtype=bool), 0.0)


def _experiment(**overrides):
    fields = dict(experiment="path_degeneracy", env={"name": "two_arm"},
                  train=TrainConfig(planner=PLANNER))
    return ExperimentConfig(**{**fields, **overrides})


CASES = {
    "planner_config_mode": (
        lambda: PlannerConfig(k=1, depth=1, proposal_mode="greedy"),
        ContractError, "proposal_mode must be one of"),
    "run_planner_s0_range": (
        lambda: run_planner(make_two_arm(), 5, Model.zeros(2, 2), PLANNER, 0),
        ContractError, "out of range"),
    # K <= _SMALL_K steps over lists, larger K through advance
    "run_planner_nonfinite_increment_lists": (
        lambda: _plan_off_the_prior(_SMALL_K),
        NumericalError, "non-finite log weights"),
    "run_planner_nonfinite_increment_vector": (
        lambda: _plan_off_the_prior(_SMALL_K + 1),
        NumericalError, "non-finite log weights"),
    # a list-held set takes list weights: each check has a list route
    "resample_list_weights_shape": (
        lambda: multinomial_resample(_init_lists(0, PLANNER), [1.0], rng_mod.stream(0)),
        ContractError, r"weights must have shape \(2,\)"),
    "resample_list_weights_negative": (
        lambda: multinomial_resample(_init_lists(0, PLANNER), [1.5, -0.5], rng_mod.stream(0)),
        DegenerateWeightsError, "non-negative, finite and sum to 1"),
    "resample_list_weights_nan": (
        lambda: multinomial_resample(_init_lists(0, PLANNER), [0.5, np.nan], rng_mod.stream(0)),
        DegenerateWeightsError, "non-negative, finite and sum to 1"),
    "normalized_weights_list_nan": (
        lambda: normalized_weights([0.0, np.nan]),
        DegenerateWeightsError, "all zero or not finite"),
    "normalized_weights_list_all_zero": (
        lambda: normalized_weights([-np.inf, -np.inf]),
        DegenerateWeightsError, "all zero or not finite"),
    "resample_mode": (
        lambda: multinomial_resample(init_particles(0, PLANNER), np.full(2, 0.5),
                                     rng_mod.stream(0), "stratified"),
        ContractError, "mode must be one of"),
    "replay_sample_empty": (
        lambda: ReplayBuffer(4, 2).sample(1, rng_mod.stream(0)),
        ContractError, "empty buffer"),
    "replay_add_segment_length": (
        lambda: ReplayBuffer(4, 2).add_segment(_segment(3), np.zeros(2)),
        ContractError, "one target per step"),
    "loss_empty_batch": (
        lambda: loss(Model.zeros(2, 2), EMPTY_BATCH, LossConfig()),
        ContractError, "non-empty"),
    "grad_empty_batch": (
        lambda: grad(Model.zeros(2, 2), EMPTY_BATCH, LossConfig()),
        ContractError, "non-empty"),
    "message_passing_shapes": (
        lambda: message_passing_policy([0.5, 0.5], [0, 1], [0.0]),
        ContractError, "equal-length vectors"),
    "message_passing_action_range": (
        lambda: message_passing_policy([0.5, 0.5], [0, 2], [0.0, 0.0]),
        ContractError, "out of range"),
    "mdp_transition_shape": (
        lambda: _mdp([[0.0, 1.0], [0.0, 1.0]]),
        ContractError, "transition must have shape"),
    "mdp_no_states": (
        lambda: _mdp(np.zeros((0, 1, 0)), np.zeros((0, 1)), ()),
        ContractError, "at least one state"),
    "mdp_reward_shape": (
        lambda: _mdp(reward=((0.0,),)),
        ContractError, "reward must have shape"),
    "mdp_terminal_shape": (
        lambda: _mdp(terminal=(False,)),
        ContractError, "terminal must have shape"),
    "mdp_negative_transition": (
        lambda: _mdp([[[1.5, -0.5]], [[0.0, 1.0]]]),
        ContractError, "non-negative"),
    "mdp_terminal_self_loop": (
        lambda: _mdp([[[0.0, 1.0]], [[1.0, 0.0]]], terminal=(False, True)),
        ContractError, "must self-loop"),
    "trajectory_rewards": (
        lambda: Trajectory((0, 1), (0,), ()),
        ContractError, "one reward per action"),
    "gridworld_trap_outside": (
        lambda: make_gridworld(2, 2, traps=[(5, 5)]),
        ContractError, "outside the 2x2 grid"),
    "gridworld_trap_on_goal": (
        lambda: make_gridworld(2, 2, traps=[(1, 1)]),
        ContractError, "goal cell cannot be a trap"),
    # a trap that is not a [row, col] pair is a config error naming it
    "gridworld_trap_one_coordinate": (
        lambda: mdp_from_dict(_grid_with_trap([1])),
        ConfigError, r"environment 'gridworld': trap \[1\] must be a \[row, col\] pair"),
    "gridworld_trap_object": (
        lambda: mdp_from_dict(_grid_with_trap({"a": 1})),
        ConfigError, r"trap \{'a': 1\} must be a \[row, col\] pair"),
    "gridworld_trap_three_coordinates": (
        lambda: mdp_from_dict(_grid_with_trap([1, 2, 3])),
        ConfigError, r"trap \[1, 2, 3\] must be a \[row, col\] pair"),
    "gridworld_trap_ragged": (
        lambda: mdp_from_dict(_grid_with_trap([1, [2]])),
        ConfigError, r"trap \[1, \[2\]\] must be a \[row, col\] pair of integers"),
    "gridworld_trap_not_numbers": (
        lambda: mdp_from_dict(_grid_with_trap([1.5, "x"])),
        ConfigError, r"trap \[1.5, 'x'\] must be a \[row, col\] pair of integers"),
    "gridworld_trap_fractional_row": (
        lambda: mdp_from_dict(_grid_with_trap([1.5, 0])),
        ConfigError, r"trap \[1.5, 0\] must be a \[row, col\] pair of integers"),
    "policy_table_shape": (
        lambda: soft_value_iteration(make_two_arm(), np.full((2, 3), 1 / 3), 1, 1.0),
        ContractError, "prior must have shape"),
    "policy_stages_too_few": (
        lambda: enumerate_trajectories(make_two_arm(), 0, np.full((1, 2, 2), 0.5), 2),
        ContractError, "provides 1 stages, need 2"),
    "policy_stages_ndim": (
        lambda: enumerate_trajectories(make_two_arm(), 0, [0.5, 0.5], 1),
        ContractError, "table or a stack"),
    "enumerate_s0_range": (
        lambda: enumerate_trajectories(make_two_arm(), 2, np.full((2, 2), 0.5), 1),
        ContractError, "out of range"),
    "root_marginal_without_action": (
        lambda: root_action_marginal([(Trajectory((0,), (), ()), 1.0)], 2),
        ContractError, "no root action"),
    "mdp_from_dict_not_object": (
        lambda: mdp_from_dict([]),
        ConfigError, "must be an object"),
    "mdp_from_dict_malformed_tensor": (
        lambda: mdp_from_dict({**OVERFLOW_ENV, "reward": [[0.0], [0.0, [1.0]]]}),
        ConfigError, "malformed tensor"),
    "config_not_object": (
        lambda: config_from_dict([]),
        ConfigError, "config must be an object"),
    "config_env_not_object": (
        lambda: config_from_dict({"experiment": "path_degeneracy", "env": [],
                                  "planner": {"k": 2, "depth": 1}}),
        ConfigError, "env: must be an object"),
    "config_section_not_object": (
        lambda: config_from_dict({"experiment": "path_degeneracy", "env": {"name": "two_arm"},
                                  "planner": 3}),
        ConfigError, "planner: must be an object"),
    "experiment_name": (
        lambda: _experiment(experiment="tune"),
        ConfigError, "experiment: must be one of"),
    "experiment_no_seeds": (
        lambda: _experiment(seeds=()),
        ConfigError, "at least one seed"),
    "experiment_repeated_seed": (
        lambda: _experiment(seeds=(1, 1)),
        ConfigError, "must not repeat"),
    "experiment_sweep_values": (
        lambda: _experiment(sweep={"planner.k": 4}),
        ConfigError, "non-empty list"),
    # an ExperimentConfig built in Python is checked as fully as a loaded one
    "experiment_seed_not_int": (
        lambda: _experiment(seeds=("a",)),
        ConfigError, "seeds: must be an integer count or list of integers"),
    "experiment_seed_float": (
        lambda: _experiment(seeds=(1.5,)),
        ConfigError, "seeds: must be an integer count or list of integers"),
    "experiment_seeds_not_a_list": (
        lambda: _experiment(seeds=5),
        ConfigError, "seeds: must be an integer count or list of integers"),
    "experiment_sweep_not_object": (
        lambda: _experiment(sweep=[1]),
        ConfigError, "sweep: must be an object"),
    "experiment_sweep_key_not_a_string": (
        lambda: _experiment(sweep={1: [2]}),
        ConfigError, "sweep: must be an object with string keys"),
    "experiment_sweep_unknown_field": (
        lambda: _experiment(sweep={"planner.warp": [1]}),
        ConfigError, r"sweep point \{'planner.warp': 1\}: sweep.planner.warp: does not name"),
    "experiment_sweep_cell": (
        lambda: _experiment(sweep={"planner.k": [4, 0]}),
        ConfigError, r"sweep point \{'planner.k': 0\}: k must lie"),
    "experiment_sweep_iterations": (
        lambda: _experiment(sweep={"iterations": [2, 0]}),
        ConfigError, r"sweep point \{'iterations': 0\}: iterations must lie"),
    "experiment_s0_range": (
        lambda: _experiment(train=TrainConfig(planner=PLANNER, s0=9)),
        ConfigError, r"^s0: state 9 out of range \[0, 2\)"),
    "experiment_s0_terminal": (
        lambda: _experiment(train=TrainConfig(planner=PLANNER, s0=1)),
        ConfigError, "^s0: state 1 is terminal"),
    "experiment_sweep_s0_terminal": (
        lambda: _experiment(sweep={"s0": [0, 1]}),
        ConfigError, r"sweep point \{'s0': 1\}: s0: state 1 is terminal"),
    "experiment_repeated_sweep_value": (
        lambda: _experiment(sweep={"planner.depth": [2, 2]}),
        ConfigError, "sweep.planner.depth: must not repeat a value"),
    "experiment_repeated_sweep_label": (
        lambda: _experiment(sweep={"planner.inference_mode": ["dirac", "dirac"]}),
        ConfigError, "sweep.planner.inference_mode: must not repeat a value"),
    "experiment_empty_output_dir": (
        lambda: _experiment(output_dir=""),
        ConfigError, "output_dir: must not be empty"),
    "set_by_path_non_section": (
        lambda: set_by_path({"planner": 3}, "planner.k", 4),
        ConfigError, "is not a section"),
    "bootstrap_level": (
        lambda: bootstrap_ci([0.0, 1.0], 1.0, 10, rng_mod.stream(0)),
        ContractError, "level must lie"),
    "soft_value_overflow": (
        lambda: soft_value_iteration(mdp_from_dict(OVERFLOW_ENV), np.ones((2, 1)), 1,
                                     TINY_TEMPERATURE),
        NumericalError, "overflowed"),
    "trust_region_prior_shape": (
        lambda: solve_trust_region([[0.5, 0.5]], [0.0, 1.0], 0.1),
        ContractError, "non-empty vector"),
    "trust_region_value_shape": (
        lambda: solve_trust_region([0.5, 0.5], [0.0, 1.0, 2.0], 0.1),
        ContractError, "same length"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_check_raises_its_typed_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_cli_exits_3_on_a_runtime_error_without_a_warning(tmp_path, capsys):
    # the reward overflows when scaled by the temperature; the oracle
    # reports it as a NumericalError, not as a numpy overflow warning
    # (which this suite turns into an error)
    config = {
        "experiment": "path_degeneracy",
        "env": OVERFLOW_ENV,
        "planner": {"k": 2, "depth": 1, "temperature": TINY_TEMPERATURE},
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "overflow.json"
    config_path.write_text(json.dumps(config))
    assert main([str(config_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("plan-run: NumericalError: soft values overflowed")


def test_cli_exits_2_on_an_override_without_a_value(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config = {"experiment": "path_degeneracy", "env": {"name": "two_arm"},
              "planner": {"k": 2, "depth": 1}}
    config_path.write_text(json.dumps(config))
    assert main([str(config_path), "--set", "planner.k"]) == EXIT_CONFIG
    assert "expected key=value" in capsys.readouterr().err
