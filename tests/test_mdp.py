"""Environment construction, stepping, and trajectory enumeration."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FixedUniforms, make_random_mdp
from smcplan import (
    BudgetError,
    ConfigError,
    ContractError,
    TabularMdp,
    Trajectory,
    builtin_mdp,
    enumerate_trajectories,
    make_absorbing_zero,
    make_chain,
    make_gridworld,
    make_two_arm,
    mdp_from_dict,
    step,
)
from smcplan import rng as rng_mod


def mdp_to_dict(mdp):
    """The JSON form :func:`mdp_from_dict` reads."""
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "terminal": mdp.terminal.tolist(),
        "discount": mdp.discount,
    }

ALL_BUILTINS = [
    make_two_arm(),
    make_chain(3),
    make_absorbing_zero(4),
    make_gridworld(3, 3, traps=[(1, 1)]),
]


# builder, arguments -> sha256 over the dtype, shape and bytes of each
# table an MDP holds (transition, reward, terminal, successor_states,
# successor_cdf) and then the discount's repr; recorded from the code
# that wrote each builtin's transition tensor by hand
GOLDEN_BUILTINS = [
    (make_two_arm, dict(),
     "79ccfd1978100dd0f0184ce00c92faeb69790f5fb8ccc2250ddff4d49add197d"),
    (make_chain, dict(n=1, goal_reward=1.0),
     "510bc44956713aaa47efc6823b956b025c98b1b15bb45862c1b4ac025a1811d2"),
    (make_chain, dict(n=1, goal_reward=2.5),
     "7525e3095eab9ffc10d22b0e54cb4c650b166eff94a308dec7f8a9cdf7503ff8"),
    (make_chain, dict(n=2, goal_reward=1.0),
     "897f43362ce3f069a43ef1ca14e0045de778fee46a39c6969024a27ec7142593"),
    (make_chain, dict(n=2, goal_reward=2.5),
     "c425cdcf2b9581d3022531391b0efef2705ebd46b0e0f21499b1c5ee2f2bd414"),
    (make_chain, dict(n=3, goal_reward=1.0),
     "d9478dd7ac05c42b88a9be77bbd26ad29da453ae9f2bb272b6293db0ef2e8992"),
    (make_chain, dict(n=3, goal_reward=2.5),
     "05025395727ab90466db08808634696dd99b9e8f969601d9fbd57c86252c487b"),
    (make_chain, dict(n=5, goal_reward=1.0),
     "5f5661d5adcfe7c28dbd863006769914ac13937bbbb92e612b21b4a556550bd2"),
    (make_chain, dict(n=5, goal_reward=2.5),
     "4296c449e51a6fda82bcc6f3a04517c2c2ebca43d212847cba11ab1d588cd304"),
    (make_chain, dict(n=9, goal_reward=1.0),
     "92d7e978bd96037cca5f28c4030bc48083fe9218dc3aa4e9d3445fd51a759cf9"),
    (make_chain, dict(n=9, goal_reward=2.5),
     "4736ded70e208f22a570c13eb02b64b81cfc222fe747a5b40aeccbe69fb51919"),
    (make_absorbing_zero, dict(n_actions=1),
     "c4f60eeb387793964f5a9c087fd429c7930210ad2cddc798377e2a05c5eb8704"),
    (make_absorbing_zero, dict(n_actions=2),
     "f7121dfd840d97af928871d50fd8a3893566f0a33a29e190094267c5df3384db"),
    (make_absorbing_zero, dict(n_actions=3),
     "7e85206095c9057243f14505c5fc3bda36b2c215144dc8502d649e25531640ca"),
    (make_absorbing_zero, dict(n_actions=4),
     "64feb0184e3bc66cd51589721250da7a6b541c9d290b4fbaf0e0d86d7002e41f"),
    (make_absorbing_zero, dict(n_actions=5),
     "61c8e11e090bc5a4f594e3c87159873c402f10852f816195b81ecf6b3600dff6"),
    (make_absorbing_zero, dict(n_actions=6),
     "440495989e5460c4be7a3cef4826a0d2ffd15e3550e22dde588d4f485aec3e4a"),
    (make_absorbing_zero, dict(n_actions=7),
     "f1ad080a001e7b8c54b21fd4d3956d1a5b8cb38e0c0dcd6794df47fd151a6941"),
    (make_gridworld, dict(width=1, height=1),
     "9eb8f5aa57b66f02c478593e7d5041e6cdb06c7d7ac4ef2027d75bd5110aa8ff"),
    (make_gridworld, dict(width=3, height=1),
     "648a26b45e655fb2e77185b77c8744369c97cf6659f880aa4e2aed84dc6d05a5"),
    (make_gridworld, dict(width=1, height=3),
     "d3cee2b5473effbb0e014b55c5085c054b85522f13af67f0c5abafbfc3acb2cd"),
    (make_gridworld, dict(width=2, height=2),
     "d95131d24441886a030cebfcbe1b6b3f22730f86d2f75c3f5f7f365c1b2e0457"),
    (make_gridworld, dict(width=8, height=8),
     "fee8dbcdfa2a3d44d42b42e3f775ba86fc76f07816d6a0ba93f749aab935248a"),
    (make_gridworld, dict(width=3, height=3, traps=[(1, 1)]),
     "7858e346483bd1fb7bbfac23d885843f6ad9c3716def3babb41d9507de17e601"),
    (make_gridworld, dict(width=4, height=3, traps=[[0, 2], [2, 1], [0, 2]]),
     "c891a28301e4209998a1eb7f87a5c83abd7382fff3c90093274124d609525a32"),
    (make_gridworld, dict(width=8, height=8, traps=[(0, 7), (3, 3), (7, 0)]),
     "8425634dccb310df6baa4108195c66536393b609936e8150870119dccee5f5e0"),
]


def _tables_digest(mdp):
    digest = hashlib.sha256()
    for name in ("transition", "reward", "terminal", "successor_states", "successor_cdf"):
        table = getattr(mdp, name)
        digest.update(f"{name} {table.dtype.str} {table.shape}".encode())
        digest.update(table.tobytes())
    digest.update(repr(mdp.discount).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("builder, args, expected", GOLDEN_BUILTINS)
def test_builtin_tables_are_pinned(builder, args, expected):
    assert _tables_digest(builder(**args)) == expected


@pytest.mark.parametrize("mdp", ALL_BUILTINS)
def test_transition_rows_are_stochastic(mdp):
    assert np.abs(mdp.transition.sum(axis=2) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("mdp", ALL_BUILTINS)
def test_terminal_states_absorb_with_zero_reward(mdp):
    for s in np.flatnonzero(mdp.terminal):
        for a in range(mdp.n_actions):
            for seed in range(5):
                nxt, reward, terminal = step(mdp, int(s), a, rng_mod.stream(seed))
                assert (nxt, reward, terminal) == (s, 0.0, True)


def test_two_arm_step_is_deterministic():
    mdp = make_two_arm()
    assert step(mdp, 0, 1, rng_mod.stream(0)) == (1, 1.0, True)
    assert step(mdp, 0, 0, rng_mod.stream(0)) == (1, 0.0, True)


def test_chain_moves_right():
    mdp = make_chain(3)
    assert step(mdp, 0, 1, rng_mod.stream(0)) == (1, 0.0, False)
    assert step(mdp, 2, 1, rng_mod.stream(0)) == (3, 1.0, True)
    assert step(mdp, 0, 0, rng_mod.stream(0)) == (0, 0.0, False)


def test_step_rejects_out_of_range():
    mdp = make_two_arm()
    with pytest.raises(ContractError):
        step(mdp, 5, 0, rng_mod.stream(0))
    with pytest.raises(ContractError):
        step(mdp, 0, 2, rng_mod.stream(0))


def test_absorbing_zero_shape():
    mdp = make_absorbing_zero(4)
    assert mdp.n_states == 1
    assert mdp.n_actions == 4
    assert not mdp.terminal[0]
    assert (mdp.reward == 0).all()
    nxt, reward, terminal = step(mdp, 0, 2, rng_mod.stream(7))
    assert (nxt, reward, terminal) == (0, 0.0, False)


def test_constructors_reject_zero_dimensions():
    with pytest.raises(ContractError):
        make_chain(0)
    with pytest.raises(ContractError):
        make_absorbing_zero(0)
    with pytest.raises(ContractError):
        make_gridworld(0, 3)


def test_invariant_violations_rejected():
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 0] = 0.5  # row does not sum to 1
    transition[1, 0, 1] = 1.0
    with pytest.raises(ContractError):
        TabularMdp(transition, np.zeros((2, 1)), np.array([False, True]))
    # terminal state with reward breaks the absorbing contract
    transition[0, 0, 0] = 1.0
    with pytest.raises(ContractError):
        TabularMdp(transition, np.array([[0.0], [1.0]]), np.array([False, True]))


def test_trajectory_length_contract():
    with pytest.raises(ContractError):
        Trajectory(states=(0, 1), actions=(), rewards=())
    Trajectory(states=(0, 1), actions=(1,), rewards=(0.5,))


@pytest.mark.parametrize("mdp", ALL_BUILTINS)
@pytest.mark.parametrize("depth", [1, 3, 6])
def test_enumeration_total_probability(mdp, depth):
    uniform = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    pairs = enumerate_trajectories(mdp, 0, uniform, depth)
    assert abs(sum(p for _, p in pairs) - 1.0) <= 1e-9
    for traj, p in pairs:
        expected = 1.0
        for t, (s, a) in enumerate(zip(traj.states, traj.actions)):
            expected *= uniform[s, a] * mdp.transition[s, a, traj.states[t + 1]]
        assert p == pytest.approx(expected, abs=1e-12)


def test_enumeration_two_arm_depth_one():
    pairs = enumerate_trajectories(make_two_arm(), 0, np.full((2, 2), 0.5), 1)
    assert len(pairs) == 2
    assert all(p == pytest.approx(0.5) for _, p in pairs)


def test_enumeration_absorbing_zero_stays_home():
    pairs = enumerate_trajectories(make_absorbing_zero(3), 0, np.full((1, 3), 1 / 3), 4)
    assert len(pairs) == 3**4
    for traj, _ in pairs:
        assert set(traj.states) == {0}


def test_enumeration_deterministic_policy_single_path():
    mdp = make_chain(3)
    right = np.zeros((4, 2))
    right[:, 1] = 1.0
    pairs = enumerate_trajectories(mdp, 0, right, 3)
    assert len(pairs) == 1
    traj, p = pairs[0]
    assert p == pytest.approx(1.0)
    assert traj.states == (0, 1, 2, 3)
    assert traj.rewards == (0.0, 0.0, 1.0)


def test_enumeration_budget_guard():
    mdp = make_absorbing_zero(4)
    uniform = np.full((1, 4), 0.25)
    with pytest.raises(BudgetError):
        enumerate_trajectories(mdp, 0, uniform, 12)


def test_builtin_registry():
    mdp = builtin_mdp("chain", n=5, goal_reward=2.0)
    assert mdp.n_states == 6
    with pytest.raises(ConfigError):
        builtin_mdp("no_such_env")
    with pytest.raises(ConfigError):
        builtin_mdp("chain", bogus=1)
    with pytest.raises(ConfigError, match="chain length"):
        builtin_mdp("chain", n=0)
    # mdp_from_dict reads a builtin's description as well as inline tensors
    loaded = mdp_from_dict({"name": "chain", "n": 5, "goal_reward": 2.0})
    assert _tables_digest(loaded) == _tables_digest(mdp)
    with pytest.raises(ConfigError, match=r"^env\.json: environment 'chain': chain length"):
        mdp_from_dict({"name": "chain", "n": 0}, source="env.json")
    with pytest.raises(ConfigError, match=r"^env\.json: unknown environment 'nope'"):
        mdp_from_dict({"name": "nope"}, source="env.json")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_tensors_rejected(bad):
    good = make_two_arm()
    transition = good.transition.copy()
    transition[0, 0] = [bad, 1.0]
    reward = good.reward.copy()
    reward[0, 1] = bad
    with pytest.raises(ContractError, match="transition has non-finite"):
        TabularMdp(transition, good.reward, good.terminal)
    with pytest.raises(ContractError, match="reward has non-finite"):
        TabularMdp(good.transition, reward, good.terminal)
    data = dict(mdp_to_dict(good), reward=reward.tolist())
    with pytest.raises(ConfigError, match="env.json: reward has non-finite"):
        mdp_from_dict(data, source="env.json")
    # JSON null loads as nan
    data = dict(mdp_to_dict(good), reward=[[0.0, None], [0.0, 0.0]])
    with pytest.raises(ConfigError, match="reward has non-finite"):
        mdp_from_dict(data)


def test_json_round_trip():
    mdp = make_gridworld(2, 2)
    loaded = mdp_from_dict(json.loads(json.dumps(mdp_to_dict(mdp))))
    assert np.array_equal(loaded.transition, mdp.transition)
    assert np.array_equal(loaded.reward, mdp.reward)
    assert np.array_equal(loaded.terminal, mdp.terminal)
    assert loaded.discount == mdp.discount


def test_json_loader_rejections():
    good = mdp_to_dict(make_two_arm())

    bad = dict(good)
    bad["transition"] = [[[0.5, 0.4], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
    with pytest.raises(ConfigError, match=r"transition\[0\]\[0\]"):
        mdp_from_dict(bad, source="env.json")

    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        mdp_from_dict(bad)

    bad = dict(good)
    del bad["reward"]
    with pytest.raises(ConfigError, match="reward"):
        mdp_from_dict(bad)

    bad = dict(good)
    bad["n_states"] = 3
    with pytest.raises(ConfigError, match="shape"):
        mdp_from_dict(bad)

    for count in (2.7, 2.0, True, "2"):
        with pytest.raises(ConfigError, match="n_states must be an integer"):
            mdp_from_dict(dict(good, n_states=count))


def test_mdp_is_immutable():
    mdp = make_two_arm()
    with pytest.raises(ValueError):
        mdp.transition[0, 0, 0] = 0.5


@given(
    n_states=st.integers(1, 9),
    n_actions=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_successor_tables_compress_each_row_to_its_support(n_states, n_actions, seed, sparse):
    mdp = make_random_mdp(
        n_states, n_actions, seed, terminal_states=range(1, n_states, 3), sparse=sparse
    )
    rows = mdp.transition.reshape(n_states * n_actions, n_states)
    width = int((rows > 0).sum(axis=1).max())
    assert mdp.successor_states.shape == mdp.successor_cdf.shape == (len(rows), width)
    # built row by row here: the support in ascending order and the dense
    # row cumsum at it, +inf from the first entry reaching the row's total
    # on (the last one, as no mass here is small enough to be absorbed);
    # pads are +inf too
    for row, states, cdf in zip(rows, mdp.successor_states, mdp.successor_cdf):
        support = np.flatnonzero(row > 0)
        n = support.size
        assert states[:n].tolist() == support.tolist()
        assert cdf[: n - 1].tobytes() == np.cumsum(row)[support[:-1]].tobytes()
        assert np.isposinf(cdf[n - 1 :]).all()
    for table in (mdp.successor_states, mdp.successor_cdf):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    # derived data: neither constructor arguments nor part of the JSON form
    assert not {"successor_states", "successor_cdf"} & set(mdp_to_dict(mdp))
    for name in ("successor_states", "successor_cdf"):
        with pytest.raises(TypeError):
            TabularMdp(mdp.transition, mdp.reward, mdp.terminal, **{name: getattr(mdp, name)})


def test_step_never_draws_a_zero_mass_successor():
    # row (0, 0) sums to 1 - 4e-13, inside the accepted rounding; a
    # uniform past its total mass still draws its last positive-mass
    # state, never the terminal state 2 behind it
    transition = np.zeros((3, 1, 3))
    transition[0, 0, 1] = 1.0 - 4e-13
    transition[1, 0, 1] = transition[2, 0, 2] = 1.0
    mdp = TabularMdp(transition, np.zeros((3, 1)), np.array([False, False, True]))
    for u in (0.0, 1.0 - 4e-13, 1.0 - 1e-13):
        assert step(mdp, 0, 0, FixedUniforms([u])) == (1, 0.0, False)
