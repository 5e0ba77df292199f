"""Bit-exact pins of training returns and harness output files.

The digests below were recorded from the code before the config schema,
categorical sampler, trust-region solver and retrace estimator were each
reduced to one implementation; the wide planner pins, from the code
before planning read per-model tables (precomputed CDFs, one log-policy
per call, one weight normalisation per step). The three
``config.resolved.json`` pins were re-recorded when the planner config
lost its ``value_mode`` field, which removed that one key from the file;
the wide pins' names still end in ``sampled``, the value mode they were
recorded under and the only one the planner kept. When the trust region
came to be solved by safeguarded Newton steps instead of a bisection,
the pins that read trust-region proposals were re-recorded: the eight
``*/trust_region/*`` wide pins, the policy-return digests and last
policy returns of criterion 8 (its greedy returns kept their bits), and
the ``train`` experiment's ``metrics.csv`` and ``summary.json``; the
``oracle_convergence`` files kept theirs: that pin never reaches the
trust-region search, because its cells plan with the zero model, whose
tied values give every row radius 0. Refactors that claim to keep
behaviour must leave every pinned value unchanged; a change that is
meant to alter results re-records them and says so.
"""

import hashlib
import json
from itertools import product

import numpy as np
import pytest

from conftest import output_to_dict
from smcplan import (
    LossConfig,
    Model,
    PlannerConfig,
    TabularMdp,
    TrainConfig,
    make_chain,
    make_gridworld,
    run_planner,
    train,
)
from smcplan import planner
from smcplan import rng as rng_mod
from smcplan.harness import config_from_dict, run
from smcplan.planner import INFERENCE_MODES, PROPOSAL_MODES, RESAMPLE_MODES

# the README path_degeneracy example, cut to 5 seeds
README_SWEEP = {
    "experiment": "path_degeneracy",
    "env": {"name": "absorbing_zero", "n_actions": 4},
    "planner": {"k": 4, "depth": 2, "resample_period": 1},
    "sweep": {
        "planner.depth": [2, 4, 8, 16],
        "planner.inference_mode": ["dirac", "message_passing"],
    },
    "seeds": 5,
    "output_dir": "out/degeneracy",
}

ORACLE_CONVERGENCE = {
    "experiment": "oracle_convergence",
    "env": {"name": "chain", "n": 3},
    "planner": {"k": 16, "depth": 3, "proposal_mode": "trust_region", "alpha": 0.3},
    "sweep": {"planner.k": [8, 32]},
    "seeds": 3,
    "output_dir": "out/oracle",
}

TRAIN = {
    "experiment": "train",
    "env": {"name": "chain", "n": 3},
    "planner": {"k": 4, "depth": 3, "sigma": 0.5, "proposal_mode": "trust_region",
                "alpha": 0.2, "inference_mode": "message_passing"},
    "loss": {"gamma_outer": 0.9, "lr": 0.2},
    "iterations": 2,
    "horizon": 6,
    "buffer_capacity": 32,
    "batch_size": 8,
    "updates_per_iteration": 3,
    "seeds": [0, 1],
    "output_dir": "out/train",
}

CRITERION_8 = TrainConfig(
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
    loss=LossConfig(c_v=0.5, c_pi=1.0, c_ent=0.03, lambda_outer=0.95, gamma_outer=0.97, lr=0.2),
    horizon=16,
    buffer_capacity=256,
    batch_size=64,
    updates_per_iteration=16,
    eval_horizon=16,
)

# seed -> sha256 of the float64 bytes of (greedy_returns, policy_returns)
GOLDEN_CRITERION_8 = {
    0: (
        "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8",
        "e3405acb2e908bf4b5f2c055cdc74c63f78f21e96531ae89d30de7267a975432",
    ),
    1: (
        "f67373b9507568da7d650d8a6283daecf2c9f50cb0d30f4e590da62664ac6562",
        "de50e89654d436d89ed94e3e30ba1d4bcfef32c8c3369497faef62d63dc68945",
    ),
}
# seed -> float.hex of the final (greedy, policy) return
GOLDEN_CRITERION_8_LAST = {
    0: ("0x0.0p+0", "0x1.c466fe837ae4ep-1"),
    1: ("0x1.0000000000000p+0", "0x1.e23364d95b1d3p-1"),
}
GOLDEN_FILES = {
    "readme_sweep": {
        "metrics.csv": "29388410b6cf31b46b70cb8eab80422b102ce034394d011fd2997efe710ca3fb",
        "summary.json": "c9c6f9255aec14259a579086b4aa14b82b35cf40c4929361500b3c15024a1acf",
        "config.resolved.json": "26a488cfa1dfd87ba0487eb7c185f5969ad4bf3c0cb81ee8eab3387aeda536cd",
    },
    "oracle_convergence": {
        "metrics.csv": "58fa7fd785c96951c2cfbd7cd4924b3888d5e83a42497d1f6518cfdb5ac196e0",
        "summary.json": "ba3972d97d095cca8795184f9e536a6599cef6c289a2dc3e980cc775acea0f33",
        "config.resolved.json": "53cfa9d63fe6d67c38e1a660722def158a3ca9c2738666a5a3979074a4589cc1",
    },
    "train": {
        "metrics.csv": "82437472200c2c1c99aebbdff51c4b156c535ea7df83d223c05e9fcd27d7597c",
        "summary.json": "23b998b72ee52312980d39e4812ecfb27879b2070cd4d135fb0b85cb8bb5242d",
        "config.resolved.json": "056d0156556f54bff207fcca43c586229ed3724d78c6008eced42e4c26f771d9",
    },
}

# "env/proposal/inference/resample/sampled" -> sha256 of the sorted-key JSON
# of a K=1024, depth-8 ``run_planner`` output on an 8x8 grid with traps;
# at this width the sampler's CDFs, the ancestor bincounts and the
# per-atom reductions see hundreds of particles per step
GOLDEN_WIDE = {
    "grid/prior/dirac/baseline/sampled": "1660824def646b5a56621d6f4a1cc19f8a619ffb276848cc5e89be6761dd3588",
    "grid/prior/dirac/revived/sampled": "ba9aa5c348cda98848f252a916ff39840974d5546dad844784a5113849dd98eb",
    "grid/prior/message_passing/baseline/sampled": "dee49dac6a7f4a43d421ed4252e5f70f837ea306f3625a3d25716838abec482a",
    "grid/prior/message_passing/revived/sampled": "d3f9065d134abf2eb64a41e8b1a19a86b1fec96b14a440a64b099fc25dc9ecd1",
    "grid/trust_region/dirac/baseline/sampled": "39538acbfc913fb73995f94b52fc4f34dd15a96249afe411d4c004899ccc4a87",
    "grid/trust_region/dirac/revived/sampled": "8bcaf284966b6d995a284b9e940b108fd33b7d475b9c14b0fc3ceabb823f8110",
    "grid/trust_region/message_passing/baseline/sampled": "48c1feb0c89cf823a9d58443389f77432f7544f6de34835be0af308ab673a33d",
    "grid/trust_region/message_passing/revived/sampled": "bfd74665d33b38478f71454979de138300b3a51644a626b73e26cb3e497a1f5e",
    "slippery/prior/dirac/baseline/sampled": "a012b1cb1de44aae3ea985fecd8f6fbb94afa9be76cb73217d82d150525efda6",
    "slippery/prior/dirac/revived/sampled": "318b854580937f728f527ae042d96816576f161daa2ff92d2d0f3177c65cf8f1",
    "slippery/prior/message_passing/baseline/sampled": "94eacfa8f5cf5f147c447477d293c3803527be9f473cdc4fdbd100d611e952b6",
    "slippery/prior/message_passing/revived/sampled": "df7dea65b378e6ca51c708c13830916445376746d5f894668df910eaf5d4c25c",
    "slippery/trust_region/dirac/baseline/sampled": "0e8a5671eac63319777a89e2df78c0a82d48cf31cab73031066c312e9ee7fa7f",
    "slippery/trust_region/dirac/revived/sampled": "4ed89a65856dbbc3eae908a87e8d52bb1391e99080ffe668acce69e6106d9c0d",
    "slippery/trust_region/message_passing/baseline/sampled": "28ebdb8d92e9b2712113fd5ecddaa998bda875f9a47050a32bf95a6fa04e9e82",
    "slippery/trust_region/message_passing/revived/sampled": "8ddd695f7cb06fb7a33ba2361c458085584d61d48988d7cf59ffec8e8ec70375",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_files(data: dict, tmp_path, name: str) -> dict:
    """Run ``data`` and digest its three output files; the resolved config
    is digested with its output directory put back to the config's own."""
    out = tmp_path / name
    run(config_from_dict(dict(data, output_dir=str(out))))
    resolved = json.loads((out / "config.resolved.json").read_text())
    resolved["output_dir"] = data["output_dir"]
    return {
        "metrics.csv": _sha256((out / "metrics.csv").read_bytes()),
        "summary.json": _sha256((out / "summary.json").read_bytes()),
        "config.resolved.json": _sha256(
            json.dumps(resolved, indent=2, sort_keys=True).encode()
        ),
    }


def test_criterion_8_returns_are_pinned():
    mdp = make_chain(5)
    for seed in (0, 1):
        result = train(mdp, CRITERION_8, iterations=10, seed=seed)
        greedy = np.ascontiguousarray(result.greedy_returns, dtype=np.float64)
        policy = np.ascontiguousarray(result.policy_returns, dtype=np.float64)
        assert (float(greedy[-1]).hex(), float(policy[-1]).hex()) == GOLDEN_CRITERION_8_LAST[seed]
        assert (_sha256(greedy.tobytes()), _sha256(policy.tobytes())) == GOLDEN_CRITERION_8[seed]


def test_readme_sweep_files_are_pinned(tmp_path):
    assert _run_files(README_SWEEP, tmp_path, "sweep") == GOLDEN_FILES["readme_sweep"]


def test_oracle_convergence_files_are_pinned(tmp_path):
    assert _run_files(ORACLE_CONVERGENCE, tmp_path, "oracle") == GOLDEN_FILES["oracle_convergence"]


def test_oracle_convergence_metrics_ignore_the_proposal_mode(tmp_path):
    # the zero model's proposal is its prior in either mode; a change
    # that plans these cells with a learned model fails here and says so
    digests = []
    for mode in PROPOSAL_MODES:
        data = dict(ORACLE_CONVERGENCE, planner=dict(ORACLE_CONVERGENCE["planner"],
                                                     proposal_mode=mode))
        digests.append(_run_files(data, tmp_path, mode)["metrics.csv"])
    assert digests == [GOLDEN_FILES["oracle_convergence"]["metrics.csv"]] * 2


def test_train_files_are_pinned(tmp_path):
    assert _run_files(TRAIN, tmp_path, "train") == GOLDEN_FILES["train"]


def _wide_mdps() -> dict:
    """The trapped 8x8 grid, and a slippery copy whose live rows follow
    the chosen action with probability 0.7 and a uniformly drawn one
    otherwise, so transition draws are not trivial."""
    grid = make_gridworld(8, 8, traps=[(2, 3), (4, 1), (5, 5)])
    live = ~grid.terminal[:, None, None]
    slip = 0.7 * grid.transition + 0.3 * grid.transition.mean(axis=1, keepdims=True)
    slippery = TabularMdp(np.where(live, slip, grid.transition), grid.reward, grid.terminal)
    return {"grid": grid, "slippery": slippery}


def _wide_output(env, proposal, inference, resample):
    gen = rng_mod.stream(2024)
    model = Model(3.0 * gen.random((64, 4)), gen.random(64), gen.random((64, 4)))
    config = PlannerConfig(
        k=1024, depth=8, resample_period=2, alpha=0.3, temperature=0.5, lambda_smc=0.8,
        gamma=0.9, sigma=0.5, proposal_mode=proposal, inference_mode=inference,
        resample_mode=resample,
    )
    return run_planner(_wide_mdps()[env], 0, model, config, 77)


# the last field only names the pin: its recorded value mode
WIDE_CASES = list(product(("grid", "slippery"), PROPOSAL_MODES, INFERENCE_MODES, RESAMPLE_MODES,
                          ("sampled",)))


@pytest.mark.parametrize("env,proposal,inference,resample,value", WIDE_CASES)
def test_wide_planner_outputs_are_pinned(env, proposal, inference, resample, value):
    out = _wide_output(env, proposal, inference, resample)
    digest = _sha256(json.dumps(output_to_dict(out), sort_keys=True).encode())
    assert digest == GOLDEN_WIDE["/".join((env, proposal, inference, resample, value))]


@pytest.mark.parametrize(
    "env,proposal,resample,value",
    list(product(("grid", "slippery"), PROPOSAL_MODES, RESAMPLE_MODES, ("sampled",))),
)
def test_dirac_planning_never_backs_up_atoms(monkeypatch, env, proposal, resample, value):
    def refuse(*args):
        raise AssertionError("the dirac readout never reads atom backups")

    monkeypatch.setattr(planner, "accumulate_ancestor_q", refuse)
    monkeypatch.setattr(planner, "group_ancestors", refuse)
    test_wide_planner_outputs_are_pinned(env, proposal, "dirac", resample, value)
