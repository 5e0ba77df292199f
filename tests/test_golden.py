"""Bit-exact pins of training returns and harness output files.

The digests below were recorded from the code before the config schema,
categorical sampler, trust-region solver and retrace estimator were each
reduced to one implementation. Refactors that claim to keep behaviour
must leave every pinned value unchanged; a change that is meant to
alter results re-records them and says so.
"""

import hashlib
import json

import numpy as np

from smcplan import LossConfig, PlannerConfig, TrainConfig, make_chain, train
from smcplan.harness import config_from_dict, run

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
        "dda525b847ef5584e0d259c1197e29d166ef259284a73d47d97187262a420acb",
    ),
    1: (
        "f67373b9507568da7d650d8a6283daecf2c9f50cb0d30f4e590da62664ac6562",
        "cf41dd401db3a2ec7a0fb7aff2d8515eddeb2a44fe15872bb080ed4fe41fbdf9",
    ),
}
# seed -> float.hex of the final (greedy, policy) return
GOLDEN_CRITERION_8_LAST = {
    0: ("0x0.0p+0", "0x1.c4667ce25409ap-1"),
    1: ("0x1.0000000000000p+0", "0x1.e232ab1b0f076p-1"),
}
GOLDEN_FILES = {
    "readme_sweep": {
        "metrics.csv": "29388410b6cf31b46b70cb8eab80422b102ce034394d011fd2997efe710ca3fb",
        "summary.json": "c9c6f9255aec14259a579086b4aa14b82b35cf40c4929361500b3c15024a1acf",
        "config.resolved.json": "52fe45fc7027725d242114c9e16330abe562a06ab05a265ecf75e1e8ecd343d8",
    },
    "oracle_convergence": {
        "metrics.csv": "58fa7fd785c96951c2cfbd7cd4924b3888d5e83a42497d1f6518cfdb5ac196e0",
        "summary.json": "ba3972d97d095cca8795184f9e536a6599cef6c289a2dc3e980cc775acea0f33",
        "config.resolved.json": "7faa83308756b6fbaa393e138f8824c98b9a3a464456a586c36047ffd0781f6b",
    },
    "train": {
        "metrics.csv": "37abff4e96bb31241cd219513478b7e96d1d4e878df9a3fdf5af09b1decab334",
        "summary.json": "ec04a6af7728768576da46f2e08f2867f3921bcd08546c2ae2abdc69bbc5b92d",
        "config.resolved.json": "f7c845329b444f7a4e7393406d2b6a0a939980b6f485f8bb542714706c6649c0",
    },
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


def test_train_files_are_pinned(tmp_path):
    assert _run_files(TRAIN, tmp_path, "train") == GOLDEN_FILES["train"]
