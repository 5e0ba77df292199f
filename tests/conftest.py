import numpy as np
import pytest
from hypothesis import settings

from smcplan import TabularMdp

# property tests draw the same examples in every checkout: each test's
# examples follow from the test itself, and no example database replays
# a failure saved in one working tree only
settings.register_profile("smcplan", derandomize=True, database=None)
settings.load_profile("smcplan")


def make_random_mdp(n_states, n_actions, seed, terminal_states=(), discount=1.0, sparse=False):
    """Random MDP with Dirichlet transition rows and rewards in [-1, 1].

    State 0 is always non-terminal; terminal states get the absorbing
    zero-reward structure. ``sparse`` zeroes about half of every
    transition row (each keeps its largest entry) and makes about a
    quarter of the rows deterministic.
    """
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    if sparse:
        keep = rng.random(transition.shape) < 0.5
        keep[rng.random((n_states, n_actions)) < 0.25] = False
        keep |= transition == transition.max(axis=2, keepdims=True)
        transition = np.where(keep, transition, 0.0)
        transition /= transition.sum(axis=2, keepdims=True)
    terminal = np.zeros(n_states, dtype=bool)
    for s in terminal_states:
        if s == 0:
            raise ValueError("state 0 stays non-terminal in test MDPs")
        terminal[s] = True
        transition[s] = 0.0
        transition[s, :, s] = 1.0
        reward[s] = 0.0
    return TabularMdp(transition, reward, terminal, discount)


def make_random_policy(n_states, n_actions, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n_actions), size=n_states)


class FixedUniforms:
    """Stands in for a generator: ``random()`` and ``random(n)`` return
    the next one or n of the chosen uniforms, so a test decides what
    every draw sees."""

    def __init__(self, uniforms):
        self._rest = [float(u) for u in uniforms]

    def random(self, n=None):
        if n is None:
            return self._rest.pop(0)
        if n > len(self._rest):
            raise AssertionError(f"{n} uniforms asked for, {len(self._rest)} left")
        out, self._rest = self._rest[:n], self._rest[n:]
        return np.array(out)


# diagnostics added after the golden digests were recorded: left out of
# the hashed form, so the digests still pin the fields they always did,
# and pinned by their own tests instead
UNHASHED_DIAGNOSTICS = frozenset({"log_evidence"})


def output_to_dict(out) -> dict:
    """A ``PlannerOutput`` as plain lists and numbers, the diagnostics
    nested: the JSON form the golden digests hash. It holds every field
    but ``UNHASHED_DIAGNOSTICS``."""
    diagnostics = out.diagnostics
    return {
        "root_policy": out.root_policy.tolist(),
        "root_value": out.root_value,
        "diagnostics": {
            "ess": diagnostics.ess.tolist(),
            "distinct_ancestors": diagnostics.distinct_ancestors.tolist(),
            "terminal_particles": diagnostics.terminal_particles.tolist(),
            "resample_steps": list(diagnostics.resample_steps),
            "value_smc": diagnostics.value_smc,
            "value_model": diagnostics.value_model,
        },
    }


@pytest.fixture
def tmp_out(tmp_path):
    return tmp_path / "out"
