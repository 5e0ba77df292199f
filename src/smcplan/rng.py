"""Deterministic counter-based random streams.

Streams are addressed by an integer seed plus a path of sub-stream ids
(e.g. planner step, purpose). Every (seed, path) pair maps to its own
Philox key, so what a computation draws never depends on how many draws
other computations made before it. This keeps planner and training
output bit-reproducible under any execution order.

Every draw from a categorical distribution goes through the inverse-CDF
helpers below. They take cumulative masses, not probabilities, so a
table that is sampled many times (the MDP's transition rows, a planning
call's proposal rows) is summed once by its owner: the index of a
uniform is the number of cumulative masses at or below it, clamped to
the last entry so rounding in the cumulative sum can never push a draw
past the end.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def fold(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and a path of sub-stream ids."""
    state = _splitmix64(seed & _MASK64)
    for part in path:
        state = _splitmix64(state ^ _splitmix64(part & _MASK64))
    return state


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the sub-stream addressed by ``path``."""
    key = np.array([fold(seed, *path), _GOLDEN], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def categorical(cdf, uniforms):
    """Inverse-CDF draw from one distribution, given as its cumulative
    masses, at each of ``uniforms`` (a scalar or an array)."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def categorical_rows(cdf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row of cumulative masses; row i is sampled at
    ``uniforms[i]``."""
    idx = np.count_nonzero(uniforms[:, None] >= cdf_rows, axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1)
