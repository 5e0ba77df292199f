"""Deterministic counter-based random streams.

Streams are addressed by an integer seed plus a path of sub-stream ids
(e.g. planner step, purpose). Every (seed, path) pair maps to its own
Philox key, so what a computation draws never depends on how many draws
other computations made before it. This keeps planner and training
output bit-reproducible under any execution order.

Every draw from a categorical distribution goes through the inverse-CDF
helpers below. They take cumulative masses, not probabilities, so a
table that is sampled many times (the MDP's successor rows, a planning
call's proposal rows) is summed once by its owner, with :func:`cdf_rows`:
the index of a uniform is the number of cumulative masses at or below
it, and no draw lands past a row's last positive mass, even on a row
that sums to a little less than 1.
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


def cdf_rows(masses: np.ndarray) -> np.ndarray:
    """Row-wise cumulative masses (last axis), +inf from the first entry
    that reaches the row's total on, which is its last positive mass."""
    cdf = np.cumsum(masses, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = np.inf
    return cdf


def categorical(cdf, uniforms):
    """Inverse-CDF draw from one distribution, given as its cumulative
    masses, at each of ``uniforms`` (a scalar or an array)."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def categorical_rows(cdf_table: np.ndarray, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Particle i's draw from row ``rows[i]`` of ``cdf_table`` (rows of
    cumulative masses) at ``uniforms[i]``: the clamped count, taken one
    column at a time over all but the last, gathering no whole rows."""
    idx = np.zeros(len(uniforms), dtype=np.intp)
    for column in cdf_table.T[:-1]:
        idx += uniforms >= column[rows]
    return idx
