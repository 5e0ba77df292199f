"""Deterministic counter-based random streams.

Streams are addressed by an integer seed plus a path of sub-stream ids
(e.g. planner step, purpose). Every (seed, path) pair maps to its own
Philox key, so what a computation draws never depends on how many draws
other computations made before it. This keeps planner and training
output bit-reproducible under any execution order. Philox is
counter-based, so a sub-stream is only a key: a loop over sub-streams
re-keys one generator (:func:`rekey`) instead of building one per
sub-stream, and draws exactly what fresh ones would. A planning table
holds one such generator, which each planning call re-keys at every
step, so a table serves one planning call at a time. :func:`fold`
memoises the mix of a seed and of each path id, which a planning loop
repeats at every step.

Every categorical draw is an inverse-CDF draw: the index of a uniform is
the number of cumulative masses at or below it, and no draw lands past
a row's last positive mass, even on a row that sums to a little less
than 1. The helpers below take cumulative masses, not probabilities, so
a table that is sampled many times (the MDP's successor rows, a planning
call's proposal rows) is summed once by its owner, with :func:`cdf_rows`.
A row-wise draw gathers the drawn rows' columns in one ``take`` and
counts them in one reduction, so its cost is a few array calls whatever
the number of columns. ``mdp.step``, the planner's array step and its
resampling, and training's action draws use these helpers.

The planner's list kernels make the same draws without these helpers;
the ``planner`` module docstring says how.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_SEQUENCE = np.random.SeedSequence(0)
_ZEROS = (0, 0, 0, 0)  # Philox reads a state given as Python ints as uint64


def _splitmix64(value: int) -> int:
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


# a seed's or a path id's mix, keyed by its masked value
_mixed = lru_cache(maxsize=1024)(_splitmix64)


def fold(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and a path of sub-stream ids."""
    state = _mixed(seed & _MASK64)
    for part in path:
        state = _splitmix64(state ^ _mixed(part & _MASK64))
    return state


def rekey(gen: np.random.Generator, seed: int, *path: int) -> np.random.Generator:
    """Restart ``gen`` (a Philox generator) on the sub-stream addressed by
    ``path`` and return it: it then draws what ``stream(seed, *path)``
    would, for about half the cost of building a new generator."""
    key = (fold(seed, *path), _GOLDEN)
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the sub-stream addressed by ``path``."""
    # a fixed seed sequence spares an OS-entropy draw; rekey replaces its key
    return rekey(np.random.Generator(np.random.Philox(_SEED_SEQUENCE)), seed, *path)


def cdf_rows(masses: np.ndarray) -> np.ndarray:
    """Row-wise cumulative masses (last axis), +inf from the first entry
    that reaches the row's total on, which is its last positive mass."""
    cdf = masses.cumsum(axis=-1)
    cdf[cdf >= cdf[..., -1:]] = np.inf
    return cdf


def categorical(cdf, uniforms):
    """Inverse-CDF draw from one distribution, given as its cumulative
    masses, at each of ``uniforms`` (a scalar or an array)."""
    return np.minimum(cdf.searchsorted(uniforms, side="right"), len(cdf) - 1)


def categorical_rows(cdf_table: np.ndarray, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Particle i's draw from row ``rows[i]`` of ``cdf_table`` (rows of
    cumulative masses) at ``uniforms[i]``: the clamped count, taken with
    one gather of all but the last column of the drawn rows and one
    comparison. A one-column table always draws 0."""
    return np.add.reduce(cdf_table.T[:-1].take(rows, axis=1) <= uniforms, axis=0)
