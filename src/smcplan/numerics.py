"""Log-sum-exp, computed in-package so results do not depend on the
installed scipy.

The formula is scipy 1.17's real-valued one, reproduced to the bit:
entries equal to the slice maximum are counted (``m``) and kept out of
the shifted sum, ``log1p(rest / m) + log(m) + max``, which is more
accurate than ``max + log(sum(exp(a - max)))`` when one entry dominates.
The same formula gives ``inf``, ``nan`` and ``-inf`` for a slice whose
maximum is ``+inf``, ``nan`` or ``-inf``.
A full reduction of a vector with a finite maximum below ``2**970``,
which the planner makes every step, takes a one-pass route: same
formula, same bits. Both routes and :func:`normalized_weights` call the
``np.add``/``np.maximum`` reductions directly, the same C loops as
``ndarray.sum``/``max`` without their Python wrappers.

:func:`normalized_weights` is the one place log weights become
probabilities: the planner's particle weights every step, and the
message-passing root policy's per-action masses.

The small-K planner loop hands these functions Python lists; they
follow the list rule stated once in the ``planner`` module docstring,
so a list route has the array route's bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateWeightsError

# the largest particle count that steps over lists (see ``planner``)
_SMALL_K = 16
# np.add.reduce adds fewer entries than this one by one
_SEQUENTIAL_SUM = 8
# np.log of the counts 1 .. _SMALL_K, the bits of np.log on any count
_LOG_COUNTS = np.log(np.arange(1.0, _SMALL_K + 1)).tolist()


def psum(values) -> float:
    """A list's sum with the bits of ``np.add.reduce``: one by one from
    ``0.0`` below ``_SEQUENTIAL_SUM`` entries, numpy's own from there on."""
    if len(values) >= _SEQUENTIAL_SUM:
        return float(np.add.reduce(values))
    total = 0.0
    for v in values:
        total += v
    return total


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (all entries when ``None``) of a
    non-empty float64 array; a full reduction returns a numpy scalar."""
    a = np.asarray(a, dtype=float)
    # below a maximum of 2**970 (half an ulp of the largest float), a - a_max
    # cannot overflow; from there on it can reach -inf, whose exp is the 0 it
    # stands for, and the general route lets that pass silently
    if axis is None and a.ndim == 1 and -math.inf < (a_max := np.maximum.reduce(a)) < 2.0**970:
        at_max = a == a_max
        m = float(np.count_nonzero(at_max))
        rest = np.exp(a - a_max)
        rest[at_max] = 0.0
        return np.log1p(np.add.reduce(rest) / m) + np.log(m) + a_max
    a = np.atleast_1d(a)
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.add.reduce(at_max, axis=axis, keepdims=True, dtype=float)
    # a non-finite maximum makes inf - inf (and a nan one m = 0), which
    # numpy warns about, yet the formula still gives inf, nan or -inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(a - a_max)
        rest[at_max] = 0.0  # the maxima are counted in m instead
        out = np.log1p(np.add.reduce(rest, axis=axis, keepdims=True) / m) + np.log(m) + a_max
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def logsumexp_lists(runs) -> list:
    """:func:`logsumexp` of each of ``runs``, non-empty lists of at most
    ``_SMALL_K`` floats, with the array route's bits: one ``np.exp`` over
    every entry of every run, then one scalar ``np.log1p`` a run."""
    tops = list(map(max, runs))
    shifted = iter(np.exp([x - top for run, top in zip(runs, tops) for x in run]).tolist())
    out = []
    for run, top in zip(runs, tops):
        m = run.count(top)
        # the maxima are counted in m instead; zip takes len(run) entries
        rest = psum([0.0 if x == top else r for x, r in zip(run, shifted)])
        out.append(float(np.log1p(rest / m)) + _LOG_COUNTS[m - 1] + top)
    return out


def normalized_weights(log_weights, return_log_norm: bool = False):
    """Exponentiate and normalize log weights; rejects degenerate sets
    (every weight zero, or one ``nan`` or ``+inf``). With
    ``return_log_norm``, returns ``(weights, logsumexp(log_weights))``.
    A non-empty list shorter than ``_SEQUENTIAL_SUM`` gives a list and a
    float with the array route's bits, or raises as that route does; any
    other input takes the array route, which gives an array or raises."""
    if type(log_weights) is list and 0 < len(log_weights) < _SEQUENTIAL_SUM:
        [norm] = logsumexp_lists([log_weights])
    else:
        log_weights = np.asarray(log_weights, dtype=float)
        norm = logsumexp(log_weights)
    if not math.isfinite(norm):
        raise DegenerateWeightsError("weights are all zero or not finite")
    if type(log_weights) is list:
        w = np.exp([x - norm for x in log_weights]).tolist()
        total = psum(w)
        w = [x / total for x in w]
    else:
        w = np.exp(log_weights - norm)
        w /= np.add.reduce(w)
    return (w, norm) if return_log_norm else w
