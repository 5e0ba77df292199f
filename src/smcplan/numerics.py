"""Log-sum-exp, computed in-package so results do not depend on the
installed scipy.

The formula is scipy 1.17's real-valued one, reproduced to the bit:
entries equal to the slice maximum are counted (``m``) and kept out of
the shifted sum, ``log1p(rest / m) + log(m) + max``, which is more
accurate than ``max + log(sum(exp(a - max)))`` when one entry dominates.
A slice whose maximum is not finite (``+inf``, ``nan``, or all ``-inf``)
falls back to ``log(sum(exp(a)))``, which gives ``inf``, ``nan`` and
``-inf`` respectively.
A full reduction of a vector with a finite maximum, which the planner
makes every step, takes a one-pass route: same formula, same bits. It
and :func:`normalized_weights` call the ``np.add``/``np.maximum``
reductions directly, the same C loops as ``ndarray.sum``/``max``
without their Python wrappers.

:func:`normalized_weights` is the one place log weights become
probabilities: the planner's particle weights every step, and the
message-passing root policy's per-action masses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateWeightsError


def _shifted(a, a_max, axis):
    at_max = a == a_max
    m = at_max.sum(axis=axis, keepdims=True, dtype=float)
    rest = np.exp(a - a_max)
    rest[at_max] = 0.0  # the maxima are counted in m instead
    return np.log1p(rest.sum(axis=axis, keepdims=True) / m) + np.log(m) + a_max


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (all entries when ``None``) of a
    non-empty float64 array; a full reduction returns a numpy scalar."""
    a = np.asarray(a, dtype=float)
    if axis is None and a.ndim == 1 and math.isfinite(a_max := np.maximum.reduce(a)):
        at_max = a == a_max
        m = float(np.count_nonzero(at_max))
        rest = np.exp(a - a_max)
        rest[at_max] = 0.0
        return np.log1p(np.add.reduce(rest) / m) + np.log(m) + a_max
    a = np.atleast_1d(a)
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axis, keepdims=True)
    if np.isfinite(a_max).all():
        # every entry minus a finite maximum is <= 0, so nothing here
        # divides by zero, overflows or produces nan
        out = _shifted(a, a_max, axis)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _shifted(a, a_max, axis)
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
        out = np.where(np.isfinite(out), out, direct)
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def normalized_weights(log_weights, return_log_norm: bool = False):
    """Exponentiate and normalize log weights; rejects degenerate sets
    (every weight zero, or one ``nan`` or ``+inf``). With
    ``return_log_norm``, returns ``(weights, logsumexp(log_weights))``."""
    log_weights = np.asarray(log_weights, dtype=float)
    norm = logsumexp(log_weights)
    if not math.isfinite(norm):
        raise DegenerateWeightsError("weights are all zero or not finite")
    w = np.exp(log_weights - norm)
    w /= np.add.reduce(w)
    return (w, norm) if return_log_norm else w
