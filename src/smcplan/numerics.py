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

The small-K planner loop hands these functions Python lists. A list
route keeps numpy only for the elementwise ``exp``, ``log`` and
``log1p`` (numpy's SIMD kernels round unlike ``math.*``, on about 5% of
``exp`` values) and sums in ``np.add.reduce``'s order through
:func:`psum`, never the builtin ``sum()``, which Python 3.12 made
compensated; so it has the array route's bits. Weights take the list
route only below ``_SEQUENTIAL_SUM`` entries: from there on numpy's
unrolled sum and fixed per-call cost beat the list route's passes.
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


def psum(values, first=0.0) -> float:
    """``first`` plus a list's sum in ``np.add.reduce``'s order: sequential
    below ``_SEQUENTIAL_SUM``, eight strided accumulators up to 128
    entries, halves above. ``psum(x)`` has the bits of ``np.add.reduce(x)``,
    and ``psum(x[1:], x[0])`` those of a segment of ``np.add.reduceat``."""
    n = len(values)
    if n < _SEQUENTIAL_SUM:
        total = -0.0
        for v in values:
            total += v
    elif n <= 128:
        r = values[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[n - n % 8:]:
            total += v
    else:
        half = n // 2 - n // 2 % 8
        total = psum(values[:half], -0.0) + psum(values[half:], -0.0)
    return first + total


def log_count(m: int) -> float:
    """``np.log(m)`` of a positive count, from a table up to ``_SMALL_K``."""
    return _LOG_COUNTS[m - 1] if m <= _SMALL_K else float(np.log(m))


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


def logsumexp_lists(runs, tops) -> list:
    """:func:`logsumexp` of each of ``runs``, lists of floats whose maxima
    ``tops`` are finite, with the one-pass route's bits: one ``np.exp``
    over every entry of every run, then one scalar ``np.log1p`` a run."""
    shifted = iter(np.exp([x - top for run, top in zip(runs, tops) for x in run]).tolist())
    out = []
    for run, top in zip(runs, tops):
        m = run.count(top)
        # the maxima are counted in m instead; zip takes len(run) entries
        rest = psum([0.0 if x == top else r for x, r in zip(run, shifted)])
        out.append(float(np.log1p(rest / m)) + log_count(m) + top)
    return out


def normalized_weights(log_weights, return_log_norm: bool = False):
    """Exponentiate and normalize log weights; rejects degenerate sets
    (every weight zero, or one ``nan`` or ``+inf``). With
    ``return_log_norm``, returns ``(weights, logsumexp(log_weights))``.
    A list shorter than ``_SEQUENTIAL_SUM`` with a finite maximum gives a
    list and a float with the array route's bits; any other input takes
    the array route, which gives an array or raises."""
    if (type(log_weights) is list and len(log_weights) < _SEQUENTIAL_SUM
            and math.isfinite(top := max(log_weights, default=math.nan))):
        [norm] = logsumexp_lists([log_weights], [top])
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
