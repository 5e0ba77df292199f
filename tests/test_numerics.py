"""The in-package log-sum-exp against scipy's, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from smcplan.numerics import logsumexp

finite = st.floats(-1e3, 1e3)
special = st.sampled_from([-np.inf, np.inf, np.nan])


# a small pool of values makes ties (several entries at the maximum)
# common; -inf and the other non-finite values are mixed in
pools = st.lists(finite, min_size=1, max_size=3)


def entries(pool):
    return st.one_of(st.sampled_from(pool), finite, st.just(-np.inf), special)


def assert_same(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    assert np.array_equal(np.isnan(ours), np.isnan(theirs))
    keep = ~np.isnan(theirs)
    assert ours[keep].view(np.int64).tolist() == theirs[keep].view(np.int64).tolist()


def ours_quietly(a, axis=None):
    # the fast path must not warn, and the fallback keeps its warnings in
    # (underflow is silent in numpy by default)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return logsumexp(a, axis=axis)


@given(pool=pools, data=st.data(), size=st.integers(1, 12))
def test_vector_matches_scipy(pool, data, size):
    a = np.array(data.draw(st.lists(entries(pool), min_size=size, max_size=size)))
    assert_same(ours_quietly(a), scipy_logsumexp(a))


@given(pool=pools, data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 6))
def test_table_matches_scipy_along_each_axis(pool, data, rows, cols):
    flat = data.draw(st.lists(entries(pool), min_size=rows * cols, max_size=rows * cols))
    a = np.array(flat).reshape(rows, cols)
    for axis in (None, 0, 1, -1):
        assert_same(ours_quietly(a, axis), scipy_logsumexp(a, axis=axis))


@pytest.mark.parametrize(
    "a",
    [
        [-np.inf, -np.inf],
        [np.inf, 1.0],
        [np.inf, np.inf, -np.inf],
        [np.nan, 1.0],
        [1.0, 1.0, 1.0],
        [0.0, -np.inf],
        [[-np.inf, -np.inf], [0.0, 1.0]],
        [3.5],
        2.0,
    ],
)
def test_edge_cases_match_scipy(a):
    a = np.asarray(a, dtype=float)
    assert_same(ours_quietly(a), scipy_logsumexp(a))
    if a.ndim == 2:
        assert_same(ours_quietly(a, 1), scipy_logsumexp(a, axis=1))



@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 2048),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    ties=st.integers(0, 8),
    neg_inf=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    extra=st.sampled_from([None, np.inf, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_path_matches_the_general_path_bit_for_bit(size, scale, ties, neg_inf, extra, seed):
    # a full reduction of a vector takes its own one-pass route; the
    # general route over axis 0 is the reference, ties at the maximum,
    # -inf entries (all of them at neg_inf 1), +inf and nan included
    gen = np.random.default_rng(seed)
    a = gen.normal(scale=scale, size=size)
    a[gen.choice(size, min(ties, size), replace=False)] = a.max()
    a[gen.random(size) < neg_inf] = -np.inf
    if extra is not None:
        a[gen.integers(size)] = extra
    ours, general = ours_quietly(a), logsumexp(a, axis=0)
    assert type(ours) is type(general) is np.float64
    assert ours.tobytes() == general.tobytes()
