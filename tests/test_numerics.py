"""The in-package log-sum-exp against scipy's, and the list routes
against the array routes, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from smcplan.errors import DegenerateWeightsError
from smcplan.numerics import _LOG_COUNTS, _SEQUENTIAL_SUM, _SMALL_K, logsumexp, logsumexp_lists
from smcplan.numerics import normalized_weights, psum

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


def float_bits(values):
    return [float(x).hex() for x in values]


# magnitudes from 1e-30 to 1e30 of both signs, zeros of both signs among them
def summands(size, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=size) * np.exp(gen.uniform(-69.0, 69.0, size=size))
    x[gen.random(size) < 0.1] = 0.0
    x[gen.random(size) < 0.1] = -0.0
    return x


def test_psum_adds_in_numpys_order():
    # every length up to 128: sequential below 8, eight strided
    # accumulators from 8 on; the sign of a zero total included
    for size in range(1, 129):
        for x in [summands(size, seed) for seed in range(20)] + [np.full(size, -0.0)]:
            assert float(psum(x.tolist())).hex() == float(np.add.reduce(x)).hex(), size


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 300), data=st.data())
def test_psum_from_a_first_entry_adds_like_reduceat(size, data):
    # a segment of np.add.reduceat is its first entry plus the rest in
    # np.add.reduce's order; random segmentations, singletons included
    x = summands(size, data.draw(st.integers(0, 2**32 - 1)))
    cuts = data.draw(st.lists(st.integers(1, size - 1), max_size=8)) if size > 1 else []
    starts = sorted({0, *cuts})
    ends = starts[1:] + [size]
    values = x.tolist()
    ours = [psum(values[a + 1:b], values[a]) for a, b in zip(starts, ends)]
    assert float_bits(ours) == float_bits(np.add.reduceat(x, starts))


def test_log_count_table_has_the_bits_of_np_log():
    assert float_bits(_LOG_COUNTS) == float_bits(np.log(np.arange(1, _SMALL_K + 1)))
    assert float_bits(_LOG_COUNTS) == [float(np.log(float(m))).hex() for m in range(1, _SMALL_K + 1)]


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, _SMALL_K), min_size=1, max_size=4),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_logsumexp_of_list_runs_has_the_array_bits(sizes, scale, seed):
    # the readout's per-action runs, up to _SMALL_K entries each: past 8
    # entries the rest is summed with numpy's strided accumulators
    gen = np.random.default_rng(seed)
    runs = [gen.normal(scale=scale, size=size) for size in sizes]
    for run in runs:
        run[gen.random(run.size) < 0.3] = run.max()  # ties at the maximum
        run[(gen.random(run.size) < 0.2) & (run < run.max())] = -np.inf  # maxima stay finite
    ours = logsumexp_lists([run.tolist() for run in runs], [float(run.max()) for run in runs])
    assert float_bits(ours) == float_bits([logsumexp(run) for run in runs])


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, _SMALL_K),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
    ties=st.integers(0, 4),
    neg_inf=st.sampled_from([0.0, 0.2, 1.0]),
    extra=st.sampled_from([None, np.inf, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalized_weights_of_a_list_have_the_array_bits(size, scale, ties, neg_inf, extra, seed):
    # up to _SMALL_K weights, ties at the maximum and -inf entries; all
    # -inf, +inf and nan raise the same error in both routes; a list of
    # _SEQUENTIAL_SUM or more takes the array route
    gen = np.random.default_rng(seed)
    a = gen.normal(scale=scale, size=size)
    a[gen.choice(size, min(ties, size), replace=False)] = a.max()
    a[gen.random(size) < neg_inf] = -np.inf
    if extra is not None:
        a[gen.integers(size)] = extra
    try:
        expected = normalized_weights(a, return_log_norm=True)
    except DegenerateWeightsError:
        with pytest.raises(DegenerateWeightsError):
            normalized_weights(a.tolist(), return_log_norm=True)
        return
    weights, log_norm = normalized_weights(a.tolist(), return_log_norm=True)
    assert type(weights) is (list if size < _SEQUENTIAL_SUM else np.ndarray)
    assert isinstance(log_norm, float)
    assert (np.asarray(weights).dtype.str, np.asarray(weights).tobytes()) == (
        expected[0].dtype.str, expected[0].tobytes())
    assert log_norm.hex() == float(expected[1]).hex()
