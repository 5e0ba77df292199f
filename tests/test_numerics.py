"""The in-package log-sum-exp against scipy's, and the list routes
against the array routes, bit for bit."""

import ast
import contextlib
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from smcplan import numerics
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
    # the one-pass route must not warn, and the general route keeps in the
    # warnings that a non-finite maximum raises (underflow is silent in
    # numpy by default)
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


@pytest.mark.parametrize(
    "a",
    [[-1e308, 1e308], [1e308, 5.0, -1e308], [-1e308, 0.0], [-1.7e308, 1e300]]
    # from a maximum of 2**970 on, -max_float - max overflows; below it,
    # it rounds to -max_float
    + [[-np.finfo(float).max, top] for top in (2.0**970, np.nextafter(2.0**970, 0), 1e293)],
)
def test_entries_spanning_more_than_the_float_range_reduce_silently_to_the_same_bits(a):
    a = np.array(a)
    ours, general = ours_quietly(a), logsumexp(a, axis=0)
    assert type(ours) is np.float64 and ours.tobytes() == general.tobytes()
    with np.errstate(over="ignore"):
        assert_same(ours, scipy_logsumexp(a))


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
    # every length up to 300: one by one below 8, numpy's own sum from 8
    # on, past numpy's 128-entry blocks; the sign of a zero total included
    for size in range(1, 301):
        for x in [summands(size, seed) for seed in range(20)] + [np.full(size, -0.0)]:
            assert float(psum(x.tolist())).hex() == float(np.add.reduce(x)).hex(), size


def test_a_reduceat_segment_is_its_head_plus_the_psum_of_its_tail():
    # the list backups add each atom's shifted ratios as np.add.reduceat
    # does: the head plus its tail added one by one; tails with zeros of
    # both signs, heads of either sign but -0.0, which no exp returns
    for size in range(1, _SEQUENTIAL_SUM):
        signed_zeros = [np.array(z) for z in product((0.0, -0.0), repeat=size)]
        for x in [summands(size, seed) for seed in range(100)] + signed_zeros:
            if x[0] == 0.0:
                x[0] = 0.0
            head_plus_tail = float(x[0] + psum(x[1:].tolist()))
            assert float(np.add.reduceat(x, [0])[0]).hex() == head_plus_tail.hex(), x
        # numpy sums a tail from -0.0, so a -0.0 head on a tail of -0.0
        # keeps its sign there, and psum's 0.0 takes it away
        x = np.full(size, -0.0)
        assert float(np.add.reduceat(x, [0])[0]).hex() == "-0x0.0p+0"
        assert float(x[0] + psum(x[1:].tolist())).hex() == "0x0.0p+0"
    # not np.add.reduce's order, which adds 1e16 + 1 first and rounds it away
    x = np.array([1e16, 1.0, 1.0])
    assert np.add.reduceat(x, [0])[0] == x[0] + psum([1.0, 1.0]) == 1e16 + 2
    assert np.add.reduce(x) == psum(x.tolist()) == 1e16


def test_src_never_calls_the_builtin_sum():
    # sum() is compensated from Python 3.12, so it would move the bits
    # of every list route; floats are added through psum or numpy
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(numerics.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []


def test_log_count_table_has_the_bits_of_np_log():
    assert float_bits(_LOG_COUNTS) == float_bits(np.log(np.arange(1, _SMALL_K + 1)))
    assert float_bits(_LOG_COUNTS) == [float(np.log(float(m))).hex() for m in range(1, _SMALL_K + 1)]


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, _SMALL_K), min_size=1, max_size=4),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_logsumexp_of_list_runs_has_the_array_bits(sizes, scale, seed):
    # the readout's per-action runs, up to _SMALL_K entries each: from 8
    # entries on, numpy sums the rest
    gen = np.random.default_rng(seed)
    runs = [gen.normal(scale=scale, size=size) for size in sizes]
    for run in runs:
        run[gen.random(run.size) < 0.3] = run.max()  # ties at the maximum
        run[(gen.random(run.size) < 0.2) & (run < run.max())] = -np.inf  # maxima stay finite
    ours = logsumexp_lists([run.tolist() for run in runs])
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
    # _SEQUENTIAL_SUM or more takes the array route, and a shorter one
    # never does, whatever its maximum
    gen = np.random.default_rng(seed)
    a = gen.normal(scale=scale, size=size)
    a[gen.choice(size, min(ties, size), replace=False)] = a.max()
    a[gen.random(size) < neg_inf] = -np.inf
    if extra is not None:
        a[gen.integers(size)] = extra
    try:
        expected = normalized_weights(a, return_log_norm=True)
    except DegenerateWeightsError:
        expected = None

    def array_route(*args, **kwargs):
        raise AssertionError("a list shorter than _SEQUENTIAL_SUM took the array route")

    with (mock.patch.object(numerics, "logsumexp", array_route) if size < _SEQUENTIAL_SUM
          else contextlib.nullcontext()):
        if expected is None:
            with pytest.raises(DegenerateWeightsError):
                normalized_weights(a.tolist(), return_log_norm=True)
            return
        weights, log_norm = normalized_weights(a.tolist(), return_log_norm=True)
    assert type(weights) is (list if size < _SEQUENTIAL_SUM else np.ndarray)
    assert isinstance(log_norm, float)
    assert (np.asarray(weights).dtype.str, np.asarray(weights).tobytes()) == (
        expected[0].dtype.str, expected[0].tobytes())
    assert log_norm.hex() == float(expected[1]).hex()
