"""Sub-stream generators; inverse-CDF draws: one distribution at many
uniforms, and row-wise; the cumulative-mass tables they read."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smcplan.rng import _GOLDEN, categorical, categorical_rows, cdf_rows, fold, rekey, stream

# masses with exact zeros mixed in, normalised to a distribution
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)


def count_draw(probs, u) -> int:
    return min(int((u >= np.cumsum(probs)).sum()), len(probs) - 1)


@given(weights=weights, data=st.data())
def test_categorical_equals_clamped_count(weights, data):
    probs = np.asarray(weights) / sum(weights)
    cdf = np.cumsum(probs)
    # uniforms anywhere in [0, 1), exactly on every CDF boundary (zero-mass
    # entries repeat a boundary), and just past the end of the CDF
    boundaries = [float(c) for c in cdf] + [0.0, 1.0]
    uniforms = data.draw(
        st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(boundaries)),
                 min_size=1, max_size=6)
    ) + boundaries
    expected = [count_draw(probs, u) for u in uniforms]
    assert [int(categorical(cdf, u)) for u in uniforms] == expected
    assert categorical(cdf, np.asarray(uniforms)).tolist() == expected
    # row 1 of the table is the CDF; rows 0 and 2 would draw elsewhere
    table = np.stack([np.full_like(cdf, 2.0), cdf, np.full_like(cdf, -1.0)])
    rows = np.ones(len(uniforms), dtype=np.intp)
    assert categorical_rows(table, rows, np.asarray(uniforms)).tolist() == expected


def test_categorical_skips_zero_mass_entries():
    probs = np.array([0.0, 0.5, 0.0, 0.5])
    draws = categorical(np.cumsum(probs), np.array([0.0, 0.25, 0.5, 0.75, 0.999]))
    assert draws.tolist() == [1, 1, 3, 3, 3]


@given(weights=weights)
def test_cdf_rows_read_inf_from_the_last_positive_mass_on(weights):
    probs = np.asarray(weights) / sum(weights)
    last = int(np.flatnonzero(probs)[-1])
    cdf = cdf_rows(np.stack([probs, probs[::-1]]))
    dense = np.cumsum(probs)
    assert cdf[0, :last].tobytes() == dense[:last].tobytes()
    assert np.isposinf(cdf[0, last:]).all()
    # every uniform, even one past the row's total mass, draws a
    # positive-mass entry
    uniforms = np.array([0.0, *dense, np.nextafter(dense[-1], 0.0), 1.0])
    for row in (0, 1):
        draws = categorical_rows(cdf, np.full(uniforms.size, row), uniforms)
        assert (np.stack([probs, probs[::-1]])[row, draws] > 0).all()
        assert draws.tolist() == categorical(cdf[row], uniforms).tolist()


def test_categorical_rows_draws_each_row_at_its_uniform():
    table = cdf_rows(np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [1.0, 0.0, 0.0]]))
    rows = np.array([0, 1, 2, 0, 1, 1])
    uniforms = np.array([0.5, 0.5, 0.99, 0.0, 0.0, 0.25])
    assert categorical_rows(table, rows, uniforms).tolist() == [1, 2, 0, 0, 1, 2]


def column_loop_draws(cdf_table, rows, uniforms):
    """The clamped count taken one column at a time over all but the
    last column: the reference for the one-gather draw."""
    idx = np.zeros(len(uniforms), dtype=np.intp)
    for column in cdf_table.T[:-1]:
        idx += uniforms >= column[rows]
    return idx


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    n_columns=st.integers(1, 8),
    k=st.one_of(st.integers(1, 16), st.integers(1, 2048)),
    seed=st.integers(0, 2**32 - 1),
)
def test_categorical_rows_equals_the_column_loop(n_rows, n_columns, k, seed):
    gen = np.random.default_rng(seed)
    # masses with exact zeros; every row keeps some mass
    masses = gen.random((n_rows, n_columns)) * (gen.random((n_rows, n_columns)) < 0.7)
    masses[:, gen.integers(n_columns)] += 0.5
    table = cdf_rows(masses / masses.sum(axis=1, keepdims=True))
    rows = gen.integers(0, n_rows, size=k)
    # uniforms anywhere in [0, 1) and exactly on the drawn row's boundaries
    uniforms = gen.random(k)
    on_edge = gen.random(k) < 0.3
    edges = np.cumsum(masses / masses.sum(axis=1, keepdims=True), axis=1)
    uniforms[on_edge] = edges[rows[on_edge], gen.integers(0, n_columns, size=on_edge.sum())]
    expected = column_loop_draws(table, rows, uniforms)
    got = categorical_rows(table, rows, uniforms)
    assert got.dtype == expected.dtype and got.shape == (k,)
    assert got.tobytes() == expected.tobytes()


def draws(gen) -> list:
    """Doubles, 64-bit integers, an odd number of 32-bit integers, then
    a 32-bit integer and a double drawn after them."""
    out = gen.random(3).tolist() + gen.integers(0, 2**62, size=3).tolist()
    out += gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    out += [int(gen.integers(0, 2**32, dtype=np.uint32)), gen.random()]
    return out


@given(
    seed=st.integers(0, 2**64 - 1),
    path=st.lists(st.integers(0, 2**64 - 1), max_size=3),
    used=st.integers(0, 7),
)
def test_rekey_draws_what_a_fresh_generator_draws(seed, path, used):
    key = np.array([fold(seed, *path), _GOLDEN], dtype=np.uint64)
    expected = draws(np.random.Generator(np.random.Philox(key=key)))
    # a generator part-way through another stream, its 64-bit buffer
    # part used and, for an odd ``used``, half a 64-bit word held back
    gen = stream(seed ^ 1, 5)
    gen.random(used)
    gen.integers(0, 2**32, size=used, dtype=np.uint32)
    assert rekey(gen, seed, *path) is gen
    assert draws(gen) == expected
    assert draws(stream(seed, *path)) == expected
