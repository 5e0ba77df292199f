"""Inverse-CDF draws: one distribution at many uniforms, and row-wise;
the cumulative-mass tables they read."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from smcplan.rng import categorical, categorical_rows, cdf_rows

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
