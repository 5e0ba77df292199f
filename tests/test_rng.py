"""Inverse-CDF draws: one distribution at many uniforms, and row-wise."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from smcplan.rng import categorical, categorical_rows

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
    rows = np.tile(cdf, (len(uniforms), 1))
    assert categorical_rows(rows, np.asarray(uniforms)).tolist() == expected


def test_categorical_skips_zero_mass_entries():
    probs = np.array([0.0, 0.5, 0.0, 0.5])
    draws = categorical(np.cumsum(probs), np.array([0.0, 0.25, 0.5, 0.75, 0.999]))
    assert draws.tolist() == [1, 1, 3, 3, 3]
