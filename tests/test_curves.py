"""Curve tests: the batch SurvivalCurve against per-row evaluation rules.

Linear evaluation must equal `np.interp` on each row bit for bit, and step
evaluation the plain right-continuous step rule, written here as loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survkit.curves import CumHazardFn, SurvivalCurve, interp_rows

# Knot gaps: 0 ties two knots; 5e-324 (the smallest subnormal) after a knot
# at 0 makes the slope overflow, so only an exact knot value is finite there.
gaps = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0]), st.floats(0.01, 3.0))

batches = st.integers(1, 6).flatmap(
    lambda n_knots: st.tuples(
        st.sampled_from([0.0, 1.0]),
        st.lists(gaps, min_size=n_knots - 1, max_size=n_knots - 1),
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n_knots, max_size=n_knots),
            min_size=1, max_size=5,
        ),
        st.lists(st.floats(-2.0, 14.0), max_size=8),
        st.lists(st.integers(0, 4), min_size=1, max_size=6),
    )
)


def build(case, kind):
    """(curves, query points, row indices) from a drawn case."""
    start, gap_list, rows, extra, idx = case
    times = start + np.cumsum([0.0, *gap_list])
    values = -np.sort(-np.asarray(rows), axis=1)  # each row non-increasing
    # before the first knot, at every knot, between knots, past the last knot
    mids = (times[:-1] + times[1:]) / 2
    t = np.r_[times[0] - 1.0, times, mids, times[-1] + 1.0, extra]
    rows_idx = [i % len(values) for i in idx]
    return SurvivalCurve(times=times, values=values, kind=kind), t, rows_idx


def step_rule(times, row, t, strict=False):
    """Value at the last knot <= t (< t when strict); 1 before the first."""
    out = 1.0
    for knot, value in zip(times, row):
        if knot < t or (knot == t and not strict):
            out = value
    return out


@settings(max_examples=300, deadline=None)
@given(batches)
def test_linear_batch_equals_per_row_interp(case):
    curves, t, _ = build(case, "linear")
    expected = np.array([np.interp(t, curves.times, row) for row in curves.values])
    np.testing.assert_array_equal(curves(t), expected)
    np.testing.assert_array_equal(interp_rows(t, curves.times, curves.values), expected)


@settings(max_examples=300, deadline=None)
@given(batches)
def test_step_batch_equals_per_row_step_rule(case):
    curves, t, _ = build(case, "step")
    expected = [[step_rule(curves.times, row, u) for u in t] for row in curves.values]
    np.testing.assert_array_equal(curves(t), np.array(expected))


@settings(max_examples=200, deadline=None)
@given(batches, st.sampled_from(["step", "linear"]))
def test_subset_then_evaluate_equals_evaluate_then_subset(case, kind):
    curves, t, idx = build(case, kind)
    full = curves(t)
    np.testing.assert_array_equal(curves[idx](t), full[idx])
    np.testing.assert_array_equal(curves[idx[0]](t), full[idx[0]])
    for i, curve in enumerate(curves):
        assert curve.values.shape == curves.times.shape
        np.testing.assert_array_equal(curve(t), full[i])


@settings(max_examples=200, deadline=None)
@given(batches)
def test_left_limit_is_previous_knot_value(case):
    curves, t, _ = build(case, "step")
    expected = [[step_rule(curves.times, row, u, strict=True) for u in t] for row in curves.values]
    np.testing.assert_array_equal(curves.left(t), np.array(expected))
    for j in np.flatnonzero(np.r_[True, np.diff(curves.times) > 0]):
        before = curves.values[:, j - 1] if j > 0 else np.ones(len(curves))
        np.testing.assert_array_equal(curves.left(curves.times[j]), before)


@settings(max_examples=200, deadline=None)
@given(batches, st.sampled_from(["step", "linear"]))
def test_construction_rejects_rising_rows_and_wrong_length(case, kind):
    curves, _, idx = build(case, kind)
    times, values = curves.times, curves.values
    with pytest.raises(ValueError):
        SurvivalCurve(times=times, values=np.c_[values, values[:, -1]], kind=kind)
    if len(times) > 1:
        with pytest.raises(ValueError):
            SurvivalCurve(times=times, values=values[:, :-1], kind=kind)
        rising = values.copy()
        rising[idx[0]] = np.linspace(0.0, 1.0, len(times))
        with pytest.raises(ValueError):
            SurvivalCurve(times=times, values=rising, kind=kind)


@pytest.mark.parametrize("knots, values", [
    ([[1.0, 2.0]], [[0.1, 0.2]]),  # not 1-D
    ([1.0, 2.0], [0.1]),  # unequal lengths
    ([2.0, 1.0], [0.1, 0.2]),  # knots not increasing
    ([1.0, 1.0], [0.1, 0.2]),  # tied knots
    ([1.0, 2.0], [0.2, 0.1]),  # hazard falls
    ([1.0, 2.0], [-0.1, 0.2]),  # negative hazard
    ([1.0, np.nan], [0.1, 0.2]),  # non-finite knots and values
    ([np.nan], [0.1]),
    ([1.0, np.inf], [0.1, 0.2]),
    ([1.0, 2.0], [0.1, np.nan]),
    ([1.0, 2.0], [0.1, np.inf]),
])
def test_cumulative_hazard_rejects_bad_knots_and_values(knots, values):
    with pytest.raises(ValueError):
        CumHazardFn(knots, values)


def test_shapes_of_batches_and_single_subjects():
    curves = SurvivalCurve(times=[1.0, 2.0], values=[[1.0, 0.5], [0.8, 0.2], [0.6, 0.6]])
    assert len(curves) == 3
    assert curves([0.5, 1.5, 9.0]).shape == (3, 3)
    np.testing.assert_array_equal(curves(1.5), [1.0, 0.8, 0.6])
    one = curves[1]
    assert one.values.shape == (2,)
    assert one(1.5) == 0.8 and isinstance(one(1.5), float)
    assert one.left(2.0) == 0.8
    with pytest.raises(TypeError):
        len(one)
    assert curves[1:].values.shape == (2, 2)
    # a linear curve is continuous: its left limit is its value
    lin = SurvivalCurve(times=[1.0, 2.0], values=[[1.0, 0.5]], kind="linear")
    np.testing.assert_array_equal(lin.left([1.5, 2.0]), lin([1.5, 2.0]))


def test_step_evaluation_leaves_the_curve_unchanged():
    """Scalar and array queries before the first knot return a new array."""
    curves = SurvivalCurve(times=[1.0, 2.0], values=[[0.9, 0.5], [0.8, 0.2]])
    one = curves[0]
    before = curves.values.copy(), one.values.copy()
    np.testing.assert_array_equal(curves(0.5), [1.0, 1.0])
    np.testing.assert_array_equal(curves.left(1.0), [1.0, 1.0])
    assert one(0.5) == 1.0 and one.left([1.0, 1.5]).tolist() == [1.0, 0.9]
    np.testing.assert_array_equal(curves.values, before[0])
    np.testing.assert_array_equal(one.values, before[1])
    np.testing.assert_array_equal(curves(1.0), [0.9, 0.8])
