"""Metric tests: KM, concordance, IPCW Brier/IBS, time-dependent AUC, bootstrap.

Every IPCW quantity is checked against a deliberately plain double-loop
oracle written from the definitions, not against the library's own code.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survkit import _kernels, metrics
from survkit.curves import SurvivalCurve
from survkit.errors import ComputationError, DataError
from survkit.metrics import (
    DECILES,
    bootstrap_ci,
    bootstrap_counts,
    brier_score,
    censoring_km,
    concordance_index,
    cumulative_dynamic_auc,
    integrated_brier,
    kaplan_meier,
)
from survkit.synth import ensure_like


def censored_sample(rng, n, censor_prob=0.35):
    times = rng.integers(1, max(4, n // 3), size=n).astype(float)
    events = (rng.random(n) > censor_prob).astype(float)
    if events.sum() == 0:
        events[0] = 1.0
    return times, events


# -- Kaplan-Meier ------------------------------------------------------------------


def test_km_hand_values_with_ties_and_censoring():
    # risk sets 4 then 2: S = (1 - 2/4), then * (1 - 1/2); censoring adds no knot
    km = kaplan_meier([1.0, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_array_equal(km.times, [1.0, 2.0])
    np.testing.assert_allclose(km.values, [0.5, 0.25])


def test_km_evaluation_is_right_continuous_with_left_limits():
    km = kaplan_meier([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(km([0.5, 1.0, 1.5, 3.0]), [1.0, 2 / 3, 2 / 3, 0.0])
    # left limits: the value just before each time
    np.testing.assert_allclose(km.left([1.0, 1.5, 2.0, 9.0]), [1.0, 2 / 3, 2 / 3, 0.0])


def test_km_all_censored_is_flat_one():
    km = kaplan_meier([1.0, 2.0], [0.0, 0.0])
    assert len(km.times) == 0
    np.testing.assert_allclose(km([0.5, 5.0]), [1.0, 1.0])


def test_censoring_km_flips_the_indicator():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([1.0, 0.0, 1.0, 0.0])
    g = censoring_km(t, e)
    direct = kaplan_meier(t, 1.0 - e)
    np.testing.assert_array_equal(g.times, direct.times)
    np.testing.assert_allclose(g.values, direct.values)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.floats(0.0, 1.0))
def test_km_is_non_increasing_within_unit_interval(seed, n, censor_prob):
    rng = np.random.default_rng(seed)
    times = rng.integers(1, max(2, n // 2), size=n).astype(float)
    events = (rng.random(n) >= censor_prob).astype(float)
    values = kaplan_meier(times, events).values
    assert np.all(np.diff(values) <= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_outcome_validation():
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    e = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    s = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    # subject i's curve is NaN at its own time, so at every event time some row is
    holes = SurvivalCurve(times=t, values=np.where(np.eye(5) > 0, np.nan, 0.5), kind="step")
    for call, match in (
        (lambda: kaplan_meier([], []), None),
        (lambda: kaplan_meier([1.0, np.nan], [1.0, 0.0]), None),
        (lambda: kaplan_meier([1.0, 2.0], [1.0, 2.0]), None),
        (lambda: brier_score(t, e, s, float("nan")), "horizon must be finite"),
        (lambda: brier_score(t, e, s, np.inf), "horizon must be finite"),
        (lambda: brier_score(t, e, np.r_[np.nan, s[1:]], 2.5), "surv_probs must be complete"),
        (lambda: cumulative_dynamic_auc(t, e, np.r_[s[:4], np.nan]), "scores must be complete"),
        (lambda: integrated_brier(t, e, holes), "curves must be complete"),
        (lambda: integrated_brier(t, e, holes, counts=np.ones((2, 5))), "curves must be complete"),
    ):
        with pytest.raises(DataError, match=match):
            call()


# -- concordance -------------------------------------------------------------------


def test_concordance_perfect_and_inverted():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.ones(4)
    assert concordance_index(t, e, -t) == 1.0
    assert concordance_index(t, e, t) == 0.0
    assert concordance_index(t, e, np.zeros(4)) == 0.5


def c_oracle(t, e, s):
    """Harrell's C by an O(n^2) enumeration with half-credit ties; NaN
    without comparable pairs."""
    conc = comp = 0.0
    n = len(t)
    for i in range(n):
        for j in range(n):
            if i == j or e[i] != 1.0:
                continue
            if t[j] > t[i] or (t[j] == t[i] and e[j] == 0.0):
                comp += 1
                if s[i] > s[j]:
                    conc += 1
                elif s[i] == s[j]:
                    conc += 0.5
    return conc / comp if comp else np.nan


def test_concordance_bit_equal_to_bruteforce():
    """Same float as an O(n^2) enumeration, including half-credit ties."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        t, e = censored_sample(rng, n)
        s = np.round(rng.normal(size=n), 1)
        assert concordance_index(t, e, s) == c_oracle(t, e, s)


def test_concordance_no_comparable_pairs():
    with pytest.raises(ComputationError):
        concordance_index([5.0, 5.0], [1.0, 1.0], [1.0, 2.0])


def test_unweighted_concordance_skips_the_blocked_kernel(monkeypatch):
    """Without counts, C is taken from the sorted counts alone."""

    def blocked(*args):
        raise AssertionError("the unweighted C entered the blocked kernel")

    monkeypatch.setattr(_kernels, "_blocked_counts", blocked)
    rng = np.random.default_rng(37)
    t, e = censored_sample(rng, 300)
    s = np.round(rng.normal(size=300), 1)
    assert concordance_index(t, e, s) == c_oracle(t, e, s)
    # the guard is live: a counts matrix does go through it
    with pytest.raises(AssertionError, match="blocked kernel"):
        concordance_index(t, e, s, counts=np.ones((1, 300)))


def test_oracle_c_of_the_reference_cohort_is_pinned():
    """The float the O(n^2) counts gave for `ensure_like(0)`, to the last bit."""
    assert ensure_like(0)[1].oracle_c == 0.7487911063753805


# -- Brier score -------------------------------------------------------------------


def brier_oracle(t, e, s, horizon, g=None):
    """Direct IPCW double sum from the definition: (score, dropped terms)."""
    if g is None:
        g = censoring_km(t, e)
    total = 0.0
    dropped = 0
    for i in range(len(t)):
        if t[i] <= horizon and e[i] == 1.0:
            gi = float(g.left(np.array([t[i]]))[0])
            if gi > 0:
                total += s[i] ** 2 / gi
            else:
                dropped += 1
        elif t[i] > horizon:
            gh = float(g(horizon))
            if gh > 0:
                total += (1.0 - s[i]) ** 2 / gh
            else:
                dropped += 1
    return total / len(t), dropped


def test_brier_constant_half_prediction_uncensored():
    # S = 0.5 everywhere, no censoring: every subject contributes 0.25
    t = np.arange(1.0, 11.0)
    e = np.ones(10)
    assert brier_score(t, e, np.full(10, 0.5), 5.0) == pytest.approx(0.25)


def test_brier_matches_double_sum_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(10, 100))
        t, e = censored_sample(rng, n)
        s = rng.random(n)
        for horizon in np.quantile(t, [0.2, 0.4, 0.6, 0.8]):
            mine = brier_score(t, e, s, horizon)
            assert mine == pytest.approx(brier_oracle(t, e, s, horizon)[0], abs=1e-12)


def test_brier_fully_uncensored_has_unit_weights():
    # with no censoring the censoring KM is flat 1 and IPCW is a plain mean
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.ones(4)
    s = np.array([0.9, 0.1, 0.7, 0.4])
    h = 2.5
    expected = np.mean([0.9**2, 0.1**2, (1 - 0.7) ** 2, (1 - 0.4) ** 2])
    assert brier_score(t, e, s, h) == pytest.approx(expected)


# -- integrated Brier --------------------------------------------------------------


def step_curves(times, drop_times):
    """Step curves on `times`: row i is 1 while t < drop_times[i], else 0."""
    times = np.unique(times)
    values = (times[None, :] < np.asarray(drop_times, dtype=float)[:, None]).astype(float)
    return SurvivalCurve(times=times, values=values, kind="step")


def test_ibs_perfect_predictions_score_zero():
    t = np.arange(1.0, 9.0)
    e = np.ones(8)
    assert integrated_brier(t, e, step_curves(t, t)) == pytest.approx(0.0, abs=1e-15)


def test_ibs_constant_half_is_quarter():
    t = np.arange(1.0, 11.0)
    e = np.ones(10)
    flat = SurvivalCurve(times=t, values=np.full((10, 10), 0.5), kind="linear")
    assert integrated_brier(t, e, flat) == pytest.approx(0.25)


def test_ibs_matches_trapezoid_of_pointwise_brier():
    rng = np.random.default_rng(13)
    n = 60
    t, e = censored_sample(rng, n)
    drop = t + rng.random(n) * 3
    curves = step_curves(t, drop)
    grid = np.unique(t[e == 1.0])
    grid = grid[grid <= np.quantile(t, 0.9)]
    scores = [brier_oracle(t, e, (u < drop).astype(float), u)[0] for u in grid]
    expected = np.trapezoid(scores, grid) / (grid[-1] - grid[0])
    got = integrated_brier(t, e, curves)
    assert got == pytest.approx(expected, rel=1e-12)


def test_ibs_needs_enough_grid():
    with pytest.raises(DataError):
        integrated_brier([1.0, 2.0], [1.0, 0.0], step_curves([1.0, 2.0], [1.0, 1.0]))


# Tied integer times 1..6 with the largest one censored or not, so the
# censoring KM reaches 0 in some cohorts; horizons before, at, between and
# past the times.
HORIZONS = np.r_[0.5, np.arange(1.0, 6.5, 0.5), 7.0]

brier_cases = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.booleans(),
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), min_size=n, max_size=n
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(brier_cases)
def test_brier_grid_matches_oracle_with_zero_weights(case):
    """At tied times and at horizons where the censoring KM is 0, the score
    is the double sum, and the double sum drops no term: no subject needs
    a zero weight."""
    times, events, last_censored, rows = case
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    if last_censored:
        t[-1] = 6.0
        e[-1] = 0.0
    curves = SurvivalCurve(
        times=np.arange(1.0, 7.0), values=-np.sort(-np.asarray(rows), axis=1), kind="step"
    )
    for u in HORIZONS:
        s = curves(np.array([u]))[:, 0]
        expected, dropped = brier_oracle(t, e, s, u)
        assert dropped == 0
        assert brier_score(t, e, s, u) == pytest.approx(expected, abs=1e-12)


# -- time-dependent AUC -------------------------------------------------------------


def tauc_oracle(t, e, s, horizons, g=None):
    """Weighted case/control double loop from the definition: (AUCs at the
    kept horizons, cases dropped for zero weight at horizons with controls)."""
    if g is None:
        g = censoring_km(t, e)
    out = []
    dropped = 0
    for h in horizons:
        controls = np.flatnonzero(t > h)
        cases = []
        for i in np.flatnonzero((t <= h) & (e == 1.0)):
            gi = float(g.left(np.array([t[i]]))[0])
            if gi > 0:
                cases.append((i, 1.0 / gi))
            elif len(controls):
                dropped += 1
        if not cases or len(controls) == 0:
            continue
        num = 0.0
        wsum = 0.0
        for i, w in cases:
            wsum += w
            for j in controls:
                if s[i] > s[j]:
                    num += w
                elif s[i] == s[j]:
                    num += 0.5 * w
        out.append(num / (wsum * len(controls)))
    return np.array(out), dropped


def test_tauc_perfect_and_inverted_ranking():
    t = np.arange(1.0, 21.0)
    e = np.ones(20)
    res = cumulative_dynamic_auc(t, e, -t)
    np.testing.assert_allclose(res.values, 1.0)
    assert res.mean == 1.0
    res_inv = cumulative_dynamic_auc(t, e, t)
    np.testing.assert_allclose(res_inv.values, 0.0)


def test_tauc_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(15, 80))
        t, e = censored_sample(rng, n)
        s = np.round(rng.normal(size=n), 1)
        horizons = np.unique(np.quantile(t[e == 1.0], DECILES))
        res = cumulative_dynamic_auc(t, e, s)
        np.testing.assert_allclose(res.values, tauc_oracle(t, e, s, horizons)[0], atol=1e-12)


def test_tauc_skips_degenerate_horizons():
    t = np.array([1.0, 2.0, 2.0, 2.0])
    e = np.ones(4)
    deciles = np.unique(np.quantile(t, DECILES))
    assert deciles[-1] == 2.0
    res = cumulative_dynamic_auc(t, e, -t)
    # nobody is at risk after 2.0, so it has no controls: the others survive
    np.testing.assert_array_equal(res.horizons, deciles[:-1])
    # the one decile of [2, 2] has no controls either
    with pytest.raises(ComputationError):
        cumulative_dynamic_auc([2.0, 2.0], [1.0, 1.0], [0.0, 1.0])


# -- bootstrap ----------------------------------------------------------------------


def legacy_draws(e, n_boot, seed):
    """The bootstrap's replicate index arrays: one generator per replicate,
    seeded (seed, replicate), one `choice` per event/censored stratum."""
    idx_event = np.flatnonzero(e == 1.0)
    idx_cens = np.flatnonzero(e == 0.0)
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        parts = []
        if len(idx_event):
            parts.append(rng.choice(idx_event, size=len(idx_event), replace=True))
        if len(idx_cens):
            parts.append(rng.choice(idx_cens, size=len(idx_cens), replace=True))
        yield np.concatenate(parts)


def test_bootstrap_is_deterministic_and_stratified():
    rng = np.random.default_rng(23)
    t, e = censored_sample(rng, 60)
    s = rng.normal(size=60)

    def metric(counts):
        # stratified resampling must preserve the event count exactly
        assert (counts @ e == e.sum()).all()
        assert (counts.sum(axis=1) == len(t)).all()
        return concordance_index(t, e, s, counts=counts)

    r1 = bootstrap_ci(metric, bootstrap_counts(e, 100, 5), name="c")
    r2 = bootstrap_ci(metric, bootstrap_counts(e, 100, 5), name="c")
    assert (r1.point, r1.ci_low, r1.ci_high) == (r2.point, r2.ci_low, r2.ci_high)
    assert r1.ci_low <= r1.point <= r1.ci_high
    assert r1.point == concordance_index(t, e, s)
    assert r1.n_failed == 0
    r3 = bootstrap_ci(metric, bootstrap_counts(e, 100, 6), name="c")
    assert (r1.ci_low, r1.ci_high) != (r3.ci_low, r3.ci_high)


def test_bootstrap_failure_threshold():
    rng = np.random.default_rng(29)
    t, e = censored_sample(rng, 30)

    def fragile(counts):
        # fine on the sample itself, fails on any resample with duplicates
        return np.where((counts > 1).any(axis=1), np.nan, 1.0)

    with pytest.raises(ComputationError, match="failed on"):
        bootstrap_ci(fragile, bootstrap_counts(e, 50, 1))

    def undefined(counts):
        # NaN on the sample, also when it is scored alone
        return np.nan if counts is None else np.full(len(counts), np.nan)

    with pytest.raises(ComputationError, match="undefined on the full sample"):
        bootstrap_ci(undefined, bootstrap_counts(e, 5, 1))


def test_bootstrap_raises_the_metrics_own_error_on_the_sample():
    # one distinct event time: IBS has no grid on the sample itself
    t = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    e = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    curves = SurvivalCurve(times=[1.0], values=np.full((6, 1), 0.5), kind="step")
    with pytest.raises(DataError, match="fewer than 2 event times"):
        bootstrap_ci(lambda w: integrated_brier(t, e, curves, counts=w),
                     bootstrap_counts(e, 5, 1), name="ibs")


@pytest.mark.parametrize("censor_prob", [0.0, 0.35, 1.0])
def test_bootstrap_counts_are_the_legacy_draws(censor_prob):
    rng = np.random.default_rng(37)
    t, e = censored_sample(rng, 40, censor_prob)
    if censor_prob == 1.0:
        e[:] = 0.0
    counts = bootstrap_counts(e, 30, 9)
    assert counts.shape == (31, 40)
    np.testing.assert_array_equal(counts[0], np.ones(40))
    for row, idx in zip(counts[1:], legacy_draws(e, 30, 9), strict=True):
        np.testing.assert_array_equal(row, np.bincount(idx, minlength=40))


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_batch_values_do_not_depend_on_row_chunks(monkeypatch, chunk):
    """`bootstrap_ci` scores blocks of ROW_CHUNK rows; their size moves no
    value of C or tAUC, and IBS only in the last bits."""
    rng = np.random.default_rng(41)
    t, e = censored_sample(rng, 80)
    s = np.round(rng.normal(size=80), 1)
    curves = step_curves(t, t + rng.random(80) * 3)
    counts = bootstrap_counts(e, 150, 2)  # 151 rows: two full blocks and a short one
    metric_fns = {
        "c_index": lambda w: concordance_index(t, e, s, counts=w),
        "ibs": lambda w: integrated_brier(t, e, curves, counts=w),
        "tauc_mean": lambda w: cumulative_dynamic_auc(t, e, s, counts=w).mean,
    }

    def evaluate():
        """{name: (MetricResult, every row's value)}"""
        out = {}
        for name, fn in metric_fns.items():
            blocks = []

            def recorded(w, fn=fn, blocks=blocks):
                blocks.append(fn(w))
                return blocks[-1]

            out[name] = bootstrap_ci(recorded, counts), np.concatenate(blocks)
        return out

    whole = evaluate()
    monkeypatch.setattr(metrics, "ROW_CHUNK", chunk)
    blocked = evaluate()
    for name in ("c_index", "tauc_mean"):
        assert blocked[name][0] == whole[name][0]
        np.testing.assert_array_equal(blocked[name][1], whole[name][1])
    # IBS cannot be exact: its two matrix products are BLAS products, and
    # BLAS rounds a product of a few rows differently from the same rows
    # inside a larger product (a few ulps here, at one BLAS thread too).
    # Only the 64-row blocks, whose edges never move, keep the bytes.
    (ibs, ibs_rows), (ibs_blocked, ibs_blocked_rows) = whole["ibs"], blocked["ibs"]
    np.testing.assert_allclose(ibs_blocked_rows, ibs_rows, rtol=1e-14)
    np.testing.assert_allclose(
        [ibs_blocked.point, ibs_blocked.ci_low, ibs_blocked.ci_high],
        [ibs.point, ibs.ci_low, ibs.ci_high], rtol=1e-14,
    )


def ibs_oracle(t, e, curves, g):
    """One sample's IBS from the definition: its own grid, the pointwise
    Brier oracle, a trapezoid; (value or NaN, dropped terms)."""
    event_times = np.unique(t[e == 1.0])
    grid = event_times[event_times <= np.quantile(t, 0.9)]
    if len(grid) < 2:
        return np.nan, 0
    scores, drops = zip(*(brier_oracle(t, e, curves(np.array([u]))[:, 0], u, g) for u in grid))
    return np.trapezoid(scores, grid) / (grid[-1] - grid[0]), sum(drops)


def tauc_mean_oracle(t, e, s, g):
    """One sample's mean AUC over its distinct event-time deciles; (value
    or NaN, dropped cases)."""
    values, dropped = tauc_oracle(t, e, s, np.unique(np.quantile(t[e == 1.0], DECILES)), g)
    return (values.mean() if len(values) else np.nan), dropped


N_BOOT = 12

# Tied times 1..6, tied scores, any censoring share (the first subject is
# an event); curve rows on the six times.
boot_cases = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), min_size=n, max_size=n
        ),
        st.integers(0, 2**16),
    )
)


@settings(max_examples=150, deadline=None)
@given(boot_cases)
def test_batch_bootstrap_matches_per_replicate_oracle(case):
    times, events, scores, rows, seed = case
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    e[0] = 1.0
    s = np.asarray(scores, dtype=float)
    curves = SurvivalCurve(
        times=np.arange(1.0, 7.0), values=-np.sort(-np.asarray(rows), axis=1), kind="step"
    )
    counts = bootstrap_counts(e, N_BOOT, seed)
    draws = [np.arange(len(t)), *legacy_draws(e, N_BOOT, seed)]

    np.testing.assert_array_equal(
        concordance_index(t, e, s, counts=counts), [c_oracle(t[i], e[i], s[i]) for i in draws]
    )

    for batch, oracle in (
        (
            lambda: integrated_brier(t, e, curves, counts=counts),
            lambda i: ibs_oracle(t[i], e[i], curves[i], censoring_km(t[i], e[i])),
        ),
        (
            lambda: cumulative_dynamic_auc(t, e, s, counts=counts).mean,
            lambda i: tauc_mean_oracle(t[i], e[i], s[i], censoring_km(t[i], e[i])),
        ),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = batch()
        want = np.array([oracle(i)[0] for i in draws])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12)


# Tied times 1..6 with the largest one censored or not, and horizons
# reaching past every time.
reach_cases = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.booleans(),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.sampled_from([1.0, 2.5, 4.0, 6.0, 7.0]), min_size=1, max_size=4),
        st.integers(0, 2**16),
    )
)


@settings(max_examples=150, deadline=None)
@given(reach_cases)
def test_own_censoring_km_never_drops_a_weighted_subject(case):
    """Under each sample's own censoring KM no subject it holds needs a zero
    weight: G(c) = 0 only where everyone still at risk is censored at c, so
    nobody of the sample has an event or is at risk after c. The oracles
    count such drops from the definition on every expanded replicate; the
    metrics' guarded divisions rest on this."""
    times, events, last_censored, scores, horizons, seed = case
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    e[0] = 1.0
    if last_censored:
        t[-1] = 6.0
        e[-1] = 0.0
    s = np.asarray(scores, dtype=float)
    curves = SurvivalCurve(
        times=np.arange(1.0, 7.0), values=np.full((len(t), 6), 0.5), kind="step"
    )
    for i in [np.arange(len(t)), *legacy_draws(e, N_BOOT, seed)]:
        g = censoring_km(t[i], e[i])
        for u in np.unique(t[i][e[i] == 1.0]):
            assert brier_oracle(t[i], e[i], curves[i](np.array([u]))[:, 0], u, g)[1] == 0
        assert tauc_oracle(t[i], e[i], s[i], horizons, g)[1] == 0


def test_zero_weight_subject_past_a_zero_censoring_km_is_ignored():
    """The subject at t = 4 is out of the replicate, whose censoring KM is
    0 from t = 3 on, so G(4-) = 0 meets a zero weight. The guarded
    divisions make it count for nothing: the values are those of the
    three-subject sample, finite and without a warning."""
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([1.0, 1.0, 0.0, 1.0])
    s = np.array([0.75, 0.5, 0.25, 0.0])
    curves = SurvivalCurve(
        times=[1.0, 2.0, 4.0], values=np.array([[0.5, 0.25, 0.0]] * 4), kind="step"
    )
    counts = np.array([[1.0, 1.0, 1.0, 0.0]])
    assert censoring_km(t, e, counts=counts).left(t)[0, 3] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ibs = integrated_brier(t, e, curves, counts=counts)
        tauc = cumulative_dynamic_auc(t, e, s, counts=counts)
    assert np.isfinite(ibs[0]) and np.isfinite(tauc.mean[0])
    assert ibs[0] == integrated_brier(t[:3], e[:3], curves[:3])
    alone = cumulative_dynamic_auc(t[:3], e[:3], s[:3])
    assert tauc.mean[0] == alone.mean
    np.testing.assert_array_equal(tauc.values[0][~np.isnan(tauc.values[0])], alone.values)
