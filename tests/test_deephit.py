"""Discrete-time model tests: time grid, combined loss, curve properties."""

import hashlib
import warnings

import numpy as np
import pytest

from survkit.deephit import (
    SIGMA_MIN,
    DeepHitParams,
    TimeGrid,
    deephit_loss,
    fit_deephit,
    make_time_grid,
    predict_pmf,
    predict_risk,
    predict_survival,
)
from survkit.errors import DataError


def softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


# -- time grid ----------------------------------------------------------------------


def test_quantile_cuts_hand_case():
    """Five bins over the integers 1..10: linear-interpolation quantiles."""
    times = np.arange(1.0, 11.0)
    grid = make_time_grid(times, 5)
    np.testing.assert_allclose(grid.cuts, [2.8, 4.6, 6.4, 8.2, 10.0])
    assert grid.n_bins == 5


def test_bin_index_right_closed_and_clamped():
    grid = TimeGrid(cuts=np.array([2.8, 4.6, 6.4, 8.2, 10.0]))
    idx = grid.bin_index([0.5, 2.8, 2.9, 10.0, 99.0])
    np.testing.assert_array_equal(idx, [0, 0, 1, 4, 4])


def test_grid_validation():
    with pytest.raises(DataError):
        TimeGrid(cuts=np.array([]))
    with pytest.raises(DataError):
        TimeGrid(cuts=np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        TimeGrid(cuts=np.array([0.0, 1.0]))
    with pytest.raises(DataError):
        make_time_grid([], 5)
    with pytest.raises(DataError):
        make_time_grid([1.0, 2.0], 0)


def test_duplicate_quantiles_collapse_with_warning():
    times = np.r_[np.full(50, 3.0), [9.0]]
    with pytest.warns(UserWarning, match="duplicate quantiles"):
        grid = make_time_grid(times, 10)
    assert grid.n_bins < 10
    assert grid.cuts[-1] == 9.0


# -- loss: hand cases ----------------------------------------------------------------


def test_event_likelihood_hand_case():
    # single event in bin 1 of pmf (0.2, 0.3, 0.5): loss -log 0.3,
    # logit gradient p - onehot
    pmf = np.array([[0.2, 0.3, 0.5]])
    value, grad = deephit_loss(pmf, [1], [1.0], alpha=0.0)
    assert value == pytest.approx(-np.log(0.3))
    np.testing.assert_allclose(grad, [[0.2, -0.7, 0.5]], atol=1e-12)


def test_censored_likelihood_hand_case():
    # censored in bin 0: survival mass is 0.3 + 0.5 = 0.8
    pmf = np.array([[0.2, 0.3, 0.5]])
    value, grad = deephit_loss(pmf, [0], [0.0], alpha=0.0)
    assert value == pytest.approx(-np.log(0.8))
    np.testing.assert_allclose(grad, [[0.2, -0.075, -0.125]], atol=1e-12)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_ranking_term_hand_case():
    """Two events in bins 0 and 1: one valid pair contributing
    exp(-(F_earlier(k) - F_later(k)) / sigma)."""
    pmf = np.array([[0.6, 0.4], [0.3, 0.7]])
    value, _ = deephit_loss(pmf, [0, 1], [1.0, 1.0], alpha=1.0, sigma=1.0)
    l_like = (-np.log(0.6) - np.log(0.7)) / 2
    l_rank = np.exp(-(0.6 - 0.3) / 1.0)
    assert value == pytest.approx(l_like + l_rank, rel=1e-12)


def test_ranking_gradient_equals_a_pair_loop_bit_for_bit():
    """The ranking part of the logit gradient, with d L_rank / d F summed
    cell by cell in a per-pair loop (row-major over the valid (i, j)), on
    random batches with tied bins, all-censored rows and extreme sigma."""
    rng = np.random.default_rng(41)
    for case in range(300):
        n, n_bins = int(rng.integers(1, 40)), int(rng.integers(1, 30))
        pmf = softmax(rng.normal(0.0, float(rng.choice([0.1, 1.0, 20.0])), (n, n_bins)))
        k = rng.integers(0, n_bins, n)
        if case % 3 == 0:
            k = np.minimum(k, 2)
        e = (rng.random(n) < float(rng.choice([0.0, 0.5, 1.0]))).astype(float)
        sigma = float(rng.choice([SIGMA_MIN, 0.1, 1.0]))
        value, grad = deephit_loss(pmf, k, e, alpha=0.2, sigma=sigma)
        like_value, like_grad = deephit_loss(pmf, k, e, alpha=0.0)

        f_cum = np.cumsum(pmf, axis=1)
        g_f = np.zeros_like(pmf)
        terms = np.zeros((n, n))
        valid = [(i, j) for i in range(n) for j in range(n) if e[i] == 1.0 and k[i] < k[j]]
        for i, j in valid:
            terms[i, j] = np.exp(-(f_cum[i, k[i]] - f_cum[j, k[i]]) / sigma)
        if valid:
            scale = 1.0 / (sigma * len(valid))
            for i in range(n):
                if any(a == i for a, _ in valid):
                    g_f[i, k[i]] -= terms[i].sum() * scale
            for i, j in valid:
                g_f[j, k[i]] += terms[i, j] * scale
            tail = np.cumsum(g_f[:, ::-1], axis=1)[:, ::-1]
            like_grad += 0.2 * pmf * (tail - (g_f * f_cum).sum(axis=1, keepdims=True))
            like_value += 0.2 * float(terms.sum() / len(valid))
        assert value == like_value
        assert grad.tobytes() == like_grad.tobytes()


def test_alpha_zero_disables_ranking():
    pmf = np.array([[0.6, 0.4], [0.3, 0.7]])
    v0, g0 = deephit_loss(pmf, [0, 1], [1.0, 1.0], alpha=0.0)
    l_like = (-np.log(0.6) - np.log(0.7)) / 2
    assert v0 == pytest.approx(l_like, rel=1e-12)


def test_floored_probability_contributes_no_gradient():
    # event mass below the floor: finite loss, flat gradient for that row
    z = np.array([[40.0, -40.0, 0.0]])
    pmf = softmax(z)
    value, grad = deephit_loss(pmf, [1], [1.0], alpha=0.0)
    assert np.isfinite(value)
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_loss_validation():
    pmf = np.array([[0.5, 0.5]])
    with pytest.raises(DataError):
        deephit_loss(pmf, [2], [1.0])
    with pytest.raises(DataError):
        deephit_loss(pmf, [0], [1.0], sigma=0.0)
    with pytest.raises(DataError):
        deephit_loss(pmf, [0, 1], [1.0])


def test_overflowing_sigma_is_a_data_error_without_warnings():
    """A pair term exp((F_j - F_i) / sigma) is at most exp(1/sigma) for CDF
    values, with gradient exp(1/sigma) / sigma; below SIGMA_MIN those can
    overflow, and training stops at its first batch with a typed error,
    before any exp runs."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 4))
    t = rng.exponential(10.0, 300) + 0.1
    e = (rng.random(300) < 0.6).astype(float)
    params = DeepHitParams(hidden=[8], n_bins=20, epochs=5, sigma=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="sigma"):
            fit_deephit(x, t, e, params, seed=0)
        # at the bound, the largest possible pair term and its gradient are finite
        value, grad = deephit_loss(np.array([[0.0, 1.0], [1.0, 0.0]]), [0, 1], [1.0, 0.0],
                                   sigma=SIGMA_MIN)
    assert np.isfinite(value) and np.isfinite(grad).all()
    assert 1.4e-3 < SIGMA_MIN < 1.43e-3


# -- loss: finite differences through the softmax --------------------------------------


def test_logit_gradient_finite_differences():
    """Full-coordinate central differences across alpha/sigma settings."""
    rng = np.random.default_rng(21)
    n, n_bins = 7, 5
    for alpha in (0.0, 0.5, 1.0):
        for sigma in (0.1, 1.0):
            z = rng.normal(0.0, 1.0, (n, n_bins))
            labels = rng.integers(0, n_bins, n)
            events = (rng.random(n) < 0.6).astype(float)
            if events.sum() == 0:
                events[0] = 1.0
            _, grad = deephit_loss(softmax(z), labels, events, alpha, sigma)
            eps = 1e-6
            for i in range(n):
                for m in range(n_bins):
                    hi, lo = z.copy(), z.copy()
                    hi[i, m] += eps
                    lo[i, m] -= eps
                    v_hi = deephit_loss(softmax(hi), labels, events, alpha, sigma)[0]
                    v_lo = deephit_loss(softmax(lo), labels, events, alpha, sigma)[0]
                    fd = (v_hi - v_lo) / (2 * eps)
                    assert grad[i, m] == pytest.approx(fd, abs=5e-7), (alpha, sigma, i, m)


# -- training and prediction -----------------------------------------------------------


def ph_cohort(seed, n, beta=(0.8, -0.6)):
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    x = rng.normal(0.0, 1.0, (n, len(beta)))
    t_event = rng.exponential(20.0, n) / np.exp(x @ beta)
    c = rng.exponential(40.0, n)
    times = np.minimum(t_event, c)
    events = (t_event <= c).astype(float)
    return x, times, events


def small_params(**kw):
    base = dict(hidden=[16], n_bins=12, dropout=0.0, epochs=20, batch_size=64,
                lr=0.01, lr_decay=0.9, weight_decay=0.0, alpha=0.2, sigma=0.1,
                n_interp=30)
    base.update(kw)
    return DeepHitParams(**base)


def test_pmf_rows_sum_to_one():
    x, t, e = ph_cohort(1, 300)
    model = fit_deephit(x, t, e, small_params(epochs=5), seed=0)
    pmf = predict_pmf(model, np.random.default_rng(2).normal(size=(500, 2)))
    np.testing.assert_allclose(pmf.sum(axis=1), np.ones(500), atol=1e-12)
    assert np.all(pmf >= 0)


def test_survival_curve_properties():
    x, t, e = ph_cohort(3, 300)
    model = fit_deephit(x, t, e, small_params(epochs=5), seed=1)
    curves = predict_survival(model, x[:20])
    for c in curves:
        vals = np.asarray(c.values)
        assert c.times[0] == 0.0
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] < 1e-6
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_training_is_deterministic():
    x, t, e = ph_cohort(5, 200)
    a = fit_deephit(x, t, e, small_params(dropout=0.1, epochs=4), seed=9)
    b = fit_deephit(x, t, e, small_params(dropout=0.1, epochs=4), seed=9)
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.epoch_losses == b.epoch_losses


def test_training_trajectory_is_pinned():
    """Losses and final parameters of a short run, bit for bit."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(50, 4))
    t = np.round(rng.exponential(5.0, size=50) * np.exp(-0.5 * x[:, 0]), 1) + 0.1
    e = (rng.random(50) < 0.6).astype(float)
    params = small_params(hidden=[6], n_bins=6, dropout=0.1, epochs=3, batch_size=16,
                          lr_decay=0.7, weight_decay=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_deephit(x, t, e, params, seed=5)
    assert model.grid.n_bins == 6
    assert model.epoch_losses == [18.969393090085983, 10.770979098677948, 5.291708143448397]
    assert hashlib.sha256(model.net.params.tobytes()).hexdigest() == (
        "10241403a6e98d1a1d02db1b76dc0244bc24964cb47b92967983217a9881f343"
    )


def test_training_reduces_loss_and_learns_ranking():
    x, t, e = ph_cohort(7, 600, beta=(1.0, -0.8))
    model = fit_deephit(x, t, e, small_params(epochs=25), seed=2)
    assert model.epoch_losses[-1] < model.epoch_losses[0]
    # learned risk should rank by the true linear predictor direction
    risk = predict_risk(model, x)
    true_eta = x @ np.array([1.0, -0.8])
    assert np.corrcoef(risk, true_eta)[0, 1] > 0.6


def test_risk_is_negative_mean_survival():
    x, t, e = ph_cohort(11, 150)
    model = fit_deephit(x, t, e, small_params(epochs=3), seed=4)
    curves = predict_survival(model, x[:6])
    risk = predict_risk(model, x[:6])
    np.testing.assert_allclose(risk, [-np.mean(c.values) for c in curves], rtol=1e-12)


def test_predict_survival_validation():
    x, t, e = ph_cohort(13, 100)
    model = fit_deephit(x, t, e, small_params(epochs=2), seed=5)
    with pytest.raises(DataError):
        predict_survival(model, x[:2], n_points=1)
