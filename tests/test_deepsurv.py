"""Score-network model tests: loss, training determinism, linear equivalence."""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from survkit.coxph import fit_coxph
from survkit.deepsurv import (
    DeepSurvParams,
    deepsurv_loss,
    fit_deepsurv,
    load_checkpoint,
    predict_risk,
    predict_survival,
    save_checkpoint,
)
from survkit.errors import DataError
from survkit.metrics import concordance_index


def ph_cohort(seed, n, beta=(0.7, -0.5), censor_scale=2.0):
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    x = rng.normal(0.0, 1.0, (n, len(beta)))
    t_event = rng.exponential(1.0, n) / np.exp(x @ beta)
    c = rng.exponential(censor_scale, n)
    times = np.minimum(t_event, c)
    events = (t_event <= c).astype(float)
    return x, times, events


# -- loss --------------------------------------------------------------------------


def test_loss_equals_linear_partial_likelihood():
    # scores standing in for x . beta give the exact same likelihood
    x, t, e = ph_cohort(0, 50)
    beta = np.array([0.3, -0.2])
    from survkit.coxph import neg_log_partial_likelihood

    v_lin, _ = neg_log_partial_likelihood(beta, x, t, e)
    v_net, _ = deepsurv_loss(x @ beta, t, e)
    assert v_net == pytest.approx(v_lin, rel=1e-12)


def test_loss_gradient_finite_differences():
    rng = np.random.default_rng(1)
    t = np.round(rng.exponential(5.0, 25), 0) + 1.0
    e = (rng.random(25) < 0.7).astype(float)
    scores = rng.normal(0.0, 0.8, 25)
    _, grad = deepsurv_loss(scores, t, e)
    eps = 1e-6
    for j in range(25):
        hi, lo = scores.copy(), scores.copy()
        hi[j] += eps
        lo[j] -= eps
        fd = (deepsurv_loss(hi, t, e)[0] - deepsurv_loss(lo, t, e)[0]) / (2 * eps)
        assert grad[j] == pytest.approx(fd, abs=1e-7)


def test_loss_requires_an_event():
    with pytest.raises(DataError):
        deepsurv_loss(np.zeros(3), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


# -- training ----------------------------------------------------------------------


def small_params(**kw):
    base = dict(hidden=[8], dropout=0.0, epochs=30, batch_size=32, lr=0.05,
                lr_decay=0.9, weight_decay=0.0)
    base.update(kw)
    return DeepSurvParams(**base)


def test_training_is_deterministic():
    x, t, e = ph_cohort(3, 120)
    a = fit_deepsurv(x, t, e, small_params(dropout=0.1), seed=5)
    b = fit_deepsurv(x, t, e, small_params(dropout=0.1), seed=5)
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.epoch_losses == b.epoch_losses
    c = fit_deepsurv(x, t, e, small_params(dropout=0.1), seed=6)
    assert not np.array_equal(a.net.weights[0], c.net.weights[0])


def sparse_event_cohort(seed, n, p, event_rate):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    t = np.round(rng.exponential(5.0, size=n) * np.exp(-0.5 * x[:, 0]), 1) + 0.1
    e = (rng.random(n) < event_rate).astype(float)
    return x, t, e


def test_training_trajectory_is_pinned():
    """Losses and final parameters, bit for bit, of a run with skipped batches."""
    x, t, e = sparse_event_cohort(11, 60, 4, 0.15)
    params = DeepSurvParams(hidden=[6, 5], dropout=0.2, epochs=4, batch_size=4, lr=0.05,
                            lr_decay=0.8, weight_decay=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_deepsurv(x, t, e, params, seed=3)
    assert model.skipped_batches == 25
    assert model.epoch_losses == [
        10.852290432760189, 11.940128475226148, 9.771000501910889, 9.149240179535466,
    ]
    assert hashlib.sha256(model.net.params.tobytes()).hexdigest() == (
        "f00cba4d06fc1637696cfce3b26e488639ba3c7f97140dd2bd3130aac73ed847"
    )


def test_training_reduces_the_loss():
    x, t, e = ph_cohort(7, 200)
    model = fit_deepsurv(x, t, e, small_params(epochs=40), seed=1)
    losses = model.epoch_losses
    assert losses[-1] < losses[0]


def test_no_events_anywhere_is_an_error():
    x = np.zeros((4, 2))
    with pytest.raises(DataError):
        fit_deepsurv(x, [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], small_params(), seed=0)


def test_event_free_batches_are_skipped_with_a_warning():
    # batch_size 2 with a single event guarantees event-free batches
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 2))
    t = rng.exponential(5.0, 20) + 0.1
    e = np.zeros(20)
    e[3] = 1.0
    with pytest.warns(UserWarning, match="event-free"):
        model = fit_deepsurv(x, t, e, small_params(epochs=2, batch_size=2), seed=0)
    assert model.skipped_batches > 0


# -- linear equivalence --------------------------------------------------------------


def test_zero_hidden_layers_match_linear_model():
    """A linear score network trained on the same likelihood should rank
    held-out subjects the same way the closed-form linear fit does."""
    x, t, e = ph_cohort(11, 2000)
    x_train, t_train, e_train = x[:1600], t[:1600], e[:1600]
    x_test, t_test, e_test = x[1600:], t[1600:], e[1600:]

    cox = fit_coxph(x_train, t_train, e_train)
    params = DeepSurvParams(hidden=[], dropout=0.0, epochs=60, batch_size=128,
                            lr=0.05, lr_decay=0.95, weight_decay=0.0)
    net = fit_deepsurv(x_train, t_train, e_train, params, seed=2)

    risk_cox = x_test @ cox.beta
    risk_net = predict_risk(net, x_test)
    c_cox = concordance_index(t_test, e_test, risk_cox)
    c_net = concordance_index(t_test, e_test, risk_net)
    assert abs(c_cox - c_net) < 0.01

    from scipy import stats as sstats

    rho = sstats.spearmanr(risk_cox, risk_net).statistic
    assert rho > 0.99


# -- prediction and persistence -------------------------------------------------------


def test_survival_curves_compose_from_baseline():
    x, t, e = ph_cohort(13, 150)
    model = fit_deepsurv(x, t, e, small_params(epochs=10), seed=3)
    times = np.sort(np.unique(t[e == 1.0]))[:20]
    curves = predict_survival(model, x[:4], times)
    h0 = model.baseline(times)
    risk = np.exp(predict_risk(model, x[:4]))
    for i, c in enumerate(curves):
        np.testing.assert_allclose(np.asarray(c(times)), np.exp(-h0 * risk[i]), rtol=1e-12)
        assert np.all(np.diff(np.asarray(c(times))) <= 0)
    with pytest.raises(DataError):
        predict_survival(model, x[:2], times[::-1])


def test_checkpoint_round_trip(tmp_path):
    x, t, e = ph_cohort(17, 80)
    model = fit_deepsurv(x, t, e, small_params(epochs=5), seed=4)
    p = tmp_path / "net.json"
    save_checkpoint(model, p)
    back = load_checkpoint(p)
    # every DeepSurvParams field is saved, so a new field cannot be dropped
    saved = json.loads(p.read_text(encoding="utf-8"))["params"]
    assert set(saved) == {f.name for f in dataclasses.fields(DeepSurvParams)}
    assert back.params == model.params
    np.testing.assert_array_equal(back.net.weights[0], model.net.weights[0])
    np.testing.assert_array_equal(back.baseline.knots, model.baseline.knots)
    np.testing.assert_array_equal(
        predict_risk(back, x[:10]), predict_risk(model, x[:10])
    )
