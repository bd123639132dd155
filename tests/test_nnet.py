"""Network tests: init, forward/backward, dropout, Adam, training loop."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from survkit.deephit import DeepHitParams, deephit_loss, fit_deephit
from survkit.deepsurv import DeepSurvParams, deepsurv_loss, fit_deepsurv
from survkit.errors import ComputationError, DataError
from survkit.nnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MlpModel,
    adam_step,
    backward,
    epoch_batches,
    forward,
    init_mlp,
    init_optimizer,
)


def linear_model(w, b):
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    return MlpModel([w.shape[0], w.shape[1]], np.concatenate([w.ravel(), b]), 0.0)


# -- initialization ----------------------------------------------------------------


def test_init_shapes_and_he_bounds():
    model = init_mlp([34, 64, 64, 1], dropout=0.1, seed=0)
    assert [w.shape for w in model.weights] == [(34, 64), (64, 64), (64, 1)]
    for w, fan_in in zip(model.weights, [34, 64, 64]):
        bound = np.sqrt(6.0 / fan_in)
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0.1 * bound  # actually spread out, not degenerate
    for b in model.biases:
        np.testing.assert_array_equal(b, np.zeros_like(b))


def test_init_is_deterministic():
    a = init_mlp([5, 8, 1], seed=123)
    b = init_mlp([5, 8, 1], seed=123)
    c = init_mlp([5, 8, 1], seed=124)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_validation():
    with pytest.raises(DataError):
        init_mlp([5])
    with pytest.raises(DataError):
        init_mlp([5, 0, 1])
    with pytest.raises(DataError):
        init_mlp([5, 1], dropout=1.0)


def test_zero_hidden_layers_is_a_linear_model():
    model = init_mlp([3, 1], seed=0)
    x = np.array([[1.0, 2.0, 3.0]])
    out, _ = forward(model, x, mode="eval")
    np.testing.assert_allclose(out, x @ model.weights[0] + model.biases[0])


# -- forward -----------------------------------------------------------------------


def test_forward_linear_exact():
    model = linear_model([[2.0], [-1.0]], [0.5])
    x = np.array([[1.0, 1.0], [3.0, 2.0]])
    out, _ = forward(model, x, mode="train")  # dropout 0: train == eval
    np.testing.assert_array_equal(out, [[1.5], [4.5]])


def test_eval_mode_is_deterministic():
    model = init_mlp([4, 6, 2], dropout=0.5, seed=1)
    x = np.random.default_rng(0).normal(size=(7, 4))
    o1, _ = forward(model, x, mode="eval")
    o2, _ = forward(model, x, mode="eval")
    np.testing.assert_array_equal(o1, o2)


def test_train_mode_masks_are_seeded():
    model = init_mlp([4, 16, 1], dropout=0.5, seed=1)
    x = np.random.default_rng(0).normal(size=(3, 4))
    o1, c1 = forward(model, x, mode="train", seed=9)
    o2, c2 = forward(model, x, mode="train", seed=9)
    o3, _ = forward(model, x, mode="train", seed=10)
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(c1.masks[0], c2.masks[0])
    assert not np.array_equal(o1, o3)


def test_inverted_dropout_preserves_expectation():
    """Averaging many seeded train-mode passes recovers the eval output."""
    model = init_mlp([3, 32, 1], dropout=0.3, seed=5)
    x = np.random.default_rng(1).normal(size=(4, 3))
    eval_out, _ = forward(model, x, mode="eval")
    acc = np.zeros_like(eval_out)
    n_masks = 10000
    for s in range(n_masks):
        out, _ = forward(model, x, mode="train", seed=s)
        acc += out
    mc = acc / n_masks
    np.testing.assert_allclose(mc, eval_out, rtol=0.02)


def test_forward_validation():
    model = init_mlp([3, 1])
    with pytest.raises(DataError):
        forward(model, np.zeros((2, 4)))
    with pytest.raises(DataError):
        forward(model, np.zeros((2, 3)), mode="predict")


# -- backward ----------------------------------------------------------------------


def test_linear_weight_gradient_hand_case():
    # loss = sum(outputs); d loss / d W = x^T 1, d loss / d b = n
    model = linear_model([[2.0], [-1.0]], [0.5])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, cache = forward(model, x, mode="train")
    wg, bg = backward(model, cache, np.ones_like(out))
    np.testing.assert_array_equal(wg[0], [[4.0], [6.0]])
    np.testing.assert_array_equal(bg[0], [2.0])


def test_zero_output_gradient_gives_zero_grads():
    model = init_mlp([3, 4, 2], seed=2)
    x = np.random.default_rng(3).normal(size=(5, 3))
    out, cache = forward(model, x, mode="train")
    wg, bg = backward(model, cache, np.zeros_like(out))
    for g in wg + bg:
        np.testing.assert_array_equal(g, np.zeros_like(g))


def central_difference_check(sizes, dropout, seed):
    """Max relative error between backprop and central finite differences."""
    rng = np.random.default_rng(seed)
    model = init_mlp(sizes, dropout=dropout, seed=seed)
    x = rng.normal(size=(6, sizes[0]))
    target = rng.normal(size=(6, sizes[-1]))
    mask_seed = seed + 1000  # identical dropout masks for every evaluation

    def loss_of(m):
        out, _ = forward(m, x, mode="train", seed=mask_seed)
        return 0.5 * np.sum((out - target) ** 2)

    out, cache = forward(model, x, mode="train", seed=mask_seed)
    wg, bg = backward(model, cache, out - target)

    eps = 1e-5
    worst = 0.0
    for l in range(model.n_layers):
        for grads, params in ((wg[l], model.weights[l]), (bg[l], model.biases[l])):
            it = np.nditer(params, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = params[ix]
                params[ix] = orig + eps
                hi = loss_of(model)
                params[ix] = orig - eps
                lo = loss_of(model)
                params[ix] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(grads[ix]), 1e-8)
                worst = max(worst, abs(grads[ix] - fd) / denom)
    return worst


def test_backprop_matches_finite_differences():
    assert central_difference_check([3, 1], 0.0, seed=0) < 1e-5
    assert central_difference_check([3, 4, 1], 0.0, seed=1) < 1e-5
    assert central_difference_check([3, 4, 4, 2], 0.0, seed=2) < 1e-5


def test_backprop_matches_finite_differences_with_dropout():
    # seeds are chosen so no pre-activation sits within the FD step of a
    # ReLU kink, where central differences are legitimately one-sided
    assert central_difference_check([3, 4, 1], 0.4, seed=3) < 1e-5
    assert central_difference_check([3, 4, 4, 2], 0.2, seed=6) < 1e-5


def test_stale_cache_is_rejected():
    model = init_mlp([3, 4, 1], seed=0)
    x = np.zeros((2, 3))
    out, cache = forward(model, x)
    state = init_optimizer(model, 0.01)
    new_model, _ = adam_step(model, backward(model, cache, np.ones_like(out)), state)
    with pytest.raises(ComputationError, match="stale"):
        backward(new_model, cache, np.ones_like(out))


# -- Adam --------------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    """From zero moments the bias-corrected first step is lr * g/(|g|+eps)."""
    model = linear_model([[1.0]], [0.0])
    state = init_optimizer(model, base_lr=0.1)
    g = np.array([[0.37]])
    new_model, new_state = adam_step(model, ([g], [np.array([0.0])]), state)
    expected = 1.0 - 0.1 * 0.37 / (0.37 + ADAM_EPS)
    assert new_model.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)
    assert new_state.step == 1


def test_adam_second_step_hand_computed():
    # two steps with constant gradient g: moments stay equal to g and g^2
    # after bias correction, so each step subtracts almost exactly lr
    model = linear_model([[0.0]], [0.0])
    state = init_optimizer(model, base_lr=0.05)
    g = ([np.array([[2.0]])], [np.array([0.0])])
    m1, s1 = adam_step(model, g, state)
    m2, _ = adam_step(m1, g, s1)
    assert m2.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-9)


def test_adam_zero_gradient_zero_decay_is_identity():
    model = init_mlp([3, 2], seed=1)
    before = model.params.copy()  # the step updates model.params in place
    state = init_optimizer(model, base_lr=0.1)
    zeros = ([np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases])
    new_model, _ = adam_step(model, zeros, state)
    assert new_model is model and model.stamp == 1
    np.testing.assert_array_equal(model.params, before)


def test_decoupled_weight_decay_shrinks_parameters():
    model = linear_model([[4.0]], [2.0])
    state = init_optimizer(model, base_lr=0.1, weight_decay=0.5)
    zeros = ([np.zeros((1, 1))], [np.zeros(1)])
    new_model, _ = adam_step(model, zeros, state)
    # theta * (1 - lr*wd) with zero gradient: Adam contributes nothing
    assert new_model.weights[0][0, 0] == pytest.approx(4.0 * (1 - 0.1 * 0.5))
    assert new_model.biases[0][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_lr_schedule():
    model = init_mlp([2, 1], seed=0)
    state = init_optimizer(model, base_lr=0.1, gamma=0.7)
    assert state.effective_lr == pytest.approx(0.1)
    state.epoch = 2
    assert state.effective_lr == pytest.approx(0.049)


def test_nonfinite_gradient_names_the_layer():
    model = init_mlp([2, 3, 1], seed=0)
    state = init_optimizer(model, 0.01)
    wg = [np.zeros_like(w) for w in model.weights]
    bg = [np.zeros_like(b) for b in model.biases]
    wg[1][0, 0] = np.nan
    with pytest.raises(ComputationError, match="layer 1"):
        adam_step(model, (wg, bg), state)
    wg[1][0, 0] = 0.0
    bg[0][2] = np.inf  # the last entry of layer 0's block
    with pytest.raises(ComputationError, match="layer 0"):
        adam_step(model, (wg, bg), state)


def flat(weights, biases):
    """Per-layer arrays in the model's flat layout W0, b0, W1, b1, ..."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def test_flat_adam_equals_per_layer_reference():
    """Five steps against Adam written out array by array, bit for bit."""
    rng = np.random.default_rng(21)
    model = init_mlp([3, 5, 4, 2], seed=21)
    state = init_optimizer(model, base_lr=0.03, gamma=0.8, weight_decay=0.05)
    thetas = [a.copy() for a in [*model.weights, *model.biases]]
    ms = [np.zeros_like(a) for a in thetas]
    vs = [np.zeros_like(a) for a in thetas]
    for step in range(5):
        state = replace(state, epoch=step // 2)
        wg = [rng.normal(size=w.shape) for w in model.weights]
        bg = [rng.normal(size=b.shape) for b in model.biases]
        wg[1][2, 3] = 0.0  # one entry never gets a gradient
        lr, t = state.effective_lr, step + 1
        for i, g in enumerate([*wg, *bg]):
            theta = thetas[i] * (1.0 - lr * 0.05)
            ms[i] = ADAM_BETA1 * ms[i] + (1.0 - ADAM_BETA1) * g
            vs[i] = ADAM_BETA2 * vs[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = ms[i] / (1.0 - ADAM_BETA1**t)
            v_hat = vs[i] / (1.0 - ADAM_BETA2**t)
            thetas[i] = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        model, state = adam_step(model, (wg, bg), state)
        np.testing.assert_array_equal(model.params, flat(thetas[:3], thetas[3:]))
    assert state.step == 5
    np.testing.assert_array_equal(state.m, flat(ms[:3], ms[3:]))
    np.testing.assert_array_equal(state.v, flat(vs[:3], vs[3:]))


def test_layer_views_share_the_flat_vector():
    model = init_mlp([4, 6, 2], seed=3)
    assert model.params.shape == (4 * 6 + 6 + 6 * 2 + 2,)
    np.testing.assert_array_equal(flat(model.weights, model.biases), model.params)
    for view in [*model.weights, *model.biases]:
        assert np.shares_memory(view, model.params)
    model.weights[1][5, 1] = 7.5
    assert model.params[4 * 6 + 6 + 5 * 2 + 1] == 7.5
    with pytest.raises(DataError):
        MlpModel([4, 6, 2], np.zeros(5), 0.0)


# -- training loop pieces -----------------------------------------------------------


def test_epoch_batches_cover_everything_once():
    rng = np.random.default_rng(0)
    batches = epoch_batches(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))
    with pytest.raises(DataError):
        epoch_batches(10, 0, rng)


def test_memorizes_a_small_regression_task():
    """Squared error on 20 points falls below 10% of its start within 500 epochs."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    y = np.sin(x @ np.array([1.0, -2.0, 0.5]))[:, None]
    model = init_mlp([3, 16, 1], seed=8)
    state = init_optimizer(model, base_lr=0.01)

    def loss(m):
        out, _ = forward(m, x, mode="eval")
        return float(np.mean((out - y) ** 2))

    start = loss(model)
    for epoch in range(500):
        state.epoch = epoch
        out, cache = forward(model, x, mode="train")
        grads = backward(model, cache, 2.0 * (out - y) / len(x))
        model, state = adam_step(model, grads, state)
    assert loss(model) < 0.1 * start


def test_training_trajectory_is_deterministic():
    def run():
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 3))
        y = (x @ np.array([0.5, 1.0, -1.0]))[:, None]
        model = init_mlp([3, 8, 1], dropout=0.2, seed=4)
        state = init_optimizer(model, base_lr=0.02)
        for epoch in range(20):
            state.epoch = epoch
            for b, idx in enumerate(epoch_batches(12, 4, np.random.default_rng([4, epoch]))):
                out, cache = forward(model, x[idx], mode="train", seed=[4, epoch, b])
                grads = backward(model, cache, out - y[idx])
                model, state = adam_step(model, grads, state)
        return model

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def reference_train(x, n_out, params, seed, batch_loss, usable=lambda idx: True):
    """`_train` written out with fresh arrays on every step: a per-layer
    forward pass, per-layer backprop, and Adam per layer. Returns the final
    flat parameters and the epoch loss sums."""
    net = init_mlp([x.shape[1], *params.hidden, n_out], params.dropout, seed)
    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    n_layers, p = len(ws), params.dropout
    ms = [np.zeros_like(a) for a in ws + bs]
    vs = [np.zeros_like(a) for a in ws + bs]
    sums, t = [], 0
    for epoch in range(params.epochs):
        lr = params.lr * params.lr_decay**epoch
        total = 0.0
        order = np.random.default_rng([seed, 7, epoch])
        for b, idx in enumerate(epoch_batches(len(x), params.batch_size, order)):
            if not usable(idx):
                continue
            rng = np.random.default_rng([seed, epoch, b])
            inputs, pre_acts, keeps = [], [], []
            a = x[idx]
            for l in range(n_layers):
                inputs.append(a)
                z = a @ ws[l] + bs[l]
                pre_acts.append(z)
                a = z
                if l < n_layers - 1:
                    keep = rng.random(z.shape) >= p
                    a = np.maximum(z, 0.0) * keep / (1.0 - p)
                    keeps.append(keep)
            value, g = batch_loss(a, idx)
            grads = [None] * (2 * n_layers)
            for l in range(n_layers - 1, -1, -1):
                grads[l] = inputs[l].T @ g
                grads[n_layers + l] = g.sum(axis=0)
                if l > 0:
                    g = g @ ws[l].T * keeps[l - 1] / (1.0 - p)
                    g = g * (pre_acts[l - 1] > 0.0)
            t += 1
            thetas = ws + bs
            for i, gi in enumerate(grads):
                theta = thetas[i] * (1.0 - lr * params.weight_decay)
                ms[i] = ADAM_BETA1 * ms[i] + (1.0 - ADAM_BETA1) * gi
                vs[i] = ADAM_BETA2 * vs[i] + (1.0 - ADAM_BETA2) * gi * gi
                m_hat = ms[i] / (1.0 - ADAM_BETA1**t)
                v_hat = vs[i] / (1.0 - ADAM_BETA2**t)
                thetas[i] = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            ws, bs = thetas[:n_layers], thetas[n_layers:]
            total += value
        sums.append(float(total))
    return flat(ws, bs), sums


def test_training_trajectories_equal_the_fresh_array_reference():
    """DeepSurv and DeepHit fits, which train on buffers updated in place,
    end with the parameters and epoch losses of the fresh-array reference
    loop, bit for bit (dropout 0.1, weight decay 0.05, 300 rows)."""
    rng = np.random.default_rng(17)
    n = 300
    x = rng.normal(size=(n, 6))
    t = np.round(rng.exponential(5.0, n) * np.exp(-0.5 * x[:, 0]), 1) + 0.1
    e = (rng.random(n) < 0.4).astype(float)
    common = dict(dropout=0.1, epochs=3, batch_size=32, lr_decay=0.7, weight_decay=0.05)

    ds_params = DeepSurvParams(hidden=[16, 8], lr=0.05, **common)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # event-free batches are skipped
        ds_model = fit_deepsurv(x, t, e, ds_params, seed=3)

    def ds_loss(out, idx):
        value, g_eta = deepsurv_loss(out[:, 0], t[idx], e[idx])
        return value, g_eta[:, None]

    params, sums = reference_train(x, 1, ds_params, 3, ds_loss,
                                   usable=lambda idx: e[idx].any())
    assert ds_model.net.params.tobytes() == params.tobytes()
    assert ds_model.epoch_losses == sums

    dh_params = DeepHitParams(hidden=[16, 12, 8], n_bins=8, lr=0.01, **common)
    dh_model = fit_deephit(x, t, e, dh_params, seed=4)
    labels = dh_model.grid.bin_index(t)

    def dh_loss(z, idx):
        pmf = np.exp(z - z.max(axis=1, keepdims=True))
        pmf /= pmf.sum(axis=1, keepdims=True)
        return deephit_loss(pmf, labels[idx], e[idx], dh_params.alpha, dh_params.sigma)

    params, sums = reference_train(x, dh_model.grid.n_bins, dh_params, 4, dh_loss)
    assert dh_model.net.params.tobytes() == params.tobytes()
    batches = -(-n // dh_params.batch_size)
    assert dh_model.epoch_losses == [total / batches for total in sums]
