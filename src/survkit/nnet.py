"""Minimal dense network with explicit backprop, dropout, and Adam.

Everything is double precision numpy. A model keeps all its parameters in
one flat vector laid out W0, b0, W1, b1, ...; `weights[l]` and `biases[l]`
are reshaped views into it, so writing through a view changes the model
and Adam updates the whole vector at once. Hidden layers are ReLU with
inverted dropout (activations scaled by 1/(1-p) at train time so
evaluation needs no rescaling); the output layer is linear. Models are
immutable between optimizer steps: adam_step returns a fresh model, and a
forward cache is only valid for the exact model object that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ComputationError, DataError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _layer_ends(layer_sizes):
    """Offset just past each layer's (W, b) block in the flat vector."""
    return np.cumsum([(a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])])


@dataclass
class MlpModel:
    layer_sizes: list
    params: np.ndarray
    dropout: float
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        ends = _layer_ends(self.layer_sizes)
        if self.params.shape != (ends[-1],):
            raise DataError(f"params must have {ends[-1]} entries, got {self.params.shape}")
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out, end in zip(self.layer_sizes[:-1], self.layer_sizes[1:], ends):
            self.weights.append(self.params[start : end - fan_out].reshape(fan_in, fan_out))
            self.biases.append(self.params[end - fan_out : end])
            start = end

    @property
    def n_layers(self):
        return len(self.weights)


def init_mlp(layer_sizes, dropout=0.0, seed=0):
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    if len(layer_sizes) < 2:
        raise DataError("need at least input and output sizes")
    if any(s < 1 for s in layer_sizes):
        raise DataError("layer sizes must be positive")
    if not 0.0 <= dropout < 1.0:
        raise DataError("dropout must be in [0, 1)")
    rng = np.random.default_rng(seed)
    model = MlpModel(list(layer_sizes), np.zeros(_layer_ends(layer_sizes)[-1]), float(dropout))
    for w in model.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


@dataclass
class ForwardCache:
    model: MlpModel = field(repr=False)
    inputs: list = field(repr=False)   # input to each layer
    pre_acts: list = field(repr=False) # z = a W + b per layer
    masks: list = field(repr=False)    # dropout masks (None in eval mode)


def forward(model, batch, mode="train", seed=None):
    """Run the network; returns (outputs, cache) for a later backward pass.

    In train mode each hidden layer draws a fresh dropout mask from `seed`,
    so the same seed reproduces the same masks exactly. Eval mode applies
    no dropout and ignores the seed.
    """
    if mode not in ("train", "eval"):
        raise DataError(f"unknown mode {mode!r}")
    a = np.asarray(batch, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.layer_sizes[0]:
        raise DataError(
            f"batch must be (n, {model.layer_sizes[0]}), got {a.shape}"
        )
    use_dropout = mode == "train" and model.dropout > 0.0
    rng = np.random.default_rng(seed) if use_dropout else None

    inputs = []
    pre_acts = []
    masks = []
    for l in range(model.n_layers):
        inputs.append(a)
        z = a @ model.weights[l] + model.biases[l]
        pre_acts.append(z)
        if l < model.n_layers - 1:
            a = np.maximum(z, 0.0)
            if use_dropout:
                keep = rng.random(a.shape) >= model.dropout
                a = a * keep / (1.0 - model.dropout)
                masks.append(keep)
            else:
                masks.append(None)
        else:
            a = z
            masks.append(None)
    return a, ForwardCache(model=model, inputs=inputs, pre_acts=pre_acts, masks=masks)


def backward(model, cache, output_gradient):
    """Exact gradients of sum(loss) given d loss / d outputs.

    Returns (weight_grads, bias_grads) shaped like the model parameters.
    The cache must come from a forward pass of this very model object.
    """
    if cache.model is not model:
        raise ComputationError("stale cache: model was updated since this forward pass")
    g = np.asarray(output_gradient, dtype=float)
    if g.shape != cache.pre_acts[-1].shape:
        raise DataError(
            f"output_gradient must be {cache.pre_acts[-1].shape}, got {g.shape}"
        )
    weight_grads = [None] * model.n_layers
    bias_grads = [None] * model.n_layers
    for l in range(model.n_layers - 1, -1, -1):
        weight_grads[l] = cache.inputs[l].T @ g
        bias_grads[l] = g.sum(axis=0)
        if l > 0:
            g = g @ model.weights[l].T
            if cache.masks[l - 1] is not None:
                g = g * cache.masks[l - 1] / (1.0 - model.dropout)
            g = g * (cache.pre_acts[l - 1] > 0.0)
    return weight_grads, bias_grads



@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int
    base_lr: float
    gamma: float
    weight_decay: float
    epoch: int = 0

    @property
    def effective_lr(self):
        return self.base_lr * self.gamma**self.epoch


def init_optimizer(model, base_lr, gamma=1.0, weight_decay=0.0):
    if base_lr <= 0:
        raise DataError("base_lr must be positive")
    return OptimizerState(
        m=np.zeros_like(model.params),
        v=np.zeros_like(model.params),
        step=0,
        base_lr=float(base_lr),
        gamma=float(gamma),
        weight_decay=float(weight_decay),
    )


def adam_step(model, grads, state):
    """One Adam update with decoupled weight decay; returns new model+state.

    The decay shrinks parameters by lr*wd*theta before the Adam update, and
    the learning rate is base_lr * gamma**epoch (the caller sets
    state.epoch once per epoch). Non-finite gradients abort with the layer
    index in the message.
    """
    g = np.concatenate([a.ravel() for pair in zip(*grads) for a in pair])
    if g.shape != model.params.shape:
        raise DataError(f"gradients must have {model.params.size} entries, got {g.size}")
    finite = np.isfinite(g)
    if not finite.all():
        bad = np.argmin(finite)
        layer = int(np.searchsorted(_layer_ends(model.layer_sizes), bad, side="right"))
        raise ComputationError(f"non-finite gradient in layer {layer}")

    lr = state.effective_lr
    t = state.step + 1
    theta = model.params * (1.0 - lr * state.weight_decay)
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    theta = theta - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    new_model = MlpModel(list(model.layer_sizes), theta, model.dropout)
    return new_model, replace(state, m=m, v=v, step=t)


def epoch_batches(n, batch_size, rng):
    """Seeded shuffle, then contiguous batches; the final short batch stays."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _train(x, n_out, params, seed, batch_loss, usable=None):
    """Minibatch Adam training of an MLP; returns (net, epoch loss sums, skipped).

    `params` carries hidden, dropout, epochs, batch_size, lr, lr_decay and
    weight_decay. Each epoch reshuffles the rows from a generator seeded
    with (seed, 7, epoch); batch b of the epoch draws its dropout masks
    from (seed, epoch, b), so the trajectory is a deterministic function of
    (seed, data order). `batch_loss(outputs, idx)` returns the batch loss
    and its gradient with respect to the outputs. Batches for which
    `usable(idx)` is false are skipped before the forward pass and counted.
    """
    net = init_mlp([x.shape[1], *params.hidden, n_out], params.dropout, seed)
    state = init_optimizer(net, params.lr, params.lr_decay, params.weight_decay)
    sums = []
    skipped = 0
    for epoch in range(params.epochs):
        state = replace(state, epoch=epoch)
        rng = np.random.default_rng([seed, 7, epoch])
        total = 0.0
        for b, idx in enumerate(epoch_batches(len(x), params.batch_size, rng)):
            if usable is not None and not usable(idx):
                skipped += 1
                continue
            out, cache = forward(net, x[idx], mode="train", seed=[seed, epoch, b])
            value, grad = batch_loss(out, idx)
            net, state = adam_step(net, backward(net, cache, grad), state)
            total += value
        sums.append(float(total))
    return net, sums, skipped


def model_to_dict(model):
    """JSON-ready checkpoint: sizes, dropout, row-major parameter lists."""
    return {
        "layer_sizes": [int(s) for s in model.layer_sizes],
        "dropout": model.dropout,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def model_from_dict(doc):
    blocks = zip(doc["weights"], doc["biases"])
    return MlpModel(
        layer_sizes=[int(s) for s in doc["layer_sizes"]],
        params=np.concatenate([np.ravel(a) for pair in blocks for a in pair], dtype=float),
        dropout=float(doc["dropout"]),
    )
