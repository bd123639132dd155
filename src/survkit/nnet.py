"""Minimal dense network with explicit backprop, dropout, and Adam.

Everything is double precision numpy. A model keeps all its parameters in
one flat vector laid out W0, b0, W1, b1, ...; `weights[l]` and `biases[l]`
are reshaped views into it, so writing through a view changes the model
and Adam updates the whole vector at once. The model also owns a gradient
vector `grad` of the same layout (views `grad_weights[l]`,
`grad_biases[l]`), which backward overwrites on every call. Hidden layers
are ReLU with inverted dropout (activations scaled by 1/(1-p) at train
time so evaluation needs no rescaling); the output layer is linear.

Training updates in place: adam_step rewrites the model's parameters and
the optimizer's moments in their own buffers and bumps the model's step
`stamp`. A forward cache records the model and stamp it was made at, and
backward rejects it once either differs, so a cache is valid for one
model stamp only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, DataError, check_seed, check_types

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _layer_ends(layer_sizes):
    """Offset just past each layer's (W, b) block in the flat vector."""
    return np.cumsum([(a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])])


def _layer_views(flat, layer_sizes):
    """Per-layer (weights, biases) views into a flat vector of that layout."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out, end in zip(layer_sizes[:-1], layer_sizes[1:], _layer_ends(layer_sizes)):
        weights.append(flat[start : end - fan_out].reshape(fan_in, fan_out))
        biases.append(flat[end - fan_out : end])
        start = end
    return weights, biases


@dataclass
class MlpModel:
    layer_sizes: list
    params: np.ndarray
    dropout: float
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)  # written by backward
    grad_weights: list = field(init=False, repr=False)
    grad_biases: list = field(init=False, repr=False)
    stamp: int = field(init=False, default=0)  # optimizer steps taken

    def __post_init__(self):
        self.params = np.array(self.params, dtype=float)
        size = _layer_ends(self.layer_sizes)[-1]
        if self.params.shape != (size,):
            raise DataError(f"params must have {size} entries, got {self.params.shape}")
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)
        self.grad = np.zeros(size)
        self.grad_weights, self.grad_biases = _layer_views(self.grad, self.layer_sizes)

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
    check_seed(seed)
    rng = np.random.default_rng(seed)
    model = MlpModel(list(layer_sizes), np.zeros(_layer_ends(layer_sizes)[-1]), float(dropout))
    for w in model.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


@dataclass
class ForwardCache:
    model: MlpModel = field(repr=False)
    stamp: int                         # the model's stamp at the forward pass
    inputs: list = field(repr=False)   # input to each layer (post ReLU and dropout)
    masks: list = field(repr=False)    # dropout masks (None in eval mode)


def forward(model, batch, mode="train", seed=None):
    """Run the network; returns (outputs, cache) for a later backward pass.

    In train mode each hidden layer draws a fresh dropout mask from `seed`,
    so the same seed reproduces the same masks exactly. Eval mode applies
    no dropout and ignores the seed. Each layer's output is one fresh
    array; the bias, ReLU and dropout are applied to it in place.
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
    masks = []
    last = model.n_layers - 1
    for l in range(model.n_layers):
        inputs.append(a)
        a = a @ model.weights[l]
        a += model.biases[l]
        keep = None
        if l < last:
            np.maximum(a, 0.0, out=a)
            if use_dropout:
                keep = rng.random(a.shape) >= model.dropout
                a *= keep
                a /= 1.0 - model.dropout
        masks.append(keep)
    return a, ForwardCache(model=model, stamp=model.stamp, inputs=inputs, masks=masks)


def backward(model, cache, output_gradient):
    """Exact gradients of sum(loss) given d loss / d outputs.

    Overwrites `model.grad` and returns its per-layer views
    (grad_weights, grad_biases). The cache must come from a forward pass of
    this very model object at its current stamp.
    """
    if cache.model is not model or cache.stamp != model.stamp:
        raise ComputationError("stale cache: model was updated since this forward pass")
    g = np.asarray(output_gradient, dtype=float)
    shape = (len(cache.inputs[0]), model.layer_sizes[-1])
    if g.shape != shape:
        raise DataError(f"output_gradient must be {shape}, got {g.shape}")
    for l in range(model.n_layers - 1, -1, -1):
        np.matmul(cache.inputs[l].T, g, out=model.grad_weights[l])
        np.add.reduce(g, axis=0, out=model.grad_biases[l])
        if l > 0:
            g = g @ model.weights[l].T
            if cache.masks[l - 1] is not None:
                g *= cache.masks[l - 1]
                g /= 1.0 - model.dropout
            # the ReLU mask, read from the layer input: positive exactly where
            # the pre-activation was, except at dropped units, whose
            # gradient the dropout mask has already multiplied by zero
            g *= cache.inputs[l] > 0.0
    return list(model.grad_weights), list(model.grad_biases)


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int
    base_lr: float
    gamma: float
    weight_decay: float
    epoch: int = 0
    scratch: np.ndarray = field(init=False, repr=False)  # two work vectors

    def __post_init__(self):
        self.scratch = np.empty((2, len(self.m)))

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
    """One Adam update with decoupled weight decay, in place; returns (model, state).

    `grads` is a flat vector in the parameter layout (`model.grad` after
    backward). The update rewrites `model.params` and `state.m`/`state.v`
    in their own buffers and bumps `model.stamp` and `state.step`. The decay
    shrinks parameters by lr*wd*theta before the Adam update, and the
    learning rate is base_lr * gamma**epoch (the caller sets state.epoch
    once per epoch). Non-finite gradients abort, before anything is
    written, with the layer index in the message.
    """
    g = grads
    if not isinstance(g, np.ndarray) or g.shape != model.params.shape:
        raise DataError(f"gradients must be a flat vector of {model.params.size} entries")
    # a NaN or inf entry makes the sum non-finite; only then look closer
    if not np.isfinite(g.sum()):
        finite = np.isfinite(g)
        if not finite.all():
            bad = np.argmin(finite)
            layer = int(np.searchsorted(_layer_ends(model.layer_sizes), bad, side="right"))
            raise ComputationError(f"non-finite gradient in layer {layer}")

    # the operations and their order are those of
    #   theta = theta * (1 - lr wd)
    #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    #   theta = theta - lr (m / bc1) / (sqrt(v / bc2) + eps)
    # so the result is the same to the bit
    lr = state.effective_lr
    t = state.step + 1
    theta, m, v = model.params, state.m, state.v
    s, u = state.scratch
    decay = 1.0 - lr * state.weight_decay
    if decay != 1.0:
        theta *= decay
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    s *= g
    v += s
    np.divide(m, 1.0 - ADAM_BETA1**t, out=s)
    s *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=u)
    np.sqrt(u, out=u)
    u += ADAM_EPS
    s /= u
    theta -= s
    model.stamp += 1
    state.step = t
    return model, state


def epoch_batches(n, batch_size, rng):
    """Seeded shuffle, then contiguous batches; the final short batch stays."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


@dataclass
class TrainParams:
    """The training fields of DeepSurv and DeepHit, checked as built: a field
    `check_types` rejects is a ConfigError, and the first one out of its
    range (`_RULES`: field, test, range) a DataError naming it. An empty
    `hidden` is a network without hidden layers."""

    hidden: list[int] = field(default_factory=lambda: [64, 64])
    dropout: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    lr: float = 0.1
    lr_decay: float = 0.7
    weight_decay: float = 0.0
    _RULES = (
        ("epochs", lambda v: v >= 1, "at least 1"),
        ("batch_size", lambda v: v >= 1, "at least 1"),
        ("lr", lambda v: v > 0, "positive and finite"),
        ("dropout", lambda v: 0 <= v < 1, "in [0, 1)"),
        ("lr_decay", lambda v: v > 0, "positive and finite"),
        ("weight_decay", lambda v: v >= 0, "non-negative and finite"),
    )

    def __post_init__(self):
        check_types(type(self).__name__, self)
        if not all(w >= 1 for w in self.hidden):
            raise DataError(f"hidden={self.hidden!r} has a width below 1")
        for name, ok, what in self._RULES:
            if not ok(getattr(self, name)):
                raise DataError(f"{name} must be {what}, got {getattr(self, name)!r}")


def _train(x, n_out, params, seed, batch_loss, usable=None):
    """Minibatch Adam training of an MLP; returns (net, epoch loss sums, skipped).

    `params` is a `TrainParams`. Each epoch reshuffles the rows from a
    generator seeded with (seed, 7, epoch); batch b of the epoch draws its
    dropout masks from (seed, epoch, b), so the trajectory is a
    deterministic function of (seed, data order). `batch_loss(outputs,
    idx)` returns the batch loss and its gradient with respect to the
    outputs. Batches for which `usable(idx)` is false are skipped before
    the forward pass and counted.
    """
    net = init_mlp([x.shape[1], *params.hidden, n_out], params.dropout, seed)
    state = init_optimizer(net, params.lr, params.lr_decay, params.weight_decay)
    sums = []
    skipped = 0
    for epoch in range(params.epochs):
        state.epoch = epoch
        rng = np.random.default_rng([seed, 7, epoch])
        total = 0.0
        for b, idx in enumerate(epoch_batches(len(x), params.batch_size, rng)):
            if usable is not None and not usable(idx):
                skipped += 1
                continue
            out, cache = forward(net, x[idx], mode="train", seed=[seed, epoch, b])
            value, grad = batch_loss(out, idx)
            backward(net, cache, grad)
            adam_step(net, net.grad, state)
            total += value
        sums.append(float(total))
    return net, sums, skipped

