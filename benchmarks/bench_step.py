"""Benchmark one neural training step, part by part.

Runs minibatch steps of the two reference networks and prints the best
mean time per step of each part: `forward` (train mode, dropout masks
drawn from a per-step seed), the loss with its gradient, `backward` and
`adam_step`. DeepSurv is 34 -> 64 -> 64 -> 1 with the Efron partial
likelihood; DeepHit is 34 -> 64 -> 128 -> 64 -> 60 with its softmax and
likelihood-plus-ranking loss. Both use batches of 64 rows and dropout 0.1,
as `_train` runs them. After timing, the script replays the same steps
with a reference loop that allocates fresh arrays on every step (per-layer
forward, backprop and Adam) and asserts that the final parameters are the
same bits.

Usage:
    python3 benchmarks/bench_step.py [--steps 200] [--repeats 5]
"""

import argparse
import time

import numpy as np

from survkit.deephit import DeepHitParams, _softmax, deephit_loss
from survkit.deepsurv import deepsurv_loss
from survkit.nnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    adam_step,
    backward,
    forward,
    init_mlp,
    init_optimizer,
)

N_ROWS = 2500
N_COVARIATES = 34
BATCH = 64
DROPOUT = 0.1
LR = 0.01
WEIGHT_DECAY = 0.01
PARTS = ("forward", "loss", "backward", "adam_step")


def cohort(rng):
    x = rng.normal(size=(N_ROWS, N_COVARIATES))
    times = rng.exponential(10.0, N_ROWS) * np.exp(-0.5 * x[:, 0]) + 0.01
    events = (rng.random(N_ROWS) < 0.65).astype(float)
    return x, times, events


def models(x, times, events):
    """(name, layer sizes, batch loss) of the two reference networks."""
    labels = np.minimum(np.searchsorted(np.quantile(times, np.arange(1, 61) / 60), times), 59)

    def deepsurv(out, idx):
        value, g = deepsurv_loss(out[:, 0], times[idx], events[idx])
        return value, g[:, None]

    ranking = DeepHitParams()

    def deephit(z, idx):
        return deephit_loss(_softmax(z), labels[idx], events[idx], ranking.alpha, ranking.sigma)

    return (
        ("deepsurv", [N_COVARIATES, 64, 64, 1], deepsurv),
        ("deephit", [N_COVARIATES, 64, 128, 64, 60], deephit),
    )


def timed_steps(x, sizes, loss, batches):
    """Run the steps as `_train` does; returns (net, seconds per part)."""
    net = init_mlp(sizes, DROPOUT, seed=0)
    state = init_optimizer(net, LR, weight_decay=WEIGHT_DECAY)
    spent = dict.fromkeys(PARTS, 0.0)
    clock = time.perf_counter
    for step, idx in enumerate(batches):
        t0 = clock()
        out, cache = forward(net, x[idx], mode="train", seed=[0, step])
        t1 = clock()
        _, grad = loss(out, idx)
        t2 = clock()
        backward(net, cache, grad)
        t3 = clock()
        adam_step(net, net.grad, state)
        t4 = clock()
        for part, seconds in zip(PARTS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            spent[part] += seconds
    return net, spent


def reference_params(x, sizes, loss, batches):
    """The same steps with fresh arrays throughout; the final flat parameters."""
    net = init_mlp(sizes, DROPOUT, seed=0)
    thetas = [a.copy() for a in net.weights + net.biases]
    ms = [np.zeros_like(a) for a in thetas]
    vs = [np.zeros_like(a) for a in thetas]
    n_layers = len(net.weights)
    for step, idx in enumerate(batches):
        ws, bs = thetas[:n_layers], thetas[n_layers:]
        rng = np.random.default_rng([0, step])
        inputs, pre_acts, keeps = [], [], []
        a = x[idx]
        for l in range(n_layers):
            inputs.append(a)
            a = z = a @ ws[l] + bs[l]
            pre_acts.append(z)
            if l < n_layers - 1:
                keeps.append(rng.random(z.shape) >= DROPOUT)
                a = np.maximum(z, 0.0) * keeps[-1] / (1.0 - DROPOUT)
        _, g = loss(a, idx)
        grads = [None] * (2 * n_layers)
        for l in range(n_layers - 1, -1, -1):
            grads[l] = inputs[l].T @ g
            grads[n_layers + l] = g.sum(axis=0)
            if l > 0:
                g = g @ ws[l].T * keeps[l - 1] / (1.0 - DROPOUT)
                g = g * (pre_acts[l - 1] > 0.0)
        t = step + 1
        for i, gi in enumerate(grads):
            theta = thetas[i] * (1.0 - LR * WEIGHT_DECAY)
            ms[i] = ADAM_BETA1 * ms[i] + (1.0 - ADAM_BETA1) * gi
            vs[i] = ADAM_BETA2 * vs[i] + (1.0 - ADAM_BETA2) * gi * gi
            m_hat = ms[i] / (1.0 - ADAM_BETA1**t)
            v_hat = vs[i] / (1.0 - ADAM_BETA2**t)
            thetas[i] = theta - LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return np.concatenate([a.ravel() for pair in zip(thetas[:n_layers], thetas[n_layers:])
                           for a in pair])


def run(steps, repeats):
    rng = np.random.default_rng(0)
    x, times, events = cohort(rng)
    batches = []
    while len(batches) < steps:
        idx = rng.choice(N_ROWS, BATCH, replace=False)
        if events[idx].any():  # DeepSurv skips event-free batches
            batches.append(idx)
    header = f"{'model':<10}{'part':<12}{'per step':>12}"
    print(header)
    print("-" * len(header))
    for name, sizes, loss in models(x, times, events):
        best = dict.fromkeys(PARTS, float("inf"))
        for _ in range(repeats):
            net, spent = timed_steps(x, sizes, loss, batches)
            for part in PARTS:
                best[part] = min(best[part], spent[part] / steps)
        assert net.params.tobytes() == reference_params(x, sizes, loss, batches).tobytes()
        for part in PARTS:
            print(f"{name:<10}{part:<12}{best[part] * 1e6:>10.1f}us")
        print(f"{name:<10}{'total':<12}{sum(best.values()) * 1e6:>10.1f}us")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200, help="minibatch steps per run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; the best per-part mean is reported")
    args = parser.parse_args()
    run(args.steps, args.repeats)


if __name__ == "__main__":
    main()
