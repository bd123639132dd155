"""Nonlinear proportional hazards: a dense network as the log-risk score.

The hazard is h0(t) * exp(f(x)) with f a small MLP trained by minimizing
the within-batch Efron partial likelihood of its scores. After training,
the baseline cumulative hazard is the Breslow estimate on the full
training data at the final scores, so predicted curves compose exactly
like the linear model's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from ._kernels import efron_loss_grad
from .coxph import _ph_survival, breslow_from_scores
from .curves import CumHazardFn
from .errors import DataError
from .tabular import check_fit_inputs


@dataclass
class DeepSurvParams:
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    dropout: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    lr: float = 0.1
    lr_decay: float = 0.7
    weight_decay: float = 0.0

    def __post_init__(self):
        nnet._check_train_params(self)


@dataclass
class DeepSurvModel:
    net: nnet.MlpModel
    baseline: CumHazardFn
    params: DeepSurvParams
    epoch_losses: list = field(default_factory=list, repr=False)
    skipped_batches: int = 0


def deepsurv_loss(scores, times, events):
    """Within-batch Efron partial likelihood of network scores.

    Same value and gradient as the linear model's likelihood with the
    scores in place of x . beta; shift-invariant in the scores. Undefined
    for batches without events (the trainer skips those).
    """
    e = np.asarray(events, dtype=float)
    if not (e == 1.0).any():
        raise DataError("partial likelihood needs at least one event in the batch")
    return efron_loss_grad(times, e, scores)


def fit_deepsurv(x, times, events, params, seed):
    """Train the score network; returns the model with its Breslow baseline.

    Batches are reshuffled every epoch from a seeded generator, drawn in
    order with the final short batch kept. Event-free batches are skipped
    and counted. The learning rate is lr * lr_decay**epoch; weight decay is
    decoupled. The whole trajectory is a deterministic function of (seed,
    data order).
    """
    x, t, e = check_fit_inputs(x, times, events)

    def batch_loss(out, idx):
        value, g_eta = deepsurv_loss(out[:, 0], t[idx], e[idx])
        return value, g_eta[:, None]

    net, epoch_losses, skipped = nnet._train(
        x, 1, params, seed, batch_loss, usable=lambda idx: (e[idx] == 1.0).any()
    )
    if skipped:
        warnings.warn(f"skipped {skipped} event-free batches during training")

    out, _ = nnet.forward(net, x, mode="eval")
    baseline = breslow_from_scores(t, e, out[:, 0])
    return DeepSurvModel(
        net=net,
        baseline=baseline,
        params=params,
        epoch_losses=epoch_losses,
        skipped_batches=skipped,
    )


def predict_risk(model, x):
    """Per-row log-risk score f(x) in eval mode (no dropout)."""
    out, _ = nnet.forward(model.net, np.asarray(x, dtype=float), mode="eval")
    return out[:, 0]


def predict_survival(model, x, times):
    """Curves S(t|x) = exp(-H0(t) * exp(f(x))), one row per x row; times sorted."""
    return _ph_survival(model.baseline, predict_risk(model, x), times)

