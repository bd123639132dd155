"""Discrete-time survival with a softmax head over quantile time bins.

The network outputs one logit per bin; softmax gives a probability mass
function over event bins. Training minimizes a likelihood term (events:
mass in the true bin; censored: mass beyond the censoring bin) plus a
ranking term that pushes earlier-event subjects toward higher cumulative
incidence at their own event bin. Predicted curves interpolate the
per-bin survival linearly, i.e. constant density within each bin.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .curves import SurvivalCurve, interp_rows
from .errors import DataError
from .tabular import check_fit_inputs

LOG_FLOOR = 1e-12
# smallest ranking-loss sigma. For CDF values in [0, 1] a pair term
# exp((F_j - F_i) / sigma) is at most exp(1/sigma) and its gradient at most
# exp(1/sigma) / sigma; with L = log(float max), both are finite when
# 1/sigma <= L - log(L), since then 1/sigma + log(1/sigma) < L
_LOG_MAX = np.log(np.finfo(float).max)
SIGMA_MIN = 1.0 / (_LOG_MAX - np.log(_LOG_MAX))


@dataclass
class TimeGrid:
    """Right-closed time bins (c_{k-1}, c_k] with c_0 = 0."""

    cuts: np.ndarray

    def __post_init__(self):
        self.cuts = np.asarray(self.cuts, dtype=float)
        if len(self.cuts) == 0 or np.any(np.diff(self.cuts) <= 0) or self.cuts[0] <= 0:
            raise DataError("cuts must be positive and strictly increasing")

    @property
    def n_bins(self):
        return len(self.cuts)

    def bin_index(self, times):
        """Bin label per time; times beyond the last cut clamp to the last bin."""
        t = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.cuts, t, side="left")
        return np.minimum(idx, self.n_bins - 1).astype(np.int64)


def make_time_grid(times, n_bins):
    """Equidistant-quantile cuts over the observed times.

    Duplicate quantiles collapse (with a warning), so heavily tied data can
    yield fewer bins than requested. The final cut is the maximum observed
    time, so every training time maps to a valid bin.
    """
    t = np.asarray(times, dtype=float)
    if len(t) == 0 or np.isnan(t).any():
        raise DataError("times must be non-empty and complete")
    if not isinstance(n_bins, numbers.Integral) or n_bins < 1:
        raise DataError("n_bins must be >= 1")
    qs = np.arange(1, n_bins + 1) / n_bins
    cuts = np.quantile(t, qs)
    cuts[-1] = t.max()
    cuts = np.unique(cuts)
    cuts = cuts[cuts > 0]
    if len(cuts) < n_bins:
        warnings.warn(f"duplicate quantiles: grid has {len(cuts)} bins, not {n_bins}")
    if len(cuts) == 0:
        raise DataError("all observed times are zero; cannot build a grid")
    return TimeGrid(cuts=cuts)


def deephit_loss(pmf, bin_labels, events, alpha, sigma):
    """Likelihood + alpha * ranking loss; gradient is wrt pre-softmax logits.

    Likelihood (mean per subject): events lose -log pmf[k]; censored lose
    -log sum_{j>k} pmf[j]. Both logs are floored at 1e-12 and floored terms
    contribute zero gradient. Ranking (mean per valid pair): for each pair
    with an event in an earlier bin, exp(-(F_i(k_i) - F_j(k_i)) / sigma).
    """
    p = np.asarray(pmf, dtype=float)
    k = np.asarray(bin_labels, dtype=np.int64)
    e = np.asarray(events, dtype=float)
    n, n_bins = p.shape
    if k.shape != (n,) or e.shape != (n,):
        raise DataError("bin_labels and events must match the pmf row count")
    if (k < 0).any() or (k >= n_bins).any():
        raise DataError("bin label out of range")
    if not sigma >= SIGMA_MIN:
        raise DataError(f"sigma must be at least {SIGMA_MIN:.6g} so exp(1/sigma) / sigma is finite")

    rows = np.arange(n)
    is_event = e == 1.0

    # likelihood term
    f_cum = np.cumsum(p, axis=1)
    own = p[rows, k]
    beyond = p.sum(axis=1) - f_cum[rows, k]  # sum of bins strictly after k
    like = np.where(is_event, own, beyond)
    like_floored = np.maximum(like, LOG_FLOOR)
    l_like = float(-np.log(like_floored).mean())

    grad_z = np.zeros_like(p)
    active = like > LOG_FLOOR  # floored subjects are constant wrt logits
    ev_act = is_event & active
    if ev_act.any():
        grad_z[ev_act] = p[ev_act]
        grad_z[rows[ev_act], k[ev_act]] -= 1.0
    cen_act = ~is_event & active
    if cen_act.any():
        after = np.arange(n_bins)[None, :] > k[cen_act, None]
        pc = p[cen_act]
        grad_z[cen_act] = pc - pc * after / beyond[cen_act, None]
    grad_z /= n

    # ranking term
    l_rank = 0.0
    if alpha != 0.0:
        valid = is_event[:, None] & (k[:, None] < k[None, :])
        n_pairs = int(valid.sum())
        if n_pairs > 0:
            f_at_own = f_cum[rows, k]
            f_other = f_cum[:, k].T  # [i, j] = F_j(k_i)
            terms = np.exp(-(f_at_own[:, None] - f_other) / sigma) * valid
            l_rank = float(terms.sum() / n_pairs)

            scale = 1.0 / (sigma * n_pairs)
            # d L_rank / d F_s(col). Pair (i, j) adds its term to cell (j, k_i);
            # one bincount sums them from zero in the row-major order of the
            # valid (i, j), as a loop would. A valid pair needs k_i < k_j, so
            # no pair term lands on an own-bin cell (s, k_s): each of those
            # gets only its row's sum (`-=` on zero)
            cell = rows[None, :] * n_bins + k[:, None]  # [i, j] -> flat (j, k_i)
            g_f = np.bincount(cell[valid], terms[valid] * scale, minlength=n * n_bins)
            g_f = g_f.reshape(n, n_bins)
            has = valid.any(axis=1)
            g_f[rows[has], k[has]] -= terms[has].sum(axis=1) * scale
            # dF_s(c)/dz_sm = p_sm (1[m <= c] - F_s(c))
            tail = np.cumsum(g_f[:, ::-1], axis=1)[:, ::-1]
            grad_z += alpha * p * (tail - (g_f * f_cum).sum(axis=1, keepdims=True))

    return l_like + alpha * l_rank, grad_z


@dataclass
class DeepHitParams(nnet.TrainParams):
    hidden: list[int] = field(default_factory=lambda: [64, 128, 64])
    epochs: int = 25
    lr: float = 0.005
    n_bins: int = 60
    alpha: float = 0.2
    sigma: float = 0.1
    n_interp: int = 50
    _RULES = nnet.TrainParams._RULES + (
        ("n_bins", lambda v: v >= 1, "at least 1"),
        ("alpha", lambda v: v >= 0, "non-negative and finite"),
        ("sigma", lambda v: v >= SIGMA_MIN,
         f"at least {SIGMA_MIN:.6g}, below which the ranking loss overflows"),
        ("n_interp", lambda v: v >= 2, "at least 2"),
    )


@dataclass
class DeepHitModel:
    net: nnet.MlpModel
    grid: TimeGrid
    params: DeepHitParams
    epoch_losses: list = field(default_factory=list, repr=False)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def fit_deephit(x, times, events, params, seed):
    """Train the discrete-time model; deterministic in (seed, data order)."""
    x, t, e = check_fit_inputs(x, times, events)
    grid = make_time_grid(t, params.n_bins)
    labels = grid.bin_index(t)
    net, sums, _ = nnet._train(
        x, grid.n_bins, params, seed,
        lambda z, idx: deephit_loss(_softmax(z), labels[idx], e[idx], params.alpha, params.sigma),
    )
    # the mean batch loss of each epoch (no batch is skipped)
    epoch_losses = [float(total / math.ceil(len(t) / params.batch_size)) for total in sums]

    return DeepHitModel(net=net, grid=grid, params=params, epoch_losses=epoch_losses)


def predict_pmf(model, x):
    """Per-row event-bin probabilities (rows sum to 1 up to float error)."""
    z, _ = nnet.forward(model.net, np.asarray(x, dtype=float), mode="eval")
    return _softmax(z)


def predict_survival(model, x):
    """Survival curves, one row per x row, on an equidistant grid of
    `params.n_interp` points over [0, last cut].

    Survival steps down by each bin's mass at the bin's right edge and is
    linearly interpolated inside bins (constant event density). S(0) = 1
    and the terminal value is 1 - sum(pmf) ~ 0.
    """
    n_points = model.params.n_interp
    if n_points < 2:
        raise DataError("need at least 2 interpolation points")
    pmf = predict_pmf(model, x)
    cuts = model.grid.cuts
    knot_times = np.r_[0.0, cuts]
    surv_at_cuts = np.clip(1.0 - np.cumsum(pmf, axis=1), 0.0, 1.0)
    knots = np.minimum.accumulate(np.c_[np.ones(len(pmf)), surv_at_cuts], axis=1)
    grid_t = np.linspace(0.0, cuts[-1], n_points)
    values = interp_rows(grid_t, knot_times, knots)
    return SurvivalCurve(times=grid_t, values=values, kind="linear")


def predict_risk(model, x):
    """Scalar risk per row: negative mean of the survival curve values."""
    return -predict_survival(model, x).values.mean(axis=1)

