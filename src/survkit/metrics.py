"""Discrimination and calibration metrics with IPCW censoring weights.

Censoring weights use the Kaplan-Meier estimate G of the censoring
distribution (event indicator flipped). Weights at an observed event time
use the left limit G(t-), weights for being at risk at the horizon use
G(t). Subjects whose required weight is zero are dropped from the sum with
a warning but stay in the denominator, matching the usual Graf estimator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import concordance_counts
from .curves import SurvivalCurve
from .errors import ComputationError, DataError


def _check_outcomes(times, events):
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    if t.ndim != 1 or t.shape != e.shape or len(t) == 0:
        raise DataError("times and events must be equal-length non-empty 1-D arrays")
    if np.isnan(t).any() or np.isnan(e).any():
        raise DataError("outcomes must be complete")
    if not np.isin(e, (0.0, 1.0)).all():
        raise DataError("events must be 0/1")
    return t, e


def kaplan_meier(times, events):
    """Product-limit survival estimate; steps down at distinct event times."""
    t, e = _check_outcomes(times, events)
    order = np.argsort(t, kind="stable")
    ts, es = t[order], e[order]
    n = len(ts)
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    d = np.add.reduceat(es, starts)
    at_risk = n - starts
    has_event = d > 0
    factors = 1.0 - d[has_event] / at_risk[has_event]
    return SurvivalCurve(times=ts[starts][has_event], values=np.cumprod(factors))


def censoring_km(times, events):
    """KM estimate of the censoring distribution (indicator flipped)."""
    t, e = _check_outcomes(times, events)
    return kaplan_meier(t, 1.0 - e)


def concordance_index(times, events, scores):
    """Harrell's C: concordant pairs plus half the score ties, over
    comparable pairs. Tied-time pairs with two events are not comparable."""
    t, e = _check_outcomes(times, events)
    s = np.asarray(scores, dtype=float)
    if s.shape != t.shape:
        raise DataError("scores must match times in length")
    if np.isnan(s).any():
        raise DataError("scores must be complete")
    conc, tied, comp = concordance_counts(t, e, s)
    if comp == 0:
        raise ComputationError("no comparable pairs; cannot compute a concordance index")
    return (conc + 0.5 * tied) / comp


def _warn_dropped(dropped):
    if dropped:
        warnings.warn(f"dropped {dropped} observations with zero censoring weight")


def _brier_grid(t, e, preds, grid, censor_curve):
    """IPCW Brier score at every grid time, as one (n, G) masked matrix.

    preds[i, j] is subject i's predicted S(grid[j]). Events at or before
    grid[j] contribute S^2 / G(t_i-); subjects still at risk contribute
    (1-S)^2 / G(grid[j]); censored-before-grid[j] subjects contribute zero.
    Returns the (G,) scores, each averaged over all n subjects.
    """
    g_died = censor_curve.left(t)[:, None]
    g_alive = censor_curve(grid)
    died = t[:, None] <= grid
    died &= (e == 1.0)[:, None]
    alive = t[:, None] > grid
    n_terms = died.sum() + alive.sum()
    died &= g_died > 0
    alive &= g_alive > 0
    _warn_dropped(int(n_terms - died.sum() - alive.sum()))
    contrib = np.zeros_like(preds)
    np.divide(np.square(preds), g_died, out=contrib, where=died)
    rest = np.subtract(1.0, preds)
    np.divide(np.square(rest, out=rest), g_alive, out=contrib, where=alive)
    return contrib.sum(axis=0) / len(t)


def brier_score(times, events, surv_probs, horizon, censor_curve=None):
    """IPCW Brier score at one horizon.

    surv_probs are the predicted S(horizon) per subject. Events at or
    before the horizon contribute S^2 / G(t_i-); subjects still at risk
    contribute (1-S)^2 / G(horizon); censored-before-horizon subjects
    contribute zero. The average is over all n subjects.
    """
    t, e = _check_outcomes(times, events)
    s = np.asarray(surv_probs, dtype=float)
    if s.shape != t.shape:
        raise DataError("surv_probs must match times in length")
    if censor_curve is None:
        censor_curve = censoring_km(t, e)
    return float(_brier_grid(t, e, s[:, None], np.array([float(horizon)]), censor_curve)[0])


def integrated_brier(times, events, curves, t_range=None, censor_curve=None):
    """Trapezoidal integral of the Brier score over an event-time grid.

    `curves` is a SurvivalCurve with one row per subject.
    The grid is the distinct event times inside t_range (default: from the
    earliest event to the 90th percentile of follow-up); the integral is
    normalized by the grid span. Needs at least two grid points.
    """
    t, e = _check_outcomes(times, events)
    if len(curves) != len(t):
        raise DataError("need one predicted curve per subject")
    event_times = np.unique(t[e == 1.0])
    if t_range is None:
        if len(event_times) == 0:
            raise DataError("no events; cannot choose a default range")
        t_range = (float(event_times.min()), float(np.quantile(t, 0.9)))
    lo, hi = float(t_range[0]), float(t_range[1])
    grid = event_times[(event_times >= lo) & (event_times <= hi)]
    if len(grid) < 2:
        raise DataError("fewer than 2 event times in t_range; integral is undefined")
    if censor_curve is None:
        censor_curve = censoring_km(t, e)
    scores = _brier_grid(t, e, curves(grid), grid, censor_curve)
    return float(np.trapezoid(scores, grid) / (grid[-1] - grid[0]))


@dataclass
class TaucResult:
    eval_times: np.ndarray
    values: np.ndarray
    mean: float


def cumulative_dynamic_auc(times, events, scores, eval_times=None, censor_curve=None):
    """IPCW cumulative/dynamic AUC at each horizon, plus the plain mean.

    Cases at horizon t are subjects with an event at or before t, weighted
    by 1/G(t_i-); a case with G(t_i-) = 0 is dropped with a warning.
    Controls are subjects still at risk after t. Score ties count half.
    Horizons without both (weighted) cases and controls are skipped.
    Defaults to the deciles (10%..90%) of the observed event times.
    """
    t, e = _check_outcomes(times, events)
    s = np.asarray(scores, dtype=float)
    if s.shape != t.shape:
        raise DataError("scores must match times in length")
    if eval_times is None:
        event_times = t[e == 1.0]
        if len(event_times) == 0:
            raise DataError("no events; cannot choose default horizons")
        eval_times = np.unique(np.quantile(event_times, np.arange(1, 10) / 10.0))
    eval_times = np.asarray(eval_times, dtype=float)
    if censor_curve is None:
        censor_curve = censoring_km(t, e)

    g_case = censor_curve.left(t)
    weighted = g_case > 0
    dropped = 0
    kept = []
    aucs = []
    for horizon in eval_times:
        cases = (t <= horizon) & (e == 1.0)
        controls = t > horizon
        if controls.any():
            dropped += int((cases & ~weighted).sum())
        cases &= weighted
        if not cases.any() or not controls.any():
            continue
        w = 1.0 / g_case[cases]
        ctrl_sorted = np.sort(s[controls])
        n_less = np.searchsorted(ctrl_sorted, s[cases], side="left")
        n_leq = np.searchsorted(ctrl_sorted, s[cases], side="right")
        wins = n_less + 0.5 * (n_leq - n_less)
        denom = w.sum() * len(ctrl_sorted)
        kept.append(float(horizon))
        aucs.append(float((w * wins).sum() / denom))
    _warn_dropped(dropped)
    if not kept:
        raise ComputationError("no horizon had both cases and controls")
    values = np.array(aucs)
    return TaucResult(eval_times=np.array(kept), values=values, mean=float(values.mean()))


@dataclass
class MetricResult:
    name: str
    point: float
    ci_low: float
    ci_high: float
    n_boot: int
    seed: int
    n_failed: int = 0


def bootstrap_ci(metric_fn, times, events, n_boot=1000, seed=0, name="metric"):
    """Stratified percentile bootstrap of a metric over subject indices.

    metric_fn maps an index array to a float. Replicates resample events
    and censored subjects separately (stratum sizes preserved) from a
    per-replicate generator seeded with (seed, replicate). Replicates may
    fail (e.g. no comparable pairs); more than 10% failures is an error.
    """
    t, e = _check_outcomes(times, events)
    idx_event = np.flatnonzero(e == 1.0)
    idx_cens = np.flatnonzero(e == 0.0)
    point = float(metric_fn(np.arange(len(t))))

    values = []
    failed = 0
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        parts = []
        if len(idx_event):
            parts.append(rng.choice(idx_event, size=len(idx_event), replace=True))
        if len(idx_cens):
            parts.append(rng.choice(idx_cens, size=len(idx_cens), replace=True))
        idx = np.concatenate(parts)
        try:
            values.append(float(metric_fn(idx)))
        except (ComputationError, DataError):
            failed += 1
    if failed > 0.1 * n_boot:
        raise ComputationError(
            f"bootstrap metric failed on {failed}/{n_boot} replicates"
        )
    lo, hi = np.quantile(np.array(values), [0.025, 0.975])
    return MetricResult(
        name=name,
        point=point,
        ci_low=float(lo),
        ci_high=float(hi),
        n_boot=n_boot,
        seed=seed,
        n_failed=failed,
    )
