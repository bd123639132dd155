"""Discrimination and calibration metrics with IPCW censoring weights.

Censoring weights use the Kaplan-Meier estimate G of the censoring
distribution (event indicator flipped), the Graf estimator. Weights at an
observed event time use the left limit G(t-), weights for being at risk at
the horizon use G(t). The Brier score, IBS and tAUC weigh each sample
with its own censoring KM, under which no subject it holds needs a zero
weight: G(c) = 0 only where everyone still at risk is censored at c, so
nobody of the sample has an event or is at risk after c.

Every metric also scores R resamples of the same subjects in one pass:
`counts` is an (R, n) matrix of subject multiplicities (row r says how
often each subject occurs in sample r), and the metric returns R values,
NaN where a sample's metric is undefined. Without `counts` a metric scores
the sample itself as the one-row, all-ones case, and raises where that
value is undefined. The bootstrap draws its replicates as such a matrix
and scores it in blocks of `ROW_CHUNK` rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import concordance_counts
from .curves import SurvivalCurve
from .errors import ComputationError, ConfigError, DataError, check_seed
from .tabular import check_outcomes

# replicates `bootstrap_ci` scores per metric call; bounds every metric's
# (rows, n) intermediates
ROW_CHUNK = 64
DECILES = np.arange(1, 10) / 10.0


def _count_rows(counts, n):
    """(R, n) float multiplicities; one row of ones when counts is None."""
    if counts is None:
        return np.ones((1, n))
    w = np.asarray(counts, dtype=float)
    if w.ndim != 2 or w.shape[1] != n:
        raise DataError(f"counts must be an (R, {n}) matrix, got shape {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0).all() and (w == np.round(w)).all()):
        raise DataError("counts must be non-negative integers")
    return w


def _row_quantiles(x, w, q):
    """np.quantile(q) of each row's sample, x[i] repeated w[r, i] times: (R, len(q)).

    Rows of equal size are expanded into one sorted matrix, so every value
    is numpy's own quantile of that sample. A row of size 0 gives NaN.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    c = w[:, order].astype(np.int64)
    size = c.sum(axis=1)
    out = np.full((len(c), len(q)), np.nan)
    for m in np.unique(size[size > 0]):
        rows = np.flatnonzero(size == m)
        take = np.repeat(np.tile(np.arange(len(xs)), len(rows)), c[rows].ravel())
        out[rows] = np.quantile(xs[take].reshape(len(rows), m), q, axis=1).T
    return out


def _km_rows(t, e, w):
    """Product-limit estimates of R weighted samples at the distinct times of t.

    Returns (times (U,), events (R, U), S (R, U)). Event counts and risk
    sets are integers and the factor is exactly 1.0 where a sample has no
    event, so each row equals the estimate of its expanded sample.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    wo = w[:, order]
    at_risk = np.cumsum(np.add.reduceat(wo, starts, axis=1)[:, ::-1], axis=1)[:, ::-1]
    d = np.add.reduceat(np.multiply(wo, e[order], out=wo), starts, axis=1)
    factors = np.divide(d, at_risk, out=at_risk, where=d > 0)
    factors[d == 0] = 0.0
    return ts[starts], d, np.cumprod(np.subtract(1.0, factors, out=factors), axis=1, out=factors)


def kaplan_meier(times, events, counts=None):
    """Product-limit survival estimate; steps down at distinct event times.

    With `counts`, one row per sample, on the distinct times where any
    sample has an event (flat where that sample has none).
    """
    t, e = check_outcomes(times, events)
    knots, d, values = _km_rows(t, e, _count_rows(counts, len(t)))
    steps = (d > 0).any(axis=0)
    values = values[:, steps]
    return SurvivalCurve(times=knots[steps], values=values[0] if counts is None else values)


def censoring_km(times, events, counts=None):
    """KM estimate of the censoring distribution (indicator flipped)."""
    t, e = check_outcomes(times, events)
    return kaplan_meier(t, 1.0 - e, counts=counts)


def concordance_index(times, events, scores, counts=None):
    """Harrell's C: concordant pairs plus half the score ties, over
    comparable pairs. Tied-time pairs with two events are not comparable.

    With `counts`, sample r weighs pair (i, j) by counts[r, i] * counts[r, j],
    the pair count of its expanded sample (two copies of one subject are
    never comparable); a sample without comparable pairs gives NaN.
    """
    t, e = check_outcomes(times, events)
    s = np.asarray(scores, dtype=float)
    if s.shape != t.shape:
        raise DataError("scores must match times in length")
    if np.isnan(s).any():
        raise DataError("scores must be complete")
    if counts is None:
        # exact Python ints; below 2^53 they convert exactly, so this is the
        # float the weighted row of ones gives
        conc, tied, comp = concordance_counts(t, e, s)
        if comp == 0:
            raise ComputationError("no comparable pairs; cannot compute a concordance index")
        return (conc + 0.5 * tied) / comp
    conc, tied, comp = concordance_counts(t, e, s, weights=_count_rows(counts, len(t)))
    with np.errstate(invalid="ignore"):
        return (conc + 0.5 * tied) / comp


def _brier_grid(t, e, preds, grid, w):
    """(R, G) IPCW Brier scores of R weighted samples at every grid time.

    w (R, n) holds subject multiplicities and preds[i, j] is subject i's
    predicted S(grid[j]); each sample is weighed by its own censoring KM
    G. Events at or before grid[j] contribute S^2 / G(t_i-); subjects still
    at risk contribute (1-S)^2 / G(grid[j]); censored-before-grid[j]
    subjects contribute zero. The denominator is the sample size. A
    subject a sample holds never meets G = 0; one it leaves out (w = 0)
    may, and the guarded divisions make it count for nothing.
    """
    g = censoring_km(t, e, counts=w)
    died = (t[:, None] <= grid) & (e == 1.0)[:, None]
    alive = t[:, None] > grid
    g_died = g.left(t)
    g_alive = g(grid)
    inv = np.divide(w, g_died, out=np.zeros_like(w), where=(g_died > 0) & (e == 1.0))
    terms = np.zeros_like(preds)
    scores = inv @ np.square(preds, out=terms, where=died)
    terms.fill(0.0)
    np.subtract(1.0, preds, out=terms, where=alive)
    rest = w @ np.square(terms, out=terms)
    scores += np.divide(rest, g_alive, out=np.zeros_like(rest), where=g_alive > 0)
    scores /= w.sum(axis=1, keepdims=True)
    return scores


def brier_score(times, events, surv_probs, horizon):
    """IPCW Brier score at one horizon, weighed by the sample's censoring KM.

    surv_probs are the predicted S(horizon) per subject. Events at or
    before the horizon contribute S^2 / G(t_i-); subjects still at risk
    contribute (1-S)^2 / G(horizon); censored-before-horizon subjects
    contribute zero. The average is over all n subjects.
    """
    t, e = check_outcomes(times, events)
    s = np.asarray(surv_probs, dtype=float)
    if s.shape != t.shape:
        raise DataError("surv_probs must match times in length")
    if np.isnan(s).any():
        raise DataError("surv_probs must be complete")
    horizon = float(horizon)
    if not np.isfinite(horizon):
        raise DataError("horizon must be finite")
    return float(_brier_grid(t, e, s[:, None], np.array([horizon]), np.ones((1, len(t))))[0, 0])


def _masked_trapezoid(y, x, mask):
    """Per row r, np.trapezoid(y[r, mask[r]], x[mask[r]]) over that grid's
    span; NaN where the row has fewer than two grid points."""
    rows, cols = np.nonzero(mask)
    pair = rows[1:] == rows[:-1]
    r, a, b = rows[1:][pair], cols[:-1][pair], cols[1:][pair]
    area = np.bincount(r, weights=(x[b] - x[a]) * (y[r, b] + y[r, a]) / 2.0, minlength=len(y))
    first = mask.argmax(axis=1)
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mask.sum(axis=1) >= 2, area / (x[last] - x[first]), np.nan)


def integrated_brier(times, events, curves, counts=None):
    """Trapezoidal integral of the Brier score over an event-time grid.

    `curves` is a SurvivalCurve with one row per subject. The grid is the
    sample's distinct event times up to its 90th percentile of follow-up,
    and the weights come from its own censoring KM; the integral is
    normalized by the grid span. Needs at least two grid points.

    With `counts`, every sample takes its grid and weights this way from
    its own subjects; a sample with fewer than two grid points gives NaN.
    All rows are scored in one pass.
    """
    t, e = check_outcomes(times, events)
    if len(curves) != len(t):
        raise DataError("need one predicted curve per subject")
    w = _count_rows(counts, len(t))
    ev = np.flatnonzero(e == 1.0)
    if len(ev) == 0:
        raise DataError("no events; cannot choose a grid")
    ev = ev[np.argsort(t[ev], kind="stable")]
    event_times, ev_starts = np.unique(t[ev], return_index=True)
    values = np.full(len(w), np.nan)
    if len(event_times) >= 2:
        preds = curves(event_times)
        # a sample's grid: the event times it contains, up to its 90th
        # percentile of follow-up
        grid = np.add.reduceat(w[:, ev], ev_starts, axis=1) > 0
        grid &= event_times <= _row_quantiles(t, w, [0.9])
        if np.isnan(preds[:, grid.any(axis=0)]).any():
            raise DataError("curves must be complete at the event times")
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = _brier_grid(t, e, preds, event_times, w)
        values = _masked_trapezoid(scores, event_times, grid)
    if counts is not None:
        return values
    if np.isnan(values[0]):
        raise DataError(
            "fewer than 2 event times up to the 90th percentile of follow-up; "
            "integral is undefined"
        )
    return float(values[0])


@dataclass
class TaucResult:
    """Kept horizons, their AUCs and the mean of one sample; with `counts`,
    (R, H) horizons and AUCs (NaN where skipped) and (R,) means."""

    horizons: np.ndarray
    values: np.ndarray
    mean: float


def _decile_horizons(event_times, w):
    """Each row's distinct deciles (10%..90%) of its event times, ascending,
    with NaN in place of repeats."""
    h = np.sort(_row_quantiles(event_times, w, DECILES), axis=1)
    repeat = np.zeros(h.shape, dtype=bool)
    repeat[:, 1:] = h[:, 1:] == h[:, :-1]
    h[repeat] = np.nan
    return h


def cumulative_dynamic_auc(times, events, scores, counts=None):
    """IPCW cumulative/dynamic AUC at each horizon, plus the plain mean.

    The horizons are the distinct deciles (10%..90%) of the sample's event
    times. Cases at horizon t are subjects with an event at or before t,
    weighted by 1/G(t_i-) under the sample's own censoring KM. Controls are
    subjects still at risk after t. Score ties count half. Horizons without
    both (weighted) cases and controls are skipped.

    With `counts`, every sample takes its horizons and weights this way
    from its own subjects; a sample without a usable horizon has a NaN
    mean. All rows are scored in one pass.
    """
    t, e = check_outcomes(times, events)
    s = np.asarray(scores, dtype=float)
    if s.shape != t.shape:
        raise DataError("scores must match times in length")
    if np.isnan(s).any():
        raise DataError("scores must be complete")
    w = _count_rows(counts, len(t))
    event = e == 1.0
    if not event.any():
        raise DataError("no events; cannot choose horizons")

    # a case's wins: control mass with a lower score plus half the tied mass
    order = np.argsort(s, kind="stable")
    new_score = np.r_[True, s[order][1:] != s[order][:-1]]
    starts = np.flatnonzero(new_score)
    group = np.empty(len(s), dtype=np.intp)
    group[order] = np.cumsum(new_score) - 1

    # a zero-weight subject of a sample may still meet G(t-) = 0
    g_case = censoring_km(t, e, counts=counts).left(t)
    inv = np.divide(1.0, g_case, out=np.zeros(np.shape(g_case)), where=g_case > 0)
    horizons = _decile_horizons(t[event], w[:, event])
    values = np.full(horizons.shape, np.nan)
    for k in range(horizons.shape[1]):
        h = horizons[:, k : k + 1]
        cases = (t <= h) & event
        controls = np.where(t > h, w, 0.0)
        n_controls = controls.sum(axis=1)
        case_w = np.where(cases, w * inv, 0.0)
        mass = np.add.reduceat(controls[:, order], starts, axis=1)
        wins = (np.cumsum(mass, axis=1) - 0.5 * mass)[:, group]
        total = case_w.sum(axis=1)
        usable = (total > 0) & (n_controls > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            auc = (case_w * wins).sum(axis=1) / (total * n_controls)
        values[:, k] = np.where(usable, auc, np.nan)
    kept = ~np.isnan(values)
    with np.errstate(invalid="ignore"):
        mean = np.where(kept, values, 0.0).sum(axis=1) / kept.sum(axis=1)
    if counts is not None:
        return TaucResult(horizons=np.where(kept, horizons, np.nan), values=values, mean=mean)
    if not kept[0].any():
        raise ComputationError("no horizon had both cases and controls")
    return TaucResult(
        horizons=horizons[0, kept[0]], values=values[0, kept[0]], mean=float(mean[0])
    )


@dataclass
class MetricResult:
    name: str
    point: float
    ci_low: float
    ci_high: float
    n_boot: int
    n_failed: int = 0


def bootstrap_counts(events, n_boot, seed):
    """Subject multiplicities of a stratified bootstrap, (n_boot + 1, n).

    Row 0 is the sample itself (all ones). Row r + 1 is replicate r: events
    and censored subjects are resampled separately (stratum sizes
    preserved), one `choice` per stratum from a generator seeded with
    (seed, r), and the row counts how often each subject was drawn. An
    n_boot that is not an integer >= 1 is a ConfigError, a seed that is
    not a non-negative integer a DataError.
    """
    e = np.asarray(events, dtype=float)
    if e.ndim != 1 or len(e) == 0 or not np.isin(e, (0.0, 1.0)).all():
        raise DataError("events must be a non-empty 1-D array of 0/1")
    if not isinstance(n_boot, numbers.Integral) or n_boot < 1:
        raise ConfigError(f"n_boot={n_boot!r} is not an integer >= 1")
    check_seed(seed)
    strata = [s for s in (np.flatnonzero(e == 1.0), np.flatnonzero(e == 0.0)) if len(s)]
    counts = np.ones((n_boot + 1, len(e)))
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        drawn = np.concatenate([rng.choice(s, size=len(s), replace=True) for s in strata])
        counts[rep + 1] = np.bincount(drawn, minlength=len(e))
    return counts


def bootstrap_ci(metric_fn, counts, name="metric"):
    """Stratified percentile bootstrap of a metric scored on blocks of replicates.

    `counts` comes from `bootstrap_counts`: row 0 is the sample, each
    further row one replicate. metric_fn maps a block of ROW_CHUNK rows
    (the first one starting at row 0) to one value per row, NaN where the
    metric is undefined, and maps None to the value of the sample alone.
    Row 0 gives the point estimate; where it is NaN, metric_fn(None) raises
    the metric's own error. Replicates may fail (e.g. no comparable pairs);
    more than 10% failures is an error.
    """
    values = np.concatenate([
        np.asarray(metric_fn(counts[lo : lo + ROW_CHUNK]), dtype=float)
        for lo in range(0, len(counts), ROW_CHUNK)
    ])
    point, replicates = values[0], values[1:]
    if np.isnan(point):
        metric_fn(None)
        raise ComputationError(f"{name} is undefined on the full sample")
    n_boot = len(replicates)
    scored = replicates[~np.isnan(replicates)]
    failed = n_boot - len(scored)
    if failed > 0.1 * n_boot:
        raise ComputationError(
            f"bootstrap metric failed on {failed}/{n_boot} replicates"
        )
    lo, hi = np.quantile(scored, [0.025, 0.975])
    return MetricResult(
        name=name,
        point=float(point),
        ci_low=float(lo),
        ci_high=float(hi),
        n_boot=n_boot,
        n_failed=failed,
    )
