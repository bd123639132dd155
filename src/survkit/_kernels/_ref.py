"""Pure-numpy kernels.

- efron_loss_grad: Efron-tie negative log partial likelihood of a score
  vector plus its gradient with respect to the scores.
- concordance_counts: exact integer pair counts for Harrell's C, so the
  final ratio does not depend on summation order; optionally weighted by
  an (R, n) multiplicity matrix, all R samples in one pass.
"""

from __future__ import annotations

import numpy as np

# pair-mask cells per concordance block (cases x subjects), which bounds the
# float masks the weighted sums multiply
BLOCK_CELLS = 2**17


def efron_loss_grad(times, events, eta):
    """Efron negative log partial likelihood and gradient wrt scores.

    For each distinct event time with d tied events, the denominator of the
    l-th tied term (l = 0..d-1) is sum(exp(eta) over risk set) minus
    (l/d) * sum(exp(eta) over tied events). Scores are max-shifted before
    exponentiation; the partial likelihood is shift-invariant so the value
    is unchanged.

    Returns (value, gradient) where gradient has the input's row order. If
    the score spread is so large that a risk-set sum underflows to zero the
    value is +inf and the gradient is NaN; optimizers treat such points as
    infeasible.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    x = np.asarray(eta, dtype=float)
    n = len(t)
    if n == 0 or t.shape != e.shape or t.shape != x.shape:
        raise ValueError("times, events, eta must be equal-length non-empty 1-D arrays")

    order = np.argsort(t, kind="stable")
    ts = t[order]
    es = e[order].astype(bool)
    xs = x[order]
    shift = xs.max()
    phi = np.exp(xs - shift)

    if not es.any():
        return 0.0, np.zeros(n)

    # Per distinct time: risk-set sum of phi (suffix sum at group start),
    # tied-event sums of phi and eta, tied-event count.
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    rev = np.cumsum(phi[::-1])[::-1]
    risk = rev[starts]
    d = np.add.reduceat(es.astype(np.int64), starts)
    tie_phi = np.add.reduceat(np.where(es, phi, 0.0), starts)
    tie_eta = np.add.reduceat(np.where(es, xs, 0.0), starts)

    ev = d > 0
    risk_e, tie_e, d_e = risk[ev], tie_phi[ev], d[ev]

    # Flatten the l = 0..d-1 inner terms of every event group.
    frac = (np.arange(d_e.sum()) - np.repeat(np.cumsum(d_e) - d_e, d_e)) / np.repeat(d_e, d_e)
    denom = np.repeat(risk_e, d_e) - frac * np.repeat(tie_e, d_e)
    if np.any(denom <= 0.0):
        # Risk-set sums underflowed for these scores. The true value is finite
        # but enormous, so report the point as infeasible.
        return float("inf"), np.full(n, np.nan)
    seg = np.repeat(np.cumsum(d_e) - d_e, d_e)  # flat index -> event-group start
    bounds = np.cumsum(d_e) - d_e
    log_sum = np.add.reduceat(np.log(denom), bounds)
    a_g = np.add.reduceat(1.0 / denom, bounds)
    b_g = np.add.reduceat(frac / denom, bounds)

    # Each log(denom) is short by the max shift; there is one term per event.
    value = float(log_sum.sum() + d_e.sum() * shift - tie_eta[ev].sum())

    # Gradient: phi_i * (sum of a over event times <= t_i) minus, for events,
    # phi_i * b of their own group, minus the event indicator.
    event_times = ts[starts][ev]
    cum_a = np.cumsum(a_g)
    cover = np.searchsorted(event_times, ts, side="right") - 1
    a_i = np.where(cover >= 0, cum_a[np.clip(cover, 0, None)], 0.0)
    b_i = np.zeros(n)
    own = np.searchsorted(event_times, ts[es])
    b_i[es] = b_g[own]
    grad_sorted = phi * (a_i - b_i) - es

    grad = np.empty(n)
    grad[order] = grad_sorted
    return value, grad


def concordance_counts(times, events, scores, weights=None):
    """Exact Harrell pair counts: (concordant, tied_score, comparable).

    A pair is comparable when the earlier subject has an event, including
    tied times where the other subject is censored; tied times with two
    events are excluded. Concordant means the earlier-event subject has the
    strictly higher score; exact score ties are counted separately.

    `weights` (R, n) gives R weighted counts in one pass: sample r counts
    pair (i, j) weights[r, i] * weights[r, j] times, and each result is an
    (R,) float array. For integer weights summing to n per row (bootstrap
    multiplicities) every partial sum is an integer below n^2, so the
    counts are exact. Without weights the counts are Python ints.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    s = np.asarray(scores, dtype=float)
    n = len(t)
    if n == 0 or t.shape != e.shape or t.shape != s.shape:
        raise ValueError("times, events, scores must be equal-length non-empty 1-D arrays")
    w = np.ones((1, n)) if weights is None else np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError("weights must be an (R, n) matrix")

    wt = np.ascontiguousarray(w.T)
    case_idx = np.flatnonzero(e)
    counts = np.zeros((3, len(w)))
    block = max(1, BLOCK_CELLS // n)
    for lo in range(0, len(case_idx), block):
        idx = case_idx[lo : lo + block]
        tc = t[idx][:, None]
        sc = s[idx][:, None]
        # comparable: later time, or same time with the other subject censored
        comp = (t[None, :] > tc) | ((t[None, :] == tc) & ~e[None, :])
        for k, mask in enumerate(((sc > s[None, :]) & comp, (sc == s[None, :]) & comp, comp)):
            # each case's weighted partner mass, times the case's own weight
            counts[k] += ((mask @ wt) * wt[idx]).sum(axis=0)
    if weights is None:
        return tuple(int(c) for c in counts[:, 0])
    return counts[0], counts[1], counts[2]
