"""Numerical kernels, in numpy: the Efron partial-likelihood scan and
concordance counts.

- efron_ties / efron_eval: the Efron-tie negative log partial likelihood
  of a score vector plus its gradient with respect to the scores, split
  into the time-only work (sort order, tie groups, tied-term fractions and
  the flat index arrays of the scan), done once per set of outcomes, and
  the score-dependent scan, done per evaluation. efron_loss_grad is both
  in one call.
- concordance_counts: exact integer pair counts for Harrell's C, so the
  final ratio does not depend on summation order; optionally weighted by
  an (R, n) multiplicity matrix, all R samples in one pass.

The Efron scan is a handful of gathers and cumulative sums over index
arrays `efron_ties` builds once. Its per-group sums (tied-event sums of
phi and eta, and the per-group reductions of log, 1/denom and l/d/denom)
are only taken when some event group has d >= 2 (`EfronTies.tied`). When
every d is 1, each group sum is its one term and every l/d is 0, so the
skipped sums are exact, bit for bit. When they are taken, the tied-event
sums run `reduceat` over every distinct time with the censored members
as zeros, never over the events alone: reduceat's summation order
depends on the group's length, so dropping the zeros moves the last bits
on long tied groups.

`BACKEND` names the implementation; run manifests record it so results
stay attributable to the kernels that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKEND = "python"

# pair-mask cells per concordance block (cases x subjects), which bounds the
# float masks the weighted sums multiply
BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class EfronTies:
    """The time-only structure of an Efron scan, built once by `efron_ties`.

    Positions are in stable time order. An event group is a distinct time
    with at least one event; its d tied events give d flat terms
    l = 0..d-1, in position order, so events and flat terms share one index.
    `group_at`, `risk_at`, `event_pos` and `cover1` are the index arrays
    the scan gathers through, so an evaluation does no boolean compress or
    `where` pass to find them; when `tied` is false it takes no group sum
    either (see the module docstring).
    """

    order: np.ndarray  # (n,) stable argsort of the times
    events: np.ndarray  # (n,) event indicator in time order (bool)
    starts: np.ndarray  # (G,) first position of each distinct time
    has_event: np.ndarray  # (G,) distinct times with at least one event
    sizes: np.ndarray  # (E,) tied event count d of each event group
    frac: np.ndarray  # (D,) l/d of each flat term; D is the event count
    bounds: np.ndarray  # (E,) first flat term of each event group (reduceat bounds)
    own: np.ndarray  # (D,) event group of each event (and flat term)
    group_at: np.ndarray  # (E,) first position of each event group: starts[has_event]
    risk_at: np.ndarray  # (D,) first position of each event's group: group_at[own]
    event_pos: np.ndarray  # (D,) position of each event
    # (n,) event groups at or before each time: an index into a zero-led
    # cumulative sum over the groups, 0 before the first event time
    cover1: np.ndarray
    event_f: np.ndarray  # (n,) events as floats
    tied: bool  # some event group has d >= 2; else every frac is 0

    def denominators(self, phi):
        """Flat Efron denominators (D,) for relative hazards `phi` in time
        order: the risk-set sum of the term's group minus l/d times its
        tied-event sum."""
        risk = phi[::-1].cumsum()[::-1][self.risk_at]
        if not self.tied:
            return risk
        tie = np.add.reduceat(np.where(self.events, phi, 0.0), self.starts)[self.has_event]
        return risk - self.frac * tie[self.own]

    def hazard_weights(self, phi, denom):
        """phi_i * (a_i - b_i) in time order: a_i sums 1/denom over the terms
        of every event group at or before t_i, and b_i (events only) sums
        l/d / denom over the subject's own group. The gradient of the NLPL
        in the scores is these weights minus the event indicator."""
        a_g = 1.0 / denom
        if self.tied:
            a_g = np.add.reduceat(a_g, self.bounds)
        a_cum = np.zeros(len(a_g) + 1)
        a_g.cumsum(out=a_cum[1:])
        weights = phi * a_cum[self.cover1]
        if self.tied:
            b_g = np.add.reduceat(self.frac / denom, self.bounds)
            at = self.event_pos
            weights[at] = phi[at] * (a_cum[self.cover1[at]] - b_g[self.own])
        return weights


def efron_ties(times, events):
    """The tie structure of `times`/`events` that every Efron evaluation on
    them shares: sort order, groups, tied-term fractions, and the index
    arrays the scan gathers through.

    Building it once lets a fit evaluate many score vectors on the same
    outcomes without re-sorting (`efron_eval`).
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    if t.ndim != 1 or len(t) == 0 or t.shape != e.shape:
        raise ValueError("times and events must be equal-length non-empty 1-D arrays")

    # array methods, not the np.* wrappers: on a 64-row minibatch the
    # wrappers' dispatch costs about as much as the work itself
    order = t.argsort(kind="stable")
    ts = t[order]
    es = e[order].astype(bool)
    first = np.empty(len(ts), dtype=bool)  # each distinct time's first position
    first[0] = True
    np.not_equal(ts[1:], ts[:-1], out=first[1:])
    starts = first.nonzero()[0]
    d = np.add.reduceat(es.astype(np.int64), starts)
    has_event = d > 0
    sizes = d[has_event]
    bounds = sizes.cumsum() - sizes
    # flat index -> l / d within its event group
    frac = (np.arange(sizes.sum()) - bounds.repeat(sizes)) / sizes.repeat(sizes)
    group_at = starts[has_event]
    event_times = ts[group_at]
    own = event_times.searchsorted(ts[es])
    return EfronTies(
        order=order,
        events=es,
        starts=starts,
        has_event=has_event,
        sizes=sizes,
        frac=frac,
        bounds=bounds,
        own=own,
        group_at=group_at,
        risk_at=group_at[own],
        event_pos=es.nonzero()[0],
        cover1=event_times.searchsorted(ts, side="right"),
        event_f=es.astype(float),
        tied=len(frac) > len(sizes),
    )


def efron_eval(ties, eta):
    """Efron negative log partial likelihood and gradient wrt scores, on
    the tie structure `ties` of `efron_ties`.

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
    x = np.asarray(eta, dtype=float)
    n = len(ties.order)
    if x.shape != (n,):
        raise ValueError(f"eta must be a 1-D array of the {n} rows the ties were built on")
    if len(ties.frac) == 0:
        return 0.0, np.zeros(n)

    xs = x[ties.order]
    shift = xs.max()
    phi = np.exp(xs - shift)
    denom = ties.denominators(phi)
    if (denom <= 0.0).any():
        # Risk-set sums underflowed for these scores. The true value is finite
        # but enormous, so report the point as infeasible.
        return float("inf"), np.full(n, np.nan)

    # Each log(denom) is short by the max shift; there is one term per event.
    log_sum = np.log(denom)
    if ties.tied:
        log_sum = np.add.reduceat(log_sum, ties.bounds)
        tie_eta = np.add.reduceat(np.where(ties.events, xs, 0.0), ties.starts)[ties.has_event]
    else:
        tie_eta = xs[ties.event_pos]
    value = float(log_sum.sum() + len(ties.frac) * shift - tie_eta.sum())

    grad = np.empty(n)
    grad[ties.order] = ties.hazard_weights(phi, denom) - ties.event_f
    return value, grad


def efron_loss_grad(times, events, eta):
    """Efron negative log partial likelihood and gradient wrt scores for
    one score vector: `efron_eval(efron_ties(times, events), eta)`."""
    return efron_eval(efron_ties(times, events), eta)


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
