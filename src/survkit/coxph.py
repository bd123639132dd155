"""Cox proportional hazards with elastic-net penalties.

The relative hazard is h0(t) * exp(x . beta). Tied event times use Efron's
correction throughout (likelihood, gradient, Hessian, baseline). Fitting
minimizes NLPL(beta)/n_events + l1*||beta||_1 + (l2/2)*||beta||^2 by
proximal gradient with a backtracking line search; the likelihood term is
averaged per event so penalty strengths mean the same thing at any cohort
size, and the l1 proximal step is a soft threshold, so sufficiently
penalized coefficients are exactly zero. With both penalties zero the same
loop converges to the unpenalized partial likelihood solution and the
inverse observed information of the raw (unaveraged) likelihood is stored
for Wald inference, unless that information is singular (`_null_columns`).

A fit sorts its outcomes once: the Efron tie structure (`efron_ties`) is
built at the start and every likelihood evaluation, the final likelihood,
the information matrix and the Breslow baseline reuse it. The line search
keeps the accepted candidate's value and gradient as the next iterate's,
so each backtracking trial costs one Efron evaluation. The information matrix is in closed form
over per-group sums (no per-event loop).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import efron_eval, efron_loss_grad, efron_ties
from .curves import CumHazardFn, SurvivalCurve
from .errors import ComputationError, DataError, ScalingWarning
from .tabular import check_fit_inputs

SEPARATION_BOUND = 50.0
# a fit stops when the relative objective change or the step's infinity norm
# falls below these
REL_TOL = 1e-9
STEP_TOL = 1e-8


def neg_log_partial_likelihood(beta, x, times, events):
    """Efron-tie negative log partial likelihood and its gradient in beta."""
    x, t, e = check_fit_inputs(x, times, events)
    beta = np.asarray(beta, dtype=float)
    value, grad_eta = efron_loss_grad(t, e, x @ beta)
    return value, x.T @ grad_eta


def _soft_threshold(z, a):
    return np.sign(z) * np.maximum(np.abs(z) - a, 0.0)


@dataclass
class CoxParams:
    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self):
        if not (self.l1 >= 0.0 and self.l2 >= 0.0):
            raise DataError(f"l1 and l2 must be non-negative, got l1={self.l1!r}, l2={self.l2!r}")


@dataclass
class CoxModel:
    beta: np.ndarray
    names: list
    l1: float
    l2: float
    converged: bool
    n_iter: int
    final_nlpl: float = float("nan")
    separation: bool = False
    covariance: np.ndarray = None
    baseline: CumHazardFn = None
    # names of the columns a singular observed information fails on: the
    # constant or aliased ones, which leave no covariance stored
    aliased: list = field(default_factory=list)

    def linear_predictor(self, x):
        return np.asarray(x, dtype=float) @ self.beta


def _unscaled_columns(x):
    """Indices of the columns of `x` with |mean| or std above 5."""
    return np.flatnonzero((np.abs(x.mean(axis=0)) > 5.0) | (x.std(axis=0) > 5.0))


def _maybe_warn_scaling(x):
    if len(_unscaled_columns(x)):
        warnings.warn(
            "covariates look unstandardized (|mean| or std above 5); "
            "penalties and step sizes assume standardized inputs",
            ScalingWarning,
        )


def fit_coxph(
    x,
    times,
    events,
    l1=0.0,
    l2=0.0,
    names=None,
    max_iter=500,
):
    """Fit the elastic-net Cox model by proximal gradient descent.

    Stops when the relative objective change drops below REL_TOL (1e-9),
    the step infinity-norm drops below STEP_TOL (1e-8), or max_iter is
    reached (converged stays False). Coefficients beyond +/-50 abort the
    fit with a separation diagnostic. The objective decreases monotonically
    by construction of the line search; an increase is a ComputationError.
    A converged unpenalized fit stores the inverse observed information as
    `covariance`, unless the information is singular: then `aliased` names
    the constant or aliased columns, with a warning, and none is stored.
    """
    x, t, e = check_fit_inputs(x, times, events)
    if l1 < 0 or l2 < 0:
        raise DataError("penalties must be non-negative")
    _maybe_warn_scaling(x)
    p = x.shape[1]
    if names is None:
        names = [f"x{j}" for j in range(p)]
    if len(names) != p:
        raise DataError("names length does not match covariate count")

    beta = np.zeros(p)
    n_events = float(np.sum(e == 1.0))
    ties = efron_ties(t, e)

    def smooth(b):
        value, grad_eta = efron_eval(ties, x @ b)
        return value / n_events + 0.5 * l2 * float(b @ b), x.T @ grad_eta / n_events + l2 * b

    f_val, grad = smooth(beta)
    objective = f_val + l1 * np.abs(beta).sum()
    step = 1.0
    converged = False
    separation = False
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        while True:
            cand = _soft_threshold(beta - step * grad, step * l1)
            delta = cand - beta
            f_cand, g_cand = smooth(cand)
            bound = f_val + float(grad @ delta) + float(delta @ delta) / (2.0 * step)
            if f_cand <= bound + 1e-12 * max(1.0, abs(bound)):
                break
            step *= 0.5
            if step < 1e-20:
                raise ComputationError("line search collapsed; check input conditioning")

        new_objective = f_cand + l1 * np.abs(cand).sum()
        if new_objective > objective + 1e-10 * max(1.0, abs(objective)):
            raise ComputationError("objective increased; line search invariant violated")
        beta, f_val, grad = cand, f_cand, g_cand

        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            separation = True
            warnings.warn("possible separation: a coefficient exceeded +/-50 in absolute value")
            break

        rel_change = (objective - new_objective) / max(1.0, abs(objective))
        objective = new_objective
        if rel_change < REL_TOL or np.max(np.abs(delta)) < STEP_TOL:
            converged = True
            break
        step *= 1.3  # grow after an accepted step; backtracking shrinks again if needed

    if not converged and not separation:
        warnings.warn(f"proximal gradient did not converge in {max_iter} iterations")

    model = CoxModel(
        beta=beta,
        names=list(names),
        l1=float(l1),
        l2=float(l2),
        converged=converged,
        n_iter=n_iter,
        final_nlpl=float(efron_eval(ties, x @ beta)[0]),
        separation=separation,
    )
    if l1 == 0.0 and l2 == 0.0 and converged:
        info = _efron_information(beta, x, ties)
        model.aliased = [model.names[j] for j in _null_columns(info, x)]
        if model.aliased:
            warnings.warn(f"observed information is singular in {model.aliased}; "
                          "no covariance stored")
        else:
            model.covariance = np.linalg.inv(info)
    if not separation:
        model.baseline = _breslow(ties, t, x @ beta)
    return model


def _null_columns(info, x):
    """Indices of the columns that the null space of the observed
    information `info` of design `x` loads on; empty when `info` is not
    singular.

    `info` is first scaled by each column's root mean square in `x`, so a
    constant column, whose information is rounding noise of the size of
    its values squared, is singular whatever its value and however the
    other columns are scaled. An eigenvalue of the scaled matrix at or
    below len(x) * eps times the largest is null.
    """
    scale = np.sqrt(np.mean(x * x, axis=0))
    scale[scale == 0.0] = 1.0  # an all-zero column has an all-zero row
    w, v = np.linalg.eigh(info / np.outer(scale, scale))
    null = w <= len(x) * np.finfo(float).eps * w[-1]
    # a null vector's loadings on the columns outside it are rounding noise
    return np.flatnonzero((np.abs(v[:, null]) > 1e-6).any(axis=1))


def _efron_information(beta, x, ties):
    """Observed information (Hessian of the NLPL) at beta, Efron ties.

    Term l of event group k has denominator den = R0 - c T0 and score mean
    z / den with z = R - c T, c = l/d: R0, R are the risk set's sums of phi
    and phi x, T0, T its tied events' sums. The Hessian is
    sum over terms of (second moments)/den - z z' / den^2. The first part
    is X' diag(phi (a - b)) X with a, b the Efron gradient's own sums
    (`EfronTies.hazard_weights`). The second, Z'Z, is in closed form over
    the (E, p) group sums: R' alpha R - R' beta T - T' beta R + T' gamma T,
    where alpha, beta, gamma sum 1/den^2, c/den^2 and c^2/den^2 over each
    group's terms. beta and gamma vanish where d = 1, so T is only summed
    over groups with tied events. Besides x it holds at most one (n, p)
    and one (E, p) array at a time.
    """
    eta = (x @ beta)[ties.order]
    phi = np.exp(eta - eta.max())
    denom = ties.denominators(phi)
    weights = np.empty(len(phi))
    weights[ties.order] = ties.hazard_weights(phi, denom)
    hess = x.T @ (x * weights[:, None])

    inv2 = 1.0 / denom**2
    # phi x in time order, summed in place from the last row back: at the
    # first row of a distinct time it holds that time's risk-set sum R
    phi_x = x[ties.order]
    phi_x *= phi[:, None]
    np.cumsum(phi_x[::-1], axis=0, out=phi_x[::-1])
    risk = phi_x[ties.group_at]
    del phi_x

    if ties.tied:
        tied = ties.sizes > 1
        terms = tied[ties.own]  # flat terms (and events) of the tied groups
        rows = ties.event_pos[terms]
        sizes = ties.sizes[tied]
        bounds = np.cumsum(sizes) - sizes
        tie = np.add.reduceat(x[ties.order[rows]] * phi[rows, None], bounds, axis=0)
        beta_g = np.add.reduceat((ties.frac * inv2)[terms], bounds)
        gamma = np.add.reduceat((ties.frac**2 * inv2)[terms], bounds)
        cross = risk[tied].T @ (tie * beta_g[:, None])
        hess += cross + cross.T - tie.T @ (tie * gamma[:, None])
    # R' alpha R as S'S with S = sqrt(alpha) R, scaled in place
    risk *= np.sqrt(np.add.reduceat(inv2, ties.bounds))[:, None]
    hess -= risk.T @ risk
    # the matrix products round (j, k) and (k, j) differently
    return 0.5 * (hess + hess.T)


@dataclass
class WaldRow:
    name: str
    beta: float
    se: float
    z: float
    p_value: float
    hr: float
    hr_low: float
    hr_high: float


def wald_stats(model):
    """Per-covariate Wald inference from the inverse observed information.

    Only defined for converged unpenalized fits; hazard-ratio bounds are
    exp(beta +/- 1.96 se) and p-values come from the normal approximation.
    """
    if model.l1 != 0.0 or model.l2 != 0.0:
        raise ComputationError("Wald statistics require an unpenalized fit")
    if not model.converged:
        raise ComputationError("Wald statistics require a converged fit")
    if model.covariance is None:
        raise ComputationError("no covariance available (singular information matrix)")
    from scipy import special  # loaded on first use: its import outweighs the package's

    se = np.sqrt(np.diag(model.covariance))
    rows = []
    for j, name in enumerate(model.names):
        b = float(model.beta[j])
        s = float(se[j])
        z = b / s if s > 0 else float("inf") * np.sign(b) if b else 0.0
        rows.append(
            WaldRow(
                name=name,
                beta=b,
                se=s,
                z=z,
                p_value=float(2.0 * special.ndtr(-abs(z))),
                hr=float(np.exp(b)),
                hr_low=float(np.exp(b - 1.96 * s)),
                hr_high=float(np.exp(b + 1.96 * s)),
            )
        )
    return rows


def breslow_from_scores(times, events, eta):
    """Breslow cumulative baseline hazard for given per-row scores.

    H0(t) = sum over event times u <= t of d_u / sum(exp(eta) over the risk
    set at u). With all scores zero this is exactly the Nelson-Aalen
    estimate. Shared by the linear model and the network models; the sort
    order, event groups and counts d_u are those of `efron_ties`.
    """
    t = np.asarray(times, dtype=float)
    return _breslow(efron_ties(t, events), t, np.asarray(eta, dtype=float))


def _breslow(ties, t, eta):
    """`breslow_from_scores` on the tie structure `ties` of the times `t`,
    so that a fit builds its baseline without sorting again."""
    shift = eta.max()
    phi = np.exp(eta[ties.order] - shift)
    risk = np.cumsum(phi[::-1])[::-1][ties.group_at]
    if np.any(risk <= 0.0):
        raise ComputationError("risk-set sums underflowed; scores are too extreme for a baseline")
    with np.errstate(over="ignore"):
        values = np.cumsum(ties.sizes * np.exp(-shift) / risk)
    if not np.isfinite(values).all():
        raise ComputationError("baseline hazard overflowed; scores are too low for a baseline")
    return CumHazardFn(knots=t[ties.order[ties.group_at]], values=values)


def _ph_survival(baseline, eta, times):
    """Curves S(t) = exp(-H0(t) * exp(eta)), one row per score, at exactly
    `times`, which must be sorted ascending. The linear and the network
    proportional-hazards models share it."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise DataError("times must be sorted ascending")
    h0 = baseline(times)
    risk = np.exp(eta)
    return SurvivalCurve(times=times, values=np.exp(-h0 * risk[:, None]), kind="step")


def predict_survival(model, x, times):
    """Survival curves S(t|x) = exp(-H0(t) * exp(x . beta)), one row per x row.

    `times` must be sorted ascending; the returned curves hold the values
    at exactly those times.
    """
    if model.baseline is None:
        raise ComputationError("model has no baseline hazard; fit it first")
    return _ph_survival(model.baseline, model.linear_predictor(x), times)
