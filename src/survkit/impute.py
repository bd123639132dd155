"""Missing-data handling: Nelson-Aalen transform, chained equations, pooling.

The chained-equation imputer regresses each incomplete covariate on all
other covariates plus the outcome, where the outcome enters as the event
indicator and the Nelson-Aalen cumulative hazard at the follow-up time.
Each target column uses a normal-model Bayesian draw (coefficients and
noise drawn from their posterior), so repeated chains give proper
between-imputation variability for Rubin pooling. Indicator columns are
imputed on the continuous scale and deliberately not rounded.

`fit_mice` runs one chain and freezes its final-sweep coefficients;
`mice_impute` is m such chains with consecutive seeds, and `apply_mice`
runs the frozen chain on new rows. A chain is a start (`_chain_start`: the
checks, the hazard transform, the visit order, the means, the mean-filled
design and the Gram below, none of which depend on the seed) and a run
(`_chain_run`: the seeded sweeps on copies of them), so `mice_impute`
makes one start for its m runs. All three keep the covariates in one
design matrix D = [1, covariates, event, hazard], set up once with the mean
fill (`_chain_setup`); each draw is written into the target's own column,
and the completed values are read back once at the end (`_read_back`).

A chain also keeps the Gram matrix G = D'D, formed once after the mean fill.
A target step gathers only its missing rows M and takes the normal
equations of its observed rows O as G less the Gram of M; when O is the
smaller side it forms the Gram of O directly instead, because subtracting
a large Gram from a nearly equal one loses digits. After the draw, the
target's row and column of G are recomputed from D (not updated by an
increment, so no error builds up over the sweeps). A step costs
O(min(|O|, |M|) q^2 + n q) for n rows and q design columns, against
O(n q^2) for the Gram of the observed rows formed from scratch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .coxph import breslow_from_scores
from .curves import CumHazardFn
from .errors import ComputationError, DataError, ImputationWarning, SchemaError
from .tabular import SurvivalDataset, check_outcomes

RIDGE = 1e-6


def nelson_aalen(times, events):
    """Nelson-Aalen cumulative hazard estimate H(t) = sum d_i / n_i.

    Knots are the distinct event times; ties add d/n in one increment.
    This is the Breslow baseline at all-zero scores.
    """
    t, e = check_outcomes(times, events)
    return breslow_from_scores(t, e, np.zeros(len(t)))


def _check_numeric_covariates(ds):
    for c in ds.columns:
        if c.role == "covariate" and c.kind == "categorical":
            raise SchemaError(
                f"imputation expects dummy-coded covariates; {c.name!r} is categorical"
            )


def _target_columns(ds):
    """Covariate columns with missing cells, ordered by ascending missing
    rate with schema order breaking ties."""
    mask = ds.missing_mask
    rates = []
    for j, c in enumerate(ds.columns):
        if c.role != "covariate":
            continue
        rate = mask[:, j].mean()
        if rate > 0:
            if rate == 1.0:
                raise DataError(f"column {c.name!r} has no observed values to learn from")
            rates.append((float(rate), j, c.name))
    rates.sort(key=lambda r: (r[0], r[1]))
    return [(name, j) for _, j, name in rates]


def _chain_setup(ds, visit_order, means, hazard_fn):
    """The working store of a chain and its steps, in visit order.

    The design is [1, covariates, event, hazard], one row per subject, with
    covariate k (in schema order) in column 1 + k; every column but a
    target's own predicts that target. Each visited column with missing
    cells has them filled with its entry in `means` and gives one step
    (name, design column, predictor columns, observed rows, missing rows),
    the rows as index arrays made once.
    """
    cov_idx = [j for j, c in enumerate(ds.columns) if c.role == "covariate"]
    design = np.column_stack(
        [np.ones(ds.n_rows), ds.values[:, cov_idx], ds.event, hazard_fn(ds.time)]
    )
    mask = ds.missing_mask
    steps = []
    for name in visit_order:
        j = ds.col_index(name)
        mis = np.flatnonzero(mask[:, j])
        if len(mis):
            col = 1 + cov_idx.index(j)
            design[mis, col] = means[name]
            obs = np.flatnonzero(~mask[:, j])
            steps.append((name, col, np.delete(np.arange(design.shape[1]), col), obs, mis))
    return design, steps


def _read_back(ds, design):
    """`ds` completed from the design: its covariates read back once."""
    cov_idx = [j for j, c in enumerate(ds.columns) if c.role == "covariate"]
    values = ds.values.copy()
    values[:, cov_idx] = design[:, 1 : 1 + len(cov_idx)]
    return SurvivalDataset(list(ds.columns), values, row_ids=ds.row_ids.copy())


def _observed_gram(design, gram, obs, d_mis):
    """D'D over the rows `obs`, given the kept Gram `gram` = D'D over all
    rows and `d_mis` = D over the other rows: the Gram of whichever side
    has fewer rows, subtracted from `gram` when that side is the missing
    one."""
    if len(obs) < len(d_mis):
        d_obs = design[obs]
        return d_obs.T @ d_obs
    return gram - d_mis.T @ d_mis


def _unsquarable(ds, gram):
    """Names of the covariates of `ds` whose diagonal entry of the design
    Gram `gram` is not finite (design column 1 + k is covariate k)."""
    names = [c.name for c in ds.columns if c.role == "covariate"]
    return [names[k - 1] for k in np.flatnonzero(~np.isfinite(np.diag(gram)))
            if 0 < k <= len(names)]


def _bayes_draw(design, gram_obs, col, cols, obs, rng):
    """Posterior draw of (coefficients, sigma) for the normal linear model
    of design column `col` on columns `cols` over the rows `obs`, whose
    Gram D'D is `gram_obs`."""
    q = len(cols)
    s = gram_obs[np.ix_(cols, cols)] + RIDGE * np.eye(q)
    v = np.linalg.inv(s)
    beta_hat = v @ gram_obs[cols, col]
    # the residual over the observed rows, taken from the rows themselves:
    # the Gram form y'y - 2 b'X'y + b'X'Xb cancels
    gamma = np.zeros(design.shape[1])
    gamma[col] = 1.0
    gamma[cols] = -beta_hat
    resid = (design @ gamma)[obs]
    df = max(len(obs) - q, 1)
    chi2 = rng.chisquare(df)
    sigma = float(np.sqrt(resid @ resid / max(chi2, 1e-12)))
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        # jittered normal equations keep v near-PSD; fall back to sqrt eigs
        w, u = np.linalg.eigh(v)
        chol = u @ np.diag(np.sqrt(np.clip(w, 0, None)))
    beta_dot = beta_hat + sigma * (chol @ rng.standard_normal(q))
    return beta_hat, beta_dot, sigma


@dataclass
class ImputationSet:
    """m completed datasets plus the provenance needed to reproduce them."""

    datasets: list
    original_mask: np.ndarray
    m: int
    iterations: int
    seed: int
    visit_order: list

    def provenance(self):
        return {
            "m": self.m,
            "iterations": self.iterations,
            "seed": self.seed,
            "chain_seeds": [self.seed + 100 + i for i in range(self.m)],
            "visit_order": list(self.visit_order),
            "n_missing_cells": int(self.original_mask.sum()),
        }


def mice_impute(ds, m, iterations, seed):
    """Chained-equation imputation producing m completed datasets.

    The m datasets are the completed training rows of m chains,
    `fit_mice(ds, iterations, seed + i)` for i < m, so chain i draws from a
    generator seeded with seed + 100 + i: chains are independent and each
    is reproducible in isolation. The chains share one start, so a
    saturated target warns once per call. A dataset without missing cells
    yields m identical copies.
    """
    if m < 1:
        raise DataError("m must be >= 1")
    start = _chain_start(ds, iterations)
    # only the completed rows are kept, not each chain's hazard transform
    datasets = [_chain_run(start, seed + i).completed_train for i in range(m)]
    return ImputationSet(
        datasets=datasets,
        original_mask=ds.missing_mask,
        m=m,
        iterations=iterations,
        seed=seed,
        visit_order=start.visit_order,
    )


@dataclass
class MiceModel:
    """A fitted imputer that can complete new rows without refitting.

    Holds the training column means (initial fill), the training
    Nelson-Aalen transform, the visit order, and the posterior-mean
    coefficients of each target column's final sweep. Applying the model is
    deterministic: missing cells get their conditional mean under the
    stored models.
    """

    visit_order: list
    means: dict
    models: dict  # name -> coefficient vector (intercept, others, event, hazard)
    hazard_fn: CumHazardFn
    iterations: int
    seed: int
    column_names: list
    completed_train: SurvivalDataset = field(repr=False, default=None)


def fit_mice(ds, iterations, seed):
    """Run one chained-equations chain on training rows and freeze its
    final-sweep models.

    The outcomes must meet `check_outcomes` and `seed` must be a
    non-negative integer (DataError otherwise). The chain draws from a
    generator seeded with seed + 100. Each sweep visits the incomplete
    covariates in ascending order of missing rate, draws coefficients and
    noise from the posterior of a normal linear model fit on the target's
    observed rows, and writes the draw into its missing cells; the
    completed training rows are `completed_train`. A target with no more
    observed rows than predictors still gets its draws, with an
    ImputationWarning: its model is saturated. A target whose normal
    equations cannot be inverted, or whose normal equations or draws are
    not finite, is a ComputationError naming it; a covariate beyond ~1e154
    overflows the Gram, and the error names the covariates whose sums of
    squares are not finite.

    The chain keeps G = D'D of its design D (see the module docstring): a
    step gathers only the target's missing rows, takes the observed-row
    normal equations from G and the Gram of the smaller side, and then
    recomputes the target's row and column of G. A step costs
    O(min(|O|, |M|) q^2 + n q) for |O| observed and |M| missing rows.
    """
    return _chain_run(_chain_start(ds, iterations), seed)


@dataclass
class _ChainStart:
    """What every chain on `ds` shares: `_chain_setup`'s mean-filled design
    and steps, and the design's Gram D'D. Runs copy the design and Gram."""

    ds: SurvivalDataset
    iterations: int
    visit_order: list
    means: dict
    hazard_fn: CumHazardFn
    design: np.ndarray
    steps: list
    gram: np.ndarray


def _chain_start(ds, iterations):
    """The seed-free part of `fit_mice`: its checks, the hazard transform,
    the visit order and means, the design and its Gram, and one
    ImputationWarning per saturated target."""
    _check_numeric_covariates(ds)
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    hazard_fn = nelson_aalen(ds.time, ds.event)  # checks the outcomes
    targets = _target_columns(ds)
    visit = [name for name, _ in targets]
    mask = ds.missing_mask
    means = {name: float(ds.values[~mask[:, j], j].mean()) for name, j in targets}
    design, steps = _chain_setup(ds, visit, means, hazard_fn)
    for name, _, cols, obs, _ in steps:
        if len(obs) <= len(cols):
            warnings.warn(
                f"column {name!r} has {len(obs)} observed rows for {len(cols)} "
                "predictors; its imputation model is saturated",
                ImputationWarning,
            )
    with np.errstate(over="ignore", invalid="ignore"):  # `_chain_run` checks the Gram
        gram = design.T @ design
    return _ChainStart(ds, iterations, visit, means, hazard_fn, design, steps, gram)


def _chain_run(start, seed):
    """One chain from `start`, drawing from default_rng(seed + 100)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"seed={seed!r} is not a non-negative integer")
    # the design keeps its column-major layout: a C-order copy sends the
    # steps' matrix products down another BLAS path and moves the draws
    design = start.design.copy(order="K")
    gram = start.gram.copy()
    rng = np.random.default_rng(seed + 100)
    models = {}
    for _ in range(start.iterations):
        for name, col, cols, obs, mis in start.steps:
            d_mis = design[mis]
            with np.errstate(over="ignore", invalid="ignore"):
                gram_obs = _observed_gram(design, gram, obs, d_mis)
            if not np.isfinite(gram_obs).all():
                raise ComputationError(
                    f"imputation model of column {name!r} has non-finite normal equations "
                    f"(sums of squares not finite: {_unsquarable(start.ds, gram_obs)}); "
                    "rescale the covariates"
                )
            try:
                models[name], beta_dot, sigma = _bayes_draw(design, gram_obs, col, cols, obs, rng)
            except np.linalg.LinAlgError as exc:
                # the ridge is absolute, so it vanishes next to Gram entries
                # beyond ~1e10 and leaves a rank-deficient block singular
                raise ComputationError(
                    f"imputation model of column {name!r} is singular ({exc}); "
                    "rescale the covariates"
                ) from exc
            draw = d_mis[:, cols] @ beta_dot + sigma * rng.standard_normal(len(mis))
            if not np.isfinite(draw).all():
                raise ComputationError(
                    f"imputation draws of column {name!r} are not finite; "
                    "rescale the covariates"
                )
            design[mis, col] = draw
            with np.errstate(over="ignore", invalid="ignore"):  # the next step checks it
                gram[:, col] = gram[col, :] = design.T @ design[:, col]
    return MiceModel(
        visit_order=start.visit_order,
        means=start.means,
        models=models,
        hazard_fn=start.hazard_fn,
        iterations=start.iterations,
        seed=seed,
        column_names=start.ds.column_names,
        completed_train=_read_back(start.ds, design),
    )


def apply_mice(model, ds):
    """Complete a new dataset with a fitted imputer (no refitting, no noise).

    It runs the fitted chain's sweeps from the training-mean fill, each
    target's missing cells taking its conditional mean under the stored
    coefficients. Only columns that had missing cells at fit time have a
    fitted model. A covariate that was complete at fit time but has missing
    cells here raises DataError, and so do outcomes that fail
    `check_outcomes`: the hazard transform needs a follow-up time.
    """
    _check_numeric_covariates(ds)
    if ds.column_names != model.column_names:
        raise SchemaError("dataset columns do not match the fitted imputer")
    check_outcomes(ds.time, ds.event)
    # anything missing outside the visit order has no fitted model and no
    # stored training mean
    mask = ds.missing_mask
    for j, c in enumerate(ds.columns):
        if c.role == "covariate" and mask[:, j].any() and c.name not in model.means:
            raise DataError(
                f"column {c.name!r} has missing cells but was complete at fit time"
            )

    design, steps = _chain_setup(ds, model.visit_order, model.means, model.hazard_fn)
    for _ in range(model.iterations):
        for name, col, cols, _, mis in steps:
            design[mis, col] = design[np.ix_(mis, cols)] @ model.models[name]
    return _read_back(ds, design)


@dataclass
class PooledEstimate:
    """Rubin-pooled scalar estimate across m imputations."""

    point: float
    within: float
    between: float
    total: float
    se: float
    df: float
    ci_low: float
    ci_high: float
    p_value: float


def pool_rubin(estimates, variances):
    """Pool m (estimate, variance) pairs with Rubin's rules.

    Total variance T = W + (1 + 1/m) B; degrees of freedom use Rubin's
    formula (m-1)(1 + W / ((1+1/m)B))^2, degenerating to normal-based
    intervals when the between-imputation variance is exactly zero.
    """
    q = np.asarray(estimates, dtype=float)
    u = np.asarray(variances, dtype=float)
    if q.ndim != 1 or q.shape != u.shape:
        raise DataError("estimates and variances must be equal-length 1-D arrays")
    m = len(q)
    if m < 2:
        raise DataError("pooling needs m >= 2 imputations")
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise DataError("estimates and variances must be finite")
    if np.any(u < 0):
        raise DataError("variances must be non-negative")

    qbar = float(q.mean())
    w = float(u.mean())
    b = float(q.var(ddof=1))
    t_var = w + (1.0 + 1.0 / m) * b
    se = float(np.sqrt(t_var))

    from scipy import special  # loaded on first use: its import outweighs the package's

    if b > 0:
        df = (m - 1) * (1.0 + w / ((1.0 + 1.0 / m) * b)) ** 2
        quantile = float(special.stdtrit(df, 0.975))
        sf = lambda z: float(special.stdtr(df, -z))
    else:
        df = float("inf")
        quantile = float(special.ndtri(0.975))
        sf = lambda z: float(special.ndtr(-z))

    if se == 0.0:
        p = 1.0 if qbar == 0.0 else 0.0
        return PooledEstimate(qbar, w, b, t_var, se, df, qbar, qbar, p)

    z = abs(qbar) / se
    return PooledEstimate(
        point=qbar,
        within=w,
        between=b,
        total=t_var,
        se=se,
        df=df,
        ci_low=qbar - quantile * se,
        ci_high=qbar + quantile * se,
        p_value=2.0 * sf(z),
    )
