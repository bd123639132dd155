"""Experiment orchestration: splits, in-fold pipelines, grids, reports.

Leakage rules: dummy coding is schema-driven and happens once; everything
that learns from data (imputer, scaler, pruning, model) is fit on the
fitting rows of each fold only and applied to the held-out rows. Test rows
never reach any fitting call.

Seed derivation from the master seed: split uses seed+1; an imputer seeded
s draws chain i from s+100+i; fold pipelines and model training in the
grid use seed + 10000*(family_index+1) + 100*grid_index + fold_index; the
final refit uses seed + 50000 + family_index; test-set bootstraps use
seed + 300 + family_index. The family index is the family's place in
FAMILY_REGISTRY (coxph 0, deepsurv 1, deephit 2), so a family's results do
not depend on which other families run or in what order the config lists
them. Every stage is reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from . import coxph as coxph_mod
from . import deephit as deephit_mod
from . import deepsurv as deepsurv_mod
from .coxph import CoxParams, fit_coxph
from .deephit import DeepHitParams, fit_deephit
from .deepsurv import DeepSurvParams, fit_deepsurv
from .errors import ComputationError, ConfigError, DataError, check_keys, read_object, read_value
from .impute import apply_mice, fit_mice, mice_impute, pool_rubin
from .metrics import (
    bootstrap_ci,
    bootstrap_counts,
    censoring_km,
    concordance_index,
    cumulative_dynamic_auc,
    integrated_brier,
)
from .preprocess import apply_scaler, fit_scaler, prune_correlated
from .tabular import InclusionRules, check_outcomes, drop_columns, subset_rows

SIGNIFICANCE = 0.05


# -- splitting ----------------------------------------------------------------

@dataclass
class SplitPlan:
    test_fraction: float = 0.2
    inner: dict[str, object] = field(default_factory=lambda: {"kind": "kfold", "k": 5})

    def __post_init__(self):
        _split_settings(self)


@dataclass
class SplitResult:
    train_idx: np.ndarray
    test_idx: np.ndarray
    folds: list  # [(fit_idx, val_idx)] as positions into the full dataset


def _stratified_take(idx_by_stratum, fraction, rng):
    take, rest = [], []
    for idx in idx_by_stratum:
        perm = idx[rng.permutation(len(idx))]
        k = int(round(fraction * len(idx)))
        take.append(perm[:k])
        rest.append(perm[k:])
    return np.sort(np.concatenate(take)), np.sort(np.concatenate(rest))


def _split_settings(plan):
    """(test fraction, inner kind, k or holdout fraction) of `plan`, each
    checked; a bad value is a ConfigError."""
    if not 0.0 < plan.test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    if not isinstance(plan.inner, dict):
        raise ConfigError(f"split: inner={plan.inner!r} is not an object")
    kind = plan.inner.get("kind", "kfold")
    if kind == "kfold":
        check_keys("split.inner", plan.inner, ["kind", "k"])
        k = read_value("split", "k", int, plan.inner.get("k", 5))
        if k < 2:
            raise ConfigError("k must be >= 2")
        return plan.test_fraction, kind, k
    if kind == "holdout":
        check_keys("split.inner", plan.inner, ["kind", "fraction"])
        frac = read_value("split", "fraction", float, plan.inner.get("fraction", 0.15))
        if not 0.0 < frac < 1.0:
            raise ConfigError("holdout fraction must be in (0, 1)")
        return plan.test_fraction, kind, frac
    raise ConfigError(f"unknown inner split kind {kind!r}")


def split(ds, plan, seed):
    """Event-stratified test split plus inner folds/holdout on the rest.

    Rows are assigned within each event stratum from one seeded shuffle, so
    stratum proportions hold within one subject per stratum and the whole
    assignment is a deterministic function of the seed. The outcomes must
    meet `check_outcomes`.
    """
    test_fraction, kind, inner_size = _split_settings(plan)
    _, e = check_outcomes(ds.time, ds.event)
    rng = np.random.default_rng(seed)
    strata = [np.flatnonzero(e == 1.0), np.flatnonzero(e == 0.0)]
    strata = [s for s in strata if len(s)]
    test_idx, train_idx = _stratified_take(strata, test_fraction, rng)

    folds = []
    train_e = e[train_idx]
    train_strata = [
        train_idx[train_e == 1.0],
        train_idx[train_e == 0.0],
    ]
    train_strata = [s for s in train_strata if len(s)]
    if kind == "kfold":
        k = inner_size
        labels = np.empty(len(e), dtype=np.int64)  # fold of each training row
        for s in train_strata:
            perm = s[rng.permutation(len(s))]
            labels[perm] = np.arange(len(perm)) % k
        for f in range(k):
            folds.append((train_idx[labels[train_idx] != f], train_idx[labels[train_idx] == f]))
    else:
        val, fit = _stratified_take(train_strata, inner_size, rng)
        folds.append((fit, val))
    return SplitResult(train_idx=train_idx, test_idx=test_idx, folds=folds)


def experiment_split(ds, config):
    """The split of an ExperimentConfig on `ds`, drawn from its seed + 1."""
    return split(ds, config.plan, config.seed + 1)


# -- in-fold preprocessing -----------------------------------------------------

@dataclass
class PrepConfig:
    impute_iterations: int = 10
    prune_threshold: float = 0.7
    standardize: bool = True

    def __post_init__(self):
        if self.impute_iterations < 1:
            raise DataError(f"impute_iterations must be >= 1, got {self.impute_iterations!r}")


@dataclass
class FoldPipeline:
    """Everything fit on fitting rows, applicable to any rows."""

    imputer: object
    scaler: object
    dropped: list
    feature_names: list
    x_fit: np.ndarray

    def transform(self, ds):
        completed = apply_mice(self.imputer, ds)
        if self.scaler is not None:
            completed = apply_scaler(completed, self.scaler)
        if self.dropped:
            completed = drop_columns(completed, self.dropped)
        x, _, names = completed.covariate_matrix()
        if names != self.feature_names:
            raise ComputationError("feature mismatch after transform")
        return x


def fit_fold_pipeline(fit_ds, prep, seed):
    """Impute, scale, and prune on fitting rows only."""
    # pruning drops, of a correlated pair, the column missing more often
    rates = fit_ds.missing_mask.mean(axis=0)
    miss_rates = {c.name: float(r) for c, r in zip(fit_ds.columns, rates) if c.role == "covariate"}
    imputer = fit_mice(fit_ds, prep.impute_iterations, seed)
    completed = imputer.completed_train
    scaler = fit_scaler(completed) if prep.standardize else None
    if scaler is not None:
        completed = apply_scaler(completed, scaler)
    pruned, report = prune_correlated(completed, prep.prune_threshold, priority=miss_rates)
    dropped = [r["removed"] for r in report["removed"]]
    x_fit, _, names = pruned.covariate_matrix()
    if x_fit.shape[1] == 0:
        raise DataError("no covariates left after pruning")
    return FoldPipeline(
        imputer=imputer,
        scaler=scaler,
        dropped=dropped,
        feature_names=names,
        x_fit=x_fit,
    )


# -- model family adapters -----------------------------------------------------

class _Family:
    """Grid points read as `params_cls`; neural tie-breaks: size, then lr."""

    def make_params(self, d):
        return read_object(self.name, self.params_cls, d)

    def complexity(self, params):
        return (sum(params.hidden), len(params.hidden))

    def lr(self, params):
        return params.lr


class _CoxFamily(_Family):
    name = "coxph"
    params_cls = CoxParams
    default_grid = {"l1": [0.0], "l2": [0.0]}

    def fit(self, x, times, events, params, seed, names=None):
        return fit_coxph(x, times, events, l1=params.l1, l2=params.l2, names=names)

    def risk(self, model, x):
        return model.linear_predictor(x)

    def curves(self, model, x, times):
        return coxph_mod.predict_survival(model, x, times)

    def complexity(self, params):
        # heavier penalties mean a smaller effective model
        return (-(params.l1 + params.l2),)

    def lr(self, params):
        return 0.0


class _DeepSurvFamily(_Family):
    name = "deepsurv"
    params_cls = DeepSurvParams
    default_grid = {"hidden": [[64, 64]], "dropout": [0.1], "epochs": [75],
                    "batch_size": [64], "lr": [0.1], "lr_decay": [0.7],
                    "weight_decay": [0.05]}

    def fit(self, x, times, events, params, seed, names=None):
        return fit_deepsurv(x, times, events, params, seed)

    def risk(self, model, x):
        return deepsurv_mod.predict_risk(model, x)

    def curves(self, model, x, times):
        return deepsurv_mod.predict_survival(model, x, times)


class _DeepHitFamily(_Family):
    name = "deephit"
    params_cls = DeepHitParams
    default_grid = {"hidden": [[64, 128, 64]], "dropout": [0.1], "epochs": [25],
                    "batch_size": [64], "lr": [0.005], "lr_decay": [0.7],
                    "weight_decay": [0.05], "n_bins": [60]}

    def fit(self, x, times, events, params, seed, names=None):
        return fit_deephit(x, times, events, params, seed)

    def risk(self, model, x):
        return deephit_mod.predict_risk(model, x)

    def curves(self, model, x, times):
        # curves live on the model's own grid; evaluation clamps beyond it
        return deephit_mod.predict_survival(model, x)


FAMILY_REGISTRY = {
    "coxph": _CoxFamily(),
    "deepsurv": _DeepSurvFamily(),
    "deephit": _DeepHitFamily(),
}


# -- cross-validated evaluation -------------------------------------------------

def fit_and_apply(fit_ds, other_ds, family_name, params, prep, seed):
    """Fit the fold pipeline and then the family on `fit_ds`, both from
    `seed`; returns (pipeline, model, `other_ds` covariates through the
    pipeline). The one fit step of a CV fold and of the final refit."""
    pipeline = fit_fold_pipeline(fit_ds, prep, seed)
    model = FAMILY_REGISTRY[family_name].fit(
        pipeline.x_fit, fit_ds.time, fit_ds.event, params, seed, names=pipeline.feature_names
    )
    return pipeline, model, pipeline.transform(other_ds)


def cv_evaluate(ds, folds, family_name, params, prep, seed):
    """Fit the family on each fold's fitting rows; the C-index of each
    fold's validation rows. All preprocessing is fit inside the fold, by
    `fit_and_apply`."""
    family = FAMILY_REGISTRY[family_name]
    scores = []
    for f, (fit_idx, val_idx) in enumerate(folds):
        fit_ds = subset_rows(ds, fit_idx)
        val_ds = subset_rows(ds, val_idx)
        _, model, x_val = fit_and_apply(fit_ds, val_ds, family_name, params, prep, seed + f)
        score = concordance_index(val_ds.time, val_ds.event, family.risk(model, x_val))
        scores.append(float(score))
    return scores


# -- grid search -----------------------------------------------------------------

def expand_grid(grid):
    """Cartesian product of {param: [values]} in deterministic order."""
    keys = list(grid.keys())
    points = [{}]
    for key in keys:
        values = grid[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid entry {key!r} must be a non-empty list")
        points = [dict(p, **{key: v}) for p in points for v in values]
    return points


@dataclass
class GridResult:
    best_params: dict
    best_index: int
    entries: list  # {"params", "fold_scores", "mean_score"}


def grid_search(ds, folds, family_name, grid, prep, seed):
    """Mean validation C-index over all grid points; ties prefer the
    smaller model, then the lower learning rate, then grid order."""
    family = FAMILY_REGISTRY[family_name]
    points = expand_grid(grid)
    entries = []
    ranked = []
    for gi, point in enumerate(points):
        params = family.make_params(point)
        scores = cv_evaluate(ds, folds, family_name, params, prep, seed + 100 * gi)
        mean = float(np.mean(scores))
        entries.append({"params": point, "fold_scores": scores, "mean_score": mean})
        ranked.append((-mean, family.complexity(params), family.lr(params), gi))
    best = min(ranked)[-1]
    return GridResult(best_params=points[best], best_index=best, entries=entries)


# -- factor identification --------------------------------------------------------

@dataclass
class FactorRow:
    name: str
    hr: float
    hr_low: float
    hr_high: float
    p_value: float
    significant: bool
    pooled_beta: float
    pooled_se: float


def identify_factors(ds, m=10, iterations=10, seed=0):
    """Multiply impute, fit the unpenalized linear model per completed
    dataset, and Rubin-pool each coefficient into an HR table.

    Covariates are fitted as given. A fit that does not converge fails the
    run, naming its imputation and any unstandardized-looking covariates,
    and so does one whose observed information is singular, naming the
    constant or aliased covariates. Rows follow covariate schema order.
    """
    if m < 2:
        raise ConfigError("factor identification needs m >= 2 imputations")
    iset = mice_impute(ds, m, iterations, seed)
    betas = []
    variances = []
    names = None
    for i, completed in enumerate(iset.datasets):
        x, _, nm = completed.covariate_matrix()
        names = nm
        model = fit_coxph(x, completed.time, completed.event, names=nm)
        if model.aliased:
            raise ComputationError(f"imputation {i}: the observed information is singular: "
                                   f"{model.aliased} are constant or aliased; drop them")
        if not model.converged or model.covariance is None:
            unscaled = [nm[j] for j in coxph_mod._unscaled_columns(x)]
            hint = f"; {unscaled} look unstandardized: standardize them first" if unscaled else ""
            raise ComputationError(f"imputation {i}: linear model fit did not converge{hint}")
        betas.append(model.beta)
        variances.append(np.diag(model.covariance))
    betas = np.array(betas)
    variances = np.array(variances)

    rows = []
    for j, name in enumerate(names):
        pooled = pool_rubin(betas[:, j], variances[:, j])
        rows.append(
            FactorRow(
                name=name,
                hr=float(np.exp(pooled.point)),
                hr_low=float(np.exp(pooled.ci_low)),
                hr_high=float(np.exp(pooled.ci_high)),
                p_value=pooled.p_value,
                significant=bool(pooled.p_value < SIGNIFICANCE),
                pooled_beta=pooled.point,
                pooled_se=pooled.se,
            )
        )
    return rows


# -- end-to-end experiment ---------------------------------------------------------

@dataclass
class ExperimentConfig:
    seed: int = 0
    plan: SplitPlan = field(default_factory=SplitPlan)
    prep: PrepConfig = field(default_factory=PrepConfig)
    families: dict = field(default_factory=dict)  # name -> grid dict
    n_boot: int = 1000
    # the cohort, which the caller of run_experiment loads: the built-in one,
    # or a CSV and its schema (paths relative to the config) and row filters
    ensure_like: bool = False
    ensure_like_seed: int = 0
    data: str | None = None
    schema: str | None = None
    inclusion: InclusionRules = field(default_factory=InclusionRules)

    def __post_init__(self):
        for key in ("seed", "ensure_like_seed"):
            if getattr(self, key) < 0:
                raise DataError(f"{key}={getattr(self, key)!r} is not a non-negative integer")
        if self.n_boot < 1:
            raise DataError(f"n_boot must be >= 1, got {self.n_boot!r}")

    @classmethod
    def from_dict(cls, doc):
        """The config document `doc`, every key read by its field's type
        and checked before any data is touched. A document that is not an
        object, an unknown key at any level, a value of the wrong type or
        range, and a key the chosen cohort source would not read are each a
        ConfigError naming the key. The cohort fields are read but not
        required: a caller that loads the cohort rejects a config that
        names none."""
        if not isinstance(doc, dict):
            raise ConfigError(f"config: the document is a {type(doc).__name__}, not an object")
        check_keys("config", doc, ["seed", "ensure_like", "ensure_like_seed", "data", "schema",
                                   "inclusion", "split", "prep", "families", "n_boot"])
        families = doc.get("families", {})
        if not isinstance(families, dict):
            raise ConfigError(f"config: families={families!r} is not an object")
        for name, grid in families.items():
            if name not in FAMILY_REGISTRY:
                raise ConfigError(f"unknown model family {name!r}")
            if not isinstance(grid, dict):
                raise ConfigError(f"{name}: grid {grid!r} is not an object")
            # every grid point must make valid parameters before any fit runs
            family = FAMILY_REGISTRY[name]
            for point in expand_grid(grid or family.default_grid):
                family.make_params(point)
        hints = get_type_hints(cls) | {"data": str, "schema": str}  # a path is never null
        values = {key: read_value("config", key, hints[key], doc[key])
                  for key in ("seed", "n_boot", "ensure_like", "ensure_like_seed", "data", "schema")
                  if key in doc}
        ensure = values.get("ensure_like", cls.ensure_like)
        # a key the chosen cohort source does not read is an error, not ignored
        for key in ("data", "schema", "inclusion") if ensure else ("ensure_like_seed",):
            if key in doc:
                raise ConfigError(
                    f"config: {key!r} is not read when ensure_like is {str(ensure).lower()}")
        if doc.get("inclusion") is not None:
            values["inclusion"] = read_object("inclusion", InclusionRules, doc["inclusion"])
        try:
            return cls(
                plan=read_object("split", SplitPlan, doc.get("split", {})),
                prep=read_object("prep", PrepConfig, doc.get("prep", {})),
                families={k: dict(v) for k, v in families.items()},
                **values,
            )
        except DataError as exc:
            raise ConfigError(f"config: {exc}") from exc


@dataclass
class ExperimentReport:
    content: dict
    wall_clock_seconds: float = 0.0
    # family name -> (refit model, test-split covariates through its pipeline)
    fits: dict = field(default_factory=dict, repr=False)
    curve_times: np.ndarray = None  # the test split's distinct event times

    def to_json_bytes(self):
        """Canonical bytes: stable key order, no volatile fields."""
        return (json.dumps(self.content, sort_keys=True, indent=2) + "\n").encode("utf-8")

    def test_curves(self, family_name, rows):
        """Survival curves of the test-split rows `rows` (positions in the
        test split) under the family's refit model, at `curve_times`: the
        curves its test metrics were scored on."""
        model, x_test = self.fits[family_name]
        return FAMILY_REGISTRY[family_name].curves(model, x_test[rows], self.curve_times)


def _data_digest(ds):
    h = hashlib.sha256()
    h.update(",".join(ds.column_names).encode())
    h.update(np.ascontiguousarray(np.nan_to_num(ds.values, nan=-1.25e300)).tobytes())
    h.update(np.ascontiguousarray(ds.missing_mask).tobytes())
    return h.hexdigest()


def _test_metrics(t, e, risk, curves, counts):
    """Test-split C-index, IBS and mean tAUC with bootstrap CIs.

    One set of resamples, and its censoring KM, serves all three metrics;
    the sample alone (counts None) builds its own.
    """
    censor = censoring_km(t, e, counts=counts)

    def shared(w):
        return None if w is None else censor

    metric_fns = {
        "c_index": lambda w: concordance_index(t, e, risk, counts=w),
        "ibs": lambda w: integrated_brier(t, e, curves, censor_curve=shared(w), counts=w),
        "tauc_mean": lambda w: cumulative_dynamic_auc(
            t, e, risk, censor_curve=shared(w), counts=w
        ).mean,
    }
    return [bootstrap_ci(fn, counts, name=name) for name, fn in metric_fns.items()]


def run_experiment(ds, config):
    """Split, grid-search each family, refit winners, evaluate on test.

    `ds` must already be dummy-coded (numeric covariates). Returns an
    ExperimentReport whose canonical JSON bytes are identical across
    same-seed reruns; timing lives outside the canonical content.
    """
    import time as _time

    t0 = _time.perf_counter()
    if not config.families:
        raise ConfigError("no model families configured")
    seed = config.seed
    split_res = experiment_split(ds, config)
    train_ds = subset_rows(ds, split_res.train_idx)
    test_ds = subset_rows(ds, split_res.test_idx)

    t_test, e_test = test_ds.time, test_ds.event
    curve_times = np.unique(t_test[e_test == 1.0])

    families_out = {}
    fits = {}
    for family_name, grid in config.families.items():
        family = FAMILY_REGISTRY[family_name]
        fi = list(FAMILY_REGISTRY).index(family_name)
        grid_res = grid_search(
            ds, split_res.folds, family_name, grid or family.default_grid,
            config.prep, seed + 10000 * (fi + 1)
        )
        params = family.make_params(grid_res.best_params)
        pipeline, model, x_test = fit_and_apply(
            train_ds, test_ds, family_name, params, config.prep, seed + 50000 + fi
        )
        risk = family.risk(model, x_test)
        curves = family.curves(model, x_test, curve_times)

        boot_seed = seed + 300 + fi
        results = _test_metrics(
            t_test, e_test, risk, curves, bootstrap_counts(e_test, config.n_boot, boot_seed)
        )

        families_out[family_name] = {
            "chosen_params": grid_res.best_params,
            "grid": grid_res.entries,
            "pruned_columns": pipeline.dropped,
            "n_features": len(pipeline.feature_names),
            "test_metrics": {
                r.name: {
                    "point": r.point,
                    "ci_low": r.ci_low,
                    "ci_high": r.ci_high,
                    "n_boot": r.n_boot,
                    "seed": boot_seed,
                    "n_failed": r.n_failed,
                }
                for r in results
            },
        }
        fits[family_name] = (model, x_test)

    content = {
        "toolkit_version": _version(),
        "seed": seed,
        "data_digest": _data_digest(ds),
        "config": {
            "split": asdict(config.plan),
            "prep": asdict(config.prep),
            "families": config.families,
            "n_boot": config.n_boot,
        },
        "split_provenance": {
            "train_row_ids": [int(r) for r in train_ds.row_ids],
            "test_row_ids": [int(r) for r in test_ds.row_ids],
            "n_train": int(len(split_res.train_idx)),
            "n_test": int(len(split_res.test_idx)),
        },
        "families": families_out,
    }
    report = ExperimentReport(content=content, fits=fits, curve_times=curve_times)
    report.wall_clock_seconds = _time.perf_counter() - t0
    return report


def _version():
    from . import __version__

    return __version__
