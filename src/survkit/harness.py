"""Experiment orchestration: splits, in-fold pipelines, grids, reports.

Leakage rules: dummy coding is schema-driven and happens once; everything
that learns from data (imputer, scaler, pruning, model) is fit on the
fitting rows of each fold only and applied to the held-out rows. Test rows
never reach any fitting call.

Seed derivation from the master seed: split uses seed+1; an imputer seeded
s draws chain i from s+100+i; fold pipelines and model training in the
grid use seed + 10000*(family_index+1) + 100*grid_index + fold_index; the
final refit uses seed + 50000 + family_index; test-set bootstraps use
seed + 300 + family_index. Every stage is reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import coxph as coxph_mod
from . import deephit as deephit_mod
from . import deepsurv as deepsurv_mod
from .coxph import fit_coxph
from .deephit import DeepHitParams, fit_deephit
from .deepsurv import DeepSurvParams, fit_deepsurv
from .errors import ComputationError, ConfigError, DataError
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
    inner: dict = field(default_factory=lambda: {"kind": "kfold", "k": 5})


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
    test_fraction = _coerce("split", "test_fraction", float, plan.test_fraction)
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    if not isinstance(plan.inner, dict):
        raise ConfigError(f"split: inner={plan.inner!r} is not an object")
    kind = plan.inner.get("kind", "kfold")
    if kind == "kfold":
        k = _coerce("split", "k", int, plan.inner.get("k", 5))
        if k < 2:
            raise ConfigError("k must be >= 2")
        return test_fraction, kind, k
    if kind == "holdout":
        frac = _coerce("split", "fraction", float, plan.inner.get("fraction", 0.15))
        if not 0.0 < frac < 1.0:
            raise ConfigError("holdout fraction must be in (0, 1)")
        return test_fraction, kind, frac
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


# -- in-fold preprocessing -----------------------------------------------------

@dataclass
class PrepConfig:
    impute_iterations: int = 10
    prune_threshold: float = 0.7
    standardize: bool = True


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
    mask = fit_ds.missing_mask
    miss_rates = {
        c.name: float(mask[:, j].mean())
        for j, c in enumerate(fit_ds.columns)
        if c.role == "covariate"
    }
    imputer = fit_mice(fit_ds, prep.impute_iterations, seed)
    completed = imputer.completed_train
    scaler = None
    if prep.standardize:
        cont = [
            c.name
            for c in completed.columns
            if c.role == "covariate" and c.kind == "continuous"
        ]
        if cont:
            scaler = fit_scaler(completed, cont)
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


def _digest_imputer(imputer):
    h = hashlib.sha256()
    for name in sorted(imputer.models):
        h.update(name.encode())
        h.update(np.ascontiguousarray(imputer.models[name]).tobytes())
    for name in sorted(imputer.means):
        h.update(name.encode())
        h.update(np.float64(imputer.means[name]).tobytes())
    return h.hexdigest()


# -- model family adapters -----------------------------------------------------

def _check_keys(scope, d, known):
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(
            f"{scope}: unknown key {unknown[0]!r} (known: {', '.join(known)})"
        )


def _coerce(scope, key, kind, value):
    """`value` read as `kind`. An int takes only integral numbers, a bool
    only true or false (not "false" or 0), and a list (the hidden-layer
    widths, the only list-valued field) only a non-empty list or tuple of
    positive integral numbers, not a string such as "64". A rejected value
    is a ConfigError naming `scope` (a model family or a config section)
    and `key`."""
    try:
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError(f"{value!r} is not a boolean")
            return value
        if kind is not list:
            out = kind(value)
            if kind is int and isinstance(value, float) and out != value:
                raise ValueError(f"{value!r} is not integral")
            return out
        if not isinstance(value, (list, tuple)) or not value:
            raise TypeError(f"{value!r} is not a list")
        out = [_coerce(scope, key, int, v) for v in value]
        if min(out) < 1:
            raise ValueError(f"{value!r} has a width below 1")
        return out
    except (TypeError, ValueError) as exc:
        what = "non-empty list of positive integers" if kind is list else kind.__name__
        raise ConfigError(f"{scope}: {key}={value!r} is not a valid {what}") from exc


def _coerce_seed(scope, key, value):
    """`value` read by `_coerce` as a seed, which numpy requires non-negative."""
    seed = _coerce(scope, key, int, value)
    if seed < 0:
        raise ConfigError(f"{scope}: {key}={value!r} is not a non-negative integer")
    return seed


def _params_from(scope, cls, d):
    """`cls` from the keys of `d`, each coerced by the type of its default;
    keys `d` leaves out keep the dataclass defaults. A `d` that is not an
    object, a key `cls` has no field for, or a value its type rejects is a
    ConfigError naming `scope` (a model family or a config section)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{scope}: {d!r} is not an object")
    _check_keys(scope, d, [f.name for f in fields(cls)])
    defaults = cls()
    return cls(**{
        f.name: _coerce(scope, f.name, type(getattr(defaults, f.name)), d[f.name])
        for f in fields(cls) if f.name in d
    })


class _CoxFamily:
    name = "coxph"
    default_grid = {"l1": [0.0], "l2": [0.0]}

    def make_params(self, d):
        _check_keys(self.name, d, ["l1", "l2"])
        return {key: _coerce(self.name, key, float, d.get(key, 0.0)) for key in ("l1", "l2")}

    def fit(self, x, times, events, params, seed, names=None):
        return fit_coxph(x, times, events, names=names, **params)

    def risk(self, model, x):
        return model.linear_predictor(x)

    def curves(self, model, x, times):
        return coxph_mod.predict_survival(model, x, times)

    def complexity(self, params):
        # heavier penalties mean a smaller effective model
        return (-(params["l1"] + params["l2"]),)

    def lr(self, params):
        return 0.0


class _DeepSurvFamily:
    name = "deepsurv"
    default_grid = {"hidden": [[64, 64]], "dropout": [0.1], "epochs": [75],
                    "batch_size": [64], "lr": [0.1], "lr_decay": [0.7],
                    "weight_decay": [0.05]}

    def make_params(self, d):
        return _params_from(self.name, DeepSurvParams, d)

    def fit(self, x, times, events, params, seed, names=None):
        return fit_deepsurv(x, times, events, params, seed)

    def risk(self, model, x):
        return deepsurv_mod.predict_risk(model, x)

    def curves(self, model, x, times):
        return deepsurv_mod.predict_survival(model, x, times)

    def complexity(self, params):
        return (sum(params.hidden), len(params.hidden))

    def lr(self, params):
        return params.lr


class _DeepHitFamily:
    name = "deephit"
    default_grid = {"hidden": [[64, 128, 64]], "dropout": [0.1], "epochs": [25],
                    "batch_size": [64], "lr": [0.005], "lr_decay": [0.7],
                    "weight_decay": [0.05], "n_bins": [60]}

    def make_params(self, d):
        params = _params_from(self.name, DeepHitParams, d)
        if not params.sigma >= deephit_mod.SIGMA_MIN:
            raise ConfigError(
                f"deephit: sigma must be at least {deephit_mod.SIGMA_MIN:.6g}, "
                f"got {params.sigma!r} (the ranking loss overflows below it)"
            )
        return params

    def fit(self, x, times, events, params, seed, names=None):
        return fit_deephit(x, times, events, params, seed)

    def risk(self, model, x):
        return deephit_mod.predict_risk(model, x)

    def curves(self, model, x, times):
        # curves live on the model's own grid; evaluation clamps beyond it
        return deephit_mod.predict_survival(model, x)

    def complexity(self, params):
        return (sum(params.hidden), len(params.hidden))

    def lr(self, params):
        return params.lr


FAMILY_REGISTRY = {
    "coxph": _CoxFamily(),
    "deepsurv": _DeepSurvFamily(),
    "deephit": _DeepHitFamily(),
}


# -- cross-validated evaluation -------------------------------------------------

@dataclass
class FoldDetail:
    fold_index: int
    fit_row_ids: list
    val_row_ids: list
    scaler_stats: dict
    imputer_digest: str
    pruned: list
    score: float


@dataclass
class CvResult:
    scores: list
    details: list

    @property
    def mean_score(self):
        return float(np.mean(self.scores))


def cv_evaluate(ds, folds, family_name, params, prep, seed):
    """Fit the family on each fold's fitting rows, score C on the val rows.

    All preprocessing is fit inside the fold; details carry the fitted
    artifacts so tests can verify nothing about validation rows leaks in.
    """
    family = FAMILY_REGISTRY[family_name]
    scores = []
    details = []
    for f, (fit_idx, val_idx) in enumerate(folds):
        fold_seed = seed + f
        fit_ds = subset_rows(ds, fit_idx)
        val_ds = subset_rows(ds, val_idx)
        pipeline = fit_fold_pipeline(fit_ds, prep, fold_seed)
        model = family.fit(
            pipeline.x_fit,
            fit_ds.time,
            fit_ds.event,
            params,
            fold_seed,
            names=pipeline.feature_names,
        )
        x_val = pipeline.transform(val_ds)
        score = concordance_index(val_ds.time, val_ds.event, family.risk(model, x_val))
        scores.append(float(score))
        details.append(
            FoldDetail(
                fold_index=f,
                fit_row_ids=[int(r) for r in fit_ds.row_ids],
                val_row_ids=[int(r) for r in val_ds.row_ids],
                scaler_stats=dict(pipeline.scaler.stats) if pipeline.scaler else {},
                imputer_digest=_digest_imputer(pipeline.imputer),
                pruned=list(pipeline.dropped),
                score=float(score),
            )
        )
    return CvResult(scores=scores, details=details)


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
        cv = cv_evaluate(ds, folds, family_name, params, prep, seed + 100 * gi)
        entries.append(
            {"params": point, "fold_scores": cv.scores, "mean_score": cv.mean_score}
        )
        ranked.append(
            (-cv.mean_score, family.complexity(params), family.lr(params), gi)
        )
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

    Any non-converged single-imputation fit fails the whole run with the
    imputation index in the message. Rows follow covariate schema order.
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
        if not model.converged or model.covariance is None:
            raise ComputationError(f"imputation {i}: linear model fit did not converge")
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


def factors_to_csv(rows, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "hr", "ci_low", "ci_high", "p_value", "significant"])
        for r in rows:
            writer.writerow(
                [r.name, repr(r.hr), repr(r.hr_low), repr(r.hr_high), repr(r.p_value),
                 "yes" if r.significant else "no"]
            )


# -- end-to-end experiment ---------------------------------------------------------

@dataclass
class ExperimentConfig:
    seed: int = 0
    plan: SplitPlan = field(default_factory=SplitPlan)
    prep: PrepConfig = field(default_factory=PrepConfig)
    families: dict = field(default_factory=dict)  # name -> grid dict
    n_boot: int = 1000

    @classmethod
    def from_dict(cls, doc):
        plan = _params_from("split", SplitPlan, doc.get("split", {}))
        _split_settings(plan)  # every split value fails here, not at the split
        prep = _params_from("prep", PrepConfig, doc.get("prep", {}))
        if prep.impute_iterations < 1:
            raise ConfigError("prep.impute_iterations must be >= 1")
        families = doc.get("families", {})
        for name, grid in families.items():
            if name not in FAMILY_REGISTRY:
                raise ConfigError(f"unknown model family {name!r}")
            # every grid point must make valid parameters before any fit runs
            family = FAMILY_REGISTRY[name]
            for point in expand_grid(grid or family.default_grid):
                family.make_params(point)
        n_boot = _coerce("config", "n_boot", int, doc.get("n_boot", cls.n_boot))
        if n_boot < 1:
            raise ConfigError("n_boot must be >= 1")
        return cls(
            seed=_coerce_seed("config", "seed", doc.get("seed", cls.seed)),
            plan=plan,
            prep=prep,
            families={k: dict(v) for k, v in families.items()},
            n_boot=n_boot,
        )


def _inclusion_rules(doc):
    """The `inclusion` section of an experiment config as InclusionRules;
    a missing or null section keeps every default. The section must be an
    object of known keys: `drop_missing_outcomes` a boolean,
    `exclude_levels` an object of level lists and `exclude_early_events`
    null or a number, not a quoted one. Anything else is a ConfigError."""
    if doc is None:
        return InclusionRules()
    if not isinstance(doc, dict):
        raise ConfigError(f"inclusion: {doc!r} is not an object")
    _check_keys("inclusion", doc, [f.name for f in fields(InclusionRules)])
    rules = InclusionRules()
    if "drop_missing_outcomes" in doc:
        rules.drop_missing_outcomes = _coerce(
            "inclusion", "drop_missing_outcomes", bool, doc["drop_missing_outcomes"])
    levels = doc.get("exclude_levels", {})
    if not isinstance(levels, dict) or not all(isinstance(v, list) for v in levels.values()):
        raise ConfigError(f"inclusion: exclude_levels={levels!r} is not an object of level lists")
    rules.exclude_levels = {k: list(v) for k, v in levels.items()}
    early = doc.get("exclude_early_events")
    if early is not None:
        if isinstance(early, (str, bool)):
            raise ConfigError(f"inclusion: exclude_early_events={early!r} is not a number")
        rules.exclude_early_events = _coerce("inclusion", "exclude_early_events", float, early)
    return rules

@dataclass
class ExperimentReport:
    content: dict
    wall_clock_seconds: float = 0.0
    models: dict = field(default_factory=dict, repr=False)

    def to_json_bytes(self):
        """Canonical bytes: stable key order, no volatile fields."""
        return (json.dumps(self.content, sort_keys=True, indent=2) + "\n").encode("utf-8")


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
    split_res = split(ds, config.plan, seed + 1)
    train_ds = subset_rows(ds, split_res.train_idx)
    test_ds = subset_rows(ds, split_res.test_idx)

    families_out = {}
    models = {}
    for fi, (family_name, grid) in enumerate(config.families.items()):
        family = FAMILY_REGISTRY[family_name]
        grid_res = grid_search(
            ds, split_res.folds, family_name, grid or family.default_grid,
            config.prep, seed + 10000 * (fi + 1)
        )
        refit_seed = seed + 50000 + fi
        pipeline = fit_fold_pipeline(train_ds, config.prep, refit_seed)
        params = family.make_params(grid_res.best_params)
        model = family.fit(
            pipeline.x_fit,
            train_ds.time,
            train_ds.event,
            params,
            refit_seed,
            names=pipeline.feature_names,
        )
        x_test = pipeline.transform(test_ds)
        t_test, e_test = test_ds.time, test_ds.event
        risk = family.risk(model, x_test)
        curve_times = np.unique(t_test[e_test == 1.0])
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
        models[family_name] = {"model": model, "pipeline": pipeline, "family": family}

    content = {
        "toolkit_version": _version(),
        "seed": seed,
        "data_digest": _data_digest(ds),
        "config": {
            "split": {"test_fraction": config.plan.test_fraction, "inner": config.plan.inner},
            "prep": {
                "impute_iterations": config.prep.impute_iterations,
                "prune_threshold": config.prep.prune_threshold,
                "standardize": config.prep.standardize,
            },
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
    report = ExperimentReport(content=content, models=models)
    report.wall_clock_seconds = _time.perf_counter() - t0
    return report


def _version():
    from . import __version__

    return __version__
