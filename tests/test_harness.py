"""Orchestration tests: splits, fold pipelines, grids, factors, reports.

The leakage tests here are the hard guarantee behind the whole harness:
anything fit inside a fold (imputer, scaler, pruning) must be a function
of that fold's fitting rows only.
"""

import csv
import dataclasses
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import survkit.harness as harness_mod
from survkit.coxph import CoxParams
from survkit.curves import SurvivalCurve
from survkit.deephit import SIGMA_MIN, DeepHitParams
from survkit.deepsurv import DeepSurvParams
from survkit.errors import ConfigError, DataError
from survkit.harness import (
    FAMILY_REGISTRY,
    Family,
    _data_digest,
    _stratified_take,
    _test_metrics,
    ExperimentConfig,
    PrepConfig,
    SplitPlan,
    cv_evaluate,
    expand_grid,
    fit_fold_pipeline,
    grid_search,
    identify_factors,
    run_experiment,
    split,
)
from survkit.cli import main
from survkit.metrics import bootstrap_counts
from survkit.preprocess import dummy_encode
from survkit.synth import CovariateSpec, GeneratorSpec, MissingRule, ensure_like, generate
from survkit.tabular import (
    ColumnSpec,
    InclusionRules,
    SurvivalDataset,
    replace_column_values,
    save_csv,
    save_schema,
    subset_rows,
)
from test_acceptance import REFERENCE_CONFIG
from test_benchmarks import SMOKE_OVERRIDES


def cohort(n=240, missing=True, seed=0, extra_null=True):
    """Small numeric cohort with real signal and optional MAR missingness."""
    covs = [
        CovariateSpec("x1", "continuous", mean=0.0, sd=1.0),
        CovariateSpec("x2", "continuous", mean=0.0, sd=1.0),
    ]
    if extra_null:
        covs.append(CovariateSpec("x3", "continuous", mean=0.0, sd=1.0))
    rules = []
    if missing:
        rules.append(MissingRule(column="x2", target_rate=0.2, drivers=["x1"], weights=[1.5]))
    spec = GeneratorSpec(
        n=n,
        covariates=covs,
        beta={"x1": 0.8, "x2": -0.5},
        shape=1.0,
        scale=12.0,
        censoring_fraction=0.3,
        missing_rules=rules,
    )
    return generate(spec, seed=seed)


def prune_dataset():
    """Manual dataset where b duplicates a and c carries the missing cells."""
    rng = np.random.default_rng(5)
    n = 60
    a = rng.normal(size=n)
    b = 2.0 * a + 1.0
    c = rng.normal(size=n)
    t = rng.exponential(10.0, size=n) + 0.1
    e = (rng.random(n) < 0.6).astype(float)
    cols = [
        ColumnSpec("time", "continuous", role="time"),
        ColumnSpec("event", "binary", role="event"),
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
        ColumnSpec("c", "continuous"),
    ]
    values = np.column_stack([t, e, a, b, c])
    mask = np.zeros_like(values, dtype=bool)
    mask[:6, 3] = True
    values[:6, 3] = np.nan
    mask[:4, 4] = True
    values[:4, 4] = np.nan
    return SurvivalDataset(cols, values, mask)


# -- splitting ------------------------------------------------------------------


def test_split_partitions_rows():
    ds, _ = cohort(missing=False)
    res = split(ds, SplitPlan(test_fraction=0.25), seed=3)
    assert len(set(res.test_idx) & set(res.train_idx)) == 0
    assert len(res.test_idx) + len(res.train_idx) == ds.n_rows
    assert list(res.test_idx) == sorted(res.test_idx)

    again = split(ds, SplitPlan(test_fraction=0.25), seed=3)
    np.testing.assert_array_equal(res.test_idx, again.test_idx)
    for (fa, va), (fb, vb) in zip(res.folds, again.folds):
        np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(va, vb)

    other = split(ds, SplitPlan(test_fraction=0.25), seed=4)
    assert not np.array_equal(res.test_idx, other.test_idx)


def test_split_stratifies_events_exactly():
    ds, _ = cohort(missing=False)
    e = ds.event
    n_events = int(e.sum())
    n_cens = ds.n_rows - n_events
    res = split(ds, SplitPlan(test_fraction=0.25), seed=1)
    assert int(e[res.test_idx].sum()) == round(0.25 * n_events)
    assert int((1.0 - e[res.test_idx]).sum()) == round(0.25 * n_cens)


def test_kfold_folds_partition_training_rows():
    ds, _ = cohort(missing=False)
    res = split(ds, SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 4}), seed=9)
    assert len(res.folds) == 4
    train = set(res.train_idx)
    all_val = []
    event_counts = []
    for fit_idx, val_idx in res.folds:
        assert len(set(fit_idx) & set(val_idx)) == 0
        assert set(fit_idx) | set(val_idx) == train
        all_val.extend(val_idx)
        event_counts.append(int(ds.event[val_idx].sum()))
    assert sorted(all_val) == sorted(train)
    assert max(event_counts) - min(event_counts) <= 1


def dict_kfold(ds, plan, seed):
    """k-fold assignment through a {row: fold} dict and sorted comprehensions:
    the reference for the label array `split` fills per stratum."""
    rng = np.random.default_rng(seed)
    e = ds.event
    strata = [s for s in (np.flatnonzero(e == 1.0), np.flatnonzero(e == 0.0)) if len(s)]
    _, train_idx = _stratified_take(strata, plan.test_fraction, rng)
    train_e = e[train_idx]
    assignment = {}
    for s in (train_idx[train_e == 1.0], train_idx[train_e == 0.0]):
        if len(s):
            perm = s[rng.permutation(len(s))]
            for pos, row in enumerate(perm):
                assignment[int(row)] = pos % plan.inner["k"]
    return [
        (np.array(sorted(r for r, ff in assignment.items() if ff != f)),
         np.array(sorted(r for r, ff in assignment.items() if ff == f)))
        for f in range(plan.inner["k"])
    ]


def test_kfold_matches_the_dict_assignment():
    for n in (50, 333):
        ds, _ = cohort(n=n, missing=False, seed=n)
        for k in (2, 3, 5, 7):
            for seed in (0, 4):
                plan = SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": k})
                got = split(ds, plan, seed).folds
                want = dict_kfold(ds, plan, seed)
                assert len(got) == len(want) == k
                for (fit, val), (fit0, val0) in zip(got, want):
                    np.testing.assert_array_equal(fit, fit0)
                    np.testing.assert_array_equal(val, val0)
                    assert fit.dtype == fit0.dtype and val.dtype == val0.dtype


def test_holdout_inner_split():
    ds, _ = cohort(missing=False)
    plan = SplitPlan(test_fraction=0.2, inner={"kind": "holdout", "fraction": 0.25})
    res = split(ds, plan, seed=2)
    assert len(res.folds) == 1
    fit_idx, val_idx = res.folds[0]
    assert set(fit_idx) | set(val_idx) == set(res.train_idx)
    e_train = ds.event[res.train_idx]
    n_ev = int(e_train.sum())
    assert int(ds.event[val_idx].sum()) == round(0.25 * n_ev)


def test_split_validation_errors():
    ds, _ = cohort(missing=False)
    with pytest.raises(ConfigError, match="test_fraction"):
        split(ds, SplitPlan(test_fraction=1.0), seed=0)
    with pytest.raises(ConfigError, match="k must be"):
        split(ds, SplitPlan(inner={"kind": "kfold", "k": 1}), seed=0)
    with pytest.raises(ConfigError, match="holdout fraction"):
        split(ds, SplitPlan(inner={"kind": "holdout", "fraction": 0.0}), seed=0)
    with pytest.raises(ConfigError, match="unknown inner split kind"):
        split(ds, SplitPlan(inner={"kind": "loo"}), seed=0)

    j = ds.col_index("event")
    bad_events = ds.values[:, j].copy()
    bad_events[0] = np.nan
    bad_mask = np.zeros(ds.n_rows, dtype=bool)
    bad_mask[0] = True
    broken = replace_column_values(ds, "event", bad_events, mask=bad_mask)
    with pytest.raises(DataError, match="complete"):
        split(broken, SplitPlan(), seed=0)


# -- fold pipelines ---------------------------------------------------------------


def test_fold_pipeline_fits_impute_scale_prune():
    ds = prune_dataset()
    prep = PrepConfig(impute_iterations=3, prune_threshold=0.9, standardize=True)
    pipe = fit_fold_pipeline(ds, prep, seed=0)
    # b has the higher missing rate of the correlated pair, so b goes
    assert pipe.dropped == ["b"]
    assert pipe.feature_names == ["a", "c"]
    assert pipe.x_fit.shape == (ds.n_rows, 2)
    assert np.isfinite(pipe.x_fit).all()
    # scaler was fit before pruning, on every continuous covariate
    assert set(pipe.scaler.stats) == {"a", "b", "c"}


def test_fold_pipeline_transform_applies_to_new_rows():
    ds, _ = cohort(missing=True, n=200)
    res = split(ds, SplitPlan(test_fraction=0.2), seed=5)
    fit_ds = subset_rows(ds, res.train_idx)
    new_ds = subset_rows(ds, res.test_idx)
    prep = PrepConfig(impute_iterations=3)
    pipe = fit_fold_pipeline(fit_ds, prep, seed=1)
    x_new = pipe.transform(new_ds)
    assert x_new.shape == (new_ds.n_rows, len(pipe.feature_names))
    assert np.isfinite(x_new).all()


def test_fold_pipeline_standardize_off():
    ds, _ = cohort(missing=False, n=120)
    pipe = fit_fold_pipeline(ds, PrepConfig(impute_iterations=2, standardize=False), seed=0)
    assert pipe.scaler is None


# -- leakage guarantees ---------------------------------------------------------------


def test_fold_artifacts_ignore_validation_rows():
    """Shifting held-out cells by +1000 must not move any fitted artifact."""
    ds, _ = cohort(missing=True, n=240)
    plan = SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 3})
    res = split(ds, plan, seed=7)
    fit_idx, val_idx = res.folds[0]

    j = ds.col_index("x1")
    shifted = ds.values[:, j].copy()
    shifted[val_idx[::2]] += 1000.0
    ds2 = replace_column_values(ds, "x1", shifted, mask=ds.missing_mask[:, j].copy())

    prep = PrepConfig(impute_iterations=4)
    p1 = fit_fold_pipeline(subset_rows(ds, fit_idx), prep, seed=11)
    p2 = fit_fold_pipeline(subset_rows(ds2, fit_idx), prep, seed=11)

    assert p1.scaler.stats == p2.scaler.stats
    assert p1.dropped == p2.dropped
    assert p1.feature_names == p2.feature_names
    np.testing.assert_array_equal(p1.x_fit, p2.x_fit)
    assert p1.imputer.means == p2.imputer.means
    assert sorted(p1.imputer.models) == sorted(p2.imputer.models)
    for name, beta in p1.imputer.models.items():
        np.testing.assert_array_equal(beta, p2.imputer.models[name])


@pytest.fixture
def fold_pipelines(monkeypatch):
    """(fitting row ids, FoldPipeline) of every fold pipeline fit, in call order."""
    fitted = []
    real = harness_mod.fit_fold_pipeline

    def recording(fit_ds, prep, seed):
        pipeline = real(fit_ds, prep, seed)
        fitted.append((fit_ds.row_ids.copy(), pipeline))
        return pipeline

    monkeypatch.setattr(harness_mod, "fit_fold_pipeline", recording)
    return fitted


def imputer_state(imputer):
    """A fitted imputer's means and coefficients, comparable bit for bit."""
    return dict(imputer.means), {k: v.tolist() for k, v in sorted(imputer.models.items())}


def test_cv_fold_pipelines_ignore_held_out_shifts(fold_pipelines):
    ds, _ = cohort(missing=True, n=240)
    plan = SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 3})
    res = split(ds, plan, seed=7)
    _, val_idx = res.folds[0]

    j = ds.col_index("x1")
    shifted = ds.values[:, j].copy()
    shifted[val_idx[::2]] += 1000.0
    ds2 = replace_column_values(ds, "x1", shifted, mask=ds.missing_mask[:, j].copy())

    prep = PrepConfig(impute_iterations=4)
    params = CoxParams()
    scores1 = cv_evaluate(ds, res.folds, "coxph", params, prep, seed=20)
    scores2 = cv_evaluate(ds2, res.folds, "coxph", params, prep, seed=20)
    assert len(fold_pipelines) == 6
    p1 = [p for _, p in fold_pipelines[:3]]
    p2 = [p for _, p in fold_pipelines[3:]]

    # fold 0 holds the shifted rows out, so its fitted artifacts are untouched
    assert imputer_state(p1[0].imputer) == imputer_state(p2[0].imputer)
    assert p1[0].scaler.stats == p2[0].scaler.stats
    assert p1[0].dropped == p2[0].dropped
    # but the shift does reach fold 0's validation score
    assert scores1[0] != scores2[0]
    # and the same rows are fitting rows elsewhere, which must move those folds
    assert any(
        imputer_state(a.imputer) != imputer_state(b.imputer) for a, b in zip(p1[1:], p2[1:])
    )


def test_cv_evaluate_is_deterministic(fold_pipelines):
    ds, _ = cohort(missing=True, n=160)
    res = split(ds, SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 2}), seed=0)
    params = CoxParams()
    prep = PrepConfig(impute_iterations=3)
    scores1 = cv_evaluate(ds, res.folds, "coxph", params, prep, seed=5)
    scores2 = cv_evaluate(ds, res.folds, "coxph", params, prep, seed=5)
    assert scores1 == scores2
    assert len(fold_pipelines) == 4
    states = [imputer_state(p.imputer) for _, p in fold_pipelines]
    assert states[:2] == states[2:]
    assert all(0.0 <= s <= 1.0 for s in scores1)
    # each fold's pipeline is fit on that fold's fitting rows, none of them validation rows
    for (fit_ids, _), (fit_idx, val_idx) in zip(fold_pipelines, res.folds):
        np.testing.assert_array_equal(fit_ids, ds.row_ids[fit_idx])
        assert set(fit_ids).isdisjoint(ds.row_ids[val_idx])


# -- grid search -----------------------------------------------------------------------


def test_expand_grid_order_and_validation():
    points = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert points == [
        {"a": 1, "b": "x"},
        {"a": 1, "b": "y"},
        {"a": 2, "b": "x"},
        {"a": 2, "b": "y"},
    ]
    assert expand_grid({}) == [{}]
    with pytest.raises(ConfigError, match="non-empty list"):
        expand_grid({"a": []})
    with pytest.raises(ConfigError, match="non-empty list"):
        expand_grid({"a": 3})


def test_grid_search_prefers_higher_mean_score():
    ds, _ = cohort(missing=False, n=200)
    res = split(ds, SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 2}), seed=1)
    grid = {"l1": [0.0, 10.0], "l2": [0.0]}
    out = grid_search(ds, res.folds, "coxph", grid, PrepConfig(impute_iterations=2), seed=0)
    # l1 = 10 zeroes every coefficient, leaving a constant risk score
    assert out.entries[1]["mean_score"] == pytest.approx(0.5)
    assert out.entries[0]["mean_score"] > 0.55
    assert out.best_index == 0
    assert out.best_params == {"l1": 0.0, "l2": 0.0}
    assert [e["params"] for e in out.entries] == expand_grid(grid)
    for e in out.entries:
        assert e["mean_score"] == pytest.approx(np.mean(e["fold_scores"]))


@dataclasses.dataclass
class _StubParams:
    size: int = 1
    lr: float = 0.1


# constant risk: every grid point ties at C = 0.5 exactly
_STUB_FAMILY = Family(
    "stub", _StubParams, {"size": [1], "lr": [0.1]},
    fit=lambda x, t, e, p, seed, names: p,
    risk=lambda model, x: np.zeros(len(x)),
    curves=lambda model, x, times: [np.ones(len(times))] * len(x),
    key=lambda p: (p.size, p.lr),
)


@pytest.fixture
def stub_family():
    FAMILY_REGISTRY["stub"] = _STUB_FAMILY
    yield
    del FAMILY_REGISTRY["stub"]


def test_grid_ties_prefer_smaller_model_then_lower_lr_then_order(stub_family):
    ds, _ = cohort(missing=False, n=120)
    res = split(ds, SplitPlan(test_fraction=0.2, inner={"kind": "kfold", "k": 2}), seed=0)
    prep = PrepConfig(impute_iterations=2)

    out = grid_search(ds, res.folds, "stub", {"size": [3, 1, 2], "lr": [0.5]}, prep, seed=0)
    assert all(e["mean_score"] == 0.5 for e in out.entries)
    assert out.best_params == {"size": 1, "lr": 0.5}

    out = grid_search(ds, res.folds, "stub", {"size": [2], "lr": [0.9, 0.1, 0.4]}, prep, seed=0)
    assert out.best_params == {"size": 2, "lr": 0.1}

    out = grid_search(ds, res.folds, "stub", {"size": [2, 2], "lr": [0.5]}, prep, seed=0)
    assert out.best_index == 0


# -- factor identification ---------------------------------------------------------------


def test_identify_factors_recovers_signal():
    ds, _ = cohort(missing=True, n=500, seed=4)
    rows = identify_factors(ds, m=3, iterations=3, seed=0)
    assert [r.name for r in rows] == ["x1", "x2", "x3"]
    by_name = {r.name: r for r in rows}

    x1 = by_name["x1"]
    assert 1.5 < x1.hr < 3.0
    assert x1.significant and x1.p_value < 0.05
    assert x1.hr == pytest.approx(np.exp(x1.pooled_beta), rel=1e-12)
    assert x1.hr_low < x1.hr < x1.hr_high

    x2 = by_name["x2"]
    assert x2.hr < 1.0
    assert x2.significant

    for r in rows:
        assert r.pooled_se > 0.0
        assert r.significant == (r.p_value < 0.05)


def test_identify_factors_needs_two_imputations():
    ds, _ = cohort(missing=True, n=120)
    for m in (1, 2.5, "3"):
        with pytest.raises(ConfigError, match="m >= 2"):
            identify_factors(ds, m=m, iterations=2, seed=0)


def test_identify_factors_rejects_a_negative_seed_before_any_draw():
    ds, _ = cohort(missing=True, n=120)
    with pytest.raises(DataError, match="seed=-500 is not a non-negative integer"):
        identify_factors(ds, m=2, iterations=1, seed=-500)


def test_identify_factors_memory_does_not_grow_by_a_cohort_per_imputation():
    """Completed sets are built and fitted one at a time: raising m from 2
    to 8 adds the extra chains' drawn cells to the peak, less than one
    completed set (a list of m completed sets added 3.8 MB here, six sets
    of 0.61 MB)."""
    _, _, spec = ensure_like(0)
    ds = dummy_encode(generate(dataclasses.replace(spec, n=2000), seed=0)[0])[0]
    identify_factors(ds, m=2, iterations=1, seed=0)  # first-call imports stay out of the peaks
    peaks = {}
    for m in (2, 8):
        tracemalloc.start()
        try:
            identify_factors(ds, m=m, iterations=2, seed=0)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] - peaks[2] < ds.values.nbytes


def test_identify_factors_peak_is_a_few_covariate_matrices():
    """Above its input, identify_factors holds one mean-filled design for
    all of its chains and one covariate matrix per fit: its traced peak
    stays under 3.8 covariate matrices (3.2 read here; a copy of the design
    per chain and a completed set per fit read 4.5)."""
    _, _, spec = ensure_like(0)
    ds = dummy_encode(generate(dataclasses.replace(spec, n=2000), seed=0)[0])[0]
    identify_factors(ds, m=2, iterations=1, seed=0)  # first-call imports stay out of the peak
    tracemalloc.start()
    try:
        identify_factors(ds, m=3, iterations=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8 * ds.covariate_matrix()[0].nbytes


def test_test_metrics_peak_does_not_grow_with_the_replicates():
    """`bootstrap_ci` scores 64-row blocks of the replicates, so on a
    785-row split the test metrics at 1000 replicates peak within 1.2x of
    their peak at 63, one block (1.00x read here; metrics fed the whole
    (1001, 785) matrix read 1.88x)."""
    rng = np.random.default_rng(0)
    risk = rng.normal(size=785)
    t = np.round(rng.exponential(np.exp(-risk)) * 100, 1)
    e = (rng.random(785) < 0.6).astype(float)
    knots = np.unique(t[e == 1.0])
    curves = SurvivalCurve(
        times=knots, values=np.exp(-np.outer(np.exp(risk), knots / 100)), kind="step"
    )
    _test_metrics(t, e, risk, curves, bootstrap_counts(e, 63, 0))  # imports stay out
    peaks = {}
    for n_boot in (63, 1000):
        counts = bootstrap_counts(e, n_boot, 0)
        tracemalloc.start()
        try:
            _test_metrics(t, e, risk, curves, counts)
            peaks[n_boot] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] < 1.2 * peaks[63]


def test_factors_to_csv_round_trip(tmp_path):
    """`survkit identify-factors` writes identify_factors' rows to
    factors.csv, floats by repr."""
    ds, _ = cohort(missing=True, n=300, seed=4)
    rows = identify_factors(ds, m=2, iterations=2, seed=1)
    data, schema, out = tmp_path / "cohort.csv", tmp_path / "schema.json", tmp_path / "run"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    assert main(["identify-factors", "--data", str(data), "--schema", str(schema), "--m", "2",
                 "--iterations", "2", "--seed", "1", "--out", str(out)]) == 0
    with open(out / "factors.csv", newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["variable", "hr", "ci_low", "ci_high", "p_value", "significant"]
    assert len(read) == len(rows) + 1
    for row, rec in zip(rows, read[1:]):
        assert rec[0] == row.name
        assert float(rec[1]) == row.hr
        assert float(rec[4]) == row.p_value
        assert rec[5] == ("yes" if row.significant else "no")


# -- experiment config ----------------------------------------------------------------------


def test_config_from_dict_defaults_and_overrides():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.seed == 0
    assert cfg.split.test_fraction == 0.2
    assert cfg.split.inner == {"kind": "kfold", "k": 5}
    assert cfg.prep.impute_iterations == 10
    assert cfg.prep.prune_threshold == 0.7
    assert cfg.prep.standardize is True
    assert cfg.families == {}
    assert cfg.n_boot == 1000

    doc = {
        "seed": 7,
        "split": {"test_fraction": 0.3, "inner": {"kind": "holdout", "fraction": 0.1}},
        "prep": {"impute_iterations": 4, "prune_threshold": 0.9, "standardize": False},
        "families": {"coxph": {"l1": [0.01]}},
        "n_boot": 50,
    }
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.seed == 7
    assert cfg.split.inner == {"kind": "holdout", "fraction": 0.1}
    assert cfg.prep.standardize is False
    assert cfg.families == {"coxph": {"l1": [0.01]}}
    assert cfg.n_boot == 50


def test_config_rejects_unknown_family():
    """A bad family name, grid or grid point fails as the config is read
    and as a library caller builds one, never later inside the run."""
    for families, message in (
        ({"forest": {}}, "unknown model family 'forest'"),
        ({"coxph": [1]}, r"coxph: grid \[1\] is not an object"),
        ({"coxph": {"l1": [-1.0]}}, "coxph: l1"),
        ([1], r"families=\[1\] is not an object"),
    ):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"families": families})
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(families=families)


@pytest.mark.parametrize("build, message", [
    (lambda: ExperimentConfig(seed="1"), "config: seed='1' is not a valid int"),
    (lambda: ExperimentConfig(n_boot=None), "config: n_boot=None is not a valid int"),
    (lambda: PrepConfig(impute_iterations="2"), "prep: impute_iterations='2' is not a valid int"),
    (lambda: ExperimentConfig(split={"test_fraction": 0.2}), "config: split=.* is not a valid SplitPlan"),
    (lambda: InclusionRules(exclude_levels=["grade"]), r"inclusion: exclude_levels=\['grade'\]"),
    (lambda: InclusionRules(exclude_early_events="3"), "inclusion: exclude_early_events='3'"),
    (lambda: InclusionRules(exclude_early_events=True), "inclusion: exclude_early_events=True"),
], ids=["seed", "n_boot", "impute_iterations", "split", "exclude_levels", "exclude_early_events",
        "exclude_early_events_bool"])
def test_a_config_built_directly_checks_its_field_types(build, message):
    """A library caller's value of the wrong type is a ConfigError naming
    the field at construction, not a raw TypeError there or an
    AttributeError inside the run."""
    with pytest.raises(ConfigError, match=message):
        build()


def test_config_rejects_n_boot_below_one():
    for n_boot in (0, -3):
        with pytest.raises(ConfigError, match="n_boot"):
            ExperimentConfig.from_dict({"n_boot": n_boot})


def test_config_rejects_impute_iterations_below_one():
    for iterations in (0, -2):
        with pytest.raises(ConfigError, match="prep: impute_iterations must be >= 1"):
            ExperimentConfig.from_dict({"prep": {"impute_iterations": iterations}})
    assert ExperimentConfig.from_dict({"prep": {"impute_iterations": 1}}).prep.impute_iterations == 1


def test_config_rejects_wrong_typed_run_settings():
    """A quoted boolean, a quoted number, a fractional count or a
    non-number in `prep`, `split`, `seed` or `n_boot` fails at load, naming
    the section and key; none is silently truncated or read as truthy."""
    bad = (
        ({"prep": {"standardize": "false"}}, "prep: standardize="),
        ({"prep": {"standardize": 0}}, "prep: standardize="),
        ({"prep": {"impute_iterations": 2.5}}, "prep: impute_iterations="),
        ({"prep": {"prune_threshold": "high"}}, "prep: prune_threshold="),
        ({"split": {"test_fraction": "a fifth"}}, "split: test_fraction="),
        ({"split": {"inner": {"kind": "kfold", "k": 2.5}}}, "split: k="),
        ({"split": {"inner": {"kind": "holdout", "fraction": "x"}}}, "split: fraction="),
        ({"split": {"inner": "kfold"}}, "split: inner="),
        ({"seed": 1.5}, "config: seed="),
        ({"n_boot": 99.5}, "config: n_boot="),
        ({"n_boot": "many"}, "config: n_boot="),
        ({"prep": {"standardise": False}}, "prep: unknown key 'standardise'"),
        ({"split": {"k": 3}}, "split: unknown key 'k'"),
        ({"prep": [1]}, r"prep: \[1\] is not an object"),
        ({"n_boot": True}, "config: n_boot=True"),
        ({"seed": True}, "config: seed=True"),
        ({"prep": {"impute_iterations": True}}, "prep: impute_iterations=True"),
        ({"n_boot": float("inf")}, "config: n_boot=inf"),
        ({"prep": {"prune_threshold": float("nan")}}, "prep: prune_threshold=nan"),
        ({"split": {"test_fraction": "nan"}}, "split: test_fraction='nan'"),
        # a number is a JSON number, never a numeric string
        ({"n_boot": "40"}, "config: n_boot='40'"),
        ({"split": {"test_fraction": "0.25"}}, "split: test_fraction='0.25'"),
        ({"split": {"inner": {"kind": "kfold", "k": "3"}}}, "split: k='3'"),
    )
    for doc, message in bad:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(doc)
    # range checks that used to wait for the split now fail at load too
    for inner, message in (({"kind": "kfold", "k": 1}, "k must be"),
                           ({"kind": "holdout", "fraction": 1.0}, "holdout fraction"),
                           ({"kind": "loo"}, "unknown inner split kind")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"split": {"inner": inner}})
    with pytest.raises(ConfigError, match="test_fraction must be"):
        ExperimentConfig.from_dict({"split": {"test_fraction": 0.0}})
    # integral floats still load as integers, as for grid values
    cfg = ExperimentConfig.from_dict({
        "seed": 3.0, "n_boot": 40, "prep": {"impute_iterations": 2.0, "standardize": False},
        "split": {"test_fraction": 0.25, "inner": {"kind": "kfold", "k": 3.0}},
    })
    assert (cfg.seed, cfg.n_boot, cfg.prep.impute_iterations) == (3, 40, 2)
    assert cfg.split.test_fraction == 0.25 and cfg.prep.standardize is False
    ds, _ = cohort(missing=False)
    assert len(split(ds, cfg.split, seed=0).folds) == 3
    with pytest.raises(ConfigError, match="split: k="):
        split(ds, SplitPlan(inner={"kind": "kfold", "k": 2.5}), seed=0)


def test_inclusion_section_is_read_strictly():
    """The experiment config's `inclusion` section: a missing or null
    section keeps the defaults, and a non-object section (an empty list
    included), an unknown key (the removed `drop_missing_outcomes` too), a
    quoted threshold or a boolean one is a ConfigError, not a raw numpy or
    attribute error or a truthy string."""
    def inclusion(doc):
        return ExperimentConfig.from_dict({"inclusion": doc}).inclusion

    assert inclusion(None) == InclusionRules()
    rules = inclusion({"exclude_levels": {"grade": ["g3"]}, "exclude_early_events": 1})
    assert rules == InclusionRules({"grade": ["g3"]}, 1.0)
    for doc, message in (
        (["exclude_levels"], "inclusion: .* is not an object"),
        ([], r"inclusion: \[\] is not an object"),
        ({"drop_missing_outcomes": False}, "inclusion: unknown key 'drop_missing_outcomes'"),
        ({"exclude_early_events": "5"}, "inclusion: exclude_early_events='5'"),
        ({"exclude_levels": {"grade": "g3"}}, "inclusion: exclude_levels="),
        ({"exclude_early": 1}, "inclusion: unknown key 'exclude_early'"),
        ({"exclude_early_events": True}, "inclusion: exclude_early_events=True"),
        ({"exclude_early_events": float("nan")}, "inclusion: exclude_early_events=nan"),
    ):
        with pytest.raises(ConfigError, match=message):
            inclusion(doc)

def test_config_reads_the_cohort_source():
    """The cohort keys load as typed fields: the built-in cohort with its
    seed, or data and schema paths with the inclusion rules."""
    cfg = ExperimentConfig.from_dict({})
    assert (cfg.ensure_like, cfg.ensure_like_seed, cfg.data, cfg.schema) == (False, 0, None, None)
    assert cfg.inclusion == InclusionRules()
    cfg = ExperimentConfig.from_dict({"ensure_like": True, "ensure_like_seed": 4})
    assert (cfg.ensure_like, cfg.ensure_like_seed, cfg.data) == (True, 4, None)
    cfg = ExperimentConfig.from_dict({
        "ensure_like": False, "data": "c.csv", "schema": "s.json",
        "inclusion": {"exclude_levels": {"grade": ["g3"]}},
    })
    assert (cfg.ensure_like, cfg.data, cfg.schema) == (False, "c.csv", "s.json")
    assert cfg.inclusion == InclusionRules(exclude_levels={"grade": ["g3"]})


def test_config_rejects_every_key_it_would_not_read():
    """A non-object document, an unknown key at the top level or in a
    split kind, a value of the wrong type and a key the chosen cohort
    source does not read are each a ConfigError naming the key."""
    paths = {"data": "c.csv", "schema": "s.json"}
    for doc, message in (
        ([1], "config: the document is a list, not an object"),
        ("{}", "config: the document is a str, not an object"),
        ({"nboot": 5}, "config: unknown key 'nboot'"),
        ({"families": [1]}, r"config: families=\[1\] is not an object"),
        ({"families": {"coxph": [1]}}, r"coxph: grid \[1\] is not an object"),
        ({"families": {"deepsurv": None}}, "deepsurv: grid None is not an object"),
        ({"data": 5, "schema": "s.json"}, "config: data=5 is not a valid str"),
        ({"data": "c.csv", "schema": None}, "config: schema=None is not a valid str"),
        ({"ensure_like": "no", **paths}, "config: ensure_like='no' is not a valid bool"),
        ({"ensure_like": 1}, "config: ensure_like=1 is not a valid bool"),
        ({"ensure_like": True, "data": "c.csv"}, "config: 'data' is not read when ensure_like is true"),
        ({"ensure_like": True, "schema": "s.json"}, "'schema' is not read when ensure_like is true"),
        ({"ensure_like": True, "inclusion": {}}, "'inclusion' is not read when ensure_like is true"),
        ({"ensure_like_seed": 3, **paths}, "'ensure_like_seed' is not read when ensure_like is false"),
        ({"ensure_like": False, "ensure_like_seed": 3}, "'ensure_like_seed' is not read"),
        ({"split": {"inner": {"kind": "kfold", "kk": 3}}}, "split.inner: unknown key 'kk'"),
        ({"split": {"inner": {"kind": "kfold", "fraction": 0.2}}}, "split.inner: unknown key 'fraction'"),
        ({"split": {"inner": {"kind": "holdout", "k": 3}}}, "split.inner: unknown key 'k'"),
        ({"families": {"deephit": {"n_interp": [1]}}}, "deephit: n_interp must be at least 2"),
        # the range of every hyper-parameter, after its type
        ({"families": {"coxph": {"l2": [0.0, -0.5]}}}, "coxph: l1 and l2 must be non-negative"),
        ({"families": {"coxph": {"l1": [True]}}}, "coxph: l1=True"),
        ({"families": {"deepsurv": {"epochs": [-3]}}}, "deepsurv: epochs must be at least 1"),
        ({"families": {"deepsurv": {"batch_size": [0]}}}, "deepsurv: batch_size must be at least"),
        ({"families": {"deepsurv": {"lr": [0.0]}}}, "deepsurv: lr must be positive"),
        ({"families": {"deepsurv": {"dropout": [1.0]}}}, r"deepsurv: dropout must be in \[0, 1\)"),
        ({"families": {"deephit": {"lr_decay": [-0.7]}}}, "deephit: lr_decay must be positive"),
        ({"families": {"deephit": {"weight_decay": [-0.1]}}}, "deephit: weight_decay must be non"),
        ({"families": {"deephit": {"n_bins": [0]}}}, "deephit: n_bins must be at least 1"),
        ({"families": {"deephit": {"alpha": [-2]}}}, "deephit: alpha must be non-negative"),
    ):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(doc)
    ds, _ = cohort(missing=False)
    with pytest.raises(ConfigError, match="split.inner: unknown key 'kk'"):
        split(ds, SplitPlan(inner={"kind": "kfold", "kk": 3}), seed=0)


def _load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shipped_config_passes_the_strict_reader():
    """The README example, the acceptance reference experiment, every
    survbench experiment workload and the traced smoke run of the
    benchmark tests all load; a benchmark run fails at once otherwise."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("An experiment config looks like:", 1)[1]
    example = example.split("```json", 1)[1].split("```", 1)[0]
    configs = {"README": json.loads(example), "REFERENCE_CONFIG": REFERENCE_CONFIG}
    workloads = _load_module(root / "survbench" / "workloads.py")
    workloads.WORKLOADS["smoke"] = {"kind": "experiment", "overrides": SMOKE_OVERRIDES}
    for name, spec in workloads.WORKLOADS.items():
        if spec["kind"] == "experiment":
            configs[name] = workloads.experiment_config(name, 0)
    assert {"README", "REFERENCE_CONFIG", "reference", "train", "boot", "smoke"} <= set(configs)
    for name, doc in configs.items():
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.families, name
        assert cfg.ensure_like or (cfg.data and cfg.schema), name


def test_config_rejects_wrong_shaped_neural_values():
    """A string or non-integral layer width, a quoted width, a non-positive
    width, or a fractional integer field fails at config load, naming the
    family and the key. An empty width list is a network without hidden
    layers."""
    bad = (
        ("deepsurv", "hidden", "64"),
        ("deepsurv", "hidden", [64.5]),
        ("deephit", "hidden", [8.0, "4"]),
        ("deephit", "hidden", [32, 0]),
        ("deepsurv", "hidden", 64),
        ("deepsurv", "epochs", 3.7),
        ("deephit", "n_bins", 20.5),
    )
    for family, key, value in bad:
        with pytest.raises(ConfigError, match=f"{family}: {key}="):
            FAMILY_REGISTRY[family].make_params({key: value})
        with pytest.raises(ConfigError, match=f"{family}: {key}="):
            ExperimentConfig.from_dict({"families": {family: {key: [value]}}})
    for family in ("deepsurv", "deephit"):
        assert FAMILY_REGISTRY[family].make_params({"hidden": []}).hidden == []
        cfg = ExperimentConfig.from_dict({"families": {family: {"hidden": [[]]}}})
        assert cfg.families[family] == {"hidden": [[]]}
    params = FAMILY_REGISTRY["deephit"].make_params({"hidden": [8.0, 4], "n_bins": 12.0})
    assert params.hidden == [8, 4] and params.n_bins == 12
    assert all(type(w) is int for w in params.hidden) and type(params.n_bins) is int


def test_config_rejects_unknown_grid_keys():
    """A misspelled hyperparameter fails at config load, naming family and key."""
    for family, key in (("deepsurv", "hiden"), ("deephit", "epoch"), ("coxph", "L1")):
        with pytest.raises(ConfigError, match=f"{family}: unknown key '{key}'"):
            ExperimentConfig.from_dict({"families": {family: {key: [1]}}})
    with pytest.raises(ConfigError, match="'epoch'"):
        FAMILY_REGISTRY["deepsurv"].make_params({"epoch": 10, "hiden": [3]})
    # every field of the Params dataclasses is known
    for name, cls in (("coxph", CoxParams), ("deepsurv", DeepSurvParams),
                      ("deephit", DeepHitParams)):
        point = dataclasses.asdict(cls())
        assert FAMILY_REGISTRY[name].make_params(point) == cls()
    assert FAMILY_REGISTRY["coxph"].make_params({"l1": 0.1, "l2": 0.2}) == CoxParams(0.1, 0.2)
    # a value the field's type rejects is a config error too, not a raw ValueError
    for family, key, value in (("deepsurv", "epochs", "ten"), ("coxph", "l1", "x")):
        with pytest.raises(ConfigError, match=f"{family}: {key}="):
            ExperimentConfig.from_dict({"families": {family: {key: [value]}}})


def test_config_rejects_deephit_sigma_that_overflows():
    with pytest.raises(ConfigError, match="sigma"):
        ExperimentConfig.from_dict({"families": {"deephit": {"sigma": [0.1, 1e-3]}}})
    cfg = ExperimentConfig.from_dict({"families": {"deephit": {"sigma": [SIGMA_MIN]}}})
    assert cfg.families["deephit"] == {"sigma": [SIGMA_MIN]}


def test_neural_make_params_fall_back_to_the_dataclass_defaults():
    for name, cls in (("deepsurv", DeepSurvParams), ("deephit", DeepHitParams)):
        family = FAMILY_REGISTRY[name]
        assert family.make_params({}) == cls()
        partial = family.make_params({"epochs": 3.0, "lr": 1, "hidden": (4, 2)})
        assert partial == dataclasses.replace(cls(), epochs=3, lr=1.0, hidden=[4, 2])
        assert type(partial.epochs) is int and type(partial.lr) is float
        with pytest.raises(ConfigError, match=f"{name}: lr='0.02'"):
            family.make_params({"lr": "0.02"})


# -- end-to-end experiment --------------------------------------------------------------------


def fast_config(seed=11, families=None):
    return ExperimentConfig(
        seed=seed,
        split=SplitPlan(test_fraction=0.2, inner={"kind": "holdout", "fraction": 0.25}),
        prep=PrepConfig(impute_iterations=2),
        families=families if families is not None else {"coxph": {"l1": [0.0], "l2": [0.0, 0.1]}},
        n_boot=40,
    )


def test_data_digest_of_the_encoded_reference_cohort_is_pinned():
    """The report's `data_digest` hashes the values and the missingness
    mask; the mask is derived from the NaN cells, and the digest of the
    reference cohort keeps the value it had when the mask was stored."""
    encoded, _ = dummy_encode(ensure_like(0)[0])
    assert _data_digest(encoded) == (
        "d84aa0064931e7cb0316e2d38cdb0b54f89e9fbd2b1ebb3dbe18b0d9eac78077"
    )


def test_run_experiment_report_structure():
    ds, _ = cohort(missing=False, n=200, seed=2)
    report = run_experiment(ds, fast_config())
    content = report.content
    assert set(content) == {
        "toolkit_version",
        "seed",
        "data_digest",
        "config",
        "split_provenance",
        "families",
    }
    assert len(content["data_digest"]) == 64
    prov = content["split_provenance"]
    assert prov["n_train"] + prov["n_test"] == ds.n_rows
    assert set(prov["train_row_ids"]).isdisjoint(prov["test_row_ids"])

    fam = content["families"]["coxph"]
    assert fam["chosen_params"] in ({"l1": 0.0, "l2": 0.0}, {"l1": 0.0, "l2": 0.1})
    assert len(fam["grid"]) == 2
    assert fam["n_features"] == 3
    metrics = fam["test_metrics"]
    assert set(metrics) == {"c_index", "ibs", "tauc_mean"}
    for rec in metrics.values():
        assert set(rec) == {"point", "ci_low", "ci_high", "n_boot", "seed", "n_failed"}
        assert rec["n_boot"] == 40
        assert rec["n_failed"] == 0
        assert rec["ci_low"] <= rec["ci_high"]
    assert metrics["c_index"]["point"] > 0.55

    assert "coxph" in report.fits


def test_run_experiment_bytes_are_deterministic():
    ds, _ = cohort(missing=True, n=200, seed=2)
    b1 = run_experiment(ds, fast_config()).to_json_bytes()
    b2 = run_experiment(ds, fast_config()).to_json_bytes()
    assert b1 == b2
    b3 = run_experiment(ds, fast_config(seed=12)).to_json_bytes()
    assert b1 != b3


def test_run_experiment_single_test_event_time_is_a_data_error():
    # every event at one time: the test split's IBS has no grid
    ds, _ = cohort(missing=False, n=200, seed=2)
    t = np.where(ds.event == 1.0, 0.5 * ds.time.min(), ds.time)
    ds = replace_column_values(ds, "time", t)
    with pytest.raises(DataError, match="fewer than 2 event times"):
        run_experiment(ds, fast_config())


def test_run_experiment_empty_grid_uses_family_defaults():
    ds, _ = cohort(missing=False, n=160, seed=3)
    report = run_experiment(ds, fast_config(families={"coxph": {}}))
    fam = report.content["families"]["coxph"]
    assert fam["chosen_params"] == {"l1": 0.0, "l2": 0.0}
    assert len(fam["grid"]) == 1


def test_run_experiment_requires_families():
    ds, _ = cohort(missing=False, n=120)
    with pytest.raises(ConfigError, match="no model families"):
        run_experiment(ds, fast_config(families={}))
