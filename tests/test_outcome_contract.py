"""The outcome contract: every fit, estimator and metric reads (times,
events) through `tabular.check_outcomes`, so each public entry rejects the
same bad outcomes with a DataError, and accepts the same good ones. Every
entry that seeds a generator checks its seed through `errors.check_seed`
in the same way."""

import warnings

import numpy as np
import pytest

from survkit.coxph import fit_coxph, neg_log_partial_likelihood
from survkit.curves import SurvivalCurve
from survkit.deephit import DeepHitParams, fit_deephit
from survkit.deepsurv import DeepSurvParams, fit_deepsurv
from survkit.errors import DataError
from survkit.harness import SplitPlan, split
from survkit.impute import apply_mice, fit_mice, nelson_aalen
from survkit.metrics import (
    bootstrap_counts,
    brier_score,
    censoring_km,
    concordance_index,
    cumulative_dynamic_auc,
    integrated_brier,
    kaplan_meier,
)
from survkit.nnet import init_mlp
from survkit.synth import CovariateSpec, GeneratorSpec, generate
from survkit.tabular import (
    ColumnSpec,
    SurvivalDataset,
    check_fit_inputs,
    check_outcomes,
    summarize,
)

TIMES = np.arange(1.0, 9.0)
EVENTS = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
COLUMNS = [
    ColumnSpec("months", "continuous", role="time"),
    ColumnSpec("died", "binary", role="event"),
    ColumnSpec("a", "continuous"),
    ColumnSpec("b", "continuous"),
]


def covariates(n):
    return np.random.default_rng(0).normal(size=(n, 2))


def dataset(t, e):
    x = covariates(len(t))
    if len(t):
        x[0, 1] = np.nan  # one missing cell for the imputer to fill
    return SurvivalDataset(COLUMNS, np.column_stack([t, e, x]).reshape(len(t), 4))


MICE = fit_mice(dataset(TIMES, EVENTS), iterations=1, seed=0)
CURVE_TIMES = np.array([0.0, 4.0, 8.0])


def curves(n):
    return SurvivalCurve(times=CURVE_TIMES, values=np.tile([1.0, 0.6, 0.2], (n, 1)))


# fits taking (x, times, events)
FITS = {
    "check_fit_inputs": check_fit_inputs,
    "fit_coxph": fit_coxph,
    "neg_log_partial_likelihood": lambda x, t, e: neg_log_partial_likelihood(np.zeros(2), x, t, e),
    "fit_deepsurv": lambda x, t, e: fit_deepsurv(
        x, t, e, DeepSurvParams(hidden=[4], epochs=1), seed=0),
    "fit_deephit": lambda x, t, e: fit_deephit(
        x, t, e, DeepHitParams(hidden=[4], n_bins=3, epochs=1), seed=0),
}

# entries taking (times, events) arrays: call(t, e) with any other argument
# sized to len(t)
ARRAY_ENTRIES = {
    "check_outcomes": check_outcomes,
    "kaplan_meier": kaplan_meier,
    "censoring_km": censoring_km,
    "concordance_index": lambda t, e: concordance_index(t, e, -np.arange(len(t))),
    "brier_score": lambda t, e: brier_score(t, e, np.full(len(t), 0.5), horizon=4.0),
    "integrated_brier": lambda t, e: integrated_brier(t, e, curves(len(t))),
    "cumulative_dynamic_auc": lambda t, e: cumulative_dynamic_auc(t, e, -np.arange(len(t))),
    "nelson_aalen": nelson_aalen,
    **{name: (lambda t, e, fit=fit: fit(covariates(len(t)), t, e)) for name, fit in FITS.items()},
}

# entries taking a dataset, whose time and event columns are one length
DATASET_ENTRIES = {
    "fit_mice": lambda ds: fit_mice(ds, iterations=1, seed=0),
    "apply_mice": lambda ds: apply_mice(MICE, ds),
    "split": lambda ds: split(ds, SplitPlan(), seed=0),
    "summarize": lambda ds: summarize(ds),
}


def bad(kind):
    t, e = TIMES.copy(), EVENTS.copy()
    if kind == "nan_time":
        t[2] = np.nan
    elif kind == "inf_time":
        t[2] = np.inf
    elif kind == "nan_event":
        e[2] = np.nan
    elif kind == "event_2":
        e[2] = 2.0
    elif kind == "event_half":
        e[2] = 0.5
    elif kind == "unequal":
        e = e[:-1]
    elif kind == "empty":
        t, e = t[:0], e[:0]
    return t, e


BAD = ["nan_time", "inf_time", "nan_event", "event_2", "event_half", "unequal", "empty"]


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRIES))
def test_array_entry_accepts_valid_outcomes(entry):
    ARRAY_ENTRIES[entry](TIMES, EVENTS)


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRIES))
def test_array_entry_rejects_bad_outcomes(entry, kind):
    with pytest.raises(DataError):
        ARRAY_ENTRIES[entry](*bad(kind))


@pytest.mark.parametrize("entry", sorted(DATASET_ENTRIES))
def test_dataset_entry_accepts_valid_outcomes(entry):
    DATASET_ENTRIES[entry](dataset(TIMES, EVENTS))


# a dataset holds one row per subject, so unequal lengths cannot occur there
@pytest.mark.parametrize("kind", [k for k in BAD if k != "unequal"])
@pytest.mark.parametrize("entry", sorted(DATASET_ENTRIES))
def test_dataset_entry_rejects_bad_outcomes(entry, kind):
    with pytest.raises(DataError):
        DATASET_ENTRIES[entry](dataset(*bad(kind)))


@pytest.mark.parametrize("entry", sorted(FITS))
def test_fits_reject_nan_covariates_and_event_free_data(entry):
    """A fit needs complete covariates and at least one event."""
    x = covariates(len(TIMES))
    x[3, 0] = np.nan
    with pytest.raises(DataError, match="covariates must be complete"):
        FITS[entry](x, TIMES, EVENTS)
    with pytest.raises(DataError, match="no events"):
        FITS[entry](covariates(len(TIMES)), TIMES, np.zeros(len(TIMES)))


@pytest.mark.parametrize("entry", sorted(FITS))
def test_fits_reject_an_infinite_covariate_with_no_warning(entry):
    """One infinite cell is an input error, found before any arithmetic
    could warn or a fit could fail on a non-finite step."""
    x = covariates(len(TIMES))
    x[3, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="covariates must be finite"):
            FITS[entry](x, TIMES, EVENTS)


def test_check_fit_inputs_rejects_a_covariate_matrix_of_the_wrong_shape():
    x = covariates(len(TIMES))
    with pytest.raises(DataError, match="x must be"):
        check_fit_inputs(x[:-1], TIMES, EVENTS)
    with pytest.raises(DataError, match="x must be"):
        check_fit_inputs(x[:, 0], TIMES, EVENTS)
    with pytest.raises(DataError, match="no covariate columns"):
        check_fit_inputs(x[:, :0], TIMES, EVENTS)


# entries taking a seed: call(seed)
SEED_ENTRIES = {
    "bootstrap_counts": lambda seed: bootstrap_counts(EVENTS, 5, seed),
    "split": lambda seed: split(dataset(TIMES, EVENTS), SplitPlan(), seed),
    "generate": lambda seed: generate(
        GeneratorSpec(n=20, covariates=[CovariateSpec("a", "continuous", mean=0.0, sd=1.0)]), seed),
    "init_mlp": lambda seed: init_mlp([2, 3, 1], seed=seed),
    "fit_deepsurv": lambda seed: fit_deepsurv(
        covariates(len(TIMES)), TIMES, EVENTS, DeepSurvParams(hidden=[4], epochs=1), seed),
    "fit_deephit": lambda seed: fit_deephit(
        covariates(len(TIMES)), TIMES, EVENTS, DeepHitParams(hidden=[4], n_bins=3, epochs=1), seed),
    "fit_mice": lambda seed: fit_mice(dataset(TIMES, EVENTS), iterations=1, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
def test_seed_entry_accepts_a_numpy_integer(entry):
    SEED_ENTRIES[entry](np.int64(3))


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True])
@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
def test_seed_entry_rejects_any_other_seed(entry, seed):
    with pytest.raises(DataError, match="is not a non-negative integer"):
        SEED_ENTRIES[entry](seed)


@pytest.mark.parametrize("n_boot", [0, 2.5, "5", True])
def test_bootstrap_counts_rejects_a_replicate_count_that_is_no_positive_integer(n_boot):
    with pytest.raises(DataError, match="n_boot must be an integer >= 1, got "):
        bootstrap_counts(EVENTS, n_boot, 0)
