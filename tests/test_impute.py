"""Imputation tests: Nelson-Aalen transform, chained equations, Rubin pooling."""

import dataclasses
import hashlib
import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survkit import _blas, impute
from survkit.errors import ComputationError, DataError, ImputationWarning, SchemaError
from survkit.impute import (
    apply_mice,
    fit_mice,
    mice_impute,
    nelson_aalen,
    pool_rubin,
)
from survkit.cli import main
from survkit.preprocess import dummy_encode
from survkit.synth import ensure_like, generate
from survkit.tabular import (
    ColumnSpec,
    SurvivalDataset,
    replace_column_values,
    save_csv,
    save_schema,
    subset_rows,
)


def cols_with(names):
    base = [
        ColumnSpec("months", "continuous", role="time"),
        ColumnSpec("died", "binary", role="event"),
    ]
    return base + [ColumnSpec(n, "continuous") for n in names]


def build(values, columns):
    values = np.asarray(values, dtype=float)
    return SurvivalDataset(columns, values, np.isnan(values))


# -- Nelson-Aalen ----------------------------------------------------------------


def test_nelson_aalen_hand_values():
    """Three events, no ties: H = 1/3, then + 1/2, then + 1/1."""
    h = nelson_aalen([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(h.values, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1.0])
    np.testing.assert_array_equal(h.knots, [1.0, 2.0, 3.0])
    # evaluation is a right-continuous step function, zero before the first knot
    np.testing.assert_allclose(h([0.5, 1.0, 2.5]), [0.0, 1 / 3, 5 / 6])


def test_nelson_aalen_tied_events():
    # two events at t=1 among three at risk add 2/3 in one increment
    h = nelson_aalen([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(h.knots, [1.0, 2.0])
    np.testing.assert_allclose(h.values, [2 / 3, 2 / 3 + 1.0])


def test_nelson_aalen_censoring_and_validation():
    h = nelson_aalen([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(h.knots, [2.0])
    np.testing.assert_allclose(h.values, [0.5])
    with pytest.raises(DataError):
        nelson_aalen([], [])
    with pytest.raises(DataError):
        nelson_aalen([1.0, np.nan], [1.0, 1.0])


# -- chained equations -------------------------------------------------------------


def mar_linear_dataset(seed, n=500, missing=0.2):
    """y = 2x + noise with x missing at random based on an always-observed z."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    y = 2.0 * x + rng.normal(0.0, 0.3, n)
    z = rng.normal(0.0, 1.0, n)
    t = rng.exponential(20.0, n) + 0.01
    e = (rng.random(n) < 0.6).astype(float)
    # missingness in x depends on z (observed), not on x itself
    p = missing * 2 * (z > 0)
    x_miss = rng.random(n) < p
    values = np.column_stack([t, e, x, y, z])
    mask = np.zeros_like(values, dtype=bool)
    mask[:, 2] = x_miss
    values[x_miss, 2] = np.nan
    ds = SurvivalDataset(cols_with(["x", "y", "z"]), values, mask)
    return ds, x


def test_complete_data_yields_identical_copies():
    rng = np.random.default_rng(0)
    values = np.column_stack([
        rng.exponential(10.0, 20) + 0.1,
        (rng.random(20) < 0.5).astype(float),
        rng.normal(size=20),
    ])
    ds = SurvivalDataset(cols_with(["x"]), values, np.zeros_like(values, dtype=bool))
    iset = mice_impute(ds, m=3, iterations=2, seed=1)
    assert len(iset) == 3
    for c in iset:
        np.testing.assert_array_equal(c.values, ds.values)
        assert not c.missing_mask.any()


def test_imputation_fills_only_missing_cells():
    ds, _ = mar_linear_dataset(seed=4)
    iset = mice_impute(ds, m=2, iterations=3, seed=9)
    for c in iset:
        assert not np.isnan(c.values).any()
        assert not c.missing_mask.any()
        observed = ~ds.missing_mask
        np.testing.assert_array_equal(c.values[observed], ds.values[observed])


def test_outcome_columns_bit_unchanged():
    ds, _ = mar_linear_dataset(seed=12)
    t_before = ds.time.copy()
    e_before = ds.event.copy()
    iset = mice_impute(ds, m=3, iterations=5, seed=2)
    for c in iset:
        np.testing.assert_array_equal(c.time, t_before)
        np.testing.assert_array_equal(c.event, e_before)


def test_chains_are_seeded_and_distinct():
    ds, _ = mar_linear_dataset(seed=4)
    a = mice_impute(ds, m=2, iterations=2, seed=7)
    b = mice_impute(ds, m=2, iterations=2, seed=7)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.values, db.values)
    # different chains of one run disagree on the imputed cells
    miss = ds.missing_mask
    assert not np.array_equal(a[0].values[miss], a[1].values[miss])
    assert a.provenance()["chain_seeds"] == [107, 108]


def test_imputation_beats_mean_fill():
    """Regression imputation should recover y = 2x structure that a plain
    column mean cannot; demand a 10% RMSE improvement on average."""
    ratios = []
    for seed in range(10):
        ds, x_true = mar_linear_dataset(seed=seed)
        miss = ds.missing_mask[:, 2]
        j = ds.col_index("x")
        obs_mean = ds.values[~miss, j].mean()
        rmse_mean = np.sqrt(np.mean((obs_mean - x_true[miss]) ** 2))
        iset = mice_impute(ds, m=5, iterations=5, seed=seed + 50)
        errs = [c.values[miss, j] - x_true[miss] for c in iset]
        rmse_mice = np.sqrt(np.mean(np.concatenate(errs) ** 2))
        ratios.append(rmse_mice / rmse_mean)
    assert np.mean(ratios) < 0.9


def test_impute_validation():
    ds, _ = mar_linear_dataset(seed=1)
    with pytest.raises(DataError):
        mice_impute(ds, m=0, iterations=1, seed=0)
    with pytest.raises(DataError):
        mice_impute(ds, m=2, iterations=0, seed=0)
    with pytest.raises(DataError, match="iterations"):
        fit_mice(ds, iterations=0, seed=0)
    # a count that is not an integer keeps its error and message
    for m, iterations, message in ((2.5, 2, "m must be >= 1"), (2, 2.5, "iterations must be >= 1"),
                                   ("2", 2, "m must be >= 1")):
        with pytest.raises(DataError, match=message):
            mice_impute(ds, m=m, iterations=iterations, seed=0)
    with pytest.raises(DataError, match="iterations must be >= 1"):
        fit_mice(ds, iterations="3", seed=0)
    assert len(mice_impute(ds, m=np.int64(2), iterations=np.int64(1), seed=0)) == 2
    cat = [
        ColumnSpec("months", "continuous", role="time"),
        ColumnSpec("died", "binary", role="event"),
        ColumnSpec("grade", "categorical", levels=["a", "b"]),
    ]
    ds_cat = SurvivalDataset(cat, np.array([[1.0, 1.0, 0.0]]), np.zeros((1, 3), dtype=bool))
    with pytest.raises(SchemaError):
        mice_impute(ds_cat, m=2, iterations=1, seed=0)


def test_fully_missing_column_is_an_error():
    values = np.array([
        [1.0, 1.0, np.nan],
        [2.0, 0.0, np.nan],
        [3.0, 1.0, np.nan],
    ])
    ds = SurvivalDataset(cols_with(["x"]), values, np.isnan(values))
    with pytest.raises(DataError):
        mice_impute(ds, m=2, iterations=1, seed=0)


# -- fit/apply split ---------------------------------------------------------------


def test_apply_mice_is_deterministic_and_leakage_free():
    train, _ = mar_linear_dataset(seed=3)
    model = fit_mice(train, iterations=4, seed=11)
    new, x_new = mar_linear_dataset(seed=99, n=200)
    done1 = apply_mice(model, new)
    done2 = apply_mice(model, new)
    np.testing.assert_array_equal(done1.values, done2.values)
    assert not done1.missing_mask.any()
    # conditional-mean fills track the y = 2x structure reasonably well
    miss = new.missing_mask[:, 2]
    rmse = np.sqrt(np.mean((done1.values[miss, 2] - x_new[miss]) ** 2))
    obs_mean = new.values[~miss, 2].mean()
    rmse_mean = np.sqrt(np.mean((obs_mean - x_new[miss]) ** 2))
    assert rmse < rmse_mean


def test_apply_mice_schema_check():
    train, _ = mar_linear_dataset(seed=3)
    model = fit_mice(train, iterations=2, seed=1)
    other = SurvivalDataset(
        cols_with(["x", "y"]),
        np.array([[1.0, 1.0, 0.5, 0.2]]),
        np.zeros((1, 4), dtype=bool),
    )
    with pytest.raises(SchemaError):
        apply_mice(model, other)


def test_fit_mice_imputes_nan_cells_given_without_a_mask():
    """A NaN cell is missing whether or not a mask says so: cells set to NaN
    through replace_column_values, with no mask, are imputed like the
    generator's own missing cells, leaving no NaN covariate cell."""
    encoded, _ = dummy_encode(ensure_like(0)[0])
    ds = subset_rows(encoded, np.arange(600))
    x = ds.values[:, ds.col_index("x01")].copy()
    x[np.flatnonzero(~np.isnan(x))[:5]] = np.nan
    ds = replace_column_values(ds, "x01", x)
    done = fit_mice(ds, iterations=2, seed=0).completed_train
    assert np.isnan(done.values).sum() == 0
    assert not done.missing_mask.any()


def test_apply_mice_rejects_missing_outcomes():
    """A row without a follow-up time has no cumulative hazard to impute
    from, so it is rejected, not completed."""
    encoded, _ = dummy_encode(ensure_like(0)[0])
    ds = subset_rows(encoded, np.arange(300))
    model = fit_mice(ds, iterations=1, seed=0)
    t = ds.time.copy()
    t[:5] = np.nan
    with pytest.raises(DataError, match="outcomes must be complete"):
        apply_mice(model, replace_column_values(ds, "time", t))


@pytest.mark.parametrize("seed", [-1, -500, 1.5])
def test_chains_reject_a_seed_that_is_not_a_non_negative_integer(seed):
    ds, _ = mar_linear_dataset(seed=1, n=60)
    with pytest.raises(DataError, match="is not a non-negative integer"):
        fit_mice(ds, iterations=1, seed=seed)
    with pytest.raises(DataError, match="is not a non-negative integer"):
        mice_impute(ds, m=2, iterations=1, seed=seed)


def test_apply_mice_rejects_missing_in_column_complete_at_fit():
    train, _ = mar_linear_dataset(seed=3)
    model = fit_mice(train, iterations=2, seed=1)
    new, _ = mar_linear_dataset(seed=99, n=50)
    j = new.col_index("y")
    new.values[0, j] = np.nan
    with pytest.raises(DataError, match="'y'"):
        apply_mice(model, new)


complete_rows = st.integers(1, 25).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.floats(0.01, 100.0),
            st.sampled_from([0.0, 1.0]),
            *[st.floats(-1e6, 1e6, allow_subnormal=False)] * 3,
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=60, deadline=None)
@given(complete_rows)
def test_apply_mice_is_the_identity_on_complete_data(rows):
    model = fit_mice(mar_linear_dataset(seed=3)[0], iterations=2, seed=1)
    values = np.array(rows, dtype=float)
    ds = SurvivalDataset(cols_with(["x", "y", "z"]), values, np.zeros(values.shape, dtype=bool))
    done = apply_mice(model, ds)
    assert done.values.tobytes() == values.tobytes()
    assert not done.missing_mask.any()


# -- pinned outputs ------------------------------------------------------------------
# sha256 of the completed values on a 400-row ensure_like-shaped cohort with
# ten partly missing columns, recorded once the chains took each target's
# normal equations from a kept Gram matrix, and only after that chain
# matched the direct per-target chain (`reference_chain`, below) to 1e-12
# of column scale on this cohort. Any change to a drawn or filled cell
# changes them.

MICE_SHA256 = "b21c86acf217740ca0d7a0888ed51167668be74fe66a93f4768e40b330233bce"
FIT_APPLY_SHA256 = "beb7e82ca71748dbf0de86eb39f9dbf03bd4a578d2dda129376191096f6e6194"


def pinned_cohort():
    _, _, spec = ensure_like(0)
    ds, _ = generate(dataclasses.replace(spec, n=400), seed=3)
    return dummy_encode(ds)[0]


def values_sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_mice_impute_output_is_pinned():
    ds = pinned_cohort()
    assert ds.missing_mask.any(axis=0).sum() == 10
    iset = mice_impute(ds, m=3, iterations=4, seed=11)
    assert values_sha256(d.values for d in iset) == MICE_SHA256


def test_mice_impute_chains_are_fit_mice_runs():
    """Dataset i of m is the completed training rows of
    fit_mice(ds, iterations, seed + i), byte for byte. The chains run one
    after another on one design, so sets 1 and 2 match only if the start
    is restored bit for bit between chains, in continuous, binary and
    dummy-indicator targets alike. Each set's covariate matrix built from
    the draws has the bits and layout of the completed set's."""
    ds = pinned_cohort()
    missing = {c.name for c, miss in zip(ds.columns, ds.missing_mask.any(axis=0)) if miss}
    assert {"x03", "b2", "grade=g2"} <= missing
    iset = mice_impute(ds, m=3, iterations=2, seed=7)
    for i, done in enumerate(iset):
        chain = fit_mice(ds, iterations=2, seed=7 + i)
        assert done.values.tobytes() == chain.completed_train.values.tobytes()
        assert done.missing_mask.tobytes() == chain.completed_train.missing_mask.tobytes()
        assert iset.visit_order == chain.visit_order
        x, want = iset.covariate_matrix(i), done.covariate_matrix()[0]
        assert x.tobytes() == want.tobytes()
        assert x.strides == want.strides
    assert not any(d.missing_mask[:, 2:].any() for d in iset)


def test_imputation_set_keeps_the_cohort_once_and_the_drawn_cells_per_chain():
    """The set holds the cohort it was given and an (m, n_missing) array of
    draws; each index builds a new completed set, so changing one leaves the
    next build as it was."""
    ds = pinned_cohort()
    iset = mice_impute(ds, m=3, iterations=2, seed=7)
    assert iset.cohort is ds
    assert iset.draws.shape == (3, int(ds.missing_mask.sum()))
    assert len(iset) == 3
    np.testing.assert_array_equal(ds.missing_mask[iset.rows, iset.cols], True)
    want = iset[1].values.tobytes()
    built = iset[1]
    built.values[:] = 0.0
    assert iset[1].values.tobytes() == want
    assert iset[-1].values.tobytes() == iset[2].values.tobytes()
    with pytest.raises(IndexError):
        iset[3]


def test_fit_and_apply_mice_output_is_pinned():
    ds = pinned_cohort()
    model = fit_mice(subset_rows(ds, np.arange(300)), iterations=4, seed=5)
    done = apply_mice(model, subset_rows(ds, np.arange(300, 400)))
    assert values_sha256([model.completed_train.values, done.values]) == FIT_APPLY_SHA256


# -- the kept-Gram chain against the direct chain ------------------------------------


def reference_chain(ds, iterations, seed):
    """fit_mice as a direct per-target chain: each step gathers all rows of
    its predictors and forms X'X over the observed ones from scratch.
    Returns (completed dataset, final-sweep coefficients)."""
    hazard_fn = nelson_aalen(ds.time, ds.event)
    targets = impute._target_columns(ds)
    mask = ds.missing_mask
    means = {name: float(ds.values[~mask[:, j], j].mean()) for name, j in targets}
    design, steps = impute._chain_setup(ds, [name for name, _ in targets], means, hazard_fn)
    rng = np.random.default_rng(seed + 100)
    models = {}
    for _ in range(iterations):
        for name, col, cols, obs, mis in steps:
            x_all = design[:, cols]
            x_obs, y_obs = x_all[obs], design[obs, col]
            q = x_obs.shape[1]
            v = np.linalg.inv(x_obs.T @ x_obs + impute.RIDGE * np.eye(q))
            models[name] = beta_hat = v @ (x_obs.T @ y_obs)
            resid = y_obs - x_obs @ beta_hat
            chi2 = rng.chisquare(max(len(obs) - q, 1))
            sigma = float(np.sqrt(resid @ resid / max(chi2, 1e-12)))
            beta_dot = beta_hat + sigma * (np.linalg.cholesky(v) @ rng.standard_normal(q))
            design[mis, col] = x_all[mis] @ beta_dot + sigma * rng.standard_normal(len(mis))
    return impute._read_back(ds, design), models


def one_column_missing(rate):
    """2000 encoded ensure_like rows with x05 missing at about `rate`."""
    encoded, _ = dummy_encode(ensure_like(0)[0])
    ds = subset_rows(encoded, np.arange(2000))
    x = ds.values[:, ds.col_index("x05")].copy()
    x[np.random.default_rng(1).random(len(x)) < rate] = np.nan
    return replace_column_values(ds, "x05", x)


@pytest.mark.parametrize("case, tol", [
    ("pinned", 1e-12),
    (0.5, 1e-12),
    (0.9, 1e-12),
    # 36 observed rows for 36 predictors: the saturated fill makes later
    # steps' normal equations condition ~1e6, so rounding differences grow;
    # the direct chain itself moves 4.3e-12 when only the summation order
    # of its X'X changes, this chain reads 2.0e-11, and subtracting on the
    # smaller side too reads 3.2e-10
    (0.98, 1e-10),
])
def test_fit_mice_matches_the_direct_chain(case, tol):
    ds = pinned_cohort() if case == "pinned" else one_column_missing(case)
    chain = fit_mice(ds, iterations=4, seed=11)
    done, models = reference_chain(ds, iterations=4, seed=11)
    got, want = chain.completed_train.values, done.values
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= tol * scale)
    assert chain.models.keys() == models.keys()
    for name, beta in models.items():
        assert np.abs(chain.models[name] - beta).max() <= tol * np.abs(beta).max()


def test_fit_mice_warns_on_a_saturated_target():
    """36 observed rows of x05 face 36 predictors: the chain still draws,
    and says the target's model is saturated; at 90% missing it is not."""
    with pytest.warns(ImputationWarning, match="'x05' has 36 observed rows for 36 predictors"):
        fit_mice(one_column_missing(0.98), iterations=1, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ImputationWarning)
        fit_mice(one_column_missing(0.9), iterations=1, seed=11)


def test_mice_impute_warns_once_per_call_on_a_saturated_target():
    """The m chains share one start, so a saturated target warns once for
    the call, not once per chain."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mice_impute(one_column_missing(0.98), m=3, iterations=1, seed=11)
    saturated = [w for w in caught if issubclass(w.category, ImputationWarning)]
    assert [str(w.message)[:33] for w in saturated] == ["column 'x05' has 36 observed rows"]


def test_a_covariate_too_large_to_square_fails_the_chain():
    """One cell of 1e300 overflows the Gram, which would make the draws
    NaN: the chain stops with a ComputationError naming the step's column
    and the covariate whose sum of squares overflowed, and numpy prints no
    overflow warning."""
    ds = pinned_cohort()
    j = ds.col_index("x01")
    ds.values[np.flatnonzero(~ds.missing_mask[:, j])[0], j] = 1e300
    too_large = r"imputation model of column '\w+' has non-finite .*not finite: \['x01'\]\)"
    with pytest.raises(ComputationError, match=too_large):
        fit_mice(ds, iterations=1, seed=0)
    with pytest.raises(ComputationError, match=too_large):
        mice_impute(ds, m=2, iterations=1, seed=0)


def test_a_non_finite_draw_fails_the_chain(monkeypatch):
    """A draw that is not finite is never written into a completed set."""
    draw = impute._bayes_draw
    monkeypatch.setattr(impute, "_bayes_draw",
                        lambda *args: (*draw(*args)[:2], float("inf")))
    with pytest.raises(ComputationError, match=r"imputation draws of column '\w+' are not finite"):
        fit_mice(pinned_cohort(), iterations=1, seed=0)


# -- the chains on worker processes ---------------------------------------------


def pooled(monkeypatch, workers=2):
    """Make `mice_impute` run its chains on `workers` processes, whatever
    the CPU count."""
    monkeypatch.setattr(impute, "mice_workers", lambda m: min(m, workers))


def test_pooled_chains_are_fit_mice_runs_and_leave_no_worker(monkeypatch):
    """Chains on four workers, more than most test machines have CPUs,
    each writing its own row of the shared draws, give the bits of the
    chains in this process, each set those of its `fit_mice` run, and the
    workers are gone when the call returns."""
    ds = pinned_cohort()
    pooled(monkeypatch, workers=1)
    here = mice_impute(ds, m=5, iterations=2, seed=7)
    pooled(monkeypatch, workers=4)
    iset = mice_impute(ds, m=5, iterations=2, seed=7)
    assert multiprocessing.active_children() == []
    assert iset.draws.tobytes() == here.draws.tobytes()
    for i, done in enumerate(iset):
        chain = fit_mice(ds, iterations=2, seed=7 + i).completed_train
        assert done.values.tobytes() == chain.values.tobytes()


def test_a_chain_error_reaches_the_caller_from_a_worker(monkeypatch):
    """A chain that fails on a worker raises its own error type and
    message in the caller, the first failing chain's when several fail, and
    leaves no worker behind."""
    ds = pinned_cohort()
    j = ds.col_index("x01")
    ds.values[np.flatnonzero(~ds.missing_mask[:, j])[0], j] = 1e300
    pooled(monkeypatch)
    with pytest.raises(ComputationError, match=r"not finite: \['x01'\]\)") as caught:
        mice_impute(ds, m=3, iterations=1, seed=0)
    assert type(caught.value) is ComputationError
    assert multiprocessing.active_children() == []

    sweeps = impute._chain_sweeps

    def fails_from_seed_8(start, seed):
        if seed >= 8:
            raise DataError(f"chain of seed {seed} failed")
        return sweeps(start, seed)

    monkeypatch.setattr(impute, "_chain_sweeps", fails_from_seed_8)
    with pytest.raises(DataError, match="^chain of seed 8 failed$"):
        mice_impute(pinned_cohort(), m=4, iterations=1, seed=7)
    assert multiprocessing.active_children() == []


def test_a_bad_seed_fails_before_any_worker_starts(monkeypatch):
    pooled(monkeypatch)

    def never(*args):
        raise AssertionError("reached past the seed check")

    monkeypatch.setattr(impute, "_chain_start", never)
    monkeypatch.setattr(impute, "_pooled", never)
    with pytest.raises(DataError, match="seed=-1 is not a non-negative integer"):
        mice_impute(pinned_cohort(), m=2, iterations=1, seed=-1)


def test_chains_do_not_depend_on_the_callers_blas_threads():
    """The chains run at one BLAS thread whatever the caller set, so chain
    i of `mice_impute` under two threads is `fit_mice` under one, bit for
    bit, on a cohort large enough for OpenBLAS to split its products (at
    12000 rows a chain run at two threads moved)."""
    if not _blas._openblas():
        pytest.skip("no OpenBLAS thread control in this process")
    spec = dataclasses.replace(ensure_like(0)[2], n=12000)
    ds = dummy_encode(generate(spec, seed=0)[0])[0]
    with _blas.blas_threads(1):
        alone = fit_mice(ds, iterations=1, seed=4).completed_train
    with _blas.blas_threads(2):
        iset = mice_impute(ds, m=1, iterations=1, seed=4)
        assert fit_mice(ds, iterations=1, seed=4).completed_train.values.tobytes() == (
            alone.values.tobytes())
    assert iset[0].values.tobytes() == alone.values.tobytes()


def test_chain_setup_fills_the_design_of_a_column_stack():
    """The preallocated design has the bits and the column-major layout of
    the design stacked from the covariate columns, with the mean fill."""
    ds = pinned_cohort()
    hazard_fn = nelson_aalen(ds.time, ds.event)
    targets = impute._target_columns(ds)
    mask = ds.missing_mask
    means = {name: float(ds.values[~mask[:, j], j].mean()) for name, j in targets}
    design, steps = impute._chain_setup(ds, [name for name, _ in targets], means, hazard_fn)
    cov_idx = [j for j, c in enumerate(ds.columns) if c.role == "covariate"]
    want = np.column_stack(
        [np.ones(ds.n_rows), ds.values[:, cov_idx], ds.event, hazard_fn(ds.time)])
    for name, col, _, _, mis in steps:
        want[mis, col] = means[name]
    assert design.tobytes("A") == want.tobytes("A")
    assert design.flags.f_contiguous and want.flags.f_contiguous
    assert design.strides == want.strides


def singular_cohort():
    """Six ensure_like rows with every covariate x1e6: with fewer observed
    rows than predictors the Gram block is rank-deficient, and at entries
    near 1e12 the absolute ridge adds nothing, so it is exactly singular."""
    ds, _ = dummy_encode(ensure_like(seed=0)[0])
    ds = subset_rows(ds, [1216, 1471, 2058, 2266, 2826, 3312])
    cols = [c if c.role != "covariate" else ColumnSpec(c.name, "continuous") for c in ds.columns]
    cov = [j for j, c in enumerate(cols) if c.role == "covariate"]
    values = ds.values.copy()
    values[:, cov] *= 1e6
    return SurvivalDataset(cols, values, row_ids=ds.row_ids.copy())


def test_fit_mice_names_the_target_of_a_singular_draw():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImputationWarning)
        with pytest.raises(ComputationError, match="imputation model of column '.+' is singular"):
            fit_mice(singular_cohort(), iterations=1, seed=0)

def test_apply_mice_bytes_equal_the_full_gather():
    """Gathering only the missing rows of the predictors gives the same
    bits as gathering every row and then selecting the missing ones."""
    ds = pinned_cohort()
    model = fit_mice(subset_rows(ds, np.arange(300)), iterations=3, seed=5)
    new = subset_rows(ds, np.arange(300, 400))
    design, steps = impute._chain_setup(new, model.visit_order, model.means, model.hazard_fn)
    for _ in range(model.iterations):
        for name, col, cols, _, mis in steps:
            rows = np.zeros(new.n_rows, dtype=bool)
            rows[mis] = True
            design[mis, col] = design[:, cols][rows] @ model.models[name]
    assert apply_mice(model, new).values.tobytes() == impute._read_back(new, design).values.tobytes()


# -- Rubin pooling -----------------------------------------------------------------


def test_pool_rubin_hand_case():
    """Estimates 1, 2, 3 with unit variances: W=1, B=1, T = 1 + (4/3)."""
    p = pool_rubin([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert p.point == 2.0
    assert p.within == 1.0
    assert p.between == 1.0
    assert p.total == pytest.approx(1.0 + 4.0 / 3.0)
    assert p.se == pytest.approx(np.sqrt(7.0 / 3.0))
    assert p.df == pytest.approx(2 * (1.0 + 1.0 / (4.0 / 3.0)) ** 2)
    assert p.ci_low < p.point < p.ci_high


def test_pool_rubin_degenerate_between_variance():
    # identical estimates: B is exactly zero and the interval is normal-based
    p = pool_rubin([1.5, 1.5, 1.5], [0.04, 0.04, 0.04])
    assert p.between == 0.0
    assert p.total == p.within
    assert p.df == float("inf")
    assert p.ci_low == pytest.approx(1.5 - 1.959963984540054 * 0.2)
    assert p.ci_high == pytest.approx(1.5 + 1.959963984540054 * 0.2)


def test_pool_rubin_tail_values_equal_scipy_stats():
    """The t and normal quantiles and tails come from scipy.special; they
    must equal scipy.stats' bit for bit on both branches (b > 0 and b == 0),
    df from m - 1 to beyond 1e30."""
    from scipy import stats

    rng = np.random.default_rng(43)
    cases = [
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, 1.0 + 1e-14, 1.0], [1e3, 1e3, 1e3]),  # b > 0, df ~ 1e63
        ([1.5, 1.5, 1.5], [0.04, 0.04, 0.04]),  # b == 0
        ([-0.2, -0.2], [1e-6, 3e-6]),
    ]
    for _ in range(300):
        m = int(rng.integers(2, 12))
        q = rng.normal(rng.normal(0.0, 2.0), 10.0 ** rng.uniform(-8, 1), m)
        cases.append((q, 10.0 ** rng.uniform(-4, 2, m)))
    dfs = []
    for q, u in cases:
        p = pool_rubin(q, u)
        z = abs(p.point) / p.se
        if p.between > 0:
            quantile, sf = stats.t.ppf(0.975, p.df), stats.t.sf(z, p.df)
            dfs.append(p.df)
        else:
            assert p.df == float("inf")
            quantile, sf = stats.norm.ppf(0.975), stats.norm.sf(z)
        assert p.ci_low == p.point - float(quantile) * p.se
        assert p.ci_high == p.point + float(quantile) * p.se
        assert p.p_value == 2.0 * float(sf)
    assert min(dfs) < 3.0 and max(dfs) > 1e30


def test_pool_rubin_validation():
    with pytest.raises(DataError):
        pool_rubin([1.0], [1.0])
    with pytest.raises(DataError):
        pool_rubin([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(DataError):
        pool_rubin([1.0, 2.0], [1.0])
    # a NaN variance used to give a NaN se and p-value, a NaN estimate df=inf
    for q, u in (([1.0, 2.0], [np.nan, 1.0]), ([1.0, np.nan], [1.0, 1.0]),
                 ([1.0, np.inf], [1.0, 1.0]), ([1.0, 2.0], [1.0, np.inf])):
        with pytest.raises(DataError, match="finite"):
            pool_rubin(q, u)


# -- persistence -------------------------------------------------------------------


def test_save_imputation_set(tmp_path):
    """`survkit impute` writes the m completed datasets and a provenance
    record naming them."""
    ds, _ = mar_linear_dataset(seed=8, n=40)
    data, schema, out = tmp_path / "cohort.csv", tmp_path / "schema.json", tmp_path / "run"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    assert main(["impute", "--data", str(data), "--schema", str(schema), "--m", "3",
                 "--iterations", "2", "--seed", "5", "--out", str(out)]) == 0
    files = json.loads((out / "imputation.json").read_text(encoding="utf-8"))["files"]
    assert files == ["completed_01.csv", "completed_02.csv", "completed_03.csv"]
    for f in files:
        assert (out / f).exists()
    prov = (out / "imputation.json").read_text(encoding="utf-8")
    assert '"m": 3' in prov
    assert '"n_missing_cells"' in prov
