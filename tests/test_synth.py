"""Generator tests: marginal distributions, censoring control, ground truth."""

import re

import numpy as np
import pytest
from scipy import stats as sstats

from survkit.coxph import fit_coxph
from survkit.errors import ConfigError
from survkit.synth import (
    CovariateSpec,
    GeneratorSpec,
    MissingRule,
    ensure_like,
    generate,
    spec_from_dict,
)


def plain_spec(**kw):
    base = dict(
        n=2000,
        covariates=[
            CovariateSpec("x1", "continuous", (0.0, 1.0)),
            CovariateSpec("x2", "continuous", (0.0, 1.0)),
        ],
        beta={},
        shape=1.0,
        scale=10.0,
        censoring_fraction=0.0,
    )
    base.update(kw)
    return GeneratorSpec(**base)


# -- determinism and basic shape -----------------------------------------------------


def test_generation_is_deterministic():
    spec = plain_spec(beta={"x1": 0.5})
    a, ta = generate(spec, seed=3)
    b, tb = generate(spec, seed=3)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.missing_mask, b.missing_mask)
    assert ta.oracle_c == tb.oracle_c
    c, _ = generate(spec, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_dataset_has_outcome_and_id_columns():
    ds, truth = generate(plain_spec(), seed=0)
    assert ds.n_rows == 2000
    assert ds.column_names[:3] == ["id", "time", "event"]
    assert ds.covariate_names == ["x1", "x2"]
    assert truth.encoded_names == ["x1", "x2"]
    assert not np.isnan(ds.time).any()


# -- marginal distributions ------------------------------------------------------------


def test_null_model_times_are_exponential():
    """shape 1 and beta 0 make event times Exp(scale); KS should not reject."""
    ds, _ = generate(plain_spec(n=4000), seed=1)
    stat = sstats.kstest(ds.time, "expon", args=(0.0, 10.0))
    assert stat.pvalue > 0.01


def test_weibull_shape_is_respected():
    ds, _ = generate(plain_spec(n=4000, shape=2.0), seed=2)
    stat = sstats.kstest(ds.time, sstats.weibull_min(c=2.0, scale=10.0).cdf)
    assert stat.pvalue > 0.01


def test_oracle_c_is_half_without_signal():
    _, truth = generate(plain_spec(n=3000, censoring_fraction=0.3), seed=5)
    assert abs(truth.oracle_c - 0.5) < 0.03


def test_censoring_fraction_is_tuned():
    for target in (0.2, 0.4114, 0.6):
        _, truth = generate(plain_spec(n=5000, censoring_fraction=target), seed=7)
        assert truth.event_fraction == pytest.approx(1.0 - target, abs=0.025)
    _, truth0 = generate(plain_spec(censoring_fraction=0.0), seed=7)
    assert truth0.event_fraction == 1.0


# -- effect recovery --------------------------------------------------------------------


def test_cox_fit_recovers_the_planted_coefficients():
    spec = plain_spec(
        n=4000, beta={"x1": 0.7, "x2": -0.5}, shape=1.3, censoring_fraction=0.3
    )
    ds, truth = generate(spec, seed=11)
    x, mask, names = ds.covariate_matrix()
    assert not mask.any()
    model = fit_coxph(x, ds.time, ds.event, names=names)
    assert abs(model.beta[names.index("x1")] - 0.7) < 0.08
    assert abs(model.beta[names.index("x2")] + 0.5) < 0.08
    assert truth.oracle_c > 0.6


def test_categorical_effects_enter_through_encoded_names():
    spec = plain_spec(
        n=3000,
        covariates=[
            CovariateSpec("grade", "categorical", {"g1": 0.5, "g2": 0.3, "g3": 0.2}),
        ],
        beta={"grade=g3": 0.9},
        censoring_fraction=0.2,
    )
    ds, truth = generate(spec, seed=13)
    assert truth.encoded_names == ["grade=g2", "grade=g3"]
    assert truth.beta == {"grade=g2": 0.0, "grade=g3": 0.9}
    # rows in g3 carry the full effect in the stored linear predictor
    g3 = ds.values[:, ds.col_index("grade")] == 2.0
    np.testing.assert_allclose(truth.eta[g3], 0.9)
    np.testing.assert_allclose(truth.eta[~g3], 0.0)


def test_beta_naming_is_validated():
    with pytest.raises(ConfigError):
        generate(plain_spec(beta={"nope": 1.0}), seed=0)


# -- MAR missingness ---------------------------------------------------------------------


def test_mar_rates_hit_their_targets():
    spec = plain_spec(
        n=6000,
        missing_rules=[
            MissingRule("x1", 0.15, drivers=["x2"], weights=[0.8]),
        ],
    )
    ds, _ = generate(spec, seed=17)
    j = ds.col_index("x1")
    rate = ds.missing_mask[:, j].mean()
    assert rate == pytest.approx(0.15, abs=0.02)
    # outcomes stay complete no matter what
    assert not ds.missing_mask[:, ds.col_index("time")].any()
    assert not ds.missing_mask[:, ds.col_index("event")].any()


def test_mar_mask_depends_on_the_driver():
    spec = plain_spec(
        n=8000,
        missing_rules=[MissingRule("x1", 0.2, drivers=["x2"], weights=[1.5])],
    )
    ds, _ = generate(spec, seed=19)
    j1, j2 = ds.col_index("x1"), ds.col_index("x2")
    miss = ds.missing_mask[:, j1]
    driver = ds.values[:, j2]
    # positive weight: high-driver rows lose their cells far more often
    hi = miss[driver > np.median(driver)].mean()
    lo = miss[driver <= np.median(driver)].mean()
    assert hi > 2.0 * lo


def test_center_shifts_modulate_missingness():
    spec = plain_spec(
        n=10000,
        n_centers=2,
        center_probs=[0.5, 0.5],
        missing_rules=[
            MissingRule("x1", 0.2, drivers=["x2"], weights=[0.1],
                        center_shifts=[1.0, -1.0]),
        ],
    )
    ds, _ = generate(spec, seed=23)
    center = ds.values[:, ds.col_index("center")]
    miss = ds.missing_mask[:, ds.col_index("x1")]
    assert miss[center == 0.0].mean() > miss[center == 1.0].mean() + 0.05


# -- spec round trip -----------------------------------------------------------------------


def test_spec_from_dict():
    doc = {
        "n": 100,
        "covariates": [
            {"name": "age", "kind": "continuous", "mean": 60.0, "sd": 8.0},
            {"name": "male", "kind": "binary", "p": 0.6},
            {"name": "grade", "kind": "categorical", "levels": {"a": 0.7, "b": 0.3}},
        ],
        "beta": {"age": 0.02, "grade=b": 0.5},
        "shape": 1.2,
        "scale": 30.0,
        "censoring_fraction": 0.25,
        "missing_rules": [
            {"column": "age", "target_rate": 0.1, "drivers": ["male"], "weights": [0.4]}
        ],
    }
    spec = spec_from_dict(doc)
    assert spec.n == 100
    assert spec.covariates[0].params == (60.0, 8.0)
    assert spec.covariates[2].params == {"a": 0.7, "b": 0.3}
    assert spec.missing_rules[0].column == "age"
    ds, truth = generate(spec, seed=1)
    assert ds.n_rows == 100
    with pytest.raises(ConfigError):
        spec_from_dict({"n": 10, "covariates": [{"name": "x", "kind": "fancy"}]})
    # a key or a value the reader would ignore or misread is an error naming it
    age = doc["covariates"][0]
    for bad, message in (
        ({"censoring_fration": 0.3}, "synth spec: unknown key 'censoring_fration'"),
        ({"n": 100.7}, "synth spec: n=100.7 is not a valid int"),
        ({"n": True}, "synth spec: n=True is not a valid int"),
        ({"shape": float("inf")}, "synth spec: shape=inf is not a valid float"),
        ({"n_centers": 2, "center_probs": [0.5, float("nan")]},
         "synth spec: center_probs=[0.5, nan] is not a valid list[float] | None"),
        ({"covariates": [{**age, "mean": float("nan")}]},
         "synth spec: covariates[0]: mean=nan is not a valid float"),
        ({"covariates": [{**age, "p": 0.5}]}, "covariates[0]: unknown key 'p'"),
        ({"missing_rules": [{"column": "age", "target_rate": 0.1, "driver": ["male"]}]},
         "missing_rules[0]: unknown key 'driver'"),
        ({"beta": [0.1]}, "synth spec: beta=[0.1] is not a valid dict[str, float]"),
        # a string where a list or an object belongs is not read item by item
        ({"n_centers": 5, "missing_rules": [{"column": "age", "target_rate": 0.1,
                                             "center_shifts": "12345"}]},
         "synth spec: missing_rules[0]: center_shifts='12345' is not a valid list[float] | None"),
        ({"missing_rules": [{"column": "age", "target_rate": 0.1, "drivers": ["male"],
                             "weights": "5"}]},
         "synth spec: missing_rules[0]: weights='5' is not a valid list[float]"),
        ({"covariates": {"a": 1}}, "synth spec: covariates={'a': 1} is not a valid"),
        ({"covariates": [{**doc["covariates"][2], "levels": ["a", "b"]}]},
         "synth spec: covariates[0]: levels=['a', 'b'] is not a valid dict[str, float]"),
        ({"covariates": [{**age, "name": 7}]}, "synth spec: covariates[0]: name=7 is not a valid str"),
        # a number is a JSON number, never a numeric string
        ({"censoring_fraction": "0.25"}, "synth spec: censoring_fraction='0.25' is not a valid float"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec_from_dict({**doc, **bad})
    # range rules fail at load, not when the cohort is generated
    male = doc["covariates"][1]
    with pytest.raises(ConfigError, match=re.escape("covariate 'male': p must be in")):
        spec_from_dict({**doc, "covariates": [age, {**male, "p": 1.5}, doc["covariates"][2]]})
    # center probabilities are checked as level probabilities are, not by numpy
    for bad, message in (
        ({"n_centers": 0}, "n_centers must be >= 1"),
        ({"n_centers": 2, "center_probs": [0.7, 0.7]}, "center_probs must be"),
        ({"n_centers": 2, "center_probs": [0.5, 0.3, 0.2]}, "center_probs must be"),
        ({"n_centers": 2, "center_probs": [1.5, -0.5]}, "center_probs must be"),
    ):
        with pytest.raises(ConfigError, match=message):
            spec_from_dict({**doc, **bad})


# -- the bundled registry-like cohort ---------------------------------------------------------


def test_registry_like_cohort_hits_its_design_targets():
    ds, truth, spec = ensure_like(seed=0)
    assert ds.n_rows == 3921
    assert len(truth.encoded_names) == 34
    assert 0.72 <= truth.oracle_c <= 0.78
    assert 0.55 <= truth.event_fraction <= 0.63
    assert 20.0 <= truth.median_followup <= 40.0
    # the five-center column is present and not dummy-coded
    center_col = ds.column("center")
    assert center_col.role == "center"
    assert center_col.levels == ["c0", "c1", "c2", "c3", "c4"]
    # declared MAR columns actually lose cells; everything else stays complete
    ruled = {r.column for r in spec.missing_rules}
    for j, col in enumerate(ds.columns):
        rate = ds.missing_mask[:, j].mean()
        if col.name in ruled:
            assert rate > 0.01
        else:
            assert rate == 0.0


def test_registry_like_cohort_is_seed_stable():
    a, ta, _ = ensure_like(seed=1)
    b, tb, _ = ensure_like(seed=1)
    np.testing.assert_array_equal(a.values, b.values)
    assert ta.oracle_c == tb.oracle_c
