"""Generator tests: marginal distributions, censoring control, ground truth."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from survkit.coxph import fit_coxph
from survkit.errors import ConfigError, DataError
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
            CovariateSpec("x1", "continuous", mean=0.0, sd=1.0),
            CovariateSpec("x2", "continuous", mean=0.0, sd=1.0),
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
            CovariateSpec("grade", "categorical", levels={"g1": 0.5, "g2": 0.3, "g3": 0.2}),
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
    with pytest.raises(DataError, match=re.escape("beta names unknown encoded columns: ['nope']")):
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


def test_a_spec_record_built_directly_checks_its_fields():
    """A wrongly typed field is a ConfigError, and an out-of-range one a
    DataError, as its record is built, not a raw error inside the
    generator."""
    cov = [CovariateSpec("x", "continuous", mean=0.0, sd=1.0)]
    for build, message in (
        (lambda: GeneratorSpec(n="5", covariates=cov), "synth spec: n='5' is not a valid int"),
        (lambda: GeneratorSpec(n=5.5, covariates=cov), "synth spec: n=5.5 is not a valid int"),
        (lambda: GeneratorSpec(n=50, covariates=cov, beta={"x": "1"}), "beta={'x': '1'}"),
        (lambda: CovariateSpec(["x"], "binary", p=0.5), "synth spec: name=['x'] is not a valid str"),
        (lambda: CovariateSpec("x", ["binary"], p=0.5), "synth spec: kind=['binary'] is not a valid str"),
        (lambda: MissingRule("x", "0.1"), "synth spec: target_rate='0.1' is not a valid float"),
        (lambda: MissingRule("x", 0.1, drivers=["b"], weights=(0.5,)), "weights=(0.5,)"),
        (lambda: CovariateSpec("x", "binary", p="0.5"), "synth spec: p='0.5' is not a valid float"),
        (lambda: CovariateSpec("x", "continuous", mean=[0.0, 1.0]), "mean=[0.0, 1.0] is not a valid float"),
        (lambda: CovariateSpec("x", "continuous", (0.0, 1.0, 2.0)), "mean=(0.0, 1.0, 2.0) is not a valid"),
        (lambda: CovariateSpec("x", "continuous", (0.0, float("nan"))), "sd=nan is not a valid float"),
        (lambda: CovariateSpec("g", "categorical", levels={"a": "1"}), "levels={'a': '1'} is not a valid"),
        (lambda: CovariateSpec("g", "categorical", levels=["a", "b"]), "levels=['a', 'b'] is not a valid"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()
    for build, message in (
        (lambda: CovariateSpec("g", "categorical", levels={}), "'g': level probabilities must sum to 1"),
        (lambda: CovariateSpec("g", "categorical", levels={"a": 1.5, "b": -0.5}),
         "'g': level probabilities must sum to 1"),
        (lambda: CovariateSpec("m", "binary", p=1.5), "p must be in [0, 1], got 1.5"),
        (lambda: CovariateSpec("x", "continuous", sd=-1.0), "sd must be non-negative, got -1.0"),
        (lambda: MissingRule("x", 1.0), "target_rate must be in [0, 1), got 1.0"),
        (lambda: MissingRule("x", 0.1, drivers=["b"]), "rule for 'x': drivers/weights length mismatch"),
        (lambda: GeneratorSpec(n=1, covariates=cov), "n must be >= 2, got 1"),
    ):
        with pytest.raises(DataError, match=re.escape(message)):
            build()
    with pytest.raises(DataError, match="unknown kind 'fancy'"):
        CovariateSpec("x", "fancy")
    # a (mean, sd) tuple of ints or floats may stand in `mean`'s place
    for pair in ((0, 1), (0.0, 2)):
        assert CovariateSpec("x", "continuous", pair) == CovariateSpec("x", "continuous", *pair)


@pytest.mark.parametrize("kind, fields, message", [
    ("binary", {"mean": 0.4}, "unknown key 'mean' (known: name, kind, p)"),
    ("binary", {"sd": 0.0, "p": 0.3, "levels": {"x": 1.0}}, "unknown key 'levels'"),
    ("continuous", {"p": 0.3}, "unknown key 'p' (known: name, kind, mean, sd)"),
    ("categorical", {"levels": {"a": 1.0}, "sd": 2.0}, "unknown key 'sd' (known: name, kind, levels)"),
])
def test_a_field_outside_the_covariate_kind_is_refused(kind, fields, message):
    """Another kind's field away from its default is the JSON reader's
    unknown-key error on the Python path too, naming the first such field
    in key order, as the reader does."""
    with pytest.raises(DataError, match=re.escape(message)):
        CovariateSpec("b", kind, **fields)
    with pytest.raises(ConfigError, match=re.escape(f"synth spec: covariates[0]: {message}")):
        spec_from_dict({"n": 10, "covariates": [{"name": "b", "kind": kind, **fields}]})


def test_a_positional_mean_cannot_leave_a_binary_p_at_its_default():
    """CovariateSpec("b", "binary", 0.4) puts 0.4 in `mean`, which a binary
    covariate never reads: refused, not a cohort with p = 0.5. Another
    kind's field at its default changes nothing."""
    with pytest.raises(DataError, match="unknown key 'mean'"):
        CovariateSpec("b", "binary", 0.4)
    assert CovariateSpec("b", "binary", mean=0.0, p=0.3) == CovariateSpec("b", "binary", p=0.3)


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
    assert spec.covariates == [CovariateSpec("age", "continuous", mean=60.0, sd=8.0),
                               CovariateSpec("male", "binary", p=0.6),
                               CovariateSpec("grade", "categorical", levels={"a": 0.7, "b": 0.3})]
    assert spec.missing_rules[0].column == "age"
    ds, truth = generate(spec, seed=1)
    assert ds.n_rows == 100
    with pytest.raises(ConfigError, match=re.escape("synth spec: covariates[0]: unknown kind 'fancy'")):
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
        # a key of another kind is refused, whatever its value
        ({"covariates": [{"name": "m", "kind": "binary", "mean": 0.0}]},
         "synth spec: covariates[0]: unknown key 'mean' (known: name, kind, p)"),
        ({"covariates": [{"name": "m", "kind": "binary", "levels": {"a": 1.0}}]},
         "synth spec: covariates[0]: unknown key 'levels'"),
        # a rule's own range rules read as they do when the rule is built directly,
        # after the path of the rule
        ({"missing_rules": [{"column": "age", "target_rate": 1.0}]},
         "synth spec: missing_rules[0]: target_rate must be in [0, 1), got 1.0"),
        ({"missing_rules": [{"column": "age", "target_rate": 0.1, "drivers": ["male"]}]},
         "synth spec: missing_rules[0]: rule for 'age': drivers/weights length mismatch"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec_from_dict({**doc, **bad})
    # range rules fail at load, not when the cohort is generated
    male = doc["covariates"][1]
    with pytest.raises(ConfigError, match=re.escape(
            "synth spec: covariates[1]: p must be in [0, 1], got 1.5")):
        spec_from_dict({**doc, "covariates": [age, {**male, "p": 1.5}, doc["covariates"][2]]})
    # center probabilities are checked as level probabilities are, not by numpy
    for bad, message in (
        ({"n_centers": 0}, "synth spec: n_centers must be >= 1, got 0"),
        ({"n_centers": 2, "center_probs": [0.7, 0.7]}, "synth spec: center_probs must be"),
        ({"n_centers": 2, "center_probs": [0.5, 0.3, 0.2]}, "synth spec: center_probs must be"),
        ({"n_centers": 2, "center_probs": [1.5, -0.5]}, "synth spec: center_probs must be"),
    ):
        with pytest.raises(ConfigError, match=message):
            spec_from_dict({**doc, **bad})


# by kind: the keys a spec document's covariate takes besides `name` and `kind`
KIND_KEYS = {"continuous": ["mean", "sd"], "binary": ["p"], "categorical": ["levels"]}
NUMBER = st.integers(-2, 2) | st.floats(-2.0, 2.0)
LEVELS = st.sampled_from([{"a": 1.0}, {"a": 0.4, "b": 0.6}, {"a": 0.5, "b": 0.3, "c": 0.2}])
# each a JSON value of the wrong type for some field, or a number no field takes
WRONG = st.sampled_from([[0.5], {"a": 0.5}, "0.5", True, None, math.nan, math.inf, 10**400, 2.5])


def pick(draw, valid, bad):
    """A draw from `valid`, or about one time in twelve from `bad`."""
    # not a bound: hypothesis draws 0 and 11 far more often than one time in twelve
    return draw(bad if draw(st.integers(0, 11)) == 7 else valid)


def degrade(draw, doc, foreign, keep):
    """`doc` kept (`keep` times in `keep` + 3), or with one key dropped, a
    `foreign` key added or one value replaced by a wrongly typed one."""
    action = draw(st.sampled_from(["keep"] * keep + ["drop", "foreign", "wrong"]))
    if action == "foreign":
        doc[draw(st.sampled_from(foreign))] = draw(NUMBER | LEVELS)
    elif action != "keep" and doc:
        key = draw(st.sampled_from(sorted(doc)))
        if action == "drop":
            del doc[key]
        else:
            doc[key] = draw(WRONG)
    return doc


@st.composite
def covariate_docs(draw, name):
    kind = pick(draw, st.sampled_from(list(KIND_KEYS)), st.just("fancy"))
    own = {"mean": draw(NUMBER), "sd": pick(draw, st.floats(0.0, 3.0), st.just(-0.5)),
           "p": pick(draw, st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5])),
           "levels": pick(draw, LEVELS, st.sampled_from([{}, {"a": 0.7, "b": 0.7}, {"a": 1.5, "b": -0.5}]))}
    # a categorical covariate needs its levels; the other keys have defaults
    keys = ["levels"] if kind == "categorical" else draw(
        st.lists(st.sampled_from(KIND_KEYS.get(kind, ["mean"])), unique=True))
    doc = {"name": name, "kind": kind, **{key: own[key] for key in keys}}
    others = [key for keys in KIND_KEYS.values() for key in keys if key not in doc]
    return degrade(draw, doc, [*others, "params"], keep=5)


@st.composite
def rule_docs(draw, names):
    drivers = draw(st.lists(st.sampled_from(names), max_size=2))
    doc = {"column": pick(draw, st.sampled_from(names), st.just("ghost")),
           "target_rate": pick(draw, st.floats(0.0, 0.9), st.sampled_from([-0.1, 1.0])),
           "drivers": drivers, "weights": [draw(NUMBER) for _ in range(pick(draw, st.just(len(drivers)),
                                                                            st.just(len(drivers) + 1)))]}
    if draw(st.booleans()):
        doc["center_shifts"] = draw(st.lists(NUMBER, max_size=3))
    return degrade(draw, doc, ["driver", "mean"], keep=8)


@st.composite
def spec_docs(draw):
    """A synth spec document: covariates of each kind with their own keys,
    missing rules and the top-level keys, now and then one of them out of
    range, of the wrong type, missing or joined by a foreign key."""
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=3))
    n_centers = pick(draw, st.integers(1, 3), st.just(0))
    doc = {"n": pick(draw, st.integers(2, 50), st.integers(-1, 1)),
           "covariates": [draw(covariate_docs(name)) for name in names],
           "beta": {**draw(st.dictionaries(st.sampled_from(names), NUMBER, max_size=2)),
                    **pick(draw, st.just({}), st.just({"zz": 0.5}))},
           "shape": pick(draw, st.floats(0.1, 3.0), st.just(0.0)),
           "scale": pick(draw, st.floats(0.1, 3.0), st.just(-1.0)),
           "censoring_fraction": pick(draw, st.floats(0.0, 0.9), st.sampled_from([-0.1, 1.0])),
           "missing_rules": draw(st.lists(rule_docs(names), max_size=2)),
           "n_centers": n_centers}
    if draw(st.booleans()):
        doc["center_probs"] = pick(draw, st.just([1.0 / max(n_centers, 1)] * n_centers),
                                   st.sampled_from([[0.7, 0.7], [1.5, -0.5], [1.0]]))
    return degrade(draw, doc, ["censoring_fration", "params"], keep=13)


@settings(max_examples=300, deadline=None)
@given(doc=spec_docs())
def test_a_spec_document_reads_into_a_spec_or_a_config_error(doc):
    try:
        spec = spec_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(spec, GeneratorSpec)


@st.composite
def python_specs(draw):
    """A valid GeneratorSpec built from records, each covariate holding
    only its kind's fields."""
    covariates = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(list(KIND_KEYS)), max_size=4))):
        if kind == "continuous":
            covariates.append(CovariateSpec(f"v{i}", kind, mean=draw(NUMBER), sd=draw(st.floats(0.0, 3.0))))
        elif kind == "binary":
            covariates.append(CovariateSpec(f"v{i}", kind, p=draw(st.floats(0.0, 1.0))))
        else:
            covariates.append(CovariateSpec(f"v{i}", kind, levels=draw(LEVELS)))
    encoded = [name for c in covariates for name in
               ([f"{c.name}={lv}" for lv in list(c.levels)[1:]] if c.kind == "categorical" else [c.name])]
    names = [c.name for c in covariates]
    masked = draw(st.lists(st.sampled_from(names), unique=True, max_size=2)) if names else []
    observed = [name for name in names if name not in masked]
    n_centers = draw(st.integers(1, 3))
    rules = []
    for column in masked:
        drivers = draw(st.lists(st.sampled_from(observed), max_size=2)) if observed else []
        rules.append(MissingRule(column, draw(st.floats(0.0, 0.9)), drivers,
                                 [draw(NUMBER) for _ in drivers],
                                 draw(st.none() | st.just([0.25] * n_centers))))
    return GeneratorSpec(n=draw(st.integers(2, 50)), covariates=covariates,
                         beta=draw(st.dictionaries(st.sampled_from(encoded), NUMBER)) if encoded else {},
                         shape=draw(st.floats(0.1, 3.0)), scale=draw(st.floats(0.1, 100.0)),
                         censoring_fraction=draw(st.floats(0.0, 0.9)), missing_rules=rules,
                         n_centers=n_centers,
                         center_probs=draw(st.none() | st.just([1.0 / n_centers] * n_centers)))


@settings(max_examples=150, deadline=None)
@given(spec=python_specs())
def test_a_spec_built_in_python_equals_the_spec_read_from_its_json(spec):
    doc = {**dataclasses.asdict(spec), "covariates": [
        {"name": c.name, "kind": c.kind, **{key: getattr(c, key) for key in KIND_KEYS[c.kind]}}
        for c in spec.covariates]}
    assert spec_from_dict(json.loads(json.dumps(doc))) == spec


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
