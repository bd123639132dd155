"""The one reader of the experiment config and the synth spec.

`errors.read_object` fills each dataclass from JSON by the annotations of
its fields. Every dataclass it fills must read back from the JSON of a
valid instance, so a field whose annotation the reader cannot read fails
here rather than in a user's config. A value the reader refuses is refused
alike when a caller builds the record directly (`errors.check_types`): both
hold it to one rule, list and dict items included.
"""

import dataclasses
import json
import math
import re

import pytest

from survkit.coxph import CoxParams
from survkit.deephit import DeepHitParams
from survkit.deepsurv import DeepSurvParams
from survkit.errors import ConfigError, check_types, read_object
from survkit.harness import ExperimentConfig, PrepConfig, SplitPlan
from survkit.synth import CovariateSpec, GeneratorSpec, MissingRule
from survkit.tabular import InclusionRules

RULE = MissingRule("x", 0.2, drivers=["b"], weights=[-0.5], center_shifts=[0.0, 0.3])

INSTANCES = [
    SplitPlan(test_fraction=0.3, inner={"kind": "holdout", "fraction": 0.1}),
    PrepConfig(impute_iterations=3, prune_threshold=0.9, standardize=False),
    InclusionRules(exclude_levels={"grade": ["g3", "g4"]}, exclude_early_events=1.5),
    InclusionRules(),
    CoxParams(l1=0.01, l2=0.2),
    DeepSurvParams(hidden=[], dropout=0.2, epochs=3, batch_size=16, lr=0.01, lr_decay=0.9,
                   weight_decay=0.1),
    DeepHitParams(hidden=[8, 4], n_bins=12, dropout=0.3, epochs=4, batch_size=32, lr=0.02,
                  lr_decay=0.8, weight_decay=0.01, alpha=0.5, sigma=0.2, n_interp=20),
    RULE,
    MissingRule("b", 0.0),
    CovariateSpec("grade", "categorical", levels={"a": 0.4, "b": 0.6}),
]


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: type(i).__name__)
def test_every_field_reads_back_from_its_json(instance):
    doc = json.loads(json.dumps(dataclasses.asdict(instance)))
    assert read_object("test", type(instance), doc) == instance


def test_a_generator_spec_reads_back_apart_from_its_covariates():
    """`covariates` takes its kind's keys and has its own reader."""
    covariates = [CovariateSpec("x", "continuous", mean=0.0, sd=1.0), CovariateSpec("b", "binary", p=0.4)]
    spec = GeneratorSpec(n=50, covariates=covariates, beta={"x": 0.3, "b": -0.2}, shape=1.2,
                         scale=5.0, censoring_fraction=0.25, missing_rules=[RULE], n_centers=2,
                         center_probs=[0.7, 0.3])
    doc = json.loads(json.dumps({**dataclasses.asdict(spec), "covariates": []}))
    assert read_object("test", GeneratorSpec, doc, covariates=lambda _: covariates) == spec


def test_an_annotation_the_reader_cannot_read_is_a_type_error():
    @dataclasses.dataclass
    class Bare:
        widths: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="no reader for the annotation"):
        read_object("test", Bare, {"widths": [1]})


def test_check_types_refuses_an_annotation_outside_the_grammar():
    @dataclasses.dataclass
    class Bare:
        widths: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="no reader for the annotation"):
        check_types("test", Bare(widths=[1]))


NAN = math.nan

# (record, field, a value of the wrong type): a quoted number, a fractional
# int, a boolean number, NaN, and a list or dict holding a wrong item
BAD_FIELDS = [
    (SplitPlan, "test_fraction", "0.3"),
    (SplitPlan, "test_fraction", True),
    (SplitPlan, "test_fraction", NAN),
    (PrepConfig, "impute_iterations", "3"),
    (PrepConfig, "impute_iterations", 2.5),
    (PrepConfig, "impute_iterations", True),
    (PrepConfig, "prune_threshold", NAN),
    (PrepConfig, "standardize", 0),
    (InclusionRules, "exclude_early_events", [1.5]),
    (InclusionRules, "exclude_levels", {"g": "AB"}),
    (InclusionRules, "exclude_levels", {"g": ["a", 1]}),
    (InclusionRules, "exclude_early_events", "1.5"),
    (InclusionRules, "exclude_early_events", True),
    (InclusionRules, "exclude_early_events", NAN),
    (CoxParams, "l1", "0"),
    (CoxParams, "l1", None),
    (CoxParams, "l2", True),
    (CoxParams, "l2", NAN),
    (DeepSurvParams, "hidden", [8.5]),
    (DeepSurvParams, "hidden", ["64"]),
    (DeepSurvParams, "hidden", [True]),
    (DeepSurvParams, "epochs", 2.5),
    (DeepSurvParams, "epochs", "3"),
    (DeepSurvParams, "batch_size", True),
    (DeepSurvParams, "lr", "0.1"),
    (DeepSurvParams, "lr", NAN),
    (DeepSurvParams, "dropout", math.inf),
    (DeepHitParams, "hidden", [8, 4.5]),
    (DeepHitParams, "n_bins", 2.5),
    (DeepHitParams, "n_interp", 2.5),
    (DeepHitParams, "n_interp", "50"),
    (DeepHitParams, "alpha", True),
    (DeepHitParams, "sigma", NAN),
    (MissingRule, "target_rate", "0.1"),
    (MissingRule, "target_rate", True),
    (MissingRule, "target_rate", NAN),
    (MissingRule, "drivers", [1]),
    (MissingRule, "weights", ["0.5"]),
    (MissingRule, "center_shifts", [0.0, NAN]),
    (CovariateSpec, "name", 7),
    (CovariateSpec, "mean", "0"),
    (CovariateSpec, "sd", NAN),
    (CovariateSpec, "p", True),
    (CovariateSpec, "levels", {"a": "0.4"}),
]


@pytest.mark.parametrize("cls, key, bad", BAD_FIELDS,
                         ids=[f"{c.__name__}.{k}={v!r}" for c, k, v in BAD_FIELDS])
def test_a_value_is_refused_alike_built_directly_and_read_from_json(cls, key, bad):
    instance = next(i for i in INSTANCES if type(i) is cls)
    with pytest.raises(ConfigError, match=re.escape(f"{key}=")):
        dataclasses.replace(instance, **{key: bad})
    doc = {**json.loads(json.dumps(dataclasses.asdict(instance))), key: bad}
    with pytest.raises(ConfigError, match=re.escape(f"{key}=")):
        read_object("test", cls, doc)


def test_an_int_beyond_the_float_range_is_refused_both_ways():
    """10**400 is no finite number; converting it would overflow."""
    for doc in ({"seed": 10**400}, {"split": {"test_fraction": 10**400}}):
        with pytest.raises(ConfigError, match="is not a valid"):
            ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError, match="seed="):
        ExperimentConfig(seed=10**400)
    with pytest.raises(ConfigError, match="test_fraction="):
        SplitPlan(test_fraction=10**400)
    # an int in range reads as a float
    threshold = read_object("test", PrepConfig, {"prune_threshold": 1}).prune_threshold
    assert threshold == 1.0 and type(threshold) is float
