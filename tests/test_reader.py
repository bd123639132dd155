"""The one reader of the experiment config and the synth spec.

`errors.read_object` fills each dataclass from JSON by the annotations of
its fields. Every dataclass it fills must read back from the JSON of a
valid instance, so a field whose annotation the reader cannot read fails
here rather than in a user's config.
"""

import dataclasses
import json

import pytest

from survkit.coxph import CoxParams
from survkit.deephit import DeepHitParams
from survkit.deepsurv import DeepSurvParams
from survkit.errors import read_object
from survkit.harness import PrepConfig, SplitPlan
from survkit.synth import CovariateKeys, CovariateSpec, GeneratorSpec, MissingRule
from survkit.tabular import InclusionRules

RULE = MissingRule("x", 0.2, drivers=["b"], weights=[-0.5], center_shifts=[0.0, 0.3])

INSTANCES = [
    SplitPlan(test_fraction=0.3, inner={"kind": "holdout", "fraction": 0.1}),
    PrepConfig(impute_iterations=3, prune_threshold=0.9, standardize=False),
    InclusionRules(drop_missing_outcomes=False, exclude_levels={"grade": ["g3", "g4"]},
                   exclude_early_events=1.5),
    InclusionRules(),
    CoxParams(l1=0.01, l2=0.2),
    DeepSurvParams(hidden=[], dropout=0.2, epochs=3, batch_size=16, lr=0.01, lr_decay=0.9,
                   weight_decay=0.1),
    DeepHitParams(hidden=[8, 4], n_bins=12, dropout=0.3, epochs=4, batch_size=32, lr=0.02,
                  lr_decay=0.8, weight_decay=0.01, alpha=0.5, sigma=0.2, n_interp=20),
    RULE,
    MissingRule("b", 0.0),
    CovariateKeys("grade", "categorical", levels={"a": 0.4, "b": 0.6}),
]


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: type(i).__name__)
def test_every_field_reads_back_from_its_json(instance):
    doc = json.loads(json.dumps(dataclasses.asdict(instance)))
    assert read_object("test", type(instance), doc) == instance


def test_a_generator_spec_reads_back_apart_from_its_covariates():
    """`covariates` takes its kind's keys and has its own reader."""
    covariates = [CovariateSpec("x", "continuous", (0.0, 1.0)), CovariateSpec("b", "binary", 0.4)]
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
