"""One value rule and one error contract for the config and parameter
records.

Each single-field range rule of a record is a `_RULES` row (field, test,
what) that `errors.check_types` applies after the type check. Built
directly, a value out of range is a DataError reading `<field> must be
<what>, got <value>`; read from a document, it is a ConfigError with the
same text after the path from the document root. The source guards below
keep it that way: no record raises a ConfigError itself, only `errors.py`
decides what an integer or a number is, and every row names a field of its
class.
"""

import ast
import re
from pathlib import Path

import pytest

from survkit import coxph, deephit, deepsurv, harness, nnet, synth, tabular
from survkit.coxph import CoxParams
from survkit.deephit import DeepHitParams
from survkit.deepsurv import DeepSurvParams
from survkit.errors import ConfigError, DataError
from survkit.harness import ExperimentConfig, PrepConfig, SplitPlan
from survkit.synth import CovariateSpec, GeneratorSpec, MissingRule, spec_from_dict

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "survkit"


COVARIATE = {"name": "x", "kind": "continuous"}


def _family(name):
    return lambda d: ExperimentConfig.from_dict({"families": {name: {k: [v] for k, v in d.items()}}})


# record -> (the fields it needs, the path of a document holding it, a
# reader of {field: value} as that document)
RECORDS = {
    CoxParams: ({}, "config: families: coxph: ", _family("coxph")),
    DeepSurvParams: ({}, "config: families: deepsurv: ", _family("deepsurv")),
    DeepHitParams: ({}, "config: families: deephit: ", _family("deephit")),
    SplitPlan: ({}, "config: split: ", lambda d: ExperimentConfig.from_dict({"split": d})),
    PrepConfig: ({}, "config: prep: ", lambda d: ExperimentConfig.from_dict({"prep": d})),
    ExperimentConfig: ({}, "config: ", ExperimentConfig.from_dict),
    GeneratorSpec: ({"n": 10}, "synth spec: ", lambda d: spec_from_dict({"n": 10, **d})),
    MissingRule: ({"column": "x", "target_rate": 0.1}, "synth spec: missing_rules[0]: ",
                  lambda d: spec_from_dict({"n": 10, "covariates": [COVARIATE], "missing_rules": [
                      {"column": "x", "target_rate": 0.1, **d}]})),
    CovariateSpec: (COVARIATE, "synth spec: covariates[0]: ",
                    lambda d: spec_from_dict({"n": 10, "covariates": [{**COVARIATE, **d}]})),
}

# by field: a value its row refuses, typed as the document reads it
BAD = {
    "l1": -1.0, "l2": -0.5, "hidden": [8, 0], "epochs": 0, "batch_size": 0, "lr": 0.0,
    "dropout": 1.0, "lr_decay": -0.7, "weight_decay": -0.1, "n_bins": 0, "alpha": -2.0,
    "sigma": 0.001, "test_fraction": 1.5, "impute_iterations": 0, "prune_threshold": 0.0,
    "seed": -3, "ensure_like_seed": -1, "n_boot": 0, "n": 1, "shape": 0.0, "scale": -1.0,
    "censoring_fraction": 1.0, "n_centers": 0, "target_rate": 1.0, "sd": -1.0, "p": 1.5,
}

ROWS = [(cls, name, what) for cls in RECORDS for name, _, what in cls._RULES]


@pytest.mark.parametrize("cls, name, what", ROWS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in ROWS])
def test_a_rule_reads_the_same_built_directly_and_from_a_document(cls, name, what):
    required, path, read = RECORDS[cls]
    value = BAD[name]
    message = f"{name} must be {what}, got {value!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        cls(**{**required, name: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(path + message)}$"):
        read({name: value})


def test_every_record_with_rules_is_covered():
    """Every class with `_RULES` rows has its rows tested above, through
    itself or a subclass (`TrainParams` through `DeepSurvParams`)."""
    ruled = {obj for module in (coxph, deephit, deepsurv, harness, nnet, synth, tabular)
             for obj in vars(module).values() if isinstance(obj, type) and "_RULES" in vars(obj)}
    assert ruled and all(any(issubclass(cls, ruled_cls) for cls in RECORDS) for ruled_cls in ruled)


# -- source guards -------------------------------------------------------------------


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_no_record_raises_a_config_error():
    """A record raises DataError for a bad value; `read_object` alone makes
    it a ConfigError naming the document path."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
             for node in ast.walk(fn) if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "ConfigError"]
    assert found == []


def test_only_errors_decides_what_a_number_is():
    """Counts, seeds and thresholds go through the reader's rule
    (`errors._holds`, `check_count`, `check_seed`), which refuses booleans;
    `numbers.Integral` and `numbers.Real` accept them."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _modules() if path.name != "errors.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "numbers"
             or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "numbers"]
    assert found == []


def test_every_rule_names_a_field_of_its_class():
    """A `_RULES` row's field is an annotated field of its class or of a
    base class defined in the package."""
    classes = {node.name: node for _, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def fields(cls):
        own = {stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
        bases = [getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases]
        return own.union(*(fields(classes[b]) for b in bases if b in classes))

    rows = [(cls.name, row.elts[0].value) for cls in classes.values() for stmt in cls.body
            if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["_RULES"]
            for row in ast.walk(stmt.value) if isinstance(row, ast.Tuple) and len(row.elts) == 3
            and isinstance(row.elts[0], ast.Constant) and isinstance(row.elts[0].value, str)]
    assert rows
    assert [(name, field) for name, field in rows if field not in fields(classes[name])] == []
