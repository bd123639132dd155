"""CLI tests. Each subcommand runs in-process on real files in tmp_path
and must honor the documented exit codes: 0 ok, 2 validation, 3 computation.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survkit
from survkit.cli import _write_csv, main
from survkit.harness import ExperimentConfig, run_experiment
from survkit.preprocess import dummy_encode
from survkit.synth import (
    CovariateSpec,
    GeneratorSpec,
    MissingRule,
    ensure_like,
    generate,
    spec_from_dict,
)
from survkit.tabular import (
    ColumnSpec,
    InclusionRules,
    SurvivalDataset,
    apply_inclusion,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    subset_rows,
)


def write_cohort(tmp_path, n=200, missing=True, seed=2):
    covs = [
        CovariateSpec("x1", "continuous", (0.0, 1.0)),
        CovariateSpec("x2", "continuous", (0.0, 1.0)),
        CovariateSpec("grade", "categorical", {"g1": 0.5, "g2": 0.3, "g3": 0.2}),
    ]
    rules = []
    if missing:
        rules.append(MissingRule(column="x2", target_rate=0.2, drivers=["x1"], weights=[1.2]))
    spec = GeneratorSpec(
        n=n,
        covariates=covs,
        beta={"x1": 0.8, "x2": -0.5},
        shape=1.0,
        scale=12.0,
        censoring_fraction=0.3,
        missing_rules=rules,
    )
    ds, _ = generate(spec, seed=seed)
    data = tmp_path / "cohort.csv"
    schema = tmp_path / "schema.json"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    return data, schema


def experiment_config(tmp_path, **overrides):
    doc = {
        "seed": 5,
        "data": "cohort.csv",
        "schema": "schema.json",
        "split": {"test_fraction": 0.2, "inner": {"kind": "holdout", "fraction": 0.25}},
        "prep": {"impute_iterations": 2},
        "families": {"coxph": {"l1": [0.0], "l2": [0.0]}},
        "n_boot": 30,
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}  # None drops a key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# overrides that swap the CSV cohort of `experiment_config` for the built-in one
BUILT_IN = {"ensure_like": True, "data": None, "schema": None}


def test_import_leaves_scipy_stats_unloaded():
    """Every CLI call pays `import survkit`, and scipy's import alone costs
    more than the rest of the package: no scipy module is loaded by it."""
    src = Path(survkit.__file__).resolve().parents[1]
    code = ("import sys, survkit, survkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


# Runs CLI calls in order in one fresh interpreter and records, after each,
# its exit code and the scipy modules loaded so far.
SCIPY_PROBE = """
import json, sys
from survkit.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    seen.append([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
"""


def test_only_identify_factors_loads_scipy(tmp_path):
    """--version, --help, synth, impute and experiment never load scipy;
    identify-factors loads scipy.special when it first pools."""
    data, schema = write_cohort(tmp_path, n=120)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 40, "covariates": [{"name": "x", "kind": "continuous"}], "beta": {"x": 0.5},
        "scale": 12.0, "censoring_fraction": 0.3}))
    cohort = ["--data", str(data), "--schema", str(schema), "--m", "2", "--iterations", "1"]
    calls = [
        ["--version"],
        ["--help"],
        ["synth", "--spec", str(spec), "--out", str(tmp_path / "synth")],
        ["impute", *cohort, "--out", str(tmp_path / "impute")],
        ["experiment", "--config", str(experiment_config(tmp_path)),
         "--out", str(tmp_path / "experiment")],
        ["identify-factors", *cohort, "--out", str(tmp_path / "factors")],
    ]
    result = tmp_path / "seen.json"
    env = dict(os.environ, PYTHONPATH=str(Path(survkit.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(calls), str(result)],
                   env=env, capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(result.read_text())
    assert [rc for rc, _ in seen] == [0] * len(calls)
    assert [loaded for _, loaded in seen[:-1]] == [[]] * (len(calls) - 1)
    assert "scipy.special" in seen[-1][1]


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "survkit" in capsys.readouterr().out


# -- impute ---------------------------------------------------------------------


def test_impute_writes_run_directory(tmp_path, capsys):
    data, schema = write_cohort(tmp_path)
    out = tmp_path / "run"
    rc = main([
        "impute", "--data", str(data), "--schema", str(schema),
        "--m", "2", "--iterations", "2", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    for name in ("completed_01.csv", "completed_02.csv", "imputation.json",
                 "encoding.json", "inclusion.json", "manifest.json"):
        assert (out / name).exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "impute"
    assert manifest["seed"] == 3
    assert manifest["kernel_backend"] in ("compiled", "python")
    assert manifest["inputs"][str(data)] == hashlib.sha256(data.read_bytes()).hexdigest()

    prov = json.loads((out / "imputation.json").read_text())
    assert prov["files"] == ["completed_01.csv", "completed_02.csv"]

    with open(out / "completed_01.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 201
    assert all(cell not in ("", "NA") for row in rows for cell in row)


def test_impute_reruns_are_byte_identical(tmp_path):
    data, schema = write_cohort(tmp_path)
    args = ["impute", "--data", str(data), "--schema", str(schema),
            "--m", "2", "--iterations", "3", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("completed_01.csv", "completed_02.csv", "imputation.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- identify-factors ---------------------------------------------------------------


def test_identify_factors_writes_table(tmp_path):
    data, schema = write_cohort(tmp_path, n=300, seed=4)
    out = tmp_path / "run"
    rc = main([
        "identify-factors", "--data", str(data), "--schema", str(schema),
        "--m", "2", "--iterations", "2", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "factors.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variable", "hr", "ci_low", "ci_high", "p_value", "significant"]
    names = [r[0] for r in rows[1:]]
    assert names == ["x1", "x2", "grade=g2", "grade=g3"]
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["x1"][1]) > 1.0
    assert float(by_name["x2"][1]) < 1.0


@pytest.mark.filterwarnings("ignore:proximal gradient", "ignore:covariates look unstandardized")
def test_identify_factors_names_unstandardized_covariates_when_a_fit_fails(tmp_path, capsys):
    """The covariates are fitted as given: on a 400-row cohort with one
    covariate of mean 60 and sd 8 the linear fit does not converge, and the
    error names that covariate and says to standardize it."""
    spec = spec_from_dict({
        "n": 400,
        "covariates": [{"name": "age", "kind": "continuous", "mean": 60.0, "sd": 8.0},
                       {"name": "x2", "kind": "continuous"},
                       {"name": "grade", "kind": "categorical",
                        "levels": {"g1": 0.5, "g2": 0.3, "g3": 0.2}}],
        "beta": {"age": 0.03, "x2": 0.8}, "scale": 12.0, "censoring_fraction": 0.3,
    })
    ds, _ = generate(spec, seed=0)
    data, schema, out = tmp_path / "cohort.csv", tmp_path / "schema.json", tmp_path / "run"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    rc = main(["identify-factors", "--data", str(data), "--schema", str(schema),
               "--m", "2", "--iterations", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "linear model fit did not converge; ['age'] look unstandardized" in err
    assert "standardize them first" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:proximal gradient")
def test_computation_failure_exits_three(tmp_path, capsys):
    # a separating covariate keeps the linear fit from converging
    n = 40
    t = np.arange(1.0, n + 1.0)
    e = np.ones(n)
    flag = np.where(t <= n / 2, 0.01, 0.0)
    z = np.random.default_rng(0).normal(size=n)
    cols = [
        ColumnSpec("time", "continuous", role="time"),
        ColumnSpec("event", "binary", role="event"),
        ColumnSpec("flag", "continuous"),
        ColumnSpec("z", "continuous"),
    ]
    vals = np.column_stack([t, e, flag, z])
    ds = SurvivalDataset(cols, vals, np.zeros_like(vals, dtype=bool))
    data, schema = tmp_path / "sep.csv", tmp_path / "sep_schema.json"
    save_csv(ds, data)
    save_schema(ds.columns, schema)

    rc = main([
        "identify-factors", "--data", str(data), "--schema", str(schema),
        "--m", "2", "--iterations", "2", "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert "computation error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::survkit.errors.ImputationWarning")
def test_singular_imputation_draw_exits_three(tmp_path, capsys):
    """Six ensure_like rows with covariates x1e6 make a MICE draw's normal
    equations exactly singular; the run ends in a computation error."""
    ds, _ = dummy_encode(ensure_like(seed=0)[0])
    ds = subset_rows(ds, [1216, 1471, 2058, 2266, 2826, 3312])
    cols = [c if c.role != "covariate" else ColumnSpec(c.name, "continuous") for c in ds.columns]
    values = ds.values.copy()
    values[:, [j for j, c in enumerate(cols) if c.role == "covariate"]] *= 1e6
    data, schema = tmp_path / "tiny.csv", tmp_path / "tiny_schema.json"
    save_csv(SurvivalDataset(cols, values, row_ids=ds.row_ids.copy()), data)
    save_schema(cols, schema)

    rc = main([
        "impute", "--data", str(data), "--schema", str(schema),
        "--m", "1", "--iterations", "1", "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert "is singular" in capsys.readouterr().err


def test_impute_of_a_covariate_too_large_to_square_exits_three(tmp_path, capsys):
    """One 1e300 cell overflows the imputer's Gram; the run fails naming
    the covariate that holds it, and writes no completed set, whose draws
    would be NaN (empty cells)."""
    ds = subset_rows(ensure_like(seed=0)[0], np.arange(200))
    j = ds.col_index("x01")
    ds.values[np.flatnonzero(~ds.missing_mask[:, j])[0], j] = 1e300
    data, schema, out = tmp_path / "cohort.csv", tmp_path / "schema.json", tmp_path / "run"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    rc = main(["impute", "--data", str(data), "--schema", str(schema),
               "--m", "2", "--iterations", "1", "--out", str(out)])
    assert rc == 3
    assert "has non-finite normal equations (sums of squares not finite: ['x01'])" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:observed information is singular")
def test_identify_factors_names_a_constant_covariate(tmp_path, capsys):
    """A constant covariate leaves the Cox information singular: the run
    fails naming it, and pools no variance taken from that information."""
    data, schema = write_cohort(tmp_path, n=200)
    ds = load_csv(data, load_schema(schema))
    cols = ds.columns + [ColumnSpec("site", "continuous")]
    values = np.column_stack([ds.values, np.ones(ds.n_rows)])
    save_csv(SurvivalDataset(cols, values, row_ids=ds.row_ids.copy()), data)
    save_schema(cols, schema)
    out = tmp_path / "run"
    rc = main(["identify-factors", "--data", str(data), "--schema", str(schema),
               "--m", "2", "--iterations", "2", "--out", str(out)])
    assert rc == 3
    assert "['site'] are constant or aliased" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, seed", [
    ("impute", "-2"), ("identify-factors", "-500"), ("synth", "-1"), ("synth", "1.5"),
])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    """A --seed is a non-negative integer, checked as the flag is parsed;
    numpy's generators reject a negative one with a raw ValueError."""
    data, schema = write_cohort(tmp_path, n=60)
    inputs = ["--data", str(data), "--schema", str(schema)]
    if command == "synth":
        inputs = ["--ensure-like"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in err
    assert not out.exists()


def test_missing_input_file_exits_two(tmp_path, capsys):
    _, schema = write_cohort(tmp_path)
    rc = main([
        "impute", "--data", str(tmp_path / "nope.csv"), "--schema", str(schema),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- experiment -----------------------------------------------------------------------


def test_experiment_end_to_end_and_rerun_bytes(tmp_path):
    write_cohort(tmp_path, missing=False, n=160)
    config = experiment_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["experiment", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(config), "--out", str(out2)]) == 0

    report = json.loads((out1 / "report.json").read_text())
    assert report["seed"] == 5
    assert set(report["families"]) == {"coxph"}
    metrics = report["families"]["coxph"]["test_metrics"]
    assert set(metrics) == {"c_index", "ibs", "tauc_mean"}

    with open(out1 / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["family", "metric", "point", "ci_low", "ci_high"]
    assert len(rows) == 4
    assert float(rows[1][2]) == metrics[rows[1][1]]["point"]

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "experiment"
    assert manifest["wall_clock_seconds"] > 0.0

    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    # a CSV cohort's inclusion audit is written, as impute and identify-factors write it
    audit = json.loads((out1 / "inclusion.json").read_text())
    assert audit["n_before"] == audit["n_after"] == 160


def test_experiment_models_filter(tmp_path, capsys):
    """A family's seeds follow the family, not its place in the config: a
    --models subset reproduces each family's section of the full run, and
    a config listing its families in another order writes the same bytes."""
    write_cohort(tmp_path, missing=False, n=160)
    families = {"coxph": {"l1": [0.0], "l2": [0.0]}, "deepsurv": {"epochs": [2]},
                "deephit": {"epochs": [2]}}
    config = experiment_config(tmp_path, families=families)
    full = tmp_path / "full"
    assert main(["experiment", "--config", str(config), "--out", str(full)]) == 0
    full_sections = json.loads((full / "report.json").read_text())["families"]
    for models in ("coxph", "deephit,deepsurv"):
        out = tmp_path / models
        rc = main(["experiment", "--config", str(config), "--models", models,
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["families"]) == set(models.split(","))
        for family, section in report["families"].items():
            assert section == full_sections[family]

    reordered = experiment_config(tmp_path, families=dict(reversed(families.items())))
    out = tmp_path / "reordered"
    assert main(["experiment", "--config", str(reordered), "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == (full / "report.json").read_bytes()

    rc = main(["experiment", "--config", str(config), "--models", "rf"])
    assert rc == 2
    assert "not in config families" in capsys.readouterr().err


def test_experiment_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["experiment", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"families": {"coxph": {}}}))
    assert main(["experiment", "--config", str(incomplete)]) == 2
    assert "needs data and schema" in capsys.readouterr().err


def test_experiment_rejects_n_boot_zero_before_any_fit(tmp_path, capsys, monkeypatch):
    import survkit.harness

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the config was validated")

    monkeypatch.setattr(survkit.harness, "fit_coxph", no_fit)
    write_cohort(tmp_path, missing=False, n=120)
    config = experiment_config(tmp_path, n_boot=0)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert "n_boot must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_zero_impute_iterations_before_any_fit(tmp_path, capsys, monkeypatch):
    import survkit.harness

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the config was validated")

    monkeypatch.setattr(survkit.harness, "fit_coxph", no_fit)
    write_cohort(tmp_path, missing=True, n=120)
    config = experiment_config(tmp_path, prep={"impute_iterations": 0})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert "prep: impute_iterations must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_wrong_typed_run_settings_before_any_fit(tmp_path, capsys, monkeypatch):
    import survkit.harness

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the config was validated")

    monkeypatch.setattr(survkit.harness, "fit_coxph", no_fit)
    write_cohort(tmp_path, missing=False, n=120)
    for overrides, message in (
        ({"prep": {"standardize": "false"}}, "prep: standardize='false'"),
        ({"prep": {"impute_iterations": 2.5}}, "prep: impute_iterations=2.5"),
        ({"split": {"test_fraction": 0.2, "inner": {"kind": "kfold", "k": 2.5}}}, "split: k=2.5"),
        ({"seed": "zero"}, "config: seed='zero'"),
        ({"n_boot": 20.5}, "config: n_boot=20.5"),
        ({**BUILT_IN, "ensure_like_seed": 2.5}, "config: ensure_like_seed=2.5"),
        ({**BUILT_IN, "ensure_like_seed": "abc"}, "config: ensure_like_seed='abc'"),
        ({"seed": -3}, "config: seed=-3 is not a non-negative integer"),
        ({**BUILT_IN, "ensure_like_seed": -1},
         "config: ensure_like_seed=-1 is not a non-negative integer"),
        # a JSON boolean is not a number, and a number must be finite
        ({"n_boot": True}, "config: n_boot=True"),
        ({"seed": True}, "config: seed=True"),
        ({"n_boot": float("inf")}, "config: n_boot=inf"),
        ({"prep": {"prune_threshold": float("nan")}}, "prep: prune_threshold=nan"),
        ({"families": {"coxph": {"l1": ["nan"]}}}, "coxph: l1='nan'"),
        ({"families": {"deepsurv": {"lr": [float("inf")]}}}, "deepsurv: lr=inf"),
        # each grid value is range-checked at load, not at its own fit
        ({"families": {"coxph": {"l1": [-1]}}}, "coxph: l1 and l2 must be non-negative"),
        ({"families": {"deepsurv": {"epochs": [0]}}}, "deepsurv: epochs must be at least 1"),
        ({"families": {"deephit": {"alpha": [-2]}}}, "deephit: alpha must be non-negative"),
    ):
        config = experiment_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ("[1]", "config: the document is a list, not an object"),
    ({"nboot": 5}, "config: unknown key 'nboot'"),
    ({"families": [1]}, "config: families=[1] is not an object"),
    ({"data": 5}, "config: data=5 is not a valid str"),
    ({"ensure_like": "no"}, "config: ensure_like='no' is not a valid bool"),
    ({"split": {"inner": {"kind": "kfold", "kk": 3}}}, "split.inner: unknown key 'kk'"),
    ({"ensure_like": True}, "config: 'data' is not read when ensure_like is true"),
    ({**BUILT_IN, "inclusion": {}}, "config: 'inclusion' is not read when ensure_like is true"),
    ({"ensure_like_seed": 1}, "config: 'ensure_like_seed' is not read when ensure_like is false"),
    ({"families": {"deephit": {"n_interp": [1]}}}, "deephit: n_interp must be at least 2"),
    ({"data": None}, "config needs data and schema paths"),
])
def test_experiment_rejects_a_bad_config_key_before_loading_or_fitting(
        tmp_path, capsys, monkeypatch, overrides, message):
    """Each bad key fails in the config reader: exit code 2 with a message
    naming the key, before the cohort is generated or read, before any fit
    and before an output directory exists."""
    import survkit.cli
    import survkit.harness

    def not_yet(*args, **kwargs):
        raise AssertionError("the run went on past a config error")

    for module, name in ((survkit.cli, "ensure_like"), (survkit.cli, "_load_cohort"),
                         (survkit.harness, "fit_fold_pipeline")):
        monkeypatch.setattr(module, name, not_yet)
    if isinstance(overrides, str):
        config = tmp_path / "config.json"
        config.write_text(overrides)
    else:
        config = experiment_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": "\xff"}')
    assert main(["experiment", "--config", str(config)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("inclusion, message", [
    ({"exclude_early_events": "5"}, "inclusion: exclude_early_events='5'"),
    (["drop_missing_outcomes"], "inclusion: ['drop_missing_outcomes'] is not an object"),
    ({"drop_missing_outcomes": "false"}, "inclusion: drop_missing_outcomes='false'"),
])
def test_experiment_rejects_malformed_inclusion_before_any_fit(tmp_path, capsys, monkeypatch,
                                                               inclusion, message):
    import survkit.harness

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the config was validated")

    monkeypatch.setattr(survkit.harness, "fit_coxph", no_fit)
    write_cohort(tmp_path, missing=False, n=120)
    config = experiment_config(tmp_path, inclusion=inclusion)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

def test_experiment_rejects_unknown_grid_key_before_any_fit(tmp_path, capsys, monkeypatch):
    import survkit.harness

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the config was validated")

    monkeypatch.setattr(survkit.harness, "fit_coxph", no_fit)
    write_cohort(tmp_path, missing=False, n=120)
    config = experiment_config(tmp_path, families={"coxph": {"l1": [0.0], "L2": [0.1]}})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert "coxph: unknown key 'L2'" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_plot_patients(tmp_path, capsys):
    write_cohort(tmp_path, missing=False, n=160)
    config = experiment_config(tmp_path)
    probe = tmp_path / "probe"
    assert main(["experiment", "--config", str(config), "--out", str(probe)]) == 0
    test_ids = json.loads((probe / "report.json").read_text())["split_provenance"]["test_row_ids"]
    wanted = f"{test_ids[0]},{test_ids[1]}"

    out = tmp_path / "plots"
    rc = main(["experiment", "--config", str(config), "--out", str(out),
               "--plot-patients", wanted])
    assert rc == 0
    svg = (out / "curves_coxph.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    with open(out / "curves_coxph.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["patient_id", "t", "S"]
    assert {r[0] for r in rows[1:]} == {str(test_ids[0]), str(test_ids[1])}
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])

    # unknown ids must fail before any model is fit
    bad_out = tmp_path / "bad"
    rc = main(["experiment", "--config", str(config), "--out", str(bad_out),
               "--plot-patients", "no-such-id"])
    assert rc == 2
    assert "not in the test split" in capsys.readouterr().err
    assert not (bad_out / "report.json").exists()


def test_plot_patients_draws_the_report_fits(tmp_path):
    """Each family's plotted curves are `ExperimentReport.test_curves` of
    the same config's run: the refit model at the test covariates the
    metrics were scored on, with no second imputation."""
    data, schema = write_cohort(tmp_path, missing=True, n=160)
    config = experiment_config(tmp_path, families={
        "coxph": {"l1": [0.0]}, "deepsurv": {"epochs": [2]}, "deephit": {"epochs": [2]}})
    encoded, _ = dummy_encode(apply_inclusion(load_csv(data, load_schema(schema)),
                                              InclusionRules())[0])
    report = run_experiment(encoded, ExperimentConfig.from_dict(json.loads(config.read_text())))
    test_ids = report.content["split_provenance"]["test_row_ids"]
    ids = [str(i) for i in test_ids[:3]]

    out = tmp_path / "plots"
    rc = main(["experiment", "--config", str(config), "--out", str(out),
               "--plot-patients", ",".join(ids)])
    assert rc == 0
    assert (out / "report.json").read_bytes() == report.to_json_bytes()
    for family in ("coxph", "deepsurv", "deephit"):
        expected = tmp_path / f"expected_{family}.csv"
        curves = report.test_curves(family, [0, 1, 2])
        _write_csv(expected, ["patient_id", "t", "S"],
                   [[pid, repr(float(t)), repr(float(s))]
                    for pid, row in zip(ids, curves.values) for t, s in zip(curves.times, row)])
        assert (out / f"curves_{family}.csv").read_bytes() == expected.read_bytes()


# -- synth ------------------------------------------------------------------------------


def test_synth_generates_loadable_cohort(tmp_path):
    spec = {
        "n": 120,
        "covariates": [
            {"name": "age", "kind": "continuous", "mean": 60.0, "sd": 8.0},
            {"name": "male", "kind": "binary", "p": 0.6},
        ],
        "beta": {"age": 0.03},
        "shape": 1.0,
        "scale": 40.0,
        "censoring_fraction": 0.25,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    rc = main(["synth", "--spec", str(spec_path), "--seed", "7", "--out", str(out)])
    assert rc == 0

    cohort = load_csv(out / "cohort.csv", load_schema(out / "schema.json"))
    assert cohort.n_rows == 120
    assert cohort.covariate_names == ["age", "male"]
    truth = json.loads((out / "ground_truth.json").read_text())
    assert 0.0 < truth["oracle_c"] < 1.0
    assert truth["seed"] == 7


def test_synth_requires_spec_or_builtin(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "run")]) == 2
    assert "needs --spec or --ensure-like" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "spec is not valid JSON"),
    ('{"covariates": []}', "synth spec: missing key 'n'"),
    ('{"n": "ten"}', "n='ten' is not a valid int"),
    ('{"n": "50"}', "synth spec: n='50' is not a valid int"),
    ('{"n": 50, "covariates": {"a": 1}}', "synth spec: covariates={'a': 1} is not a valid"),
    ('{"n": 50, "covariates": [{"name": 7, "kind": "binary"}]}',
     "synth spec: covariates[0]: name=7 is not a valid str"),
    ('{"n": 50, "covariates": [{"name": "g", "kind": "categorical", "levels": ["a", "b"]}]}',
     "synth spec: covariates[0]: levels=['a', 'b'] is not a valid dict[str, float]"),
    ('{"n": 50, "covariates": [{"name": "m", "kind": "binary", "p": 1.5}]}',
     "covariate 'm': p must be in [0, 1]"),
    ('{"n": 50, "n_centers": 5, "covariates": [{"name": "a", "kind": "binary"}],'
     ' "missing_rules": [{"column": "a", "target_rate": 0.1, "center_shifts": "12345"}]}',
     "synth spec: missing_rules[0]: center_shifts='12345' is not a valid"),
    ('{"n": 50, "censoring_fration": 0.3}', "synth spec: unknown key 'censoring_fration'"),
    ('{"n": 50, "n_centers": 0}', "n_centers must be >= 1"),
    ('{"n": 50, "n_centers": 2, "center_probs": [0.7, 0.7]}', "center_probs must be"),
    ('{"n": 50, "n_centers": 2, "center_probs": [0.5, 0.3, 0.2]}', "center_probs must be"),
    ('{"n": 50, "n_centers": 2, "center_probs": [1.5, -0.5]}', "center_probs must be"),
])
def test_synth_rejects_a_malformed_spec(tmp_path, capsys, text, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    out = tmp_path / "run"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

def test_synth_rejects_a_spec_that_is_not_utf8(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b'{"n": "\xff"}')
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "run")]) == 2
    assert "spec is not valid JSON" in capsys.readouterr().err


def test_default_run_directory_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n": 50,
        "covariates": [{"name": "x", "kind": "continuous", "mean": 0.0, "sd": 1.0}],
        "beta": {},
        "shape": 1.0,
        "scale": 10.0,
        "censoring_fraction": 0.0,
    }))
    rc = main(["synth", "--spec", str(spec_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert re.fullmatch(r"runs/\d{8}T\d{6}Z_[0-9a-f]{8}", printed)
    assert (tmp_path / printed / "cohort.csv").exists()
