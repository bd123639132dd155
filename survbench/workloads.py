"""Workload definitions: the inputs each workload makes from its seed and
the `survkit` command line that runs on them.

Only `make_inputs` imports survkit (for the factors cohort), so the
orchestrator can read the workload table without importing the program.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

# The acceptance reference experiment (REFERENCE_CONFIG in
# tests/test_acceptance.py); `seed` and `ensure_like_seed` come from --seed.
REFERENCE_CONFIG = {
    "seed": 0,
    "ensure_like": True,
    "ensure_like_seed": 0,
    "split": {"test_fraction": 0.2, "inner": {"kind": "kfold", "k": 5}},
    "prep": {"impute_iterations": 10, "prune_threshold": 0.7, "standardize": True},
    "families": {
        "coxph": {"l1": [0.008], "l2": [0.001]},
        "deepsurv": {},
        "deephit": {},
    },
    "n_boot": 1000,
}

# kind "experiment": overrides applied to REFERENCE_CONFIG.
# kind "factors": identify-factors on an ensure_like-shaped CSV of n rows.
# `oracle` marks the workloads that keep the acceptance rule
# |C - oracle_c| < 0.03 for every family.
WORKLOADS = {
    "reference": {"kind": "experiment", "overrides": {}, "oracle": True},
    "train": {"kind": "experiment", "overrides": {"n_boot": 20}, "oracle": True},
    "boot": {
        "kind": "experiment",
        "overrides": {
            "n_boot": 150,
            "split": {"test_fraction": 0.2, "inner": {"kind": "holdout", "fraction": 0.15}},
            "families": {
                "coxph": {"l1": [0.008], "l2": [0.001]},
                "deepsurv": {"epochs": [10]},
                "deephit": {"epochs": [5]},
            },
        },
        "oracle": False,
    },
    "factors": {"kind": "factors", "n": 20000, "m": 10, "iterations": 10, "oracle": False},
}

ORACLE_TOLERANCE = 0.03


def experiment_config(name, seed):
    cfg = copy.deepcopy(REFERENCE_CONFIG)
    cfg.update(copy.deepcopy(WORKLOADS[name]["overrides"]))
    cfg["seed"] = seed
    cfg["ensure_like_seed"] = seed
    return cfg


def output_file(name):
    """The canonical output whose bytes must repeat for a seed."""
    return "factors.csv" if WORKLOADS[name]["kind"] == "factors" else "report.json"


def make_inputs(name, seed, workdir):
    """Write the workload's inputs under `workdir`; return the CLI argv.

    The run's outputs go to `workdir/out`.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir / "out")
    spec = WORKLOADS[name]
    if spec["kind"] == "experiment":
        config = workdir / "config.json"
        # family order sets each family's seed offset, so keys keep their order
        config.write_text(json.dumps(experiment_config(name, seed)))
        return ["experiment", "--config", str(config), "--out", out]

    from survkit.synth import ensure_like, generate
    from survkit.tabular import save_csv, save_schema

    _, _, base = ensure_like(seed)
    ds, _ = generate(dataclasses.replace(base, n=spec["n"]), seed=seed)
    data, schema = workdir / "cohort.csv", workdir / "schema.json"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    return [
        "identify-factors", "--data", str(data), "--schema", str(schema),
        "--m", str(spec["m"]), "--iterations", str(spec["iterations"]),
        "--seed", str(seed), "--out", out,
    ]


def expected_counts(name):
    """Call counts the traced run must show, from the workload's shape."""
    spec = WORKLOADS[name]
    if spec["kind"] == "factors":
        return {
            "cli.main": 1,
            "impute.mice_impute": 1,
            "tabular.load_csv": 1,
            "coxph.fit": spec["m"],
        }
    cfg = experiment_config(name, 0)
    families = len(cfg["families"])
    inner = cfg["split"]["inner"]
    folds = inner["k"] if inner["kind"] == "kfold" else 1
    # one grid point per family: a fit per fold plus the refit on all training rows
    return {
        "cli.main": 1,
        "synth.ensure_like": 1,
        "harness.grid_search": families,
        "harness.cv_evaluate": families,
        "harness.fit_fold_pipeline": families * (folds + 1),
        "impute.fit_mice": families * (folds + 1),
        "coxph.fit": folds + 1,
        "deepsurv.fit": folds + 1,
        "deephit.fit": folds + 1,
        "metrics.bootstrap.c_index": families,
        "metrics.bootstrap.ibs": families,
        "metrics.bootstrap.tauc_mean": families,
    }
