"""The rerun gate: the same inputs give the same bytes in a fresh process.

`synth`, `impute` and `identify-factors` on a small cohort, and the
800-row experiment of `test_oracle.py` read from a CSV, run twice, each
time in a fresh interpreter. The two runs differ in everything a run should
not depend on: the hash seed, the working directory, how `--out` is
spelled, the time zone and the locale. Every output file but
`manifest.json`, which records times and paths, must have the same bytes.

Two more pairs of fresh interpreters differ in what the machine offers a
run: `identify-factors` and a Cox-only experiment on 2000 rows under
`OPENBLAS_NUM_THREADS` 1 and 2, and `identify-factors` in a child held to
one CPU (its MICE chains on one worker) and in one free to use all.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import survkit
from survkit.synth import ensure_like, generate
from survkit.tabular import save_csv, save_schema
from test_oracle import CONFIG

# Runs each argv of argv[1] (a JSON list) through the CLI in this one
# interpreter; stops at the first non-zero exit code.
CHILD = """
import json, sys
from survkit.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    if rc:
        sys.exit(f"{argv[0]} exited {rc}")
"""

SPEC = {
    "n": 300,
    "covariates": [
        {"name": "x1", "kind": "continuous"},
        {"name": "x2", "kind": "continuous", "mean": 2.0, "sd": 0.5},
        {"name": "b", "kind": "binary", "p": 0.4},
        {"name": "grade", "kind": "categorical", "levels": {"g1": 0.5, "g2": 0.3, "g3": 0.2}},
    ],
    "beta": {"x1": 0.7, "b": -0.4, "grade=g3": 0.5},
    "scale": 12.0,
    "censoring_fraction": 0.3,
    "missing_rules": [
        {"column": "x2", "target_rate": 0.2, "drivers": ["x1"], "weights": [1.0]},
        {"column": "b", "target_rate": 0.15, "drivers": ["x1"], "weights": [-0.8]},
    ],
}

OUTPUTS = [
    "synth/cohort.csv", "synth/schema.json", "synth/ground_truth.json",
    "impute/completed_01.csv", "impute/completed_02.csv", "impute/imputation.json",
    "impute/encoding.json", "factors/factors.csv", "experiment/report.json",
    "experiment/metrics.csv",
]


def write_inputs(inputs):
    """The synth spec, and the 800-row oracle cohort as a CSV with its
    experiment config."""
    inputs.mkdir()
    (inputs / "spec.json").write_text(json.dumps(SPEC))
    ds, _ = generate(dataclasses.replace(ensure_like(0)[2], n=800), seed=0)
    save_csv(ds, inputs / "oracle.csv")
    save_schema(ds.columns, inputs / "oracle_schema.json")
    config = {**CONFIG, "data": "oracle.csv", "schema": "oracle_schema.json"}
    (inputs / "config.json").write_text(json.dumps(config))


def run_all(inputs, cwd, out, env):
    """Every command, in one fresh interpreter started in `cwd`, with its
    outputs under `out` as spelled."""
    cohort = ["--data", f"{out}synth/cohort.csv", "--schema", f"{out}synth/schema.json",
              "--m", "2", "--iterations", "2", "--seed", "3"]
    calls = [
        ["synth", "--spec", str(inputs / "spec.json"), "--seed", "5", "--out", f"{out}synth"],
        ["impute", *cohort, "--out", f"{out}impute"],
        ["identify-factors", *cohort, "--out", f"{out}factors/"],
        ["experiment", "--config", str(inputs / "config.json"), "--out", f"{out}experiment"],
    ]
    cwd.mkdir(parents=True)
    run_child(calls, env, cwd=cwd)


def run_child(calls, env=None, cwd=None, cpus=None):
    """`calls` through the CLI in one fresh interpreter started in `cwd`,
    with `env` added to its environment and, when `cpus` is given, its CPU
    affinity set to them (the child's alone)."""
    src = str(Path(survkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_fresh_processes_write_the_same_bytes(tmp_path):
    inputs = tmp_path / "inputs"
    write_inputs(inputs)
    first, second = tmp_path / "first", tmp_path / "second" / "nested"
    run_all(inputs, first, f"{first}/out/",
            {"PYTHONHASHSEED": "0", "TZ": "UTC", "LC_ALL": "C"})
    run_all(inputs, second, "./runs/../out//",
            {"PYTHONHASHSEED": "4242", "TZ": "Pacific/Chatham", "LC_ALL": "C.UTF-8"})
    for name in OUTPUTS:
        a, b = first / "out" / name, second / "out" / name
        assert a.read_bytes() == b.read_bytes(), name


# A cohort large enough that OpenBLAS splits its products over threads, and
# a Cox-only experiment on it: at 2000 rows both outputs moved with
# OPENBLAS_NUM_THREADS before every command ran at one BLAS thread.
BLAS_CONFIG = {
    "seed": 0, "data": "cohort.csv", "schema": "schema.json",
    "split": {"test_fraction": 0.2, "inner": {"kind": "holdout", "fraction": 0.25}},
    "prep": {"impute_iterations": 2},
    "families": {"coxph": {"l1": [0.008], "l2": [0.001]}},
    "n_boot": 10,
}


def write_blas_inputs(inputs, n=2000):
    inputs.mkdir()
    ds, _ = generate(dataclasses.replace(ensure_like(0)[2], n=n), seed=0)
    save_csv(ds, inputs / "cohort.csv")
    save_schema(ds.columns, inputs / "schema.json")
    (inputs / "config.json").write_text(json.dumps(BLAS_CONFIG))


def factors_call(inputs, out):
    return ["identify-factors", "--data", str(inputs / "cohort.csv"),
            "--schema", str(inputs / "schema.json"), "--m", "3", "--iterations", "2",
            "--seed", "3", "--out", str(out)]


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every command runs at one BLAS thread, so the caller's
    OPENBLAS_NUM_THREADS moves no output byte."""
    inputs = tmp_path / "inputs"
    write_blas_inputs(inputs)
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_child([factors_call(inputs, out / "factors"),
                   ["experiment", "--config", str(inputs / "config.json"),
                    "--out", str(out / "experiment")]],
                  env={"OPENBLAS_NUM_THREADS": threads})
    for name in ("factors/factors.csv", "experiment/report.json", "experiment/metrics.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_identify_factors_bytes_do_not_depend_on_the_worker_count(tmp_path):
    """The MICE chains run on one worker per CPU the process may use: a
    child held to one CPU runs them on one, a child free to use all on up
    to m, and the table is the same."""
    inputs = tmp_path / "inputs"
    write_blas_inputs(inputs, n=600)
    cpus = os.sched_getaffinity(0)
    for name, allowed in (("one", {min(cpus)}), ("all", cpus)):
        run_child([factors_call(inputs, tmp_path / name)], cpus=allowed)
    one, every = tmp_path / "one", tmp_path / "all"
    assert (one / "factors.csv").read_bytes() == (every / "factors.csv").read_bytes()
    workers = [json.loads((d / "manifest.json").read_text())["mice_workers"] for d in (one, every)]
    assert workers == [1, min(3, len(cpus))]
