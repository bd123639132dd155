"""The rerun gate: the same inputs give the same bytes in a fresh process.

`synth`, `impute` and `identify-factors` on a small cohort, and the
800-row experiment of `test_oracle.py` read from a CSV, run twice, each
time in a fresh interpreter. The two runs differ in everything a run should
not depend on: the hash seed, the working directory, how `--out` is
spelled, the time zone and the locale. Every output file but
`manifest.json`, which records times and paths, must have the same bytes.
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
    src = str(Path(survkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    cwd.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(calls)], cwd=cwd, env=env,
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
