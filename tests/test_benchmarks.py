"""Smoke runs of the benchmark scripts at tiny sizes.

Each script asserts, next to its timings, that the code it times gives the
same bits as a reference (the Efron split and the concordance counts, the
training step, the CSV writer and the load round trip, each completed
imputation against its chain run on its own); these runs make
those assertions part of the test suite, and `oracle_gaps.py` runs its tiny
experiment through the CLI to exit code 0. A tiny traced experiment checks
that survbench's tracer still covers every layer function, that the call
counts match the config, that every per-layer metric it declares computes
and that the prediction and scoring layers read non-zero. A small traced
`identify-factors`, whose MICE chains run on worker processes, checks the
same coverage and the `factors` workload's call counts.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import survkit

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


@pytest.mark.parametrize("script, args", [
    ("bench_kernels.py", ["--sizes", "60,300", "--repeats", "1"]),
    ("bench_step.py", ["--steps", "5", "--repeats", "1"]),
    ("bench_io.py", ["--rows", "300", "--repeats", "1", "--imports", "1"]),
    ("bench_impute_memory.py", ["--rows", "300", "--m", "2,3", "--iterations", "1"]),
    ("oracle_gaps.py", ["--seeds", "0", "--smoke"]),
])
def test_benchmark_script_passes_its_checks(script, args):
    src = Path(survkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(BENCHMARKS / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# A tiny experiment: these overrides of survbench's reference config.
SMOKE_OVERRIDES = {
    "n_boot": 5,
    "split": {"test_fraction": 0.2, "inner": {"kind": "holdout", "fraction": 0.15}},
    "prep": {"impute_iterations": 1, "prune_threshold": 0.7, "standardize": True},
    "families": {"coxph": {"l1": [0.008], "l2": [0.001]},
                 "deepsurv": {"epochs": [1]}, "deephit": {"epochs": [1]}},
}

def test_oracle_gaps_smoke_runs_these_overrides():
    spec = importlib.util.spec_from_file_location("oracle_gaps", BENCHMARKS / "oracle_gaps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.SMOKE_OVERRIDES == SMOKE_OVERRIDES


# Runs in a fresh interpreter, as survbench/child.py does, so the tracer's
# wrappers never reach this process. The tiny experiment is registered as a
# workload, so its inputs and expected call counts come from survbench.
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans, workloads

workloads.WORKLOADS["smoke"] = {"kind": "experiment", "oracle": False,
                                "overrides": json.loads(sys.argv[3])}
tracer = spans.Tracer()
uncovered = spans.uncovered(spans.install(tracer))
from survkit import cli

rc = cli.main(workloads.make_inputs("smoke", 0, sys.argv[2]))
spans.measure_wrapper_cost(tracer, calls=1000, repeats=1)
print(json.dumps({
    "rc": rc,
    "uncovered": uncovered,
    "identities": spans.identities(tracer, workloads.expected_counts("smoke")),
    "layers": spans.layer_metrics(tracer),
    "calls": [tracer.calls_under(*edge) for edge in json.loads(sys.argv[4])],
}))
"""

# (caller, callee) spans of each family's fit, risk and curve calls that the
# harness makes through its family records; deepsurv's own curve and fit
# calls reach its risk function too, so the caller is part of the check
FAMILY_CALLS = [
    *[("harness.fit_and_apply", f"{family}.fit") for family in ("coxph", "deepsurv", "deephit")],
    *[(caller, f"{family}.predict_risk") for caller in ("harness.cv_evaluate", "harness.run_experiment")
      for family in ("deepsurv", "deephit")],
    *[("harness.run_experiment", f"{family}.predict_survival")
      for family in ("coxph", "deepsurv", "deephit")],
]


def test_traced_experiment_covers_every_layer(tmp_path):
    src = Path(survkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "survbench"), str(tmp_path),
         json.dumps(SMOKE_OVERRIDES), json.dumps(FAMILY_CALLS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["uncovered"] == []
    assert result["identities"] == []
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(result["layers"]) == sorted(declared)
    assert all(isinstance(v, (int, float)) and v == v for v in result["layers"].values())
    # a layer function reached through a reference bound before the tracer
    # was installed would read 0 here, not fail
    for name in ("deephit.predict_survival.curves", "coxph.predict_survival.s",
                 "curves.survival_curve.evals", "kernels.concordance.calls"):
        assert result["layers"][name] > 0, name
    for edge, calls in zip(FAMILY_CALLS, result["calls"]):
        assert calls > 0, edge


# identify-factors on a small cohort, traced as TRACED_RUN traces the
# experiment. Its MICE chains run on worker processes, which call only
# private functions, so the traced call counts are the serial run's.
TRACED_FACTORS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import spans, workloads

workloads.WORKLOADS["smoke"] = {"kind": "factors", "n": 600, "m": 3, "iterations": 2,
                                "oracle": False}
tracer = spans.Tracer()
uncovered = spans.uncovered(spans.install(tracer))
from survkit import cli

rc = cli.main(workloads.make_inputs("smoke", 0, sys.argv[2]))
print(json.dumps({
    "rc": rc,
    "uncovered": uncovered,
    "identities": spans.identities(tracer, workloads.expected_counts("smoke")),
    "manifest": json.loads((Path(sys.argv[2]) / "out" / "manifest.json").read_text()),
}))
"""


def test_traced_identify_factors_counts_one_imputation_and_m_fits(tmp_path):
    src = Path(survkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_FACTORS,
         str(ROOT / "survbench"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["uncovered"] == []
    assert result["identities"] == []
    assert result["manifest"]["mice_workers"] == min(3, len(os.sched_getaffinity(0)))
