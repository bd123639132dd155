"""Tier-1 behaviour oracle: the values of one small experiment, pinned.

An 800-row `ensure_like` cohort runs coxph, deepsurv and deephit under
3-fold CV with 30 bootstrap replicates. Every value of the report's
`families` section (each fold score, mean score, chosen grid point, and
test metric with its CI) must stay within rel 1e-9 of `oracle_pins.json`.
A change that moves one on purpose re-pins them with

    PYTHONPATH=src python tests/test_oracle.py --repin
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

from survkit.harness import ExperimentConfig, run_experiment
from survkit.preprocess import dummy_encode
from survkit.synth import ensure_like, generate

PINS = Path(__file__).with_name("oracle_pins.json")

CONFIG = {
    "seed": 0,
    "split": {"inner": {"kind": "kfold", "k": 3}},
    "prep": {"impute_iterations": 2},
    "families": {
        "coxph": {"l1": [0.0, 0.008], "l2": [0.001]},
        "deepsurv": {"epochs": [3]},
        "deephit": {"epochs": [3]},
    },
    "n_boot": 30,
}


def observed_families():
    spec = dataclasses.replace(ensure_like(0)[2], n=800)
    ds, _ = dummy_encode(generate(spec, seed=0)[0])
    return run_experiment(ds, ExperimentConfig.from_dict(CONFIG)).content["families"]


def assert_close(pinned, got, where="families"):
    """`got` has the structure of `pinned`; floats agree within rel 1e-9."""
    if isinstance(pinned, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(pinned), where
        for key in pinned:
            assert_close(pinned[key], got[key], f"{where}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(got, list) and len(got) == len(pinned), where
        for i, (p, g) in enumerate(zip(pinned, got)):
            assert_close(p, g, f"{where}[{i}]")
    elif isinstance(pinned, float):
        assert math.isclose(got, pinned, rel_tol=1e-9, abs_tol=1e-15), (
            f"{where}: {got!r} != pinned {pinned!r}")
    else:
        assert got == pinned, f"{where}: {got!r} != pinned {pinned!r}"


def test_report_values_match_the_pins():
    assert_close(json.loads(PINS.read_text(encoding="utf-8")), observed_families())


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_oracle.py --repin")
    PINS.write_text(json.dumps(observed_families(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
