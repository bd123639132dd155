"""Print how far each family's test concordance lies from the oracle's.

For each seed, runs survbench's `train` workload config (the reference
experiment with 20 bootstrap replicates, on the built-in `ensure_like`
cohort of that seed) through `survkit.cli.main`, which runs every command
at one BLAS thread, as survbench runs it. It prints each family's test C
minus the oracle C of the cohort's true linear predictor
(`ensure_like(seed)[1].oracle_c`), and marks with `*` every gap at least
`workloads.ORACLE_TOLERANCE` (0.03) in size, the acceptance rule. `--smoke`
swaps in the tiny split, preprocessing and grids that
`tests/test_benchmarks.py` traces; its gaps mean nothing. The script
asserts that every run exits with code 0 and reports the three families.

Usage:
    python3 benchmarks/oracle_gaps.py [--seeds 0-9] [--smoke]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from survkit import cli
from survkit.synth import ensure_like

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "survbench"))
import workloads  # noqa: E402

FAMILIES = ("coxph", "deepsurv", "deephit")

# the overrides of SMOKE_OVERRIDES in tests/test_benchmarks.py, which checks
# that the two agree
SMOKE_OVERRIDES = {
    "n_boot": 5,
    "split": {"test_fraction": 0.2, "inner": {"kind": "holdout", "fraction": 0.15}},
    "prep": {"impute_iterations": 1, "prune_threshold": 0.7, "standardize": True},
    "families": {"coxph": {"l1": [0.008], "l2": [0.001]},
                 "deepsurv": {"epochs": [1]}, "deephit": {"epochs": [1]}},
}


def seed_range(text):
    """The seeds of "A-B" (both ends included) or of a single "A"."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def family_c(seed, smoke, workdir):
    """{family: test C} of the `train` config at `seed`, run by the CLI."""
    config = workloads.experiment_config("train", seed)
    if smoke:
        config.update(SMOKE_OVERRIDES)
    path = Path(workdir) / "config.json"
    path.write_text(json.dumps(config))
    out = Path(workdir) / "out"
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints its run directory
        rc = cli.main(["experiment", "--config", str(path), "--out", str(out)])
    assert rc == 0, f"seed {seed}: exit code {rc}"
    families = json.loads((out / "report.json").read_text())["families"]
    assert sorted(families) == sorted(FAMILIES), sorted(families)
    return {f: families[f]["test_metrics"]["c_index"]["point"] for f in FAMILIES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    print("seed  " + "".join(f"{f:>10}" for f in FAMILIES) + "    oracle C")
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as workdir:
            c = family_c(seed, args.smoke, workdir)
        oracle = ensure_like(seed)[1].oracle_c
        cells = []
        for f in FAMILIES:
            gap = c[f] - oracle
            mark = "*" if abs(gap) >= workloads.ORACLE_TOLERANCE else " "
            cells.append(f"{gap:+9.4f}{mark}")
        print(f"{seed:<6}" + "".join(cells) + f"    {oracle:.4f}", flush=True)
    print(f"* |gap| >= {workloads.ORACLE_TOLERANCE}")


if __name__ == "__main__":
    main()
