"""Benchmark the fixed cost of a CLI call: the package import and cohort CSV I/O.

Times `import survkit` in fresh interpreters (the median of N runs, each
timed inside its own process, with its peak RSS), next to `import numpy`
as the floor no survkit change can go below. Then writes and reads an
`ensure_like`-shaped cohort of ROWS rows (the survbench `factors` input)
with `save_csv` and `load_csv` and prints the best of the repeats. After
timing, the script asserts that the file's bytes equal those of a per-cell
reference writer and that loading it gives back the same value bits and
missingness mask.

Usage:
    python3 benchmarks/bench_io.py [--rows 20000] [--repeats 3] [--imports 7]
"""

import argparse
import csv
import dataclasses
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import survkit
from survkit.synth import ensure_like, generate
from survkit.tabular import load_csv, save_csv

# the peak RSS is the process's VmHWM: ru_maxrss would also count the
# forking parent's pages, which exec leaves in its high-water mark
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import {module}\n"
    "elapsed = time.perf_counter() - t0\n"
    "with open('/proc/self/status') as fh:\n"
    "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM'))\n"
    "print(elapsed, kb / 1024)\n"
)


def time_import(module, runs):
    """Median seconds and peak MB of `import module` over fresh interpreters."""
    env = dict(os.environ)
    src = str(Path(survkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    seconds, peaks = [], []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module=module)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        t, mb = out.stdout.split()
        seconds.append(float(t))
        peaks.append(float(mb))
    return statistics.median(seconds), statistics.median(peaks)


def reference_save(ds, path):
    """The per-cell writer: one formatted cell at a time, row by row."""
    def cell(val, col):
        if col.kind == "categorical":
            return col.levels[int(round(val))]
        if col.kind == "binary":
            return str(int(round(val)))
        if float(val).is_integer() and abs(val) < 1e15:
            return str(int(val))
        return repr(float(val))

    mask = ds.missing_mask
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        for r in range(ds.n_rows):
            writer.writerow(["" if mask[r, j] else cell(ds.values[r, j], col)
                             for j, col in enumerate(ds.columns)])


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(rows, repeats, imports):
    header = f"{'step':<28}{'time':>12}{'peak RSS':>12}"
    print(header)
    print("-" * len(header))
    for module in ("numpy", "survkit"):
        t, mb = time_import(module, imports)
        print(f"{'import ' + module:<28}{t * 1e3:>10.1f}ms{mb:>10.1f}MB")

    _, _, base = ensure_like(0)
    ds, _ = generate(dataclasses.replace(base, n=rows), seed=0)
    cells = ds.values.size
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "cohort.csv", Path(tmp) / "reference.csv"
        t = best_of(lambda: save_csv(ds, path), repeats)
        print(f"{f'save_csv ({cells} cells)':<28}{t * 1e3:>10.1f}ms")
        t = best_of(lambda: load_csv(path, ds.columns), repeats)
        print(f"{f'load_csv ({cells} cells)':<28}{t * 1e3:>10.1f}ms")

        reference_save(ds, ref)
        assert path.read_bytes() == ref.read_bytes(), "save_csv bytes differ from the reference"
        back = load_csv(path, ds.columns)
        assert (back.missing_mask == ds.missing_mask).all()
        assert back.values.tobytes() == ds.values.tobytes()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20000, help="cohort rows")
    parser.add_argument("--repeats", type=int, default=3,
                        help="CSV timing repeats; the best run is reported")
    parser.add_argument("--imports", type=int, default=7,
                        help="fresh interpreters per import; the median is reported")
    args = parser.parse_args()
    run(args.rows, args.repeats, args.imports)


if __name__ == "__main__":
    main()
