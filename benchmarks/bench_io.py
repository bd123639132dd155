"""Benchmark the fixed cost of a CLI call: the package import and cohort CSV I/O.

Times `import survkit` and `import survkit.cli` (the CLI's cold start) in
fresh interpreters (the median of N runs, each timed inside its own
process, with its peak RSS), next to `import numpy` as the floor no
survkit change can go below and `import scipy.special`, which the CLI
leaves out and `identify-factors` pays for inside its call, at its first
Rubin pooling. Then writes and reads an `ensure_like`-shaped cohort of ROWS
rows (the survbench `factors` input) with `save_csv` and `load_csv` and
prints the best of the repeats. After timing, the script asserts that
`import survkit` loaded no survkit module but `survkit._kernels`, that
neither import loaded a scipy module, that the file's bytes equal those of
a per-cell reference writer, and that loading it gives back the same value
bits and missingness mask.

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
# forking parent's pages, which exec leaves in its high-water mark; the
# last two fields count the scipy modules and list the survkit modules
# the import loaded
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import {module}\n"
    "elapsed = time.perf_counter() - t0\n"
    "with open('/proc/self/status') as fh:\n"
    "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM'))\n"
    "print(elapsed, kb / 1024, sum(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
    "      ','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'survkit')) or '-')\n"
)


def time_import(module, runs):
    """Median seconds and peak MB of `import module` over fresh interpreters,
    the most scipy modules any of them loaded, and every survkit module
    they loaded."""
    env = dict(os.environ)
    src = str(Path(survkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    seconds, peaks, scipy_modules, survkit_modules = [], [], 0, set()
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module=module)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        t, mb, n_scipy, loaded = out.stdout.split()
        seconds.append(float(t))
        peaks.append(float(mb))
        scipy_modules = max(scipy_modules, int(n_scipy))
        survkit_modules.update(loaded.split(","))
    return (statistics.median(seconds), statistics.median(peaks), scipy_modules,
            survkit_modules - {"-"})


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
    scipy_modules, survkit_modules = {}, {}
    for module in ("numpy", "scipy.special", "survkit", "survkit.cli"):
        t, mb, scipy_modules[module], survkit_modules[module] = time_import(module, imports)
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

        assert survkit_modules["survkit"] == {"survkit", "survkit._kernels"}, (
            f"import survkit loaded {sorted(survkit_modules['survkit'])}")
        assert scipy_modules["survkit"] == scipy_modules["survkit.cli"] == 0, (
            "import survkit or survkit.cli loaded scipy")
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
