"""Benchmark the memory that multiple imputation holds as m grows.

For each m, prints the `tracemalloc` peak of `mice_impute` followed by
building every completed set in turn (as `survkit impute` writes them), and
of `identify_factors` (impute, fit each set, pool), on an `ensure_like`-
shaped cohort of ROWS rows, dummy-coded as the CLI codes it. A second
`identify_factors` call prints the peak of each of its phases: the chains
(`mice_impute`), the fits (the most seen during any one fit) and the
pooling (likewise, over the `pool_rubin` calls). Each phase peak counts
what the call already holds when the phase runs. Next to them are the
bytes of one completed set and of the kept draws. A list of m completed
sets would add one set per imputation to the peaks; building them one at
a time adds only each chain's draws. Each m is measured after one untimed
call, so first-call imports stay out of the peaks. `tracemalloc` sees this
process only: where the chains run on worker processes (`mice_workers`
above 1), the chains' peaks are what this process holds while they run,
the start and the draws, and not the chains' own working memory. After measuring, the
script asserts that every set built from the largest m has the same bits
as its chain's `completed_train`, run on its own, and that its covariate
matrix built from the draws has the same bits as the completed set's.

Usage:
    python3 benchmarks/bench_impute_memory.py [--rows 20000] [--m 2,10,20] [--iterations 10]
"""

import argparse
import dataclasses
import time
import tracemalloc

from survkit import harness, impute
from survkit.harness import identify_factors
from survkit.preprocess import dummy_encode
from survkit.synth import ensure_like, generate

MB = 1e6


def traced_peak(fn):
    """(peak bytes tracemalloc saw during fn(), seconds)."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        fn()
        return tracemalloc.get_traced_memory()[1], time.perf_counter() - t0
    finally:
        tracemalloc.stop()


def impute_and_build(ds, m, iterations, seed):
    for _ in impute.mice_impute(ds, m, iterations, seed):
        pass


# identify_factors' phases, by the harness function that runs each
PHASES = {"mice_impute": "chains", "_fit_imputation": "fits", "pool_rubin": "pooling"}


def phase_peaks(ds, m, iterations, seed):
    """{phase: peak bytes tracemalloc saw during it} of one identify_factors
    call; a phase of several calls reads its largest call."""
    peaks = dict.fromkeys(PHASES.values(), 0)

    def traced(phase, fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1])
        return call

    saved = {name: getattr(harness, name) for name in PHASES}
    tracemalloc.start()
    try:
        for name, phase in PHASES.items():
            setattr(harness, name, traced(phase, saved[name]))
        identify_factors(ds, m=m, iterations=iterations, seed=seed)
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(harness, name, fn)
    return peaks


def run(rows, ms, iterations, seed=0):
    _, _, base = ensure_like(0)
    ds = dummy_encode(generate(dataclasses.replace(base, n=rows), seed=seed)[0])[0]
    n_missing = int(ds.missing_mask.sum())
    print(f"{rows} rows x {ds.values.shape[1]} columns, {n_missing} missing cells; "
          f"one completed set is {ds.values.nbytes / MB:.2f} MB")
    identify_factors(ds, m=2, iterations=1, seed=seed)  # warm: imports and caches

    header = (f"{'m':>4}{'draws':>10}{'impute+build':>16}{'identify_factors':>20}"
              + "".join(f"{phase:>10}" for phase in PHASES.values()))
    print(header)
    print("-" * len(header))
    for m in ms:
        impute_peak, impute_s = traced_peak(lambda: impute_and_build(ds, m, iterations, seed))
        factors_peak, factors_s = traced_peak(
            lambda: identify_factors(ds, m=m, iterations=iterations, seed=seed))
        phases = phase_peaks(ds, m, iterations, seed)
        print(f"{m:>4}{m * n_missing * 8 / MB:>8.2f}MB"
              f"{impute_peak / MB:>8.2f}MB {impute_s:>5.2f}s"
              f"{factors_peak / MB:>12.2f}MB {factors_s:>5.2f}s"
              + "".join(f"{peak / MB:>8.2f}MB" for peak in phases.values()))

    m = max(ms)
    iset = impute.mice_impute(ds, m, iterations, seed)
    for i, done in enumerate(iset):
        chain = impute.fit_mice(ds, iterations, seed + i).completed_train
        assert done.values.tobytes() == chain.values.tobytes(), f"set {i} differs from its chain"
        assert done.row_ids.tobytes() == chain.row_ids.tobytes()
        assert done.column_names == chain.column_names
        assert iset.covariate_matrix(i).tobytes("A") == done.covariate_matrix()[0].tobytes("A")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20000, help="cohort rows")
    parser.add_argument("--m", default="2,10,20", help="comma-separated imputation counts")
    parser.add_argument("--iterations", type=int, default=10, help="chained-equation sweeps")
    args = parser.parse_args()
    run(args.rows, [int(v) for v in args.m.split(",")], args.iterations)


if __name__ == "__main__":
    main()
