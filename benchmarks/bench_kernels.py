"""Benchmark the numpy survival kernels.

Runs the Efron loss/gradient and the concordance pair counts on random
inputs at several cohort sizes and prints the best per-call timing. The
concordance counts are also timed weighted by B rows of bootstrap
multiplicities at once (the batch bootstrap's call), and the script
asserts that each weighted row equals the unweighted counts of its
expanded sample.

Usage:
    python3 benchmarks/bench_kernels.py [--sizes 500,2000,8000] [--repeats 7]
"""

import argparse
import time

import numpy as np

from survkit._kernels import concordance_counts, efron_loss_grad

# bootstrap rows per weighted concordance call: one sample, and the
# replicate count of the survbench `boot` workload
BOOTS = (1, 150)


def survival_inputs(rng, n):
    times = rng.exponential(10.0, n) + 0.01
    events = (rng.random(n) < 0.65).astype(float)
    events[0] = 1.0
    scores = rng.normal(0.0, 1.0, n)
    # round a third of the scores so the tie paths get exercised too
    third = n // 3
    scores[:third] = np.round(scores[:third], 1)
    return times, events, scores


def multiplicities(rng, n, rows):
    """`rows` bootstrap count rows: how often each subject is drawn."""
    return np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(rows)],
                    dtype=float)


def check_weighted(times, events, scores, weights):
    """Each weighted row must equal the unweighted counts on the expanded sample."""
    got = concordance_counts(times, events, scores, weights=weights)
    for r, row in enumerate(weights.astype(int)):
        idx = np.repeat(np.arange(len(times)), row)
        want = concordance_counts(times[idx], events[idx], scores[idx])
        assert tuple(int(c[r]) for c in got) == want, (r, want)


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(sizes, repeats):
    header = f"{'kernel':<28}{'n':>8}{'time':>12}"
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in sizes:
        times, events, scores = survival_inputs(rng, n)
        for kernel in (efron_loss_grad, concordance_counts):
            t = best_of(lambda: kernel(times, events, scores), repeats)
            print(f"{kernel.__name__:<28}{n:>8}{t * 1e3:>10.2f}ms")
        for b in BOOTS:
            weights = multiplicities(rng, n, b)
            check_weighted(times, events, scores, weights[:2])
            t = best_of(lambda: concordance_counts(times, events, scores, weights=weights),
                        repeats)
            label = f"concordance_counts B={b}"
            print(f"{label:<28}{n:>8}{t * 1e3:>10.2f}ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="500,2000,8000",
                        help="comma-separated cohort sizes")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats; the best run is reported")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    run(sizes, args.repeats)


if __name__ == "__main__":
    main()
