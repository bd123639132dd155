"""Benchmark the numpy survival kernels.

Runs the Efron loss/gradient and the concordance pair counts on random
inputs at several cohort sizes and prints the best per-call timing. The
Efron scan is timed twice: `efron_loss_grad`, which builds the tie
structure on every call, and `efron_eval` on an `efron_ties` record built
beforehand, as a Cox fit evaluates it; the script asserts that the two give
the same bits. Each size is timed on continuous times, where every event
group holds one event and the scan skips its group sums, and on times
rounded up to whole units, where long tied groups take them; `d_max` is the
largest tied event count. `efron_loss_grad` is also timed on the 64-row
minibatch shape DeepSurv trains on. The unweighted concordance counts
(the sorted O(n log n) path) are timed on both kinds of times too, and on
cohorts of up to WEIGHTED_MAX_N (8000) rows the script asserts that they
equal the weighted path's counts for one row of ones. There the weighted
counts (the blocked O(n^2) path) are also timed on the continuous times,
with B = 1 and B = 150 rows of bootstrap multiplicities at once (BOOTS; the
batch bootstrap's call), and the script asserts that each weighted row
equals the unweighted counts of its expanded sample.

Usage:
    python3 benchmarks/bench_kernels.py [--sizes 500,2000,8000,20000,200000] [--repeats 7]
"""

import argparse
import time

import numpy as np

from survkit._kernels import concordance_counts, efron_eval, efron_loss_grad, efron_ties

# bootstrap rows per weighted concordance call: one sample, and the
# replicate count of the survbench `boot` workload
BOOTS = (1, 150)
# the bootstrap scores test splits of a few thousand rows; the O(n^2 B)
# weighted counts are not timed on larger cohorts (25 s per B=150 call at
# n=20000 on a 2-CPU VM)
WEIGHTED_MAX_N = 8000


# rows per DeepSurv minibatch
BATCH = 64
# continuous times, and times rounded up to whole units (tied groups)
TIMES = ("continuous", "tied")


def survival_inputs(rng, n, tied=False):
    times = rng.exponential(10.0, n) + 0.01
    if tied:
        times = np.ceil(times)
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


def row(label, times, n, seconds, d_max=""):
    print(f"{label:<28}{times:>12}{n:>8}{d_max:>7}{seconds * 1e3:>10.3f}ms")


def time_efron(rng, n, repeats, batch=False):
    """Time the Efron scan on both kinds of times: `efron_loss_grad`, and
    unless `batch`, `efron_eval` on prepared ties and `efron_ties` too."""
    for kind in TIMES:
        times, events, scores = survival_inputs(rng, n, tied=kind == "tied")
        ties = efron_ties(times, events)
        value, grad = efron_loss_grad(times, events, scores)
        prepared = efron_eval(ties, scores)
        assert prepared[0] == value and prepared[1].tobytes() == grad.tobytes()
        d_max = ties.sizes.max() if len(ties.sizes) else 0
        t = best_of(lambda: efron_loss_grad(times, events, scores), repeats)
        row("efron_loss_grad", kind, n, t, d_max)
        if not batch:
            row("efron_eval (prepared ties)", kind, n,
                best_of(lambda: efron_eval(ties, scores), repeats), d_max)
            row("efron_ties", kind, n, best_of(lambda: efron_ties(times, events), repeats), d_max)


def time_concordance(rng, n, repeats):
    """Time the unweighted counts on both kinds of times, checked against
    the weighted row of ones, and the weighted counts on continuous times,
    all up to WEIGHTED_MAX_N rows."""
    weighted = n <= WEIGHTED_MAX_N
    for kind in TIMES:
        times, events, scores = survival_inputs(rng, n, tied=kind == "tied")
        if weighted:
            ones = concordance_counts(times, events, scores, weights=np.ones((1, n)))
            want = tuple(int(c[0]) for c in ones)
            assert concordance_counts(times, events, scores) == want, (kind, n)
        row("concordance_counts", kind, n,
            best_of(lambda: concordance_counts(times, events, scores), repeats))
    times, events, scores = survival_inputs(rng, n)
    for b in BOOTS if weighted else ():
        weights = multiplicities(rng, n, b)
        check_weighted(times, events, scores, weights[:2])
        t = best_of(lambda: concordance_counts(times, events, scores, weights=weights), repeats)
        row(f"concordance_counts B={b}", "continuous", n, t)


def run(sizes, repeats):
    header = f"{'kernel':<28}{'times':>12}{'n':>8}{'d_max':>7}{'time':>12}"
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    time_efron(rng, BATCH, repeats, batch=True)
    for n in sizes:
        time_efron(rng, n, repeats)
        time_concordance(rng, n, repeats)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="500,2000,8000,20000,200000",
                        help="comma-separated cohort sizes")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats; the best run is reported")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    run(sizes, args.repeats)


if __name__ == "__main__":
    main()
