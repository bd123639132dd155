"""One measured process: set up a workload, then make one `cli.main` call.

Run by run.py, one fresh interpreter per call, so the peak resident memory
read at the end belongs to this call alone. Writes a JSON result file:
the monotonic time at which set-up ended (run.py takes set-up time from
its own spawn time to this), the call's wall and CPU seconds, peak RSS,
exit code, and for traced calls the per-layer metrics and checks. A
set-up-only process (mode `setup`) instead checks the kernels on small
inputs (kernelcheck.py), after its set-up time is taken.

    python3 survbench/child.py --workload train --seed 0 --workdir DIR \
        --result FILE --mode {setup,call,trace}
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import kernelcheck
import spans
import workloads


def environment():
    """Versions and settings that make two results comparable or not."""
    import numpy as np
    import scipy

    import survkit

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "kernel_backend": survkit.KERNEL_BACKEND,
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "call", "trace"), required=True)
    args = parser.parse_args()

    import survkit  # noqa: F401  (import time is part of set-up)

    argv = workloads.make_inputs(args.workload, args.seed, args.workdir)
    result = {"setup_done": time.monotonic()}
    if args.mode == "setup":
        result["kernel_problems"] = kernelcheck.problems(args.seed)
    else:
        tracer = None
        if args.mode == "trace":
            tracer = spans.Tracer()
            result["uncovered"] = spans.uncovered(spans.install(tracer))
        from survkit import cli

        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["rc"] = rc
        result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["peak_rss_mb"] = after.ru_maxrss / 1024.0
        if tracer is not None:
            spans.measure_wrapper_cost(tracer)
            result["layers"] = spans.layer_metrics(tracer)
            result["identities"] = spans.identities(
                tracer, workloads.expected_counts(args.workload))
            result["spans"] = tracer.table()
        if workloads.WORKLOADS[args.workload]["kind"] == "experiment":
            from survkit.synth import ensure_like

            result["oracle_c"] = ensure_like(seed=args.seed)[1].oracle_c
        result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
