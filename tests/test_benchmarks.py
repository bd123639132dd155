"""Smoke runs of the benchmark scripts at tiny sizes.

Each script asserts, next to its timings, that the code it times gives the
same bits as a reference (the Efron split and the concordance counts, the
training step, the CSV writer and the load round trip); these runs make
those assertions part of the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import survkit

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("script, args", [
    ("bench_kernels.py", ["--sizes", "60,300", "--repeats", "1"]),
    ("bench_step.py", ["--steps", "5", "--repeats", "1"]),
    ("bench_io.py", ["--rows", "300", "--repeats", "1", "--imports", "1"]),
])
def test_benchmark_script_passes_its_checks(script, args):
    src = Path(survkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(BENCHMARKS / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
