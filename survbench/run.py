"""survkit benchmark: run a workload through `survkit.cli.main`, check its
outputs, and print every metric with its unit.

    python3 survbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Run from the repository root. Each `cli.main` call runs in a fresh
interpreter (survbench/child.py), so its peak memory is its own. Calls
repeat while another one is expected to end within --seconds; at least one
is made. With --trace 0 the last stdout line reports the end-to-end metrics
wall_s, peak_rss_mb, setup_s and ok_frac (medians over the run's calls and
set-ups). With --trace 1 it makes one untraced and one traced call and
reports the per-layer metrics of the traced one, plus the tracing overhead.
The line before it records the environment and every call. --repin
re-records the pinned output values for the given workload and seed.
NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".survbench_work"
PINS = HERE / "pins.json"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 600
PIN_REL_TOL = 1e-9
PIN_ABS_TOL = 1e-15


def fail(message):
    print(f"survbench: {message}", file=sys.stderr)
    return 2


# -- environment ------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's own .git, or None (git would search parents)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, so results name the code they ran."""
    h = hashlib.sha256()
    pkg = SRC / "survkit"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".pyx")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- one process --------------------------------------------------------------

def spawn(mode, workload, seed, workdir):
    """Run child.py once; return its result dict (with setup_s) or a problem."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--result", str(result_path), "--mode", mode]
    with open(workdir / "child.log", "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"{mode} process timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        return None, f"{mode} process exited with {proc.returncode}:\n{tail}"
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_done"] - started
    return result, None


# -- output checks --------------------------------------------------------------

def output_values(workload, data):
    """The pinned quantities of one output, flattened to {name: value}."""
    values = {}
    if workloads.WORKLOADS[workload]["kind"] == "factors":
        for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
            for key in ("hr", "ci_low", "ci_high", "p_value"):
                values[f"{row['variable']}.{key}"] = float(row[key])
            values[f"{row['variable']}.significant"] = row["significant"]
        return values
    for family, section in json.loads(data)["families"].items():
        values[f"{family}.chosen_params"] = section["chosen_params"]
        for metric, vals in section["test_metrics"].items():
            for key in ("point", "ci_low", "ci_high"):
                values[f"{family}.{metric}.{key}"] = vals[key]
    return values


def pin_problems(pinned, values):
    problems = []
    for name in sorted(set(pinned) | set(values)):
        want, got = pinned.get(name), values.get(name)
        if isinstance(want, float) and isinstance(got, float):
            ok = math.isclose(want, got, rel_tol=PIN_REL_TOL, abs_tol=PIN_ABS_TOL)
        else:
            ok = want == got
        if not ok:
            problems.append(f"{name}: pinned {want!r}, got {got!r}")
    return problems


def first_digest(key, digest):
    """The first output digest recorded under `key`; records `digest` if none is.

    One file per key, created by an atomic link, so runs made at the same
    time neither lose nor overwrite each other's digests.
    """
    store = WORK / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / hashlib.sha256(key.encode()).hexdigest()
    tmp = store / f"{path.name}.{os.getpid()}"
    tmp.write_text(digest)
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        tmp.unlink()
    return path.read_text()


# Environment fields that can change output bytes: outputs are compared
# only between calls that agree on all of them.
ENV_KEY_FIELDS = ("python", "numpy", "scipy", "blas", "blas_threads", "kernel_backend")


class Checker:
    """Checks each call's output against the first output of its invocation.

    An invocation is the source digest, the workload's definition, the seed
    and the environment fields in ENV_KEY_FIELDS. Digests persist in the
    checkout's work directory, so a later run of the same invocation is
    compared with the first one.
    """

    def __init__(self, workload, seed, code):
        self.workload = workload
        definition = json.dumps(workloads.WORKLOADS[workload], sort_keys=True).encode()
        self.key = f"{code}:{hashlib.sha256(definition).hexdigest()[:16]}:{workload}:{seed}"
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        self.pinned = pins.get(workload, {}).get(str(seed))

    def check(self, result, workdir):
        """Problems with one call, as messages (empty when it passed)."""
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        data = (workdir / "out" / workloads.output_file(self.workload)).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        result["output_sha256"] = digest
        problems = []
        env = json.dumps([result["env"].get(f) for f in ENV_KEY_FIELDS])
        first = first_digest(f"{self.key}:{env}", digest)
        if digest != first:
            problems.append(f"output sha256 {digest[:16]} differs from the first run's "
                            f"{first[:16]}")
        values = output_values(self.workload, data)
        if "oracle_c" in result:
            gaps = {f: abs(values[f"{f}.c_index.point"] - result["oracle_c"])
                    for f in ("coxph", "deepsurv", "deephit")}
            result["oracle_gap"] = max(gaps.values())
        if self.pinned is not None:
            problems += pin_problems(self.pinned, values)
            # The acceptance rule holds at the pinned seed only; NOTES.md
            # lists seeds where the neural families miss it.
            if workloads.WORKLOADS[self.workload]["oracle"]:
                problems += [f"{f} C is {gap:.4f} from the oracle C"
                             for f, gap in gaps.items() if gap >= workloads.ORACLE_TOLERANCE]
        problems += [f"uncovered: {name}" for name in result.get("uncovered", [])]
        problems += [f"identity: {msg}" for msg in result.get("identities", [])]
        return problems


def repin(workload, seed, calldir):
    data = (calldir / "out" / workloads.output_file(workload)).read_bytes()
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins.setdefault(workload, {})[str(seed)] = output_values(workload, data)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- the run ---------------------------------------------------------------------

def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def run(args, workdir):
    """Make the run's calls; return its result line, context and problems.

    The result line is None when no call completed.
    """
    code = source_digest()
    checker = Checker(args.workload, args.seed, code)
    if args.repin:
        checker.pinned = None
    calls, setups, problems = [], [], []

    def call(mode):
        cwd = workdir / f"{mode}-{len(calls) + 1}"
        result, problem = spawn(mode, args.workload, args.seed, cwd)
        found = [problem] if problem else checker.check(result, cwd)
        problems.extend(found)
        record = {"mode": mode, "failed": bool(found)}
        if result is not None:
            setups.append(result["setup_s"])
            record.update({k: result.get(k) for k in (
                "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "rc", "output_sha256",
                "oracle_gap")})
        calls.append(record)
        return result

    if args.trace:
        plain = call("call")
        traced = plain and call("trace")
        if not traced:
            return None, {"calls": calls}, problems
        metrics = {name: {"value": traced["layers"][name], "unit": unit}
                   for name, unit, _, _ in spans.PER_LAYER}
        for span, n, busy, own in traced["spans"]:
            print(f"{span:<40}{n:>10}{busy:>10.3f}s{own:>10.3f}s self", file=sys.stderr)
        env = traced["env"]
    else:
        for i in range(SETUP_SAMPLES - 1):
            result, problem = spawn("setup", args.workload, args.seed, workdir / f"setup-{i}")
            if problem:
                problems.append(problem)
            else:
                setups.append(result["setup_s"])
                problems += [f"kernel: {msg}" for msg in result["kernel_problems"]]
        started = time.monotonic()
        while (result := call("call")) is not None:
            env = result["env"]
            elapsed = time.monotonic() - started
            if elapsed + result["wall_s"] + result["setup_s"] > args.seconds:
                break
        timed = [c for c in calls if "wall_s" in c]
        if not timed:
            return None, {"calls": calls}, problems
        ok = sum(not c["failed"] for c in calls)
        metrics = {
            "wall_s": {"value": statistics.median(c["wall_s"] for c in timed), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in timed),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_frac": {"value": ok / len(calls), "unit": "frac"},
        }
    if args.repin and not problems:
        repin(args.workload, args.seed, workdir / "call-1")
    env.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(), source_sha256=code)
    line = {"correct": not problems, "attempted": len(calls),
            "failed": sum(c["failed"] for c in calls), "metrics": metrics}
    return line, {"env": env, "calls": calls}, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record this run's output values as the pinned ones")
    args = parser.parse_args()

    if not (SRC / "survkit" / "__init__.py").is_file():
        return fail(f"no survkit sources under {SRC}; run from the repository root")
    declared = declared_metrics(args.trace)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        line, context, problems = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if line is None:
        return fail("no call completed")
    if declared is not None and declared != set(line["metrics"]):
        return fail(f"metrics differ from BENCHMARK.json: "
                    f"{sorted(declared ^ set(line['metrics']))}")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
