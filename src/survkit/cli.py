"""Command line interface.

Subcommands: impute, identify-factors, experiment, synth. A command computes
everything first and returns its files; `_run` then makes the run directory
(--out, or runs/<UTC stamp>_<digest>), writes those files and a
manifest.json recording inputs, hashes, seeds, timing, the BLAS thread
count and, for impute and identify-factors, the MICE worker count, and
prints the directory's path. Every command runs at one BLAS thread. This
module is the only one that writes run files:

- impute: completed_NN.csv and their schema.json, imputation.json,
  encoding.json, inclusion.json
- identify-factors: factors.csv, inclusion.json
- experiment: report.json, metrics.csv, inclusion.json for a CSV cohort,
  and curves_<family>.csv/.svg with --plot-patients
- synth: cohort.csv, schema.json, ground_truth.json

Exit codes: 0 on success, 2 for validation problems (bad schema, data, or
config), 3 for computation failures. The directory is made only after all
computation, so a bad input or a failed computation leaves none behind. All
configuration comes from flags and files; no environment variables are
consulted.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from . import __version__
from ._blas import blas_threads
from .errors import ComputationError, ConfigError, SurvkitError
from .harness import ExperimentConfig, experiment_split, identify_factors, run_experiment
from .impute import mice_impute, mice_workers
from .preprocess import dummy_encode
from .svgplot import svg_line_chart
from .synth import ensure_like, generate, spec_from_dict
from .tabular import (
    InclusionRules,
    apply_inclusion,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    subset_rows,
)


@dataclass
class _Run:
    """What a command computed, for `_run` to write."""

    files: dict  # file name -> writer, called with the file's path
    inputs: list  # paths whose sha256 the manifest records
    seed: int
    echo: dict  # the manifest's "args"
    extra: dict = field(default_factory=dict)  # further manifest keys


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _utc_now():
    return dt.datetime.now(dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(path, doc, indent=2, sort_keys=True):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def _write_csv(path, header, rows):
    """`header`, then `rows`, as CSV; callers format floats with repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_json(path, what):
    """The document of the JSON file `path`; bytes that are not UTF-8 JSON
    text are a ConfigError naming `what`."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8 text
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _run(args):
    """Run the parsed command, then make its directory, write its files and
    manifest.json, with the command's wall-clock seconds, and print the
    directory's path. The manifest records the run's identity (command,
    args, seed and the sha256 of each input), and the default directory's
    digest hashes it. The command runs at one BLAS thread, so its output
    bytes do not depend on the machine's thread count, and the caller's
    count is restored on exit."""
    with blas_threads(1) as threads:
        started = _utc_now()
        t0 = time.perf_counter()
        run = args.func(args)
        seconds = time.perf_counter() - t0
        identity = {"command": args.command, "args": run.echo, "seed": run.seed,
                    "inputs": {str(p): _sha256_file(p) for p in run.inputs}}
        if args.out:
            out_dir = Path(args.out)
        else:
            stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
            digest = hashlib.sha256(json.dumps(identity, sort_keys=True).encode()).hexdigest()
            out_dir = Path("runs") / f"{stamp}_{digest[:8]}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in run.files.items():
            write(out_dir / name)
        _write_json(out_dir / "manifest.json", {
            **identity,
            "toolkit_version": __version__,
            "started_utc": started,
            "finished_utc": _utc_now(),
            "wall_clock_seconds": seconds,
            "blas_threads": threads,
            **run.extra,
        })
    print(out_dir)
    return 0


def _load_cohort(data_path, schema_path, rules=None):
    """The cohort CSV filtered by `rules` and dummy-coded: (encoded dataset,
    encoding entries, {"inclusion.json": writer of the inclusion audit})."""
    ds, audit = apply_inclusion(load_csv(data_path, load_schema(schema_path)),
                                rules or InclusionRules())
    encoded, entries = dummy_encode(ds)
    return encoded, entries, {"inclusion.json": partial(_write_json, doc=audit)}


def _save_completed(iset, i, path):
    """Write completed set i of `iset`, built here so that one is in memory
    at a time."""
    save_csv(iset[i], path)


def _cohort_run(args, files):
    """The `_Run` of impute and identify-factors, which share their flags."""
    return _Run(files, [args.data, args.schema], args.seed,
                {"m": args.m, "iterations": args.iterations}, {"mice_workers": mice_workers(args.m)})


def cmd_impute(args):
    encoded, entries, files = _load_cohort(args.data, args.schema)
    iset = mice_impute(encoded, args.m, args.iterations, args.seed)
    names = [f"completed_{i:02d}.csv" for i in range(1, len(iset) + 1)]
    files.update((name, partial(_save_completed, iset, i)) for i, name in enumerate(names))
    # the completed files' schema: their indicators hold unrounded draws
    files["schema.json"] = partial(save_schema, [
        replace(c, kind="continuous") if c.role == "covariate" and c.kind == "binary" else c
        for c in encoded.columns])
    files["imputation.json"] = partial(_write_json, doc={**iset.provenance(), "files": names})
    files["encoding.json"] = partial(_write_json, doc=entries, sort_keys=False)
    return _cohort_run(args, files)


def cmd_identify_factors(args):
    encoded, _, files = _load_cohort(args.data, args.schema)
    rows = identify_factors(encoded, m=args.m, iterations=args.iterations, seed=args.seed)
    files["factors.csv"] = partial(
        _write_csv, header=["variable", "hr", "ci_low", "ci_high", "p_value", "significant"],
        rows=[[r.name, repr(r.hr), repr(r.hr_low), repr(r.hr_high), repr(r.p_value),
               "yes" if r.significant else "no"] for r in rows])
    return _cohort_run(args, files)


def cmd_experiment(args):
    config = ExperimentConfig.from_dict(_load_json(args.config, "config"))

    if args.models:
        wanted = [m.strip() for m in args.models.split(",") if m.strip()]
        unknown = [m for m in wanted if m not in config.families]
        if unknown:
            raise ConfigError(f"--models not in config families: {unknown}")
        config.families = {k: config.families[k] for k in wanted}

    inputs = [args.config]
    if config.ensure_like:
        encoded, _ = dummy_encode(ensure_like(seed=config.ensure_like_seed)[0])
        files = {}
    elif config.data is None or config.schema is None:
        raise ConfigError("config needs data and schema paths (or ensure_like: true)")
    else:
        config_dir = Path(args.config).resolve().parent
        data_path, schema_path = config_dir / config.data, config_dir / config.schema
        inputs += [data_path, schema_path]
        encoded, _, files = _load_cohort(data_path, schema_path, config.inclusion)

    # resolve plot targets before the expensive part so bad ids fail fast
    ids = [p.strip() for p in (args.plot_patients or "").split(",") if p.strip()]
    if ids:
        pids = subset_rows(encoded, experiment_split(encoded, config).test_idx).patient_ids()
        missing = [p for p in ids if p not in pids]
        if missing:
            raise ConfigError(f"--plot-patients ids not in the test split: {missing}")

    report = run_experiment(encoded, config)
    files["report.json"] = partial(Path.write_bytes, data=report.to_json_bytes())
    files["metrics.csv"] = partial(
        _write_csv, header=["family", "metric", "point", "ci_low", "ci_high"],
        rows=[[family, metric, repr(v["point"]), repr(v["ci_low"]), repr(v["ci_high"])]
              for family, section in report.content["families"].items()
              for metric, v in section["test_metrics"].items()])
    for family in report.fits if ids else ():
        curves = report.test_curves(family, [pids.index(p) for p in ids])
        series = [(pid, curves.times, row) for pid, row in zip(ids, curves.values)]
        svg = svg_line_chart(series, title=f"{family}: predicted survival")
        files[f"curves_{family}.svg"] = partial(Path.write_bytes, data=svg.encode("utf-8"))
        files[f"curves_{family}.csv"] = partial(
            _write_csv, header=["patient_id", "t", "S"],
            rows=[[pid, repr(float(t)), repr(float(s))]
                  for pid, times, row in series for t, s in zip(times, row)])
    return _Run(files, inputs, config.seed, {"models": args.models, "plot_patients": args.plot_patients})


def cmd_synth(args):
    if args.ensure_like:
        ds, truth, _ = ensure_like(seed=args.seed)
        spec_echo = {"ensure_like": True}
    else:
        spec_echo = _load_json(args.spec, "spec")
        ds, truth = generate(spec_from_dict(spec_echo), seed=args.seed)
    files = {
        "cohort.csv": partial(save_csv, ds),
        "schema.json": partial(save_schema, ds.columns),
        "ground_truth.json": partial(
            _write_json, doc={**vars(truth), "eta": truth.eta.tolist()}, indent=None),
    }
    return _Run(files, [] if args.ensure_like else [args.spec], args.seed, spec_echo)


def _seed_flag(text):
    """A --seed value: a non-negative integer, else a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="survkit",
        description="Survival analysis toolkit: imputation, risk models, metrics",
    )
    parser.add_argument("--version", action="version", version=f"survkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in [("impute", cmd_impute, "multiply impute a cohort CSV"),
                             ("identify-factors", cmd_identify_factors, "pooled hazard-ratio table")]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--data", required=True)
        p.add_argument("--schema", required=True)
        p.add_argument("--m", type=int, default=10)
        p.add_argument("--iterations", type=int, default=10)
        p.add_argument("--seed", type=_seed_flag, default=0)
        p.add_argument("--out", default=None, help="output directory (default: runs/<stamp>_<hash>)")
        p.set_defaults(func=func)

    p = sub.add_parser("experiment", help="grid search, refit, test metrics")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--models", default=None, help="comma-separated subset of config families")
    p.add_argument("--plot-patients", default=None, help="comma-separated test patient ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="generator spec JSON")
    source.add_argument("--ensure-like", action="store_true",
                        help="use the built-in registry-like cohort spec")
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except (SurvkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
