"""Command line interface.

Subcommands: impute, identify-factors, experiment, synth. A command computes
everything first and returns its files; `_run` then makes the run directory
(--out, or runs/<UTC stamp>_<digest>), writes those files and a
manifest.json recording inputs, hashes, seeds and timing, and prints the
directory's path. This module is the only one that writes run files:

- impute: completed_NN.csv, imputation.json, encoding.json, inclusion.json
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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import __version__
from ._kernels import BACKEND
from .errors import ComputationError, ConfigError, SchemaError, SurvkitError
from .harness import ExperimentConfig, experiment_split, identify_factors, run_experiment
from .impute import mice_impute
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
    key: bytes  # the default directory's digest hashes these bytes
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
    """(bytes, document) of the JSON file `path`; bytes that are not UTF-8
    JSON text are a ConfigError naming `what`."""
    data = Path(path).read_bytes()
    try:
        return data, json.loads(data)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8 text
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _run(args):
    """Run the parsed command, then make its directory, write its files and
    manifest.json, and print the directory's path."""
    started = _utc_now()
    run = args.func(args)
    if args.out:
        out_dir = Path(args.out)
    else:
        stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        out_dir = Path("runs") / f"{stamp}_{hashlib.sha256(run.key).hexdigest()[:8]}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in run.files.items():
        write(out_dir / name)
    _write_json(out_dir / "manifest.json", {
        "command": args.command,
        "args": run.echo,
        "inputs": {str(p): _sha256_file(p) for p in run.inputs},
        "seed": run.seed,
        "toolkit_version": __version__,
        "kernel_backend": BACKEND,
        "started_utc": started,
        "finished_utc": _utc_now(),
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


def cmd_impute(args):
    encoded, entries, files = _load_cohort(args.data, args.schema)
    iset = mice_impute(encoded, args.m, args.iterations, args.seed)
    names = [f"completed_{i:02d}.csv" for i in range(1, len(iset.datasets) + 1)]
    files.update((name, partial(save_csv, ds)) for name, ds in zip(names, iset.datasets))
    files["imputation.json"] = partial(_write_json, doc={**iset.provenance(), "files": names})
    files["encoding.json"] = partial(_write_json, doc=entries, sort_keys=False)
    return _Run(files, f"impute:{args.data}:{args.m}:{args.iterations}:{args.seed}".encode(),
                [args.data, args.schema], args.seed, {"m": args.m, "iterations": args.iterations})


def cmd_identify_factors(args):
    encoded, _, files = _load_cohort(args.data, args.schema)
    rows = identify_factors(encoded, m=args.m, iterations=args.iterations, seed=args.seed)
    files["factors.csv"] = partial(
        _write_csv, header=["variable", "hr", "ci_low", "ci_high", "p_value", "significant"],
        rows=[[r.name, repr(r.hr), repr(r.hr_low), repr(r.hr_high), repr(r.p_value),
               "yes" if r.significant else "no"] for r in rows])
    return _Run(files, f"factors:{args.data}:{args.m}:{args.iterations}:{args.seed}".encode(),
                [args.data, args.schema], args.seed, {"m": args.m, "iterations": args.iterations})


def cmd_experiment(args):
    config_bytes, doc = _load_json(args.config, "config")
    config = ExperimentConfig.from_dict(doc)

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
    return _Run(files, config_bytes, inputs, config.seed,
                {"models": args.models, "plot_patients": args.plot_patients},
                {"wall_clock_seconds": report.wall_clock_seconds})


def cmd_synth(args):
    inputs = []
    if args.ensure_like:
        ds, truth, _ = ensure_like(seed=args.seed)
        spec_echo = {"ensure_like": True}
    else:
        if not args.spec:
            raise ConfigError("synth needs --spec or --ensure-like")
        spec_echo = _load_json(args.spec, "spec")[1]
        inputs.append(args.spec)
        ds, truth = generate(spec_from_dict(spec_echo), seed=args.seed)
    files = {
        "cohort.csv": partial(save_csv, ds),
        "schema.json": partial(save_schema, ds.columns),
        "ground_truth.json": partial(
            _write_json, doc={**vars(truth), "eta": truth.eta.tolist()}, indent=None),
    }
    return _Run(files, json.dumps(spec_echo, sort_keys=True).encode(), inputs, args.seed,
                spec_echo)


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

    p = sub.add_parser("impute", help="multiply impute a cohort CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", default=None, help="output directory (default: runs/<stamp>_<hash>)")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("identify-factors", help="pooled hazard-ratio table")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_identify_factors)

    p = sub.add_parser("experiment", help="grid search, refit, test metrics")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--models", default=None, help="comma-separated subset of config families")
    p.add_argument("--plot-patients", default=None, help="comma-separated test patient ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--spec", default=None, help="generator spec JSON")
    p.add_argument("--ensure-like", action="store_true",
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
    except (SchemaError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except SurvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
