"""Command line interface.

Subcommands: impute, identify-factors, experiment, synth. Every run writes
into its own directory (UTC timestamp plus a config digest, or --out) with
a manifest recording inputs, hashes, seeds, and timing. Exit codes: 0 on
success, 2 for validation problems (bad schema, data, or config), 3 for
computation failures. All configuration comes from flags and files; no
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import BACKEND
from .curves import curves_to_csv
from .errors import ComputationError, ConfigError, SchemaError, SurvkitError
from .harness import (
    ExperimentConfig,
    _coerce_seed,
    _inclusion_rules,
    factors_to_csv,
    identify_factors,
    run_experiment,
)
from .impute import mice_impute, save_imputation_set
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
)


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _utc_now():
    return dt.datetime.now(dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _run_dir(base, config_bytes):
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    digest = hashlib.sha256(config_bytes).hexdigest()[:8]
    return Path(base) / f"{stamp}_{digest}"


def _write_manifest(out_dir, command, args_echo, inputs, seed, started, extra=None):
    doc = {
        "command": command,
        "args": args_echo,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "seed": seed,
        "toolkit_version": __version__,
        "kernel_backend": BACKEND,
        "started_utc": started,
        "finished_utc": _utc_now(),
    }
    if extra:
        doc.update(extra)
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_cohort(data_path, schema_path, rules=None):
    columns = load_schema(schema_path)
    ds = load_csv(data_path, columns)
    return apply_inclusion(ds, rules or InclusionRules())


def cmd_impute(args):
    started = _utc_now()
    ds, audit = _load_cohort(args.data, args.schema)
    encoded, emap = dummy_encode(ds)
    iset = mice_impute(encoded, args.m, args.iterations, args.seed)
    out_dir = Path(args.out) if args.out else _run_dir(
        "runs", f"impute:{args.data}:{args.m}:{args.iterations}:{args.seed}".encode()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_imputation_set(iset, out_dir)
    emap.to_json(out_dir / "encoding.json")
    with open(out_dir / "inclusion.json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out_dir, "impute",
        {"m": args.m, "iterations": args.iterations},
        [args.data, args.schema], args.seed, started,
    )
    print(out_dir)
    return 0


def cmd_identify_factors(args):
    started = _utc_now()
    ds, audit = _load_cohort(args.data, args.schema)
    encoded, _ = dummy_encode(ds)
    rows = identify_factors(encoded, m=args.m, iterations=args.iterations, seed=args.seed)
    out_dir = Path(args.out) if args.out else _run_dir(
        "runs", f"factors:{args.data}:{args.m}:{args.iterations}:{args.seed}".encode()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    factors_to_csv(rows, out_dir / "factors.csv")
    with open(out_dir / "inclusion.json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out_dir, "identify-factors",
        {"m": args.m, "iterations": args.iterations},
        [args.data, args.schema], args.seed, started,
    )
    print(out_dir)
    return 0


def _plot_family_curves(report, test_ds, ids_wanted, out_dir):
    pids = test_ds.patient_ids()
    rows = [pids.index(p) for p in ids_wanted]
    t_test = test_ds.time
    grid = np.unique(t_test[test_ds.event == 1.0])
    for family_name, bundle in report.models.items():
        family, model, pipeline = bundle["family"], bundle["model"], bundle["pipeline"]
        x = pipeline.transform(test_ds)
        curves = family.curves(model, x[rows], grid)
        series = [(pid, curves.times, row) for pid, row in zip(ids_wanted, curves.values)]
        svg = svg_line_chart(series, title=f"{family_name}: predicted survival")
        with open(out_dir / f"curves_{family_name}.svg", "w", encoding="utf-8") as fh:
            fh.write(svg)
        curves_to_csv(ids_wanted, curves, out_dir / f"curves_{family_name}.csv")


def cmd_experiment(args):
    started = _utc_now()
    with open(args.config, "rb") as fh:
        config_bytes = fh.read()
    try:
        doc = json.loads(config_bytes)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    if args.models:
        wanted = [m.strip() for m in args.models.split(",") if m.strip()]
        families = doc.get("families", {})
        unknown = [m for m in wanted if m not in families]
        if unknown:
            raise ConfigError(f"--models not in config families: {unknown}")
        doc["families"] = {k: families[k] for k in wanted}

    config_dir = Path(args.config).resolve().parent
    inputs = [args.config]
    if doc.get("ensure_like"):
        ds, _, _ = ensure_like(seed=_coerce_seed("config", "ensure_like_seed",
                                                 doc.get("ensure_like_seed", 0)))
    else:
        if "data" not in doc or "schema" not in doc:
            raise ConfigError("config needs data and schema paths (or ensure_like: true)")
        data_path = config_dir / doc["data"]
        schema_path = config_dir / doc["schema"]
        inputs += [data_path, schema_path]
        ds, _ = _load_cohort(data_path, schema_path, _inclusion_rules(doc.get("inclusion")))
    encoded, _ = dummy_encode(ds)

    config = ExperimentConfig.from_dict(doc)

    # resolve plot targets before the expensive part so bad ids fail fast
    test_ds = None
    ids_wanted = []
    if args.plot_patients:
        from .harness import split as harness_split
        from .tabular import subset_rows

        split_res = harness_split(encoded, config.plan, config.seed + 1)
        test_ds = subset_rows(encoded, split_res.test_idx)
        ids_wanted = [p.strip() for p in args.plot_patients.split(",") if p.strip()]
        pids = test_ds.patient_ids()
        missing = [p for p in ids_wanted if p not in pids]
        if missing:
            raise ConfigError(f"--plot-patients ids not in the test split: {missing}")

    report = run_experiment(encoded, config)

    out_dir = Path(args.out) if args.out else _run_dir("runs", config_bytes)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "wb") as fh:
        fh.write(report.to_json_bytes())
    _write_metrics_csv(report, out_dir / "metrics.csv")

    if ids_wanted:
        _plot_family_curves(report, test_ds, ids_wanted, out_dir)

    _write_manifest(
        out_dir, "experiment",
        {"models": args.models, "plot_patients": args.plot_patients},
        inputs, config.seed, started,
        extra={"wall_clock_seconds": report.wall_clock_seconds},
    )
    print(out_dir)
    return 0


def _write_metrics_csv(report, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "metric", "point", "ci_low", "ci_high"])
        for family, section in report.content["families"].items():
            for metric, vals in section["test_metrics"].items():
                writer.writerow(
                    [family, metric, repr(vals["point"]), repr(vals["ci_low"]),
                     repr(vals["ci_high"])]
                )


def cmd_synth(args):
    started = _utc_now()
    inputs = []
    if args.ensure_like:
        ds, truth, _ = ensure_like(seed=args.seed)
        spec_echo = {"ensure_like": True}
    else:
        if not args.spec:
            raise ConfigError("synth needs --spec or --ensure-like")
        with open(args.spec, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"spec is not valid JSON: {exc}") from exc
        inputs.append(args.spec)
        spec = spec_from_dict(doc)
        ds, truth = generate(spec, seed=args.seed)
        spec_echo = doc
    out_dir = Path(args.out) if args.out else _run_dir(
        "runs", json.dumps(spec_echo, sort_keys=True).encode()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(ds, out_dir / "cohort.csv")
    save_schema(ds.columns, out_dir / "schema.json")
    truth.to_json(out_dir / "ground_truth.json")
    _write_manifest(out_dir, "synth", spec_echo, inputs, args.seed, started)
    print(out_dir)
    return 0


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
        return args.func(args)
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
