"""Cohort tables: column schema, CSV ingestion, the outcome contract,
inclusion rules, summaries.

A dataset is a numeric matrix; a NaN cell is a missing cell. Categorical
cells are stored as indices into the column's declared level list, which
keeps the matrix numeric while making CSV round-trips exact. Row order is
preserved through every operation; `row_ids` tracks original row positions
through subsetting so downstream audits can reason about provenance.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaError, check_keys, check_types

KINDS = ("continuous", "categorical", "binary")
ROLES = ("covariate", "time", "event", "id", "center")


@dataclass
class ColumnSpec:
    """One column: name, value kind, pipeline role, declared levels."""

    name: str
    kind: str
    role: str = "covariate"
    levels: list = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind == "categorical":
            if not self.levels:
                raise SchemaError(f"column {self.name!r}: categorical column needs levels")
            if not isinstance(self.levels, list) or not all(
                    isinstance(lv, str) and lv for lv in self.levels):
                raise SchemaError(
                    f"column {self.name!r}: levels must be a list of non-empty strings")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"column {self.name!r}: duplicate levels")
        elif self.levels:
            raise SchemaError(f"column {self.name!r}: only categorical columns take levels")


def validate_schema(columns):
    """Check cross-column schema rules; returns the columns unchanged."""
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate column names in schema")
    times = [c for c in columns if c.role == "time"]
    events = [c for c in columns if c.role == "event"]
    if len(times) != 1 or len(events) != 1:
        raise SchemaError("schema needs exactly one time column and one event column")
    if times[0].kind != "continuous":
        raise SchemaError("time column must be continuous")
    if events[0].kind != "binary":
        raise SchemaError("event column must be binary")
    return columns


class SurvivalDataset:
    """Numeric cohort matrix with its schema. A NaN cell is missing, and
    `missing_mask` is derived from `values`; a `missing_mask` argument is
    only checked against the NaN cells (DataError if it disagrees)."""

    def __init__(self, columns, values, missing_mask=None, row_ids=None):
        validate_schema(columns)
        self.columns = columns
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("values must be a 2-D array")
        if self.values.shape[1] != len(self.columns):
            raise DataError("values width does not match schema")
        if missing_mask is not None and not np.array_equal(
            np.asarray(missing_mask, dtype=bool), np.isnan(self.values)
        ):
            raise DataError("missing_mask must mark exactly the NaN cells of values")
        if row_ids is None:
            row_ids = np.arange(self.values.shape[0])
        self.row_ids = np.asarray(row_ids, dtype=np.int64)

    @property
    def missing_mask(self):
        """Read-only; True where `values` is NaN. Each read scans the whole
        matrix, so read it once per function, not once per column."""
        mask = np.isnan(self.values)
        mask.flags.writeable = False
        return mask

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def col_index(self, name):
        try:
            return self.column_names.index(name)
        except ValueError:
            raise SchemaError(f"no column named {name!r}") from None

    def column(self, name):
        return self.columns[self.col_index(name)]

    def _role_index(self, role):
        for i, c in enumerate(self.columns):
            if c.role == role:
                return i
        return None

    @property
    def time(self):
        return self.values[:, self._role_index("time")]

    @property
    def event(self):
        return self.values[:, self._role_index("event")]

    @property
    def covariate_names(self):
        return [c.name for c in self.columns if c.role == "covariate"]

    def covariate_matrix(self):
        """Covariate-role columns as (values, mask, names)."""
        idx = [i for i, c in enumerate(self.columns) if c.role == "covariate"]
        x = self.values[:, idx]
        return x, np.isnan(x), [self.columns[i].name for i in idx]

    def patient_ids(self):
        """Display ids: the id-role column when present, else row position."""
        i = self._role_index("id")
        if i is None:
            return [str(r) for r in self.row_ids]
        return list(map(_cell_formatter(self.columns[i]), self.values[:, i].tolist()))


def subset_rows(ds, idx):
    """Rows by integer index, preserving order and provenance."""
    idx = np.asarray(idx, dtype=np.int64)
    return SurvivalDataset(list(ds.columns), ds.values[idx], row_ids=ds.row_ids[idx])


def drop_columns(ds, names):
    dropset = set(names)
    missing = dropset - set(ds.column_names)
    if missing:
        raise SchemaError(f"cannot drop unknown columns: {sorted(missing)}")
    keep = [i for i, c in enumerate(ds.columns) if c.name not in dropset]
    return SurvivalDataset(
        [ds.columns[i] for i in keep], ds.values[:, keep], row_ids=ds.row_ids.copy()
    )


def replace_column_values(ds, name, values, mask=None):
    """Functional single-column update; the column's NaN cells are missing.
    A given `mask` must mark exactly those cells (DataError otherwise)."""
    j = ds.col_index(name)
    out_values = ds.values.copy()
    out_values[:, j] = values
    if mask is not None and np.any(np.asarray(mask, dtype=bool) != np.isnan(out_values[:, j])):
        raise DataError(f"mask for column {name!r} disagrees with the NaN cells of its values")
    return SurvivalDataset(list(ds.columns), out_values, row_ids=ds.row_ids.copy())


# -- outcome contract --------------------------------------------------------

def check_outcomes(times, events):
    """Follow-up times and event indicators as float arrays (t, e), checked:
    equal-length, non-empty and 1-D, with no NaN, every time finite and
    every event exactly 0 or 1. Every fit, estimator and metric reads
    outcomes through this rule; a violation is a DataError."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    if t.ndim != 1 or t.shape != e.shape or len(t) == 0:
        raise DataError("times and events must be equal-length non-empty 1-D arrays")
    if np.isnan(t).any() or np.isnan(e).any():
        raise DataError("outcomes must be complete")
    if np.isinf(t).any():  # an infinite event time would be a baseline knot
        raise DataError("times must be finite")
    if not np.isin(e, (0.0, 1.0)).all():
        raise DataError("events must be 0/1")
    return t, e


def check_fit_inputs(x, times, events):
    """`check_outcomes` plus what a fit needs: x as an (n, p) float matrix
    with p >= 1 and no NaN, and at least one event. Returns (x, t, e)."""
    t, e = check_outcomes(times, events)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(t):
        raise DataError("x must be (n, p) with times and events of length n")
    if x.shape[1] == 0:
        raise DataError("no covariate columns")
    if np.isnan(x).any():
        raise DataError("covariates must be complete; impute first")
    if not e.any():
        raise DataError("no events in the data")
    return x, t, e


# -- schema JSON -------------------------------------------------------------

def save_schema(columns, path):
    """Schema as a JSON object mapping column name -> {kind, role, levels}."""
    doc = {}
    for c in validate_schema(columns):
        entry = {"kind": c.kind, "role": c.role}
        if c.levels:
            entry["levels"] = list(c.levels)
        doc[c.name] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_schema(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"schema file {path} is not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("schema JSON must be an object mapping name -> spec")
    columns = []
    for name, entry in doc.items():
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SchemaError(f"column {name!r}: spec must be an object with a kind")
        check_keys(f"column {name!r}", entry, ["kind", "role", "levels"], SchemaError)
        columns.append(
            ColumnSpec(
                name=name,
                kind=entry["kind"],
                role=entry.get("role", "covariate"),
                levels=entry.get("levels"),
            )
        )
    return validate_schema(columns)


# -- CSV ---------------------------------------------------------------------

MISSING = frozenset({"", "NA"})  # cells `load_csv` reads as missing; `save_csv` writes ""
_BLOCK_ROWS = 1024  # rows `save_csv` formats before it writes them


def _cell_parser(col):
    """`parse(raw, row_num)` for the cells of `col`: NaN for a `MISSING`
    cell, else the cell's value, or a DataError naming the row and the
    column. A present cell never parses to NaN (numbers must be finite,
    binaries 0 or 1, categories a declared level's index), so a cell is
    missing exactly when it parses to NaN."""
    nan = float("nan")
    name = col.name
    if col.kind == "categorical":
        levels = col.levels
        codes = {lv: float(i) for i, lv in enumerate(levels)}

        def parse(raw, row_num):
            if raw in MISSING:
                return nan
            val = codes.get(raw)
            if val is None:
                raise DataError(
                    f"value {raw!r} not among declared levels {levels}", row=row_num, column=name
                )
            return val

    elif col.kind == "binary":

        def parse(raw, row_num):
            if raw in MISSING:
                return nan
            try:
                val = float(raw)
            except ValueError:
                raise DataError(f"expected 0 or 1, got {raw!r}", row=row_num, column=name) from None
            if val not in (0.0, 1.0):
                raise DataError(f"expected 0 or 1, got {raw!r}", row=row_num, column=name)
            return val

    else:
        is_time = col.role == "time"
        isfinite = math.isfinite

        def parse(raw, row_num):
            if raw in MISSING:
                return nan
            try:
                val = float(raw)
            except ValueError:
                raise DataError(f"expected a number, got {raw!r}", row=row_num, column=name) from None
            if not isfinite(val):
                raise DataError(f"non-finite value {raw!r}", row=row_num, column=name)
            if is_time and val < 0:
                raise DataError("negative follow-up time", row=row_num, column=name)
            return val

    return parse


def _cell_formatter(col):
    """`format(val)` for the Python-float cells of `col`: the level name, else
    a plain integer below 1e15 in magnitude, else the shortest repr that
    reads back to the same float. A binary cell is a number like any other:
    0 and 1 give "0" and "1", and an imputed indicator is written as drawn."""
    if col.kind == "categorical":
        levels = col.levels
        return lambda val: levels[int(round(val))]
    return lambda val: str(int(val)) if val.is_integer() and abs(val) < 1e15 else repr(val)


def load_csv(path, columns):
    """Load an RFC-4180 CSV against a schema.

    The header must contain exactly the schema's column names in any order.
    Empty and "NA" cells are NaN (missing); all other cells must parse per
    their column kind. Errors carry the 1-based data row number; cells are
    checked row by row, each row in schema order. A leading UTF-8
    byte-order mark, as spreadsheet "CSV UTF-8" exports write, is skipped;
    a file that is not UTF-8 text is a DataError naming it.
    """
    validate_schema(columns)
    try:
        cells = _read_cells(path, columns)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    values = np.frombuffer(cells, dtype=float).reshape(-1, len(columns))
    return SurvivalDataset(list(columns), values)


def _read_cells(path, columns):
    """`load_csv`'s parsed cells in one buffer of floats (8 bytes a cell),
    row by row, each row in schema order."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column in header")
        want = set(c.name for c in columns)
        got = set(header)
        if want != got:
            extra = sorted(got - want)
            lacking = sorted(want - got)
            parts = []
            if extra:
                parts.append(f"unknown columns {extra}")
            if lacking:
                parts.append(f"missing columns {lacking}")
            raise SchemaError(f"{path}: header does not match schema: " + "; ".join(parts))

        cells = [(header.index(c.name), _cell_parser(c)) for c in columns]
        width = len(header)
        values = array("d")
        for row_num, record in enumerate(reader, start=1):
            if len(record) != width:
                raise DataError(f"expected {width} fields, got {len(record)}", row=row_num)
            values.extend([parse(record[p], row_num) for p, parse in cells])
    return values


def save_csv(ds, path):
    """Write a dataset back to CSV, a block of rows at a time, so that only
    one block's cell strings are alive; load(save(ds)) is an identity for
    0/1 binary cells and integral category codes."""
    formats = [_cell_formatter(col) for col in ds.columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        for start in range(0, ds.n_rows, _BLOCK_ROWS):
            block = ds.values[start:start + _BLOCK_ROWS]
            cells = [["" if val != val else fmt(val)  # NaN: missing
                      for val in block[:, j].tolist()] for j, fmt in enumerate(formats)]
            writer.writerows(zip(*cells))


# -- inclusion ---------------------------------------------------------------

@dataclass
class InclusionRules:
    """Row filters applied before any modeling, after the rows with a
    missing time or event cell are dropped.

    exclude_levels: {column: [levels]} removes rows taking any listed level.
    exclude_early_events: removes rows with an event at or before the given
    time (generic guard against immediate postoperative deaths and similar;
    no default threshold).
    """

    exclude_levels: dict[str, list[str]] = field(default_factory=dict)
    exclude_early_events: float | None = None

    def __post_init__(self):
        check_types("inclusion", self)


def apply_inclusion(ds, rules):
    """Drop rows with a missing outcome, then apply the inclusion rules in
    declared order; returns (dataset, audit).

    The audit lists (rule, n_dropped) in application order, the first
    always "drop_missing_outcomes", plus the total row counts, so reports
    can state exactly why rows left the cohort.
    """
    keep = ~(np.isnan(ds.time) | np.isnan(ds.event))
    audit = {"n_before": int(ds.n_rows),
             "steps": [{"rule": "drop_missing_outcomes", "n_dropped": int((~keep).sum())}]}

    for name, levels in rules.exclude_levels.items():
        col = ds.column(name)
        if col.kind != "categorical":
            raise SchemaError(f"exclude_levels applies to categorical columns, not {name!r}")
        unknown = [lv for lv in levels if lv not in col.levels]
        if unknown:
            raise SchemaError(f"exclude_levels: {name!r} has no levels {unknown}")
        j = ds.col_index(name)
        codes = set(float(col.levels.index(lv)) for lv in levels)
        hit = np.isin(ds.values[:, j], sorted(codes))  # a NaN cell is never a code
        dropped = int((hit & keep).sum())
        keep &= ~hit
        audit["steps"].append(
            {"rule": f"exclude_levels:{name}", "levels": list(levels), "n_dropped": dropped}
        )

    if rules.exclude_early_events is not None:
        hit = (ds.event == 1.0) & (ds.time <= rules.exclude_early_events)
        dropped = int((hit & keep).sum())
        keep &= ~hit
        audit["steps"].append(
            {
                "rule": "exclude_early_events",
                "threshold": float(rules.exclude_early_events),
                "n_dropped": dropped,
            }
        )

    out = subset_rows(ds, np.flatnonzero(keep))
    audit["n_after"] = int(out.n_rows)
    return out, audit


# -- summary -----------------------------------------------------------------

@dataclass
class CohortSummary:
    n_rows: int
    n_events: int
    event_fraction: float
    n_covariates: int
    followup_quartiles: tuple
    followup_max: float
    followup_mean: float
    missing_pct: dict


def summarize(ds):
    """Cohort description: size, events, follow-up spread, missingness.
    The outcomes must meet `check_outcomes`; apply inclusion rules first."""
    t, e = check_outcomes(ds.time, ds.event)
    q25, q50, q75 = np.quantile(t, [0.25, 0.5, 0.75])
    mask = ds.missing_mask
    missing = {}
    for j, col in enumerate(ds.columns):
        if col.role == "covariate":
            missing[col.name] = float(mask[:, j].mean() * 100.0)
    return CohortSummary(
        n_rows=int(ds.n_rows),
        n_events=int(e.sum()),
        event_fraction=float(e.mean()),
        n_covariates=len(ds.covariate_names),
        followup_quartiles=(float(q25), float(q50), float(q75)),
        followup_max=float(t.max()),
        followup_mean=float(t.mean()),
        missing_pct=missing,
    )
