"""Covariate preparation: dummy coding, z-score scaling, correlation pruning.

Dummy coding is schema-driven (reference level = first declared level), so
the encoding itself carries no information from the data and can safely
happen before any train/validation split. Scaling and pruning are fit on
data and must be fit on training rows only; both return small fitted
objects that apply to any other rows. Pruning takes complete (imputed)
covariates.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError, SchemaError
from .tabular import ColumnSpec, SurvivalDataset, drop_columns


def dummy_encode(ds):
    """Expand categorical covariates to k-1 indicator columns.

    Each categorical covariate with levels [r, a, b, ...] becomes columns
    "name=a", "name=b", ... at its original schema position; the reference
    level r maps to all zeros. A missing cell is missing in every indicator.
    Non-covariate categoricals (e.g. a center column) pass through.

    Returns (encoded dataset, entries), where entries maps each expanded
    column to {"reference", "levels", "outputs"}: its reference level, the
    other levels and their indicator names.
    """
    new_cols = []
    new_vals = []
    entries = {}
    for j, col in enumerate(ds.columns):
        if col.role != "covariate" or col.kind != "categorical":
            new_cols.append(col)
            new_vals.append(ds.values[:, j])
            continue
        ref, others = col.levels[0], col.levels[1:]
        outputs = [f"{col.name}={lv}" for lv in others]
        entries[col.name] = {"reference": ref, "levels": others, "outputs": outputs}
        if not others:
            warnings.warn(f"column {col.name!r} has a single level; encoded to no columns")
            continue
        codes = ds.values[:, j]
        miss = np.isnan(codes)
        for lv, out_name in zip(others, outputs):
            code = float(col.levels.index(lv))
            vals = np.where(miss, np.nan, (codes == code).astype(float))
            new_cols.append(ColumnSpec(out_name, "binary", "covariate"))
            new_vals.append(vals)

    out = SurvivalDataset(
        new_cols,
        np.column_stack(new_vals) if new_vals else np.empty((ds.n_rows, 0)),
        row_ids=ds.row_ids.copy(),
    )
    return out, entries


@dataclass
class ScalerStats:
    """Per-column mean and sample standard deviation (ddof=1)."""

    stats: dict  # name -> (mean, std)


def fit_scaler(ds, columns=None):
    """Mean/std over non-missing cells of the listed continuous columns.

    Defaults to every continuous covariate column. A column with fewer than
    two distinct observed values cannot be standardized and errors.
    """
    if columns is None:
        columns = [c.name for c in ds.columns if c.role == "covariate" and c.kind == "continuous"]
    mask = ds.missing_mask
    stats = {}
    for name in columns:
        col = ds.column(name)
        if col.kind != "continuous":
            raise SchemaError(f"scaler applies to continuous columns, not {name!r} ({col.kind})")
        j = ds.col_index(name)
        obs = ds.values[~mask[:, j], j]
        if len(np.unique(obs)) < 2:
            raise DataError(f"column {name!r} has fewer than 2 distinct observed values")
        stats[name] = (float(obs.mean()), float(obs.std(ddof=1)))
    return ScalerStats(stats=stats)


def apply_scaler(ds, scaler):
    """Standardize listed columns; missing (NaN) cells stay NaN."""
    values = ds.values.copy()
    for name, (mean, std) in scaler.stats.items():
        j = ds.col_index(name)
        values[:, j] = (values[:, j] - mean) / std
    return SurvivalDataset(list(ds.columns), values, row_ids=ds.row_ids.copy())


def prune_correlated(ds, threshold, priority=None):
    """Greedily drop one column of every covariate pair with |r| > threshold.

    The covariates must be complete (impute first). One Pearson correlation
    matrix serves every pair; with fewer than 3 rows every pair is skipped
    as `overlap<3`, and a pair with a constant column is skipped as
    `constant-on-overlap`. The most correlated pair goes first; within a
    pair the column with the higher `priority` value is dropped (default:
    equal priority), ties broken toward the later schema position.

    Returns (pruned dataset, report). A threshold outside (0, 1] is a
    DataError: at 0 or below every pair exceeds it.
    """
    if not (isinstance(threshold, numbers.Real) and 0.0 < threshold <= 1.0):
        raise DataError(f"prune_threshold must be in (0, 1], got {threshold!r}")
    cand = [c.name for c in ds.columns if c.role == "covariate"]
    for name in cand:
        if ds.column(name).kind == "categorical":
            raise SchemaError(f"dummy-encode categorical covariates before pruning ({name!r})")
    cols = [ds.col_index(name) for name in cand]
    gaps = [name for name, j in zip(cand, cols) if np.isnan(ds.values[:, j]).any()]
    if gaps:
        raise DataError(f"covariates must be complete; impute first (missing cells in {gaps})")
    priority = priority or {}

    if ds.n_rows >= 3 and len(cols) > 1:
        # a column is constant when its range is zero: the std of 200
        # copies of 0.3 is 5.6e-17, not 0
        rows = ds.values[:, cols].T.copy()
        constant = (rows.max(axis=1) == rows.min(axis=1)).tolist()
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.corrcoef(rows)
    skipped, pairs = [], []  # pairs: (abs_r, i, j, name_i, name_j, r)
    for a, b in combinations(range(len(cand)), 2):
        na, nb = cand[a], cand[b]
        if ds.n_rows < 3:
            skipped.append({"pair": [na, nb], "reason": "overlap<3", "n_overlap": ds.n_rows})
        elif constant[a] or constant[b]:
            skipped.append({"pair": [na, nb], "reason": "constant-on-overlap"})
        elif abs(r := float(corr[a, b])) > threshold:
            pairs.append((abs(r), a, b, na, nb, r))

    removed = []
    alive = set(cand)
    # highest |r| first; schema positions break exact |r| ties deterministically
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    for _, a, b, na, nb, r in pairs:
        if na not in alive or nb not in alive:
            continue
        # equal priority: the later schema position goes
        drop, keep = (na, nb) if priority.get(na, 0.0) > priority.get(nb, 0.0) else (nb, na)
        alive.discard(drop)
        removed.append({"removed": drop, "partner": keep, "r": r})

    report = {"threshold": float(threshold), "removed": removed, "skipped_pairs": skipped}
    if removed:
        return drop_columns(ds, [r["removed"] for r in removed]), report
    return ds, report
