"""Covariate preparation: dummy coding, z-score scaling, correlation pruning.

Dummy coding is schema-driven (reference level = first declared level unless
overridden), so the encoding itself carries no information from the data and
can safely happen before any train/validation split. Scaling and pruning are
fit on data and must be fit on training rows only; both return small fitted
objects that apply to any other rows.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .tabular import ColumnSpec, SurvivalDataset, drop_columns


@dataclass
class EncodingMap:
    """Record of a dummy coding: per column, the reference and output names."""

    entries: dict  # name -> {"reference", "levels", "outputs"}

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=2)
            fh.write("\n")


def dummy_encode(ds, refs=None):
    """Expand categorical covariates to k-1 indicator columns.

    Each categorical covariate with levels [r, a, b, ...] becomes columns
    "name=a", "name=b", ... at its original schema position; the reference
    level r maps to all zeros. A missing cell is missing in every indicator.
    Non-covariate categoricals (e.g. a center column) pass through.

    Returns (encoded dataset, EncodingMap).
    """
    refs = refs or {}
    unknown = set(refs) - set(ds.column_names)
    if unknown:
        raise SchemaError(f"refs name unknown columns: {sorted(unknown)}")

    new_cols = []
    new_vals = []
    entries = {}
    for j, col in enumerate(ds.columns):
        if col.role != "covariate" or col.kind != "categorical":
            new_cols.append(col)
            new_vals.append(ds.values[:, j])
            continue
        ref = refs.get(col.name, col.levels[0])
        if ref not in col.levels:
            raise SchemaError(f"reference {ref!r} is not a level of {col.name!r}")
        others = [lv for lv in col.levels if lv != ref]
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
    return out, EncodingMap(entries=entries)


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

    Pearson correlation is computed on pairwise-complete observations (one
    correlation matrix when no candidate cell is missing); pairs with fewer
    than 3 overlapping rows, or a constant column on the overlap, are
    skipped and reported. The most correlated pair goes first; within a
    pair the column with the higher `priority` value (default: missing rate
    in `ds`) is dropped, ties broken toward the later schema position.

    Returns (pruned dataset, report).
    """
    cand = [c.name for c in ds.columns if c.role == "covariate"]
    for name in cand:
        if ds.column(name).kind == "categorical":
            raise SchemaError(f"dummy-encode categorical covariates before pruning ({name!r})")
    mask = ds.missing_mask
    cols = [ds.col_index(name) for name in cand]
    if priority is None:
        priority = {name: float(mask[:, j].mean()) for name, j in zip(cand, cols)}

    # without missing cells every pair overlaps on all rows, and one
    # correlation matrix serves all pairs. A column is constant when its
    # range is zero: the std of 200 copies of 0.3 is 5.6e-17, not 0.
    complete = len(cols) > 1 and ds.n_rows >= 3 and not mask[:, cols].any()
    if complete:
        rows = ds.values[:, cols].T.copy()
        constant = (rows.max(axis=1) == rows.min(axis=1)).tolist()
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.corrcoef(rows)
    skipped = []
    pairs = []  # (abs_r, i, j, name_i, name_j, r)
    for a in range(len(cand)):
        for b in range(a + 1, len(cand)):
            na, nb = cand[a], cand[b]
            if complete:
                const_a, const_b = constant[a], constant[b]
            else:
                both = ~mask[:, cols[a]] & ~mask[:, cols[b]]
                if both.sum() < 3:
                    skipped.append({"pair": [na, nb], "reason": "overlap<3", "n_overlap": int(both.sum())})
                    continue
                xa = ds.values[both, cols[a]]
                xb = ds.values[both, cols[b]]
                const_a, const_b = xa.max() == xa.min(), xb.max() == xb.min()
            if const_a or const_b:
                skipped.append({"pair": [na, nb], "reason": "constant-on-overlap"})
                continue
            r = float(corr[a, b] if complete else np.corrcoef(xa, xb)[0, 1])
            if abs(r) > threshold:
                pairs.append((abs(r), a, b, na, nb, r))

    removed = []
    alive = set(cand)
    # highest |r| first; schema positions break exact |r| ties deterministically
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    for _, a, b, na, nb, r in pairs:
        if na not in alive or nb not in alive:
            continue
        pa, pb = priority.get(na, 0.0), priority.get(nb, 0.0)
        if pa > pb:
            drop = na
        elif pb > pa:
            drop = nb
        else:
            drop = nb  # equal priority: later schema position goes
        keep = nb if drop == na else na
        alive.discard(drop)
        removed.append({"removed": drop, "partner": keep, "r": r})

    report = {"threshold": float(threshold), "removed": removed, "skipped_pairs": skipped}
    if removed:
        return drop_columns(ds, [r["removed"] for r in removed]), report
    return ds, report
