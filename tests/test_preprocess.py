"""Preprocessing tests: dummy coding, z-score scaler, correlation pruning."""

import json

import numpy as np
import pytest

from survkit.cli import main
from survkit.errors import DataError, SchemaError
from survkit.preprocess import (
    apply_scaler,
    dummy_encode,
    fit_scaler,
    prune_correlated,
)
from survkit.synth import CovariateSpec, GeneratorSpec, generate
from survkit.tabular import ColumnSpec, SurvivalDataset, save_csv, save_schema


def make_ds(columns, values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.isnan(values)
    return SurvivalDataset(columns, values, mask)


def outcome_cols():
    return [
        ColumnSpec("months", "continuous", role="time"),
        ColumnSpec("died", "binary", role="event"),
    ]


# -- dummy coding --------------------------------------------------------------


def cat_ds():
    cols = outcome_cols() + [
        ColumnSpec("grade", "categorical", levels=["g1", "g2", "g3"]),
        ColumnSpec("age", "continuous"),
    ]
    values = [
        [10, 1, 0, 50],       # g1 -> reference
        [20, 0, 1, 60],       # g2
        [30, 1, 2, 70],       # g3
        [40, 0, np.nan, 80],  # missing grade
    ]
    return make_ds(cols, values)


def test_dummy_encode_basic():
    ds, entries = dummy_encode(cat_ds())
    assert ds.column_names == ["months", "died", "grade=g2", "grade=g3", "age"]
    j2, j3 = ds.col_index("grade=g2"), ds.col_index("grade=g3")
    np.testing.assert_array_equal(ds.values[:3, j2], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(ds.values[:3, j3], [0.0, 0.0, 1.0])
    # a missing source cell is missing in every indicator
    assert ds.missing_mask[3, j2] and ds.missing_mask[3, j3]
    assert np.isnan(ds.values[3, j2])
    assert entries["grade"]["reference"] == "g1"
    assert entries["grade"]["outputs"] == ["grade=g2", "grade=g3"]


def test_dummy_encode_leaves_center_column_alone():
    cols = outcome_cols() + [ColumnSpec("hospital", "categorical", role="center", levels=["a", "b"])]
    ds = make_ds(cols, [[1, 1, 0], [2, 0, 1]])
    out, entries = dummy_encode(ds)
    assert out.column_names == ["months", "died", "hospital"]
    assert entries == {}


def test_encoding_map_json_round_trip(tmp_path):
    """`survkit impute` writes the cohort's encoding entries to encoding.json."""
    spec = GeneratorSpec(
        n=80,
        covariates=[CovariateSpec("x", "continuous", (0.0, 1.0)),
                    CovariateSpec("grade", "categorical", {"g1": 0.5, "g2": 0.3, "g3": 0.2})],
        beta={"x": 0.5},
        censoring_fraction=0.3,
    )
    ds, _ = generate(spec, seed=3)
    _, entries = dummy_encode(ds)
    data, schema, out = tmp_path / "cohort.csv", tmp_path / "schema.json", tmp_path / "run"
    save_csv(ds, data)
    save_schema(ds.columns, schema)
    assert main(["impute", "--data", str(data), "--schema", str(schema), "--m", "2",
                 "--iterations", "1", "--out", str(out)]) == 0
    assert json.loads((out / "encoding.json").read_text(encoding="utf-8")) == entries


# -- scaler ---------------------------------------------------------------------


def test_scaler_ignores_missing_cells():
    """Observed cells [5, 7] give mean 6 and sample sd sqrt(2)."""
    cols = outcome_cols() + [ColumnSpec("age", "continuous")]
    ds = make_ds(cols, [[1, 1, 5.0], [2, 0, np.nan], [3, 1, 7.0]])
    scaler = fit_scaler(ds)
    mean, std = scaler.stats["age"]
    assert mean == 6.0
    assert std == pytest.approx(np.sqrt(2.0))
    out = apply_scaler(ds, scaler)
    j = out.col_index("age")
    np.testing.assert_allclose(out.values[[0, 2], j], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert out.missing_mask[1, j]  # mask untouched
    assert ds.values[0, j] == 5.0  # input untouched


def test_scaler_rejects_degenerate_columns():
    cols = outcome_cols() + [ColumnSpec("flat", "continuous")]
    ds = make_ds(cols, [[1, 1, 3.0], [2, 0, 3.0]])
    with pytest.raises(DataError):
        fit_scaler(ds)
    with pytest.raises(SchemaError):
        fit_scaler(ds, columns=["died"])


# -- correlation pruning ----------------------------------------------------------


def corr_ds():
    """Columns a and b are perfectly correlated; c is independent noise."""
    rng = np.random.default_rng(5)
    n = 40
    a = rng.normal(size=n)
    b = 2.0 * a + 1.0
    c = rng.normal(size=n)
    t = rng.exponential(10.0, size=n) + 0.1
    e = (rng.random(n) < 0.5).astype(float)
    cols = outcome_cols() + [
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
        ColumnSpec("c", "continuous"),
    ]
    return SurvivalDataset(cols, np.column_stack([t, e, a, b, c]))


def test_prune_drops_the_higher_missing_partner():
    """The fold pipeline passes each column's missing rate before
    imputation as its priority: of a correlated pair, the column that was
    missing more often goes."""
    ds = corr_ds()
    pruned, report = prune_correlated(ds, 0.7, priority={"a": 0.0, "b": 0.125, "c": 0.0})
    assert pruned.column_names == ["months", "died", "a", "c"]
    assert report["removed"][0]["removed"] == "b"
    assert report["removed"][0]["partner"] == "a"
    assert abs(report["removed"][0]["r"]) > 0.99

    # flip the missingness: now a should be the one to go
    pruned2, report2 = prune_correlated(ds, 0.7, priority={"a": 0.125, "b": 0.0, "c": 0.0})
    assert report2["removed"][0]["removed"] == "a"
    assert "b" in pruned2.column_names


def test_prune_tie_prefers_later_schema_position():
    # no priority given: equal priority, so the later column (b) goes
    pruned, report = prune_correlated(corr_ds(), 0.7)
    assert report["removed"][0]["removed"] == "b"
    assert pruned.column_names == ["months", "died", "a", "c"]


def test_prune_below_threshold_is_a_no_op():
    rng = np.random.default_rng(9)
    cols = outcome_cols() + [
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
    ]
    values = np.column_stack([
        rng.exponential(10.0, 30) + 0.1,
        (rng.random(30) < 0.5).astype(float),
        rng.normal(size=30),
        rng.normal(size=30),
    ])
    ds = SurvivalDataset(cols, values, np.zeros_like(values, dtype=bool))
    pruned, report = prune_correlated(ds, 0.7)
    assert pruned.column_names == ds.column_names
    assert report["removed"] == []


def test_prune_requires_encoded_covariates():
    cols = outcome_cols() + [ColumnSpec("grade", "categorical", levels=["g1", "g2"])]
    ds = make_ds(cols, [[1, 1, 0], [2, 0, 1]])
    with pytest.raises(SchemaError):
        prune_correlated(ds, 0.7)


def test_prune_requires_complete_covariates():
    """Pruning runs on imputed covariates; a missing cell says to impute."""
    ds = corr_ds()
    values = ds.values.copy()
    values[3, 3] = np.nan
    with pytest.raises(DataError, match=r"impute first \(missing cells in \['b'\]\)"):
        prune_correlated(SurvivalDataset(ds.columns, values), 0.7)


def test_prune_skips_thin_overlap():
    cols = outcome_cols() + [
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
    ]
    ds = SurvivalDataset(cols, np.array([[1, 1, 1.0, 2.0], [2, 0, 2.0, 1.0]]))
    pruned, report = prune_correlated(ds, 0.5)
    assert pruned.column_names == ds.column_names
    assert report["skipped_pairs"] == [{"pair": ["a", "b"], "reason": "overlap<3", "n_overlap": 2}]


def test_prune_skips_a_constant_whose_std_is_not_zero():
    """200 copies of 0.3 have std 5.6e-17, not 0: the column is constant by
    its range, so its pairs are skipped instead of scored on noise. The r of
    the pair that is scored is the pairwise Pearson r of its two columns."""
    rng = np.random.default_rng(37)
    n = 200
    cols = outcome_cols() + [ColumnSpec(name, "continuous") for name in ("a", "flat", "c")]
    values = np.column_stack([rng.exponential(10.0, n) + 0.1, (rng.random(n) < 0.5).astype(float),
                              rng.normal(size=n), np.full(n, 0.3), rng.normal(size=n)])
    assert values[:, 3].std() != 0.0
    _, report = prune_correlated(SurvivalDataset(cols, values), 0.0)
    assert report["skipped_pairs"] == [
        {"pair": ["a", "flat"], "reason": "constant-on-overlap"},
        {"pair": ["flat", "c"], "reason": "constant-on-overlap"},
    ]
    assert [(r["removed"], r["partner"]) for r in report["removed"]] == [("c", "a")]
    r = np.corrcoef(values[:, 2], values[:, 4])[0, 1]
    assert report["removed"][0]["r"] == pytest.approx(r, rel=1e-12, abs=1e-12)
