"""Preprocessing tests: dummy coding, z-score scaler, correlation pruning."""

import json

import numpy as np
import pytest

from survkit.errors import DataError, SchemaError
from survkit.preprocess import (
    apply_scaler,
    dummy_encode,
    fit_scaler,
    prune_correlated,
)
from survkit.tabular import ColumnSpec, SurvivalDataset


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
    ds, emap = dummy_encode(cat_ds())
    assert ds.column_names == ["months", "died", "grade=g2", "grade=g3", "age"]
    j2, j3 = ds.col_index("grade=g2"), ds.col_index("grade=g3")
    np.testing.assert_array_equal(ds.values[:3, j2], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(ds.values[:3, j3], [0.0, 0.0, 1.0])
    # a missing source cell is missing in every indicator
    assert ds.missing_mask[3, j2] and ds.missing_mask[3, j3]
    assert np.isnan(ds.values[3, j2])
    assert emap.entries["grade"]["reference"] == "g1"
    assert emap.entries["grade"]["outputs"] == ["grade=g2", "grade=g3"]


def test_dummy_encode_custom_reference():
    ds, emap = dummy_encode(cat_ds(), refs={"grade": "g3"})
    assert ds.column_names[2:4] == ["grade=g1", "grade=g2"]
    assert emap.entries["grade"]["reference"] == "g3"
    with pytest.raises(SchemaError):
        dummy_encode(cat_ds(), refs={"grade": "g9"})
    with pytest.raises(SchemaError):
        dummy_encode(cat_ds(), refs={"ghost": "g1"})


def test_dummy_encode_leaves_center_column_alone():
    cols = outcome_cols() + [ColumnSpec("hospital", "categorical", role="center", levels=["a", "b"])]
    ds = make_ds(cols, [[1, 1, 0], [2, 0, 1]])
    out, emap = dummy_encode(ds)
    assert out.column_names == ["months", "died", "hospital"]
    assert emap.entries == {}


def test_encoding_map_json_round_trip(tmp_path):
    _, emap = dummy_encode(cat_ds())
    p = tmp_path / "enc.json"
    emap.to_json(p)
    assert json.loads(p.read_text(encoding="utf-8")) == emap.entries


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


def corr_ds(missing_in="b"):
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
    values = np.column_stack([t, e, a, b, c])
    mask = np.zeros_like(values, dtype=bool)
    if missing_in:
        j = {"a": 2, "b": 3, "c": 4}[missing_in]
        mask[:5, j] = True
        values[:5, j] = np.nan
    return SurvivalDataset(cols, values, mask)


def test_prune_drops_the_higher_missing_partner():
    ds = corr_ds(missing_in="b")
    pruned, report = prune_correlated(ds, 0.7)
    assert pruned.column_names == ["months", "died", "a", "c"]
    assert report["removed"][0]["removed"] == "b"
    assert report["removed"][0]["partner"] == "a"
    assert abs(report["removed"][0]["r"]) > 0.99

    # flip the missingness: now a should be the one to go
    pruned2, report2 = prune_correlated(corr_ds(missing_in="a"), 0.7)
    assert report2["removed"][0]["removed"] == "a"
    assert "b" in pruned2.column_names


def test_prune_tie_prefers_later_schema_position():
    # no missingness anywhere: equal priority, so the later column (b) goes
    pruned, report = prune_correlated(corr_ds(missing_in=None), 0.7)
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


def test_prune_skips_thin_overlap():
    cols = outcome_cols() + [
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
    ]
    values = np.array([
        [1, 1, 1.0, np.nan],
        [2, 0, 2.0, np.nan],
        [3, 1, np.nan, 1.0],
        [4, 0, np.nan, 2.0],
    ])
    ds = SurvivalDataset(cols, values, np.isnan(values))
    pruned, report = prune_correlated(ds, 0.5)
    assert pruned.column_names == ds.column_names
    assert report["skipped_pairs"][0]["reason"] == "overlap<3"


def test_prune_one_matrix_path_matches_the_pair_loop():
    """On complete data one correlation matrix serves every pair; the
    pairwise-complete loop (forced by an extra column with one missing cell)
    must remove the same columns for the same partners, skip the same
    constant-column pairs, and agree on r to 1e-12."""
    rng = np.random.default_rng(31)
    n, p = 200, 9
    latent = rng.normal(size=(n, 3))
    x = latent[:, rng.integers(0, 3, p)] + rng.normal(0.0, rng.uniform(0.2, 1.0, p), (n, p))
    x[:, 4] = 0.5  # a constant column
    names = [f"x{j}" for j in range(p)]
    cols = outcome_cols() + [ColumnSpec(name, "continuous") for name in names]
    t = rng.exponential(10.0, n) + 0.1
    e = (rng.random(n) < 0.5).astype(float)
    complete = SurvivalDataset(cols, np.column_stack([t, e, x]),
                               np.zeros((n, p + 2), dtype=bool))
    gap = rng.normal(size=n)
    gap[7] = np.nan
    gapped = SurvivalDataset(cols + [ColumnSpec("gap", "continuous")],
                             np.column_stack([t, e, x, gap]),
                             np.column_stack([np.zeros((n, p + 2), dtype=bool), np.isnan(gap)]))
    priority = {name: 0.0 for name in names + ["gap"]}

    _, fast = prune_correlated(complete, 0.6, priority=priority)
    _, loop = prune_correlated(gapped, 0.6, priority=priority)
    assert len(fast["removed"]) >= 2
    assert [(r["removed"], r["partner"]) for r in fast["removed"]] == [
        (r["removed"], r["partner"]) for r in loop["removed"]]
    for a, b in zip(fast["removed"], loop["removed"]):
        assert a["r"] == pytest.approx(b["r"], rel=1e-12, abs=1e-12)
    constant = [s for s in fast["skipped_pairs"] if s["reason"] == "constant-on-overlap"]
    assert len(constant) == p - 1
    assert fast["skipped_pairs"] == [s for s in loop["skipped_pairs"] if "gap" not in s["pair"]]



def test_prune_skips_a_constant_whose_std_is_not_zero():
    """200 copies of 0.3 have std 5.6e-17, not 0: the column is constant by
    its range, so both the one-matrix path and the pair loop (forced by a
    missing cell in another column) skip its pairs instead of scoring noise."""
    rng = np.random.default_rng(37)
    n = 200
    cols = outcome_cols() + [ColumnSpec(name, "continuous") for name in ("a", "flat", "c")]
    values = np.column_stack([rng.exponential(10.0, n) + 0.1, (rng.random(n) < 0.5).astype(float),
                              rng.normal(size=n), np.full(n, 0.3), rng.normal(size=n)])
    assert values[:, 3].std() != 0.0
    gapped = values.copy()
    gapped[0, 4] = np.nan
    for vals in (values, gapped):
        _, report = prune_correlated(SurvivalDataset(cols, vals, np.isnan(vals)), 0.0)
        assert report["skipped_pairs"] == [
            {"pair": ["a", "flat"], "reason": "constant-on-overlap"},
            {"pair": ["flat", "c"], "reason": "constant-on-overlap"},
        ]
        assert [r["removed"] for r in report["removed"]] == ["c"]
