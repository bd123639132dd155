"""Cohort table tests: schema rules, CSV round-trips, inclusion filters."""

import codecs
import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survkit import tabular
from survkit.errors import DataError, SchemaError
from survkit.synth import ensure_like, generate
from survkit.tabular import (
    ColumnSpec,
    InclusionRules,
    SurvivalDataset,
    apply_inclusion,
    drop_columns,
    load_csv,
    load_schema,
    replace_column_values,
    save_csv,
    save_schema,
    subset_rows,
    summarize,
    validate_schema,
)


def demo_columns():
    return [
        ColumnSpec("pid", "continuous", role="id"),
        ColumnSpec("months", "continuous", role="time"),
        ColumnSpec("died", "binary", role="event"),
        ColumnSpec("age", "continuous"),
        ColumnSpec("grade", "categorical", levels=["g1", "g2", "g3"]),
        ColumnSpec("male", "binary"),
    ]


def demo_csv(tmp_path, text):
    p = tmp_path / "cohort.csv"
    p.write_text(text, encoding="utf-8")
    return p


BASIC = (
    "pid,months,died,age,grade,male\n"
    "1,12.5,1,63,g2,1\n"
    "2,30,0,NA,g1,0\n"
    "3,7,1,55.25,,1\n"
)


# -- schema ---------------------------------------------------------------------


def test_schema_rejects_bad_kind_and_role():
    with pytest.raises(SchemaError):
        ColumnSpec("x", "numeric")
    with pytest.raises(SchemaError):
        ColumnSpec("x", "continuous", role="exposure")


def test_schema_categorical_levels_rules():
    with pytest.raises(SchemaError):
        ColumnSpec("g", "categorical")  # levels required
    with pytest.raises(SchemaError):
        ColumnSpec("g", "categorical", levels=["a", "a"])  # duplicates
    with pytest.raises(SchemaError):
        ColumnSpec("x", "continuous", levels=["a"])  # levels forbidden


def test_schema_outcome_requirements():
    cols = demo_columns()
    validate_schema(cols)
    with pytest.raises(SchemaError):
        validate_schema([c for c in cols if c.role != "time"])
    with pytest.raises(SchemaError):
        validate_schema(cols + [ColumnSpec("t2", "continuous", role="time")])
    bad = demo_columns()
    bad[1] = ColumnSpec("months", "binary", role="time")
    with pytest.raises(SchemaError):
        validate_schema(bad)


def test_schema_json_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(demo_columns(), path)
    loaded = load_schema(path)
    assert [c.name for c in loaded] == [c.name for c in demo_columns()]
    assert loaded[4].levels == ["g1", "g2", "g3"]
    assert loaded[1].role == "time"


def test_schema_json_rejects_garbage(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_schema(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_schema(path)
    # a key or a value the reader would ignore or misread names the column
    for entry, message in (
        ({"kind": "continuous", "rol": "id"}, "column 'pid': unknown key 'rol'"),
        ({"kind": "categorical", "levels": "abc"}, "column 'pid': levels must be a list of"),
        ({"kind": "categorical", "levels": ["a", 1]}, "levels must be a list of non-empty strings"),
    ):
        path.write_text(json.dumps({"pid": entry}), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_schema(path)


# -- CSV loading ------------------------------------------------------------------


def test_load_basic_and_mask(tmp_path):
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    assert ds.n_rows == 3
    np.testing.assert_array_equal(ds.time, [12.5, 30.0, 7.0])
    np.testing.assert_array_equal(ds.event, [1.0, 0.0, 1.0])
    # categorical cells become level indices
    assert ds.values[0, ds.col_index("grade")] == 1.0
    # both sentinel spellings mark cells missing
    assert ds.missing_mask[1, ds.col_index("age")]
    assert ds.missing_mask[2, ds.col_index("grade")]
    assert np.isnan(ds.values[1, ds.col_index("age")])
    assert ds.missing_mask.sum() == 2


def test_header_order_does_not_matter(tmp_path):
    shuffled = (
        "male,grade,age,died,months,pid\n"
        "1,g2,63,1,12.5,1\n"
    )
    ds = load_csv(demo_csv(tmp_path, shuffled), demo_columns())
    assert ds.column_names[0] == "pid"
    assert ds.time[0] == 12.5
    assert ds.values[0, ds.col_index("male")] == 1.0


def test_header_mismatch_is_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="header"):
        load_csv(demo_csv(tmp_path, "pid,months,died\n1,2,1\n"), demo_columns())
    with pytest.raises(SchemaError, match="empty"):
        load_csv(demo_csv(tmp_path, ""), demo_columns())


def test_cell_errors_carry_row_numbers(tmp_path):
    bad_number = BASIC.replace("63", "old")
    with pytest.raises(DataError, match="age"):
        load_csv(demo_csv(tmp_path, bad_number), demo_columns())
    bad_level = BASIC.replace("g2", "g9")
    with pytest.raises(DataError, match="g9"):
        load_csv(demo_csv(tmp_path, bad_level), demo_columns())
    bad_binary = "pid,months,died,age,grade,male\n1,12.5,2,63,g2,1\n"
    with pytest.raises(DataError, match="0 or 1"):
        load_csv(demo_csv(tmp_path, bad_binary), demo_columns())
    negative_time = BASIC.replace("12.5", "-1")
    with pytest.raises(DataError, match="negative"):
        load_csv(demo_csv(tmp_path, negative_time), demo_columns())
    ragged = BASIC + "4,1,1,50\n"
    with pytest.raises(DataError, match="fields"):
        load_csv(demo_csv(tmp_path, ragged), demo_columns())


def test_csv_round_trip_identity(tmp_path):
    """save then load reproduces values, mask, and level coding exactly."""
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    out = tmp_path / "again.csv"
    save_csv(ds, out)
    back = load_csv(out, demo_columns())
    np.testing.assert_array_equal(back.missing_mask, ds.missing_mask)
    observed = ~ds.missing_mask
    np.testing.assert_array_equal(back.values[observed], ds.values[observed])


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    """A spreadsheet's "CSV UTF-8" export leads with a byte-order mark; the
    file loads as its original does, first column name included."""
    plain = demo_csv(tmp_path, BASIC)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want = load_csv(plain, demo_columns())
    got = load_csv(marked, demo_columns())
    assert got.column_names == want.column_names
    assert got.values.tobytes() == want.values.tobytes()
    assert got.missing_mask.tobytes() == want.missing_mask.tobytes()
    assert got.row_ids.tobytes() == want.row_ids.tobytes()
    assert got.patient_ids() == want.patient_ids() == ["1", "2", "3"]


def test_round_trip_survives_awkward_floats(tmp_path):
    # repr-based formatting keeps non-integer values exact through text
    cols = demo_columns()
    ds = load_csv(demo_csv(tmp_path, BASIC), cols)
    ds.values[0, ds.col_index("age")] = 0.1 + 0.2  # 0.30000000000000004
    out = tmp_path / "floats.csv"
    save_csv(ds, out)
    back = load_csv(out, cols)
    assert back.values[0, back.col_index("age")] == 0.1 + 0.2


def reference_format(val, col):
    """One cell as the per-cell writer formats it (the oracle for save_csv):
    a category's level name, else the number, so that an imputed indicator
    is written as drawn."""
    if col.kind == "categorical":
        return col.levels[int(round(val))]
    if float(val).is_integer() and abs(val) < 1e15:
        return str(int(val))
    return repr(float(val))


def reference_save(ds, path):
    mask = ds.missing_mask
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        for r in range(ds.n_rows):
            writer.writerow([
                "" if mask[r, j] else reference_format(ds.values[r, j], col)
                for j, col in enumerate(ds.columns)
            ])


# finite floats with the awkward cases drawn often: integral values on both
# sides of the 1e15 switch to repr, signed zeros, subnormals and extremes
awkward_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0, 1e15, -1e15, 1e15 - 1, 1e15 + 2, 999999999999999.9,
                     5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     0.1 + 0.2, 1e16, 1e-5, 123456789.125]),
)


@st.composite
def cohorts(draw):
    n = draw(st.integers(0, 12))
    cols = demo_columns()
    # categorical cells are written as their rounded codes' level names, so
    # unrounded codes are drawn too; a cohort's binary cells are either all
    # 0/1 or imputed draws, which are written as drawn
    imputed = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1.0, 2.0))
    cells = {
        "continuous": awkward_floats,
        "binary": draw(st.sampled_from([st.sampled_from([0.0, 1.0]), imputed])),
        "categorical": st.one_of(st.integers(0, 2).map(float), st.floats(-0.49, 2.49)),
    }
    values = np.empty((n, len(cols)))
    for j, col in enumerate(cols):
        strategy = awkward_floats.map(abs) if col.role == "time" else cells[col.kind]
        values[:, j] = draw(st.lists(strategy, min_size=n, max_size=n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * len(cols),
                                  max_size=n * len(cols))), dtype=bool).reshape(n, len(cols))
    # a missing cell's stored value is never formatted; NaN as the loader stores it
    values[mask] = np.nan
    return SurvivalDataset(cols, values, mask)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cohorts())
def test_save_csv_bytes_equal_the_per_cell_writer(tmp_path, ds):
    """save_csv writes blocks of rows column by column; its bytes must equal
    the per-cell writer's. Loading them back must give the same bits and
    mask, with categorical codes rounded and a signed zero read back as +0.0
    (its text is "0"), unless a binary cell holds a draw other than 0 or 1:
    that draw is written as drawn, and the loader refuses it."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_csv(ds, got)
    reference_save(ds, want)
    assert got.read_bytes() == want.read_bytes()
    assert ds.patient_ids() == [reference_format(v, ds.columns[0]) for v in ds.values[:, 0]]
    binary = ds.values[:, [j for j, col in enumerate(ds.columns) if col.kind == "binary"]]
    if not np.isin(binary[~np.isnan(binary)], (0.0, 1.0)).all():
        with pytest.raises(DataError, match="expected 0 or 1"):
            load_csv(got, ds.columns)
        return
    back = load_csv(got, ds.columns)
    np.testing.assert_array_equal(back.missing_mask, ds.missing_mask)
    coded = [j for j, col in enumerate(ds.columns) if col.kind == "categorical"]
    expected = ds.values.copy()
    expected[:, coded] = np.round(expected[:, coded])
    assert back.values.tobytes() == (expected + 0.0).tobytes()


def block_cohort(n, seed=0):
    """n rows of `demo_columns` with awkward continuous values, 0/1 binaries,
    level codes and about a tenth of the cells missing."""
    rng = np.random.default_rng(seed)
    values = np.column_stack([
        np.arange(n, dtype=float),
        np.abs(rng.normal(20.0, 10.0, n)),
        rng.integers(0, 2, n).astype(float),
        rng.normal(60.0, 8.0, n) * 10.0 ** rng.integers(-3, 17, n),
        rng.integers(0, 3, n).astype(float),
        rng.integers(0, 2, n).astype(float),
    ])
    values[rng.random(values.shape) < 0.1] = np.nan
    return SurvivalDataset(demo_columns(), values)


B = tabular._BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_save_csv_blocks_match_the_per_cell_writer(tmp_path, n):
    """Row counts at and around the writer's block boundaries write the
    per-cell writer's bytes and load back bit for bit."""
    ds = block_cohort(n)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_csv(ds, got)
    reference_save(ds, want)
    assert got.read_bytes() == want.read_bytes()
    back = load_csv(got, ds.columns)
    assert back.values.shape == ds.values.shape
    assert back.values.tobytes() == ds.values.tobytes()


def test_csv_io_memory_is_bounded(tmp_path):
    """On the survbench `factors` cohort shape, save_csv holds one block of
    cell strings, whatever the row count, and load_csv one float buffer."""
    spec = ensure_like(0)[2]
    peaks = {}
    for n in (5000, 20000):
        ds, _ = generate(dataclasses.replace(spec, n=n), seed=0)
        path = tmp_path / f"cohort_{n}.csv"
        tracemalloc.start()
        try:
            save_csv(ds, path)
            peaks["save", n] = tracemalloc.get_traced_memory()[1]
            if n == 5000:
                tracemalloc.reset_peak()
                back = load_csv(path, ds.columns)
                peaks["load", n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["save", 20000] <= 1.5 * peaks["save", 5000], peaks
    assert peaks["load", 5000] <= 2.5 * back.values.nbytes, (peaks, back.values.nbytes)


def test_a_bad_cell_after_many_rows_names_its_row(tmp_path):
    ds = block_cohort(3 * B)
    path = tmp_path / "cohort.csv"
    save_csv(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    bad_row = len(lines) - 10
    fields = lines[bad_row].split(",")
    fields[3] = "old"
    lines[bad_row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_csv(path, ds.columns)
    assert (exc.value.row, exc.value.column) == (bad_row, "age")
    assert str(exc.value) == f"expected a number, got 'old' (row {bad_row}, column 'age')"


def test_first_bad_cell_in_row_order_is_reported(tmp_path):
    """Cells are checked row by row, each row in schema order (not header
    order): of several bad cells the first so met is the one reported."""
    text = (
        "male,grade,age,died,months,pid\n"
        "1,g2,63,1,12.5,1\n"
        "7,g2,old,1,12.5,2\n"  # male and age bad: age comes first in the schema
        "1,g9,63,1,12.5,x\n"
    )
    with pytest.raises(DataError) as exc:
        load_csv(demo_csv(tmp_path, text), demo_columns())
    assert str(exc.value) == "expected a number, got 'old' (row 2, column 'age')"
    assert (exc.value.row, exc.value.column) == (2, "age")

    later = text.replace("7,g2,old", "1,g2,63")  # now row 3: pid before grade
    with pytest.raises(DataError) as exc:
        load_csv(demo_csv(tmp_path, later), demo_columns())
    assert str(exc.value) == "expected a number, got 'x' (row 3, column 'pid')"
    assert (exc.value.row, exc.value.column) == (3, "pid")

    head = "male,grade,age,died,months,pid\n1,g2,63,1,12.5,1\n"
    for row, message in (
        ("1,g9,63,1,12.5,2",
         "value 'g9' not among declared levels ['g1', 'g2', 'g3'] (row 2, column 'grade')"),
        ("1,g1,inf,1,12.5,2", "non-finite value 'inf' (row 2, column 'age')"),
        ("1,g1,63,1,-2,2", "negative follow-up time (row 2, column 'months')"),
        ("1,g1,63,0.5,12.5,2", "expected 0 or 1, got '0.5' (row 2, column 'died')"),
        ("1,g1,63,1,12.5", "expected 6 fields, got 5 (row 2)"),
    ):
        with pytest.raises(DataError) as exc:
            load_csv(demo_csv(tmp_path, head + row + "\n"), demo_columns())
        assert str(exc.value) == message


# -- dataset mechanics -------------------------------------------------------------


def test_subset_rows_tracks_provenance(tmp_path):
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    sub = subset_rows(ds, [2, 0])
    np.testing.assert_array_equal(sub.row_ids, [2, 0])
    np.testing.assert_array_equal(sub.time, [7.0, 12.5])
    assert sub.patient_ids() == ["3", "1"]


def test_drop_columns(tmp_path):
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    slim = drop_columns(ds, ["male"])
    assert "male" not in slim.column_names
    assert slim.values.shape == (3, 5)
    with pytest.raises(SchemaError):
        drop_columns(ds, ["ghost"])


def test_replace_column_values(tmp_path):
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    out = replace_column_values(ds, "age", [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out.values[:, out.col_index("age")], [1.0, 2.0, 3.0])
    assert not out.missing_mask[:, out.col_index("age")].any()
    # original untouched
    assert ds.missing_mask[1, ds.col_index("age")]


def test_missing_mask_is_derived_from_nan_cells(tmp_path):
    """NaN in `values` is the only record of a missing cell: the mask is
    read-only and follows `values`, and a mask given to the constructor or
    to replace_column_values must mark exactly the NaN cells."""
    ds = load_csv(demo_csv(tmp_path, BASIC), demo_columns())
    j = ds.col_index("age")
    with pytest.raises(ValueError):
        ds.missing_mask[0, j] = True
    ds.values[0, j] = np.nan
    assert ds.missing_mask[:, j].tolist() == [True, True, False]

    with pytest.raises(DataError, match="NaN cells"):
        SurvivalDataset(ds.columns, ds.values, np.zeros(ds.values.shape, dtype=bool))
    observed = np.zeros((2, 6))
    with pytest.raises(DataError, match="NaN cells"):
        SurvivalDataset(ds.columns, observed, np.eye(2, 6, dtype=bool))
    assert not SurvivalDataset(ds.columns, observed).missing_mask.any()

    ages = np.array([np.nan, 2.0, 3.0])
    with pytest.raises(DataError, match="'age'"):
        replace_column_values(ds, "age", ages, mask=[False, False, False])
    with pytest.raises(DataError, match="'age'"):
        replace_column_values(ds, "age", [1.0, 2.0, 3.0], mask=[True, False, False])
    for mask in (None, [True, False, False]):
        out = replace_column_values(ds, "age", ages, mask=mask)
        assert out.missing_mask[:, j].tolist() == [True, False, False]


def test_dataset_shape_validation():
    cols = demo_columns()
    with pytest.raises(DataError):
        SurvivalDataset(cols, np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
    with pytest.raises(DataError):
        SurvivalDataset(cols, np.zeros((2, 6)), np.zeros((3, 6), dtype=bool))


# -- inclusion rules ---------------------------------------------------------------


def inclusion_fixture(tmp_path):
    text = (
        "pid,months,died,age,grade,male\n"
        "1,10,1,60,g1,0\n"
        "2,NA,1,61,g2,0\n"      # missing outcome
        "3,20,0,62,g3,1\n"      # excluded level g3
        "4,0.5,1,63,g1,1\n"     # early event
        "5,0.5,0,64,g1,0\n"     # early but censored: kept
        "6,40,0,65,g2,1\n"
        "7,5,,66,g1,0\n"        # missing outcome
        "8,30,0,67,,1\n"        # missing level: kept
    )
    return load_csv(demo_csv(tmp_path, text), demo_columns())


def test_inclusion_rules_and_audit(tmp_path):
    ds = inclusion_fixture(tmp_path)
    rules = InclusionRules(exclude_levels={"grade": ["g3"]}, exclude_early_events=1.0)
    kept, audit = apply_inclusion(ds, rules)
    assert kept.patient_ids() == ["1", "5", "6", "8"]
    assert audit["n_before"] == 8
    assert audit["n_after"] == 4
    by_rule = {s["rule"]: s["n_dropped"] for s in audit["steps"]}
    assert by_rule == {
        "drop_missing_outcomes": 2,
        "exclude_levels:grade": 1,
        "exclude_early_events": 1,
    }


def test_inclusion_exclude_levels_validation(tmp_path):
    ds = inclusion_fixture(tmp_path)
    with pytest.raises(SchemaError):
        apply_inclusion(ds, InclusionRules(exclude_levels={"age": ["60"]}))
    with pytest.raises(SchemaError):
        apply_inclusion(ds, InclusionRules(exclude_levels={"grade": ["g7"]}))


# -- summary -----------------------------------------------------------------------


def test_summarize(tmp_path):
    text = (
        "pid,months,died,age,grade,male\n"
        "1,10,1,60,g1,0\n"
        "2,20,0,NA,g2,0\n"
        "3,30,1,62,g1,1\n"
        "4,40,0,63,NA,1\n"
    )
    ds = load_csv(demo_csv(tmp_path, text), demo_columns())
    s = summarize(ds)
    assert s.n_rows == 4
    assert s.n_events == 2
    assert s.event_fraction == 0.5
    assert s.n_covariates == 3
    assert s.followup_quartiles == (17.5, 25.0, 32.5)
    assert s.followup_max == 40.0
    assert s.missing_pct["age"] == 25.0
    assert s.missing_pct["grade"] == 25.0
    assert s.missing_pct["male"] == 0.0


def test_summarize_requires_complete_outcomes(tmp_path):
    ds = inclusion_fixture(tmp_path)
    with pytest.raises(DataError):
        summarize(ds)
