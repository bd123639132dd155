"""Malformed and degenerate cohorts through the CLI.

Each case mutates the CSV or the schema of a 200-row `ensure_like` cohort
and runs `impute` and `identify-factors` on it through `cli.main`. Every
case ends in its documented exit code (0 ok, 2 validation, 3 computation),
never in a raised exception or a raw numpy warning; a failed run leaves no
run directory, and a completed set holds no empty covariate cell.
"""

import codecs
import csv
import io
import json

import numpy as np
import pytest

from survkit.cli import main
from survkit.synth import ensure_like
from survkit.tabular import save_csv, save_schema, subset_rows


class Cohort:
    """A mutable copy of the base cohort's header, rows and schema; `data`
    and `schema_bytes`, once set, are written instead of them."""

    def __init__(self, header, rows, schema):
        self.header = list(header)
        self.rows = [list(r) for r in rows]
        self.schema = json.loads(json.dumps(schema))
        self.data = None
        self.schema_bytes = None

    def set(self, name, value, rows=None):
        """Set column `name` of the listed rows (default: all) to `value`,
        or to `value(cell)` when it is callable."""
        j = self.header.index(name)
        for r in self.rows if rows is None else [self.rows[i] for i in rows]:
            r[j] = value(r[j]) if callable(value) else value

    def csv_bytes(self, **fmt):
        buf = io.StringIO()
        csv.writer(buf, **{"lineterminator": "\n", **fmt}).writerows([self.header, *self.rows])
        return buf.getvalue().encode("utf-8")

    def write(self, folder):
        data, schema = folder / "cohort.csv", folder / "schema.json"
        data.write_bytes(self.csv_bytes() if self.data is None else self.data)
        schema.write_bytes(json.dumps(self.schema).encode("utf-8")
                           if self.schema_bytes is None else self.schema_bytes)
        return data, schema


def not_utf8(data):
    """`data` with its middle byte replaced by 0xe9, which starts a
    three-byte UTF-8 sequence that the next byte does not continue."""
    out = bytearray(data)
    out[len(out) // 2] = 0xE9
    return bytes(out)


def scale_continuous(c, factor):
    for name, spec in c.schema.items():
        if spec["role"] == "covariate" and spec["kind"] == "continuous":
            c.set(name, lambda v: v and repr(float(v) * factor))


def keep_one_event(c):
    c.set("event", "0")
    c.set("event", "1", rows=[0])


# name -> (mutation, exit code of impute, exit code of identify-factors)
CASES = {
    # the file
    "empty file": (lambda c: setattr(c, "data", b""), 2, 2),
    "header only": (lambda c: setattr(c, "rows", []), 2, 2),
    "ragged row": (lambda c: c.rows[5].append("1"), 2, 2),
    "duplicate header": (lambda c: c.header.__setitem__(-1, "x01"), 2, 2),
    "byte-order mark": (lambda c: setattr(c, "data", codecs.BOM_UTF8 + c.csv_bytes()), 0, 0),
    "CRLF line ends": (lambda c: setattr(c, "data", c.csv_bytes(lineterminator="\r\n")), 0, 0),
    "quoted fields": (lambda c: setattr(c, "data", c.csv_bytes(quoting=csv.QUOTE_ALL)), 0, 0),
    "CSV not UTF-8": (lambda c: setattr(c, "data", not_utf8(c.csv_bytes())), 2, 2),
    # the cells
    "text cell": (lambda c: c.set("x01", "abc", rows=[3]), 2, 2),
    "inf cell": (lambda c: c.set("x01", "inf", rows=[3]), 2, 2),
    "1e400 cell": (lambda c: c.set("x01", "1e400", rows=[3]), 2, 2),
    "1e300 covariate": (lambda c: c.set("x01", "1e300", rows=[3]), 3, 3),
    "negative time": (lambda c: c.set("time", "-1", rows=[3]), 2, 2),
    "zero time": (lambda c: c.set("time", "0", rows=[3]), 0, 0),
    "NaN time": (lambda c: c.set("time", "nan", rows=[3]), 2, 2),
    "event 2": (lambda c: c.set("event", "2", rows=[3]), 2, 2),
    "empty event": (lambda c: c.set("event", "", rows=[3]), 0, 0),
    "unknown level": (lambda c: c.set("grade", "g9", rows=[3]), 2, 2),
    "binary 3": (lambda c: c.set("b1", "3", rows=[3]), 2, 2),
    # the outcomes
    "all censored": (lambda c: c.set("event", "0"), 0, 2),
    "one event": (keep_one_event, 0, 3),
    "one row": (lambda c: setattr(c, "rows", c.rows[:1]), 0, 3),
    "two rows": (lambda c: setattr(c, "rows", c.rows[:2]), 0, 3),
    "three rows": (lambda c: setattr(c, "rows", c.rows[:3]), 0, 3),
    "equal times": (lambda c: c.set("time", "12"), 0, 0),
    "duplicate ids": (lambda c: c.set("id", "7", rows=[0, 1]), 0, 0),
    # the covariates
    "all missing covariate": (lambda c: c.set("x01", ""), 2, 2),
    "constant covariate": (lambda c: c.set("x01", "0.5"), 0, 3),
    "covariates x1e8": (lambda c: scale_continuous(c, 1e8), 0, 0),
    # the schema
    "schema lacks a column": (lambda c: c.schema.pop("x22"), 2, 2),
    "schema has an extra column": (
        lambda c: c.schema.update(x99={"kind": "continuous", "role": "covariate"}), 2, 2),
    "schema not an object": (lambda c: setattr(c, "schema_bytes", b"[]"), 2, 2),
    "schema has no event column": (lambda c: c.schema["event"].update(role="covariate"), 2, 2),
    "schema not UTF-8": (
        lambda c: setattr(c, "schema_bytes", not_utf8(json.dumps(c.schema).encode())), 2, 2),
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """(header, rows, schema) of the first 200 `ensure_like` rows."""
    folder = tmp_path_factory.mktemp("base")
    ds = subset_rows(ensure_like(seed=0)[0], np.arange(200))
    save_csv(ds, folder / "cohort.csv")
    save_schema(ds.columns, folder / "schema.json")
    with open(folder / "cohort.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows, json.loads((folder / "schema.json").read_text(encoding="utf-8"))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", list(CASES))
def test_a_malformed_cohort_ends_in_its_exit_code(case, base, tmp_path, capsys):
    mutate, *codes = CASES[case]
    cohort = Cohort(*base)
    mutate(cohort)
    data, schema = cohort.write(tmp_path)
    roles = {name: spec["role"] for name, spec in cohort.schema.items()}
    for command, code in zip(["impute", "identify-factors"], codes):
        out = tmp_path / command
        rc = main([command, "--data", str(data), "--schema", str(schema),
                   "--m", "2", "--iterations", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert (command, rc) == (command, code), err
        assert "Traceback" not in err
        assert out.exists() == (rc == 0)
        if case.endswith("not UTF-8"):
            assert f"{data if case.startswith('CSV') else schema} is not UTF-8 text" in err
        for completed in sorted(out.glob("completed_*.csv")):
            with open(completed, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            covariates = [j for j, name in enumerate(header)
                          if roles.get(name.split("=")[0]) == "covariate"]
            assert rows and covariates, completed
            assert all(row[j] != "" for row in rows for j in covariates), completed
