"""The README's examples load and run as written."""

import json
import re
from pathlib import Path

from survkit.harness import ExperimentConfig
from survkit.synth import generate, spec_from_dict
from survkit.tabular import load_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def block(section, lang, after=""):
    """The first ```lang block of the README section titled `section` that
    comes after the text `after`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    body = body[body.index(after):]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)[0]


def test_data_format_schema_loads(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(block("Data format", "json"), encoding="utf-8")
    columns = load_schema(path)
    assert [c.name for c in columns] == ["pid", "months", "died", "age", "grade", "center"]
    assert columns[0].role == "id"


def test_synth_spec_generates():
    spec = spec_from_dict(json.loads(block("Command line", "json", "A synth spec looks like:")))
    assert [c.name for c in spec.covariates] == ["x", "grade"]
    assert (len(spec.missing_rules), spec.n_centers) == (1, 2)
    ds, truth = generate(spec, seed=0)
    assert ds.n_rows == 500 and ds.missing_mask[:, ds.col_index("grade")].any()
    assert set(truth.encoded_names) == set(spec.beta)


def test_experiment_config_loads():
    config = ExperimentConfig.from_dict(
        json.loads(block("Command line", "json", "An experiment config looks like:")))
    assert list(config.families) == ["coxph", "deepsurv", "deephit"]
    assert (config.data, config.schema) == ("cohort.csv", "schema.json")


def test_library_quick_start_runs(capsys):
    exec(block("Library quick start", "python"), {})
    assert "oracle:" in capsys.readouterr().out
