"""The README's examples load and run as written."""

import json
import re
from pathlib import Path

from survkit.harness import ExperimentConfig
from survkit.tabular import load_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def block(section, lang):
    """The first ```lang block of the README section titled `section`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)[0]


def test_data_format_schema_loads(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(block("Data format", "json"), encoding="utf-8")
    columns = load_schema(path)
    assert [c.name for c in columns] == ["pid", "months", "died", "age", "grade", "center"]
    assert columns[0].role == "id"


def test_experiment_config_loads():
    config = ExperimentConfig.from_dict(json.loads(block("Command line", "json")))
    assert list(config.families) == ["coxph", "deepsurv", "deephit"]
    assert (config.data, config.schema) == ("cohort.csv", "schema.json")


def test_library_quick_start_runs(capsys):
    exec(block("Library quick start", "python"), {})
    assert "oracle:" in capsys.readouterr().out
