"""Every function in the package is reached by something other than its tests.

A function or method of `src/survkit` must be named somewhere in the
package, `survbench/` or `benchmarks/` outside its own definition, or be
listed in `ALLOWED` with its reason. Names are matched, not resolved, so a
method counts as reached when any attribute of that name is read; the scan
misses some unreached code but never flags reached code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "survkit"

# reached only by tests, and kept on purpose
ALLOWED = {
    # tests/test_acceptance.py, the acceptance gate, imports it
    "replace_column_values",
    # tests/test_acceptance.py iterates `ImputationSet.datasets`, the set itself
    "datasets",
    # documented library API in the README; the acceptance gate imports it too
    "brier_score",
    # documented library API in the README
    "neg_log_partial_likelihood",
    "wald_stats",
    "summarize",
}


def _sources():
    for folder in (PACKAGE, ROOT / "survbench", ROOT / "benchmarks"):
        yield from sorted(folder.glob("*.py"))


def test_every_function_is_reached_outside_the_tests():
    defined = []  # (name, path, first line, last line)
    used = {}  # name -> [(path, line)]
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent == PACKAGE:
                    defined.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((path, node.lineno))

    def reached(name, path, first, last):
        return any(not (p == path and first <= line <= last) for p, line in used.get(name, ()))

    unreached = sorted(
        f"{path.name}:{first} {name}"
        for name, path, first, last in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and not reached(name, path, first, last)
    )
    assert not unreached, f"functions no command or script reaches: {unreached}"
