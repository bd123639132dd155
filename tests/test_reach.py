"""Every function and every option in the package is reached by something
other than its tests.

A function or method of `src/survkit` must be named somewhere in the
package, `survbench/` or `benchmarks/` outside its own definition, or be
listed in `ALLOWED` with its reason. A defaulted parameter of one (an
option) must be set by a call there, or be listed in `ALLOWED_OPTIONS`:
a keyword sets it, and so do a positional argument at its place, a `*` or
`**` argument, and a keyword of `functools.partial` on the function; a
call of a class is a call of its `__init__`. Names are matched, not
resolved, so a method counts as reached when any attribute of that name is
read, and an option as set when any call of that name sets it; the scans
miss some unreached code but never flag reached code. Every entry of
`ALLOWED` and `ALLOWED_OPTIONS` must name a function or option that exists.
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

# options set only by tests, and kept on purpose
ALLOWED_OPTIONS = {
    # tests/test_acceptance.py, the acceptance gate, passes them
    "replace_column_values.mask",
    "SurvivalDataset.missing_mask",
    # the README quick start passes it
    "fit_scaler.columns",
}


def _trees():
    for folder in (PACKAGE, ROOT / "survbench", ROOT / "benchmarks"):
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functions():
    """The package's functions as (name, path, first line, last line), and
    every name read as {name: [(path, line)]}."""
    defined = []
    used = {}
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent == PACKAGE:
                    defined.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((path, node.lineno))
    return defined, used


def test_every_function_is_reached_outside_the_tests():
    defined, used = _functions()

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


def _options():
    """The package's options as (label, called name, parameter, place among
    the passed arguments), and every call as {called name: [(positional
    count, any * or **, keywords)]}."""
    options = []
    calls = {}
    for path, tree in _trees():
        methods = {item: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent != PACKAGE:
                    continue
                cls = methods.get(node)
                if cls is None:
                    called = label = node.name
                elif node.name == "__init__":
                    called = label = cls.name
                else:
                    called, label = node.name, f"{cls.name}.{node.name}"
                # a caller passes no `self`: a method's arguments start one later
                bound = cls is not None and "staticmethod" not in map(_name, node.decorator_list)
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                options += [(f"{label}.{p.arg}", called, p.arg, i - bound)
                            for i, p in enumerate(positional) if i >= first]
                options += [(f"{label}.{p.arg}", called, p.arg, None)
                            for p, default in zip(args.kwonlyargs, args.kw_defaults)
                            if default is not None]
            elif isinstance(node, ast.Call):
                called, passed = _name(node.func), node.args
                if called == "partial" and passed:
                    called, passed = _name(passed[0]), passed[1:]
                keywords = {k.arg for k in node.keywords}
                spread = None in keywords or any(isinstance(a, ast.Starred) for a in passed)
                calls.setdefault(called, []).append((len(passed), spread, keywords))
    return options, calls


def test_every_option_is_set_outside_the_tests():
    options, calls = _options()

    def set_by_a_call(called, param, place):
        return any(spread or param in keywords or (place is not None and place < count)
                   for count, spread, keywords in calls.get(called, ()))

    unset = sorted(label for label, called, param, place in options
                   if label not in ALLOWED_OPTIONS and not set_by_a_call(called, param, place))
    assert not unset, f"options no command or script sets: {unset}"


def test_every_allowed_entry_names_a_function_or_option():
    functions = {name for name, *_ in _functions()[0]}
    options = {label for label, *_ in _options()[0]}
    assert not ALLOWED - functions, f"no such function: {sorted(ALLOWED - functions)}"
    assert not ALLOWED_OPTIONS - options, f"no such option: {sorted(ALLOWED_OPTIONS - options)}"
