"""Exception types shared across the toolkit, the seed, count and
unknown-key checks, every record's value rule (`check_types`), and the one
reader of the experiment config and the synth spec.

Validation problems (bad schema, bad cell, bad config) and computation
problems (non-convergence, degenerate inputs) are kept distinct so the CLI
can map them to different exit codes.
"""

import numbers
import re
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints


class SurvkitError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(SurvkitError, ValueError):
    """Schema is malformed or does not match the data file."""


class DataError(SurvkitError, ValueError):
    """A cell or row violates its column spec.

    Carries enough context to point at the offending location.
    """

    def __init__(self, message, row=None, column=None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


class ConfigError(SurvkitError, ValueError):
    """A config file or CLI argument set is invalid."""


class ComputationError(SurvkitError, RuntimeError):
    """A numerical procedure failed (non-convergence, degenerate input)."""


class ScalingWarning(UserWarning):
    """Covariates look unstandardized where standardized input is expected."""


class ImputationWarning(UserWarning):
    """An imputation model is saturated: its target has no more observed
    rows than predictors, so its draws are near-exact linear combinations
    of the other columns."""


def check_seed(seed):
    """Raise a DataError unless `seed` is a non-negative integer (the
    reader's int: never a boolean), before a generator is seeded with it."""
    if not (_holds(int, seed) and seed >= 0):
        raise DataError(f"seed={seed!r} is not a non-negative integer")


def check_count(name, value, least):
    """Raise a DataError unless the count `name` is an int >= `least`."""
    if not (_holds(int, value) and value >= least):
        raise DataError(f"{name} must be an integer >= {least}, got {value!r}")


def check_keys(scope, doc, known, error=ConfigError):
    """Raise `error` naming `scope` and the first key of `doc` not in `known`."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise error(f"{scope}: unknown key {unknown[0]!r} (known: {', '.join(known)})")


def read_object(scope, cls, doc, **readers):
    """The dataclass `cls` from the JSON object `doc`, each key read by
    `read_value` as its field's annotation, or by `readers[key]`. A `doc`
    that is not an object, an unknown or missing key, a value its
    annotation rejects and a DataError from `cls.__post_init__` are each a
    ConfigError naming `scope`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{scope}: {doc!r} is not an object")
    check_keys(scope, doc, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{scope}: missing key {f.name!r}")
    hints = get_type_hints(cls)
    values = {key: readers[key](value) if key in readers else read_value(scope, key, hints[key], value)
              for key, value in doc.items()}
    try:
        return cls(**values)
    except DataError as exc:
        raise ConfigError(f"{scope}: {exc}") from exc


def read_value(scope, key, kind, value):
    """The JSON `value` of `key` reshaped by `_convert` (an object inside it
    read in scope "{scope}: {key}", or "{scope}: {key}[i]" as item i of a
    list), if `_holds` accepts it; else a ConfigError naming the value."""
    out = _convert(f"{scope}: {key}", kind, value)
    if not _holds(kind, out):
        raise ConfigError(f"{scope}: {key}={value!r} is not a valid {_name(kind)}")
    return out


def check_types(scope, obj):
    """Raise a ConfigError naming `scope` and the first field of the
    dataclass `obj` that holds neither its default nor a value `_holds`
    accepts, then a DataError for the first non-None field that fails its
    row (field, test, what) of the class's `_RULES`. Values are checked,
    not converted, so this catches a dataclass constructed directly."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not f.default and not _holds(hints[f.name], value):
            raise ConfigError(f"{scope}: {f.name}={value!r} is not a valid {_name(hints[f.name])}")
    for name, ok, what in getattr(obj, "_RULES", ()):
        value = getattr(obj, name)
        if value is not None and not ok(value):
            raise DataError(f"{name} must be {what}, got {value!r}")


def _holds(kind, value):
    """Whether `value` fits the annotation `kind`: int or float (a finite
    number, never a boolean; an int is a float), bool, str, list[T] and
    dict[str, T] (each item held to T), T | None, object (any value) or a
    dataclass (an instance). Any other annotation is a TypeError."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType and args[1:] == (type(None),):
        return value is None or _holds(args[0], value)
    if origin is list:
        return isinstance(value, list) and all(_holds(args[0], v) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_holds(args[0], k) and _holds(args[1], v)
                                               for k, v in value.items())
    if kind in (int, float):
        # compared, not converted: an int beyond the float range is not finite
        return (isinstance(value, numbers.Integral if kind is int else numbers.Real)
                and not isinstance(value, bool) and -sys.float_info.max <= value <= sys.float_info.max)
    if kind in (bool, str, object) or is_dataclass(kind):
        return isinstance(value, kind)
    raise TypeError(f"no reader for the annotation {kind!r}")


def _name(kind):
    return kind.__name__ if isinstance(kind, type) else re.sub(r"[\w.]+\.", "", str(kind))


def _convert(where, kind, value):
    """`value` reshaped toward `kind` as JSON needs: objects read into their
    dataclasses, items converted, integral floats made ints, ints floats."""
    origin, args = get_origin(kind), get_args(kind)
    if is_dataclass(kind):
        return read_object(where, kind, value)
    if origin is UnionType:
        return None if value is None else _convert(where, args[0], value)
    if origin is list and isinstance(value, (list, tuple)):
        return [_convert(f"{where}[{i}]", args[0], v) for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        return {k: _convert(where, args[1], v) for k, v in value.items()}
    if kind in (int, float) and _holds(float, value) and (kind is float or int(value) == value):
        return kind(value)
    return value
