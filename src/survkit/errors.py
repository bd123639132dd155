"""Exception types shared across the toolkit, the unknown-key check, and
the one reader of the experiment config and the synth spec.

Validation problems (bad schema, bad cell, bad config) and computation
problems (non-convergence, degenerate inputs) are kept distinct so the CLI
can map them to different exit codes.
"""

import math
import re
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
    """The JSON `value` of `key` read as the annotation `kind`: int or
    float (a finite number, never a boolean or a string; 3.0 reads as the
    int 3), bool, str, list[T], dict[str, T], T | None, object (any value)
    or a dataclass, read by `read_object` in scope "{scope}: {key}" or, as
    item i of a list, "{scope}: {key}[i]". A value `kind` rejects is a
    ConfigError naming `key` and the whole value; any other annotation is
    a TypeError."""
    try:
        return _read(f"{scope}: {key}", kind, value)
    except ConfigError:  # from an object inside `value`, which names its own scope
        raise
    except (ValueError, OverflowError) as exc:
        name = kind.__name__ if isinstance(kind, type) else re.sub(r"[\w.]+\.", "", str(kind))
        raise ConfigError(f"{scope}: {key}={value!r} is not a valid {name}") from exc


def _read(where, kind, value):
    origin, args = get_origin(kind), get_args(kind)
    if is_dataclass(kind):
        return read_object(where, kind, value)
    if origin is UnionType and args[1:] == (type(None),):
        return None if value is None else _read(where, args[0], value)
    if origin is list and isinstance(value, (list, tuple)):
        return [_read(f"{where}[{i}]", args[0], v) for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        return {_read(where, str, k): _read(where, args[1], v) for k, v in value.items()}
    if kind in (bool, str) and isinstance(value, kind):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        out = kind(value)
        if math.isfinite(out) and (kind is float or out == value):
            return out
    if kind is object:
        return value
    if origin in (list, dict) or kind in (bool, str, int, float):
        raise ValueError(f"{value!r} is not a {kind}")
    raise TypeError(f"{where}: no reader for the annotation {kind!r}")
