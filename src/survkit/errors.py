"""Exception types shared across the toolkit, and the key and number
checks of the config, synth spec and schema readers.

Validation problems (bad schema, bad cell, bad config) and computation
problems (non-convergence, degenerate inputs) are kept distinct so the CLI
can map them to different exit codes.
"""

import math


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


def finite_number(value, kind):
    """`value` as a finite `kind` (int or float), a numeric string such as
    "0.25" included; a boolean, a non-integral int or a non-finite number
    raises ValueError, and `kind` itself TypeError or OverflowError."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and value % 1):
        raise ValueError(f"{value!r} is not a valid {kind.__name__}")
    out = kind(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not finite")
    return out
