"""Step and interpolated curve types shared by estimators and metrics.

All time-indexed outputs (cumulative hazards, survival curves, censoring
curves) are represented as knot arrays plus values, evaluated either as
right-continuous step functions or by linear interpolation. Values may
carry leading subject axes; evaluation acts on the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_1d_float(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def step_eval(knots: np.ndarray, values: np.ndarray, t, baseline: float, side="right"):
    """Evaluate a right-continuous step function along the last axis of values.

    side="right" returns `values[..., i]` for the largest knot <= t;
    side="left" gives the left limit, from the largest knot strictly < t
    (inverse-probability weights G(t-) at event times). Before the first
    knot the value is `baseline`.
    """
    t_arr = np.asarray(t, dtype=float)
    if len(knots) == 0:
        out = np.full(values.shape[:-1] + t_arr.shape, baseline)
    else:
        # a 1-D index makes the gather a copy, which takes the baseline in place
        idx = np.searchsorted(knots, t_arr.reshape(-1), side=side) - 1
        out = values[..., np.clip(idx, 0, len(knots) - 1)]
        out[..., idx < 0] = baseline
        out = out.reshape(values.shape[:-1] + t_arr.shape)
    return _scalar_or_array(out)


def interp_rows(t, xp, fp):
    """`np.interp(t, xp, row)` for every row of fp, bit for bit.

    Same rule as numpy: the exact knot value at a knot, clamping to the end
    values outside [xp[0], xp[-1]], and slope * (t - xp[j]) + fp[j] inside.
    Returns fp.shape[:-1] + t.shape.
    """
    t = np.asarray(t, dtype=float)
    x = t.reshape(-1)
    k = np.searchsorted(xp, x, side="right") - 1
    at = np.clip(k, 0, len(xp) - 1)
    out = fp[..., at]
    inside = (k >= 0) & (k < len(xp) - 1) & (xp[at] != x)
    if inside.any():
        j = k[inside]
        slope = (fp[..., j + 1] - fp[..., j]) / (xp[j + 1] - xp[j])
        out[..., inside] = slope * (x[inside] - xp[j]) + fp[..., j]
    return out.reshape(fp.shape[:-1] + t.shape)


@dataclass
class CumHazardFn:
    """Non-decreasing right-continuous cumulative hazard step function.

    `knots` are strictly increasing finite event times; `values[i]` is
    the finite H(knots[i]). H(t) = 0 before the first knot.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.knots = _as_1d_float(self.knots, "knots")
        self.values = _as_1d_float(self.values, "values")
        if self.knots.shape != self.values.shape:
            raise ValueError("knots and values must have equal length")
        if not (np.isfinite(self.knots).all() and np.isfinite(self.values).all()):
            raise ValueError("knots and values must be finite")
        if len(self.knots) and np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if len(self.values) and (np.any(np.diff(self.values) < 0) or self.values[0] < 0):
            raise ValueError("cumulative hazard must be non-negative and non-decreasing")

    def __call__(self, t):
        return step_eval(self.knots, self.values, t, 0.0)


@dataclass
class SurvivalCurve:
    """Survival probabilities S(t) of n subjects on one time grid.

    `times` is (T,); `values` is (n, T), or (T,) for a single subject.
    len(), indexing and iteration select subjects: `curves[idx]` is a
    batch, `curves[i]` and iteration give single-subject curves.

    kind="step": right-continuous step function, S=1 before the first knot.
    kind="linear": piecewise-linear between grid points, clamped to the
    end values beyond the grid.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "step"

    def __post_init__(self):
        self.times = _as_1d_float(self.times, "times")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != len(self.times):
            raise ValueError(
                f"values must be (T,) or (n, T) with T={len(self.times)}, "
                f"got shape {self.values.shape}"
            )
        if self.kind not in ("step", "linear"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.values.size:
            if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
                raise ValueError("survival values must lie in [0, 1]")
            if np.any(np.diff(self.values, axis=-1) > 1e-12):
                raise ValueError("survival values must be non-increasing")

    def __len__(self):
        if self.values.ndim == 1:
            raise TypeError("a single-subject curve has no len()")
        return len(self.values)

    def __getitem__(self, idx):
        if self.values.ndim == 1:
            raise TypeError("a single-subject curve cannot be indexed")
        return SurvivalCurve(self.times, self.values[idx], self.kind)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __call__(self, t):
        """S(t): (n, len(t)) for a batch, len(t) values for one subject."""
        if self.kind == "step":
            return step_eval(self.times, self.values, t, 1.0)
        return _scalar_or_array(interp_rows(t, self.times, self.values))

    def left(self, t):
        """Left limit S(t-); equal to S(t) for a linear curve."""
        if self.kind == "step":
            return step_eval(self.times, self.values, t, 1.0, side="left")
        return self(t)
