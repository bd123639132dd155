"""Synthetic proportional-hazards cohorts with known ground truth.

Event times follow a Weibull baseline scaled by exp(x . beta): with
U ~ Uniform(0,1), T = scale * (-log U / exp(eta))**(1/shape). Censoring is
an independent exponential whose rate is tuned by bisection so the
expected censored fraction matches the requested target. Missingness is
MAR: per-column logistic rules driven by always-observed columns (and an
optional per-center shift), with the intercept solved so the expected
missing rate hits the rule's target.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (ComputationError, ConfigError, DataError, check_keys, check_seed, check_types,
                     read_object, read_value)
from .metrics import concordance_index
from .tabular import ColumnSpec, SurvivalDataset

# by kind: the fields a covariate reads besides `name` and `kind`
_KIND_KEYS = {"continuous": ["mean", "sd"], "binary": ["p"], "categorical": ["levels"]}


@dataclass
class CovariateSpec:
    """One generated covariate; it takes only its kind's fields.

    kind "continuous": `mean` and `sd`. kind "binary": `p`. kind
    "categorical": `levels`, a {level: probability} mapping in declared
    order, the first level the reference. Another kind's field away from
    its default is a DataError, worded as the reader's unknown key. A
    continuous covariate's (mean, sd) may also come as one tuple in
    `mean`'s place, as in CovariateSpec("x", "continuous", (0.0, 1.0)).
    """

    name: str
    kind: str
    mean: float = 0.0
    sd: float = 1.0
    p: float = 0.5
    levels: dict[str, float] = field(default_factory=dict)
    # rows for every kind: another kind's `sd` and `p` stay at their defaults, which pass
    _RULES = (("sd", lambda v: v >= 0, "non-negative"), ("p", lambda v: 0 <= v <= 1, "in [0, 1]"))

    def __post_init__(self):
        if isinstance(self.mean, tuple) and len(self.mean) == 2:
            self.mean, self.sd = self.mean
        check_types("synth spec", self)
        if self.kind not in _KIND_KEYS:
            raise DataError(f"unknown kind {self.kind!r}")
        known = ["name", "kind", *_KIND_KEYS[self.kind]]
        for f in sorted(fields(self), key=lambda f: f.name):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if f.name not in known and getattr(self, f.name) != default:
                raise DataError(f"unknown key {f.name!r} (known: {', '.join(known)})")
        if self.kind == "categorical" and not (min(self.levels.values(), default=0) >= 0
                                               and abs(sum(self.levels.values()) - 1.0) <= 1e-9):
            raise DataError(f"{self.name!r}: level probabilities must sum to 1")


@dataclass
class MissingRule:
    """MAR mask for one column: logistic in standardized driver columns."""

    column: str
    target_rate: float
    drivers: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    center_shifts: list[float] | None = None
    _RULES = (("target_rate", lambda v: 0 <= v < 1, "in [0, 1)"),)

    def __post_init__(self):
        check_types("synth spec", self)
        if len(self.drivers) != len(self.weights):
            raise DataError(f"rule for {self.column!r}: drivers/weights length mismatch")


@dataclass
class GeneratorSpec:
    """A cohort to generate; a rule it breaks is a DataError as it is built."""

    n: int
    covariates: list[CovariateSpec] = field(default_factory=list)
    beta: dict[str, float] = field(default_factory=dict)  # encoded column name -> coefficient
    shape: float = 1.0
    scale: float = 1.0
    censoring_fraction: float = 0.0
    missing_rules: list[MissingRule] = field(default_factory=list)
    n_centers: int = 1
    center_probs: list[float] | None = None
    _RULES = (("n", lambda v: v >= 2, ">= 2"), ("shape", lambda v: v > 0, "positive"),
              ("scale", lambda v: v > 0, "positive"),
              ("censoring_fraction", lambda v: 0 <= v < 1, "in [0, 1)"),
              ("n_centers", lambda v: v >= 1, ">= 1"))

    def __post_init__(self):
        check_types("synth spec", self)
        probs = self.center_probs
        if probs is not None and not (len(probs) == self.n_centers and min(probs) >= 0
                                      and abs(sum(probs) - 1.0) <= 1e-9):
            raise DataError("center_probs must be n_centers non-negative probabilities summing to 1")
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise DataError("duplicate covariate names")
        unknown_beta = set(self.beta) - set(_encoded_names(self))
        if unknown_beta:
            raise DataError(f"beta names unknown encoded columns: {sorted(unknown_beta)}")
        masked = {r.column for r in self.missing_rules}
        unknown = masked - set(names)
        if unknown:
            raise DataError(f"missing rules name unknown columns: {sorted(unknown)}")
        for rule in self.missing_rules:
            overlap = set(rule.drivers) & masked
            if overlap:
                raise DataError(
                    f"rule for {rule.column!r} conditions on masked columns {sorted(overlap)}; "
                    "MAR drivers must stay fully observed"
                )
            for d in rule.drivers:
                if d not in names:
                    raise DataError(f"rule for {rule.column!r}: unknown driver {d!r}")
            if rule.center_shifts is not None and len(rule.center_shifts) != self.n_centers:
                raise DataError(f"rule for {rule.column!r}: need one shift per center")


@dataclass
class GroundTruth:
    beta: dict
    eta: np.ndarray
    oracle_c: float
    censoring_rate: float
    event_fraction: float
    median_followup: float
    seed: int
    encoded_names: list


def _encoded_names(spec):
    out = []
    for cov in spec.covariates:
        if cov.kind == "categorical":
            out.extend(f"{cov.name}={lv}" for lv in list(cov.levels)[1:])
        else:
            out.append(cov.name)
    return out


def _bisect(rate, target, lo, hi):
    """The x in [lo, hi] with rate(x) = target for an increasing `rate`,
    after 200 halvings of the bracket."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_logit_intercept(lin, target):
    """b0 with mean(sigmoid(b0 + lin)) = target."""
    return _bisect(lambda b0: np.mean(1.0 / (1.0 + np.exp(-(b0 + lin)))), target, -40.0, 40.0)


def _solve_censor_rate(t_event, target):
    """r with mean(1 - exp(-r * T)) = target, the bracket's top doubled
    until it reaches the target."""
    if target <= 0:
        return 0.0
    rate = lambda r: np.mean(1.0 - np.exp(-r * t_event))
    hi = 1.0
    while rate(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ComputationError("cannot reach the requested censoring fraction")
    return _bisect(rate, target, 1e-12, hi)


def generate(spec, seed=0):
    """Draw one cohort; returns (dataset, ground truth).

    Deterministic in (spec, seed). The dataset carries id, time, event and
    center columns plus the declared covariates; the ground truth records
    the true encoded coefficients, each row's linear predictor, and the
    oracle concordance of that predictor on the generated outcomes.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    n = spec.n

    raw = {}
    encoded = {}
    for cov in spec.covariates:
        if cov.kind == "continuous":
            raw[cov.name] = encoded[cov.name] = rng.normal(cov.mean, cov.sd, size=n)
        elif cov.kind == "binary":
            raw[cov.name] = encoded[cov.name] = (rng.random(n) < float(cov.p)).astype(float)
        else:
            levels = list(cov.levels)
            codes = rng.choice(len(levels), size=n, p=np.array(list(cov.levels.values()), dtype=float))
            raw[cov.name] = codes.astype(float)
            for j, lv in enumerate(levels[1:], start=1):
                encoded[f"{cov.name}={lv}"] = (codes == j).astype(float)

    enc_names = _encoded_names(spec)
    eta = np.zeros(n)
    for name, b in spec.beta.items():
        eta += float(b) * encoded[name]

    u = rng.random(n)
    with np.errstate(all="ignore"):
        hazard = np.exp(eta)
        if not np.all((hazard > 0) & (hazard < np.inf)):
            raise ConfigError(f"exp(x . beta) leaves the float range (x . beta spans {eta.min():.6g} "
                              f"to {eta.max():.6g}): shrink beta or the covariate scale (sd)")
        t_event = spec.scale * (-np.log(u) / hazard) ** (1.0 / spec.shape)
    if not np.isfinite(t_event).all():
        raise ConfigError("an event time leaves the float range: shrink scale or raise shape")

    censor_rate = _solve_censor_rate(t_event, spec.censoring_fraction)
    if censor_rate > 0:
        c = rng.exponential(1.0 / censor_rate, size=n)
        time = np.minimum(t_event, c)
        event = (t_event <= c).astype(float)
    else:
        time = t_event
        event = np.ones(n)

    if spec.n_centers > 1:
        probs = spec.center_probs or [1.0 / spec.n_centers] * spec.n_centers
        center = rng.choice(spec.n_centers, size=n, p=np.asarray(probs, dtype=float))
    else:
        center = np.zeros(n, dtype=int)

    # MAR masks on the raw columns
    mask = {name: np.zeros(n, dtype=bool) for name in raw}
    for rule in spec.missing_rules:
        lin = np.zeros(n)
        for d, w in zip(rule.drivers, rule.weights):
            vals = raw[d]
            sd = vals.std()
            z = (vals - vals.mean()) / sd if sd > 0 else np.zeros(n)
            lin += float(w) * z
        if rule.center_shifts is not None:
            lin += np.asarray(rule.center_shifts, dtype=float)[center]
        b0 = _solve_logit_intercept(lin, rule.target_rate)
        p_miss = 1.0 / (1.0 + np.exp(-(b0 + lin)))
        mask[rule.column] = rng.random(n) < p_miss

    columns = [
        ColumnSpec("id", "continuous", role="id"),
        ColumnSpec("time", "continuous", role="time"),
        ColumnSpec("event", "binary", role="event"),
    ]
    data_cols = [np.arange(n, dtype=float), time, event]
    if spec.n_centers > 1:
        columns.append(
            ColumnSpec(
                "center",
                "categorical",
                role="center",
                levels=[f"c{i}" for i in range(spec.n_centers)],
            )
        )
        data_cols.append(center.astype(float))
    for cov in spec.covariates:
        levels = list(cov.levels) if cov.kind == "categorical" else None
        columns.append(ColumnSpec(cov.name, cov.kind, role="covariate", levels=levels))
        vals = raw[cov.name].copy()
        vals[mask[cov.name]] = np.nan
        data_cols.append(vals)

    ds = SurvivalDataset(columns, np.column_stack(data_cols))
    truth = GroundTruth(
        beta={name: float(spec.beta.get(name, 0.0)) for name in enc_names},
        eta=eta,
        oracle_c=float(concordance_index(time, event, eta)),
        censoring_rate=float(censor_rate),
        event_fraction=float(event.mean()),
        median_followup=float(np.median(time)),
        seed=seed,
        encoded_names=enc_names,
    )
    return ds, truth


def _read_covariates(docs):
    covs = read_value("synth spec", "covariates", list[CovariateSpec], docs)
    for i, cov in enumerate(covs):
        check_keys(f"synth spec: covariates[{i}]", docs[i], ["name", "kind", *_KIND_KEYS[cov.kind]])
    return covs


def spec_from_dict(doc):
    """The GeneratorSpec of a JSON synth spec (see README). A missing key
    without a default, an unknown key at any level (a covariate takes only
    its kind's keys), a value of the wrong type and a value out of range
    are each a ConfigError naming the key."""
    return read_object("synth spec", GeneratorSpec, doc, covariates=_read_covariates)


def ensure_like(seed=0):
    """A cohort shaped like a two-outcome gastric cancer registry table:
    ~3900 rows, 34 encoded covariates, ~59% events, median follow-up near
    30 months, oracle concordance near 0.75, moderate MAR missingness.

    Returns (dataset, ground truth, spec).
    """
    continuous = [CovariateSpec(f"x{i:02d}", "continuous", mean=0.0, sd=1.0) for i in range(1, 23)]
    binaries = [
        CovariateSpec("b1", "binary", p=0.35),
        CovariateSpec("b2", "binary", p=0.5),
        CovariateSpec("b3", "binary", p=0.2),
        CovariateSpec("b4", "binary", p=0.6),
    ]
    cats = [
        CovariateSpec("grade", "categorical", levels={"g1": 0.4, "g2": 0.3, "g3": 0.2, "g4": 0.1}),
        CovariateSpec("stage", "categorical", levels={"s1": 0.35, "s2": 0.3, "s3": 0.25, "s4": 0.1}),
        CovariateSpec("site", "categorical", levels={"antrum": 0.5, "body": 0.3, "cardia": 0.2}),
    ]
    covs = continuous + binaries + cats

    # 22 + 4 + 3 + 3 + 2 = 34 encoded columns; coefficient scale tuned so the
    # oracle concordance of the true linear predictor lands near 0.75
    # (measured mean 0.749, range 0.742-0.757 over seeds 0-7)
    beta = {
        "x01": 0.378, "x02": -0.342, "x03": 0.297, "x04": -0.252, "x05": 0.216,
        "x06": -0.189, "x07": 0.162, "x08": -0.135, "x09": 0.108, "x10": -0.09,
        "x11": 0.27, "x12": -0.234, "x13": 0.198, "x14": -0.162, "x15": 0.126,
        "x16": -0.108, "x17": 0.081, "x18": -0.063, "x19": 0.045, "x20": -0.036,
        "x21": 0.315, "x22": -0.279,
        "b1": 0.36, "b2": -0.27, "b3": 0.225, "b4": -0.18,
        "grade=g2": 0.18, "grade=g3": 0.405, "grade=g4": 0.63,
        "stage=s2": 0.27, "stage=s3": 0.54, "stage=s4": 0.855,
        "site=body": 0.135, "site=cardia": -0.18,
    }

    rules = [
        MissingRule("x03", 0.08, drivers=["x01"], weights=[0.8]),
        MissingRule("x07", 0.12, drivers=["x02", "b1"], weights=[0.6, -0.4]),
        MissingRule("x11", 0.05, drivers=["x01"], weights=[-0.5],
                    center_shifts=[0.0, 0.4, -0.4, 0.2, -0.2]),
        MissingRule("x15", 0.18, drivers=["x04"], weights=[0.7]),
        MissingRule("b2", 0.06, drivers=["x02"], weights=[0.5]),
        MissingRule("grade", 0.10, drivers=["x01", "x02"], weights=[0.4, 0.3]),
        MissingRule("x19", 0.15, drivers=["b1"], weights=[0.6],
                    center_shifts=[0.3, 0.0, -0.3, 0.1, -0.1]),
        MissingRule("x21", 0.04, drivers=["x04"], weights=[-0.6]),
    ]

    spec = GeneratorSpec(
        n=3921,
        covariates=covs,
        beta=beta,
        shape=1.1,
        scale=117.0,
        censoring_fraction=0.4114,
        missing_rules=rules,
        n_centers=5,
        center_probs=[0.3, 0.25, 0.2, 0.15, 0.1],
    )
    ds, truth = generate(spec, seed=seed)
    return ds, truth, spec
