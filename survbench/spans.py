"""Per-layer tracing from outside the program.

`install` wraps every public function of the survkit layer modules, in its
defining module and at every module that imported it by name, so a call
through any path is counted once. Calls are aggregated by (parent span,
span) into a call count, busy seconds and the seconds covered by child
spans, instead of one record per call: the reference workload makes
millions of curve evaluations and Brier calls. A span's self time is its
busy time minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

LAYERS = (
    "tabular", "preprocess", "impute", "coxph", "_kernels", "nnet", "deepsurv",
    "deephit", "curves", "metrics", "harness", "synth", "cli",
)

# span names that differ from "<layer>.<function>"; span and metric names
# drop the leading underscore of `_kernels`
RENAMES = {
    "coxph.fit_coxph": "coxph.fit",
    "deepsurv.fit_deepsurv": "deepsurv.fit",
    "deepsurv.deepsurv_loss": "deepsurv.loss",
    "deephit.fit_deephit": "deephit.fit",
    "deephit.deephit_loss": "deephit.loss",
    "kernels.efron_loss_grad": "kernels.efron",
    "kernels.concordance_counts": "kernels.concordance",
    "metrics.bootstrap_ci": "metrics.bootstrap",
}

WRAPPER_MARK = "__survbench_span__"


class Tracer:
    def __init__(self):
        self.edges = {}  # (parent span, span) -> [calls, seconds, child seconds]
        self.counters = {}
        self.wrapper_cost_s = 0.0  # set by measure_wrapper_cost
        self._stack = []

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, span, fn, on_result=None, suffix=None):
        """Return `fn` timed as `span`; `suffix(args, kwargs)` splits the span."""
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if suffix is None else f"{span}.{suffix(args, kwargs)}"
            key = (stack[-1][0] if stack else None, name)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                entry = edges.get(key)
                if entry is None:
                    entry = edges[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, span)
        return wrapper

    # -- aggregates ---------------------------------------------------------

    def calls(self, span):
        return sum(v[0] for (_, s), v in self.edges.items() if s == span)

    def seconds(self, span):
        return sum(v[1] for (_, s), v in self.edges.items() if s == span)

    def self_seconds(self, span):
        return sum(v[1] - v[2] for (_, s), v in self.edges.items() if s == span)

    def calls_under(self, parent, span):
        entry = self.edges.get((parent, span))
        return entry[0] if entry else 0

    def layer_self_seconds(self, layer):
        prefix = layer.lstrip("_") + "."
        return sum(v[1] - v[2] for (_, s), v in self.edges.items() if s.startswith(prefix))

    def total_calls(self):
        return sum(v[0] for v in self.edges.values())

    def table(self):
        """Flat per-span rows (span, calls, seconds, self seconds), busiest first."""
        spans = sorted({s for _, s in self.edges})
        rows = [(s, self.calls(s), self.seconds(s), self.self_seconds(s)) for s in spans]
        return sorted(rows, key=lambda r: -r[2])


def measure_wrapper_cost(tracer, calls=20000, repeats=5):
    """Store in `tracer` the seconds one span wrapper adds to a call.

    Times a wrapped no-op against the bare no-op, inside an open parent
    span as most traced calls are, with a throwaway Tracer. The median of
    `repeats` differences, floored at 0.
    """
    probe = Tracer()
    clock = time.perf_counter

    def noop():
        return None

    wrapped = probe.wrap("probe.noop", noop)

    def loop(fn):
        t0 = clock()
        for _ in range(calls):
            fn()
        return clock() - t0

    def diffs():
        return [loop(wrapped) - loop(noop) for _ in range(repeats)]

    diff = statistics.median(probe.wrap("probe.parent", diffs)())
    tracer.wrapper_cost_s = max(0.0, diff) / calls


def _layer_modules():
    return {layer: importlib.import_module(f"survkit.{layer}") for layer in LAYERS}


def _defined_in(obj, module):
    owner = getattr(obj, "__module__", "") or ""
    return owner == module.__name__ or owner.startswith(module.__name__ + ".")


def public_functions():
    """{id: (span, function)} for every public function of the layer modules."""
    found = {}
    for layer, module in _layer_modules().items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not _defined_in(obj, module) or hasattr(obj, WRAPPER_MARK):
                continue
            span = f"{layer.lstrip('_')}.{attr}"
            found[id(obj)] = (RENAMES.get(span, span), obj)
    return found


def _survkit_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "survkit" or n.startswith("survkit."))]


def _hooks(tracer):
    """Result hooks that record counts the call signature or result carries."""

    def efron(args, kwargs, result):
        tracer.add("kernels.efron.rows", len(args[0]))

    def concordance(args, kwargs, result):
        tracer.add("kernels.concordance.cases", len(args[0]))

    def coxph_fit(args, kwargs, result):
        tracer.add("coxph.fit.iterations", result.n_iter)
        tracer.add("coxph.fit.converged", int(result.converged))

    def deepsurv_fit(args, kwargs, result):
        tracer.add("deepsurv.skipped_batches", result.skipped_batches)

    def deephit_curves(args, kwargs, result):
        tracer.add("deephit.predict_survival.curves", len(result))

    def bootstrap(args, kwargs, result):
        tracer.add("metrics.bootstrap.replicates", result.n_boot)
        tracer.add("metrics.bootstrap.failed", result.n_failed)

    def load_csv(args, kwargs, result):
        tracer.add("tabular.load_csv.cells", int(result.values.size))

    return {
        "kernels.efron": efron,
        "kernels.concordance": concordance,
        "coxph.fit": coxph_fit,
        "deepsurv.fit": deepsurv_fit,
        "deephit.predict_survival": deephit_curves,
        "metrics.bootstrap": bootstrap,
        "tabular.load_csv": load_csv,
    }


def install(tracer):
    """Wrap the layer functions everywhere survkit refers to them.

    Returns {id: original function} for `uncovered`.
    """
    from survkit import coxph, curves

    hooks = _hooks(tracer)
    wrappers = {}
    for key, (span, fn) in public_functions().items():
        suffix = None
        if span == "metrics.bootstrap":
            suffix = lambda args, kwargs: kwargs.get("name", "metric")  # noqa: E731
        wrappers[key] = (fn, tracer.wrap(span, fn, hooks.get(span), suffix))

    for module in _survkit_modules():
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])

    # methods and private helpers the layer → end-to-end map in NOTES.md names
    curves.SurvivalCurve.__call__ = tracer.wrap(
        "curves.survival_curve", curves.SurvivalCurve.__call__)
    coxph._efron_information = tracer.wrap(
        "coxph._efron_information", coxph._efron_information)
    return {key: fn for key, (fn, _) in wrappers.items()}


def uncovered(originals):
    """Public layer functions left unwrapped in their defining module, and
    module attributes that still refer to an original after `install`."""
    missing = [f"{fn.__module__}.{fn.__name__}" for _, fn in public_functions().values()]
    for module in _survkit_modules():
        for attr, obj in vars(module).items():
            if originals.get(id(obj)) is obj:
                missing.append(f"{module.__name__}.{attr}")
    return sorted(missing)


# -- per-layer metrics ------------------------------------------------------


def _frac(num, den):
    return num / den if den else 0.0


def _seconds(span):
    return (f"{span}.s", "s", "lower", lambda t: t.seconds(span))


def _calls(span):
    return (f"{span}.calls", "count", "lower", lambda t: t.calls(span))


def _self(span):
    return (f"{span}.self_s", "s", "lower", lambda t: t.self_seconds(span))


def _counter(name, better="lower"):
    return (name, "count", better, lambda t: t.counters.get(name, 0))


def _calls_and_seconds(*spans):
    return [m for span in spans for m in (_calls(span), _seconds(span))]


# (name, unit, better, value from a Tracer). Ratios read 0 when the layer
# did no work on the workload.
PER_LAYER = [
    *[_seconds(f"metrics.bootstrap.{m}") for m in ("c_index", "ibs", "tauc_mean")],
    _counter("metrics.bootstrap.replicates", "higher"),
    _counter("metrics.bootstrap.failed"),
    ("metrics.bootstrap.useful_frac", "frac", "higher", lambda t: _frac(
        t.counters.get("metrics.bootstrap.replicates", 0)
        - t.counters.get("metrics.bootstrap.failed", 0),
        t.counters.get("metrics.bootstrap.replicates", 0))),
    *_calls_and_seconds("metrics.integrated_brier"),
    _calls("metrics.brier_score"),
    _calls("metrics.censoring_km"),
    _seconds("metrics.concordance_index"),
    _seconds("metrics.cumulative_dynamic_auc"),
    ("curves.survival_curve.evals", "count", "lower", lambda t: t.calls("curves.survival_curve")),
    _seconds("curves.survival_curve"),
    _counter("deephit.predict_survival.curves"),
    _seconds("deephit.predict_survival"),
    _seconds("coxph.predict_survival"),
    *_calls_and_seconds("kernels.concordance"),
    _counter("kernels.concordance.cases", "higher"),
    *_calls_and_seconds("kernels.efron"),
    _counter("kernels.efron.rows", "higher"),
    *_calls_and_seconds("coxph.fit"),
    _self("coxph.fit"),
    _counter("coxph.fit.iterations"),
    ("coxph.fit.converged_frac", "frac", "higher", lambda t: _frac(
        t.counters.get("coxph.fit.converged", 0), t.calls("coxph.fit"))),
    ("coxph.kernel_calls_per_iter", "ratio", "lower", lambda t: _frac(
        t.calls_under("coxph.fit", "kernels.efron"),
        t.counters.get("coxph.fit.iterations", 0))),
    _seconds("coxph._efron_information"),
    *_calls_and_seconds(*(f"impute.{f}" for f in
                          ("mice_impute", "fit_mice", "apply_mice", "pool_rubin"))),
    _seconds("tabular.load_csv"),
    _counter("tabular.load_csv.cells", "higher"),
    _calls("tabular.subset_rows"),
    *[_seconds(f"preprocess.{f}") for f in
      ("dummy_encode", "fit_scaler", "apply_scaler", "prune_correlated")],
    *_calls_and_seconds("nnet.forward", "nnet.backward", "nnet.adam_step"),
    *_calls_and_seconds("deepsurv.fit"),
    _self("deepsurv.fit"),
    _seconds("deepsurv.loss"),
    _counter("deepsurv.skipped_batches"),
    ("deepsurv.useful_batch_frac", "frac", "higher", lambda t: _frac(
        t.calls_under("deepsurv.fit", "nnet.adam_step"),
        t.calls_under("deepsurv.fit", "nnet.adam_step")
        + t.counters.get("deepsurv.skipped_batches", 0))),
    *_calls_and_seconds("deephit.fit"),
    _self("deephit.fit"),
    *_calls_and_seconds("deephit.loss"),
    *_calls_and_seconds(*(f"harness.{f}" for f in
                          ("grid_search", "cv_evaluate", "fit_fold_pipeline"))),
    _seconds("synth.ensure_like"),
    *[(f"{layer.lstrip('_')}.self_s", "s", "lower",
       lambda t, layer=layer: t.layer_self_seconds(layer)) for layer in LAYERS],
    ("trace.calls", "count", "lower", lambda t: t.total_calls()),
    # estimated from the wrapper's own cost, not from two timed calls,
    # whose difference machine drift outweighs
    ("trace.overhead_s", "s", "lower", lambda t: t.total_calls() * t.wrapper_cost_s),
]


def layer_metrics(tracer):
    """{name: value} for every PER_LAYER metric."""
    return {name: value(tracer) for name, _, _, value in PER_LAYER}


def identities(tracer, expected):
    """Failed identity checks, as messages."""
    problems = []
    for span, count in expected.items():
        if tracer.calls(span) != count:
            problems.append(f"{span} called {tracer.calls(span)} times, expected {count}")
    if tracer.calls("nnet.backward") != tracer.calls("nnet.adam_step"):
        problems.append("nnet.backward.calls != nnet.adam_step.calls")
    if tracer.counters.get("metrics.bootstrap.failed", 0):
        problems.append("bootstrap replicates failed")
    return problems
