"""Span tracing of pblr's layers from outside the package.

`Tracer.install` replaces every public function of each layer module with
a wrapper, at every pblr module that binds it (`experiments` and `mc`
import `fit_posterior` by name, `blr` calls it itself), and `remove` puts
the originals back. Each wrapped call records one span: name, layer,
start, end, parent span and op id (one op per `cli.main` call). Spans stay
in memory; `metrics` reduces them to the per-layer numbers the benchmark
reports and `dump` writes them out once the run is over. The tracer's own
cost, `trace.overhead_s`, is the spans of a round times the measured cost of
one wrapped call; a difference of traced and untraced round times would be
buried in their noise.

Functions that disappear in later versions of pblr simply record no spans,
so their metrics read 0 instead of breaking the benchmark.
"""

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "experiments", "tasks", "blr", "losses", "mc", "subgamma", "bounds")

# Every CSV writer counts as the experiments layer's output stage.
WRITERS = {"experiments.write_csv", "tasks.write_dataset_csv",
           "subgamma.MgfReport.write_csv"}
GENERATORS = {"tasks.gen_linear_task", "tasks.gen_sine_task"}
DESIGNS = {"tasks.polynomial_design", "tasks.identity_design"}


def _arg(bound, name, default=None):
    return bound.arguments.get(name, default)


def _gen_risk(bound):
    """Split the generalization oracle by loss kind; count cropped loss evaluations."""
    kind = getattr(_arg(bound, "loss"), "kind", "other")
    counts = {}
    if kind == "cropped":
        m_test = _arg(bound, "m_test", bound.signature.parameters["m_test"].default)
        counts["mc.gen_risk.cropped.loss_evals"] = _arg(bound, "m_weights", 0) * m_test
    return f"mc.gen_risk.{kind}", counts


def _bootstrap(bound):
    reps = _arg(bound, "bootstrap", bound.signature.parameters["bootstrap"].default)
    return None, {"subgamma.mgf.draws": _arg(bound, "m", 0),
                  "subgamma.mgf.resamples": reps * len(_arg(bound, "lambda_grid", ()))}


# name -> f(bound arguments) -> (span name override or None, {counter: amount})
COUNTERS = {
    "losses.empirical_gibbs_risk_mc": lambda b: (None, {
        "losses.loss_evals": _arg(b, "m", 0) * _arg(b, "design").n}),
    "mc.gibbs_generalization_risk": _gen_risk,
    "mc.sample_posterior": lambda b: (None, {"mc.samples": _arg(b, "m", 0)}),
    "subgamma.empirical_mgf_check": _bootstrap,
    "tasks.gen_linear_task": lambda b: (None, {"tasks.gen.rows": _arg(b, "n", 0)}),
    "tasks.gen_sine_task": lambda b: (None, {"tasks.gen.rows": _arg(b, "spec").n}),
}


def span_cost(calls=20000, repeats=7):
    """Seconds one wrapped call adds over a direct call, median of `repeats` timings of a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibration.noop", "calibration", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - direct) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent, op]
        self.stack = []
        self.ops = 0
        self.counts = Counter()
        self.errors = Counter()
        self._restore = []

    def _wrap(self, name, layer, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if counter:
                try:
                    override, amounts = counter(signature.bind(*args, **kwargs))
                except (TypeError, AttributeError, KeyError):
                    override, amounts = None, {}  # the call itself reports bad arguments
                span_name = override or name
                self.counts.update(amounts)
            if name == "cli.main":
                self.ops += 1
            record = [span_name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.ops]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                record[3] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap each layer's public functions wherever a pblr module binds them."""
        pblr_modules = [mod for key, mod in list(sys.modules.items())
                        if key == "pblr" or key.startswith("pblr.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"pblr.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        for module in pblr_modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        report = getattr(sys.modules.get("pblr.subgamma"), "MgfReport", None)
        if report is not None and "write_csv" in vars(report):
            self._patch(report, "write_csv",
                        self._wrap("subgamma.MgfReport.write_csv", "experiments",
                                   vars(report)["write_csv"]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def metrics(self, rounds):
        """Per-layer metrics, each divided by the number of traced rounds."""
        child_time = defaultdict(float)
        nested_fit = defaultdict(float)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "blr.fit_posterior":
                    nested_fit[parent] += end - start
        sums = Counter(self.counts)
        fits_by_op, evidence_by_op = Counter(), Counter()
        for index, (name, layer, start, end, _, op) in enumerate(self.spans):
            duration = end - start
            self_time = duration - child_time[index]
            if name in WRITERS:
                sums["experiments.write.s"] += self_time
                continue
            sums[f"{layer}.self.s"] += self_time
            if layer == "cli":
                sums["cli.calls"] += name == "cli.main"
            elif layer == "bounds":
                sums["bounds.calls"] += 1
                sums["bounds.s"] += duration
            elif name in GENERATORS:
                sums["tasks.gen.calls"] += 1
                sums["tasks.gen.s"] += duration
            elif name in DESIGNS:
                sums["tasks.design.s"] += duration
            elif name == "blr.evidence_decomposition":
                evidence_by_op[op] += 1
                sums[f"{name}.calls"] += 1
                sums[f"{name}.s"] += duration - nested_fit[index]
            elif name == "mc.run_validity_study":
                sums[f"{name}.s"] += duration
            elif name in ("blr.fit_posterior", "losses.empirical_gibbs_risk_mc",
                          "mc.sample_posterior", "mc.gen_risk.cropped",
                          "mc.gen_risk.nll", "subgamma.empirical_mgf_check"):
                if name == "blr.fit_posterior":
                    fits_by_op[op] += 1
                sums[f"{name}.calls"] += 1
                sums[f"{name}.s"] += duration
        out = {key: value / rounds for key, value in sums.items()}
        evidence_ops = [op for op in evidence_by_op if evidence_by_op[op]]
        evidence = sum(evidence_by_op[op] for op in evidence_ops)
        out["blr.fits_per_evidence"] = (
            sum(fits_by_op[op] for op in evidence_ops) / evidence if evidence else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] / rounds
        out["trace.spans"] = len(self.spans) / rounds
        out["trace.overhead_s"] = out["trace.spans"] * span_cost()
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "layer", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
