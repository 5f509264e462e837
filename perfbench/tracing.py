"""Per-layer spans for the traced benchmark run.

``Tracer.install`` replaces the public functions of each ``coxlinks`` layer
with wrappers that record spans.  A function is replaced under every name a
caller looks it up by: on each loaded ``coxlinks`` module that holds it (so
``coxlinks.localization.weight_data`` as well as
``coxlinks.weights.weight_data``), and on the class for methods such as
``BinomialRational.__add__``.  The source tree is not edited.

A span records its name, its id, the id of the span that was open when it
started, its start and end, the exception it raised, and a size taken from
its return value.  A span opened in a worker thread, which has no open span
of its own, gets the main thread's innermost open span as its parent.  A
span's self time is its duration minus the part of it that its children
cover.  A recursive call (``det``) is not a span of its own: only the
outermost call is counted.  A target that no longer exists makes the metrics
that need it ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    failure: Optional[str]
    size: object


def _measure(size, result):  # noqa: ANN001, ANN202
    """``size(result)``, or ``None`` when the result no longer has that shape."""
    if size is None:
        return None
    try:
        return size(result)
    except (AttributeError, TypeError):
        return None


def _rational_size(value) -> tuple:  # noqa: ANN001
    """Numerator terms and denominator factors (with multiplicity)."""
    return len(value.num.terms), sum(value.den.values())


# (span name, module under coxlinks, attribute, size of the return value)
TARGETS = (
    ("polyalg.divide", "polyalg", "divide_by_binomial", None),
    ("polyalg.normalize", "polyalg", "BinomialRational.normalize", _rational_size),
    ("polyalg.add", "polyalg", "BinomialRational.__add__", _rational_size),
    ("polyalg.mul", "polyalg", "LaurentPoly.__mul__", None),
    ("polyalg.truncate", "polyalg", "BinomialRational.truncate_series", None),
    ("localization.sum", "localization", "calibrated_superpolynomial", None),
    ("localization.term", "localization", "_calibrated_term", None),
    ("localization.degenerate_scan", "localization", "detect_degenerate", None),
    ("charts.enumerate", "charts", "all_charts", None),
    ("charts.build", "charts", "build_chart", None),
    ("charts.commuting", "charts", "commuting_charts", len),
    ("charts.to_gyt", "charts", "to_gyt", None),
    ("charts.gyt_report", "charts", "gyt_injectivity_report", None),
    ("weights.weight_data", "weights", "weight_data", None),
    ("weights.fixed_dim", "weights", "fixed_dim_check", None),
    ("cli.main", "cli", "main", None),
    ("homfly.total", "homfly", "homfly", None),
    ("homfly.hecke", "homfly", "braid_to_hecke", lambda element: len(element.coefficients)),
    ("homfly.trace", "homfly", "markov_trace", None),
    ("mfcheck.suite", "mfcheck", "containment_suite", None),
    ("mfcheck.suite", "mfcheck", "negative_control", None),
    ("mfcheck.suite", "mfcheck", "symbolic_gid_check", None),
    ("mfcheck.inverse", "mfcheck", "mat_inverse", None),
    ("mfcheck.matmul", "mfcheck", "mat_mul", None),
    ("mfcheck.det", "mfcheck", "det", None),
    ("twostrand.homology", "twostrand", "homology_T2_odd", None),
    ("twostrand.homology", "twostrand", "homology_T2_even", None),
)

LAYERS = ("polyalg", "localization", "charts", "weights", "cli", "homfly",
          "mfcheck", "twostrand")


class Aggregate:
    """Per-name totals over the recorded spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        children = defaultdict(list)
        for span in spans:
            children[span.parent].append(span)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.failed = defaultdict(int)
        self.sizes = defaultdict(list)
        for span in spans:
            duration = span.end - span.start
            self.calls[span.name] += 1
            self.total[span.name] += duration
            self.self_time[span.name] += duration - _covered(span, children[span.id])
            self.failed[span.name] += span.failure is not None
            if span.size is not None:
                self.sizes[span.name].append(span.size)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = self.by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = self.by_id.get(parent.parent)
            count += parent is not None
        return count


def _covered(span: Span, children: list) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _column(index: int):  # noqa: ANN202
    return lambda sizes: [size[index] for size in sizes]


_terms, _factors = _column(0), _column(1)

# (metric, unit, span names it needs, value from an Aggregate)
METRICS = (
    ("polyalg.divide_s", "s", ("polyalg.divide",), lambda a: a.total["polyalg.divide"]),
    ("polyalg.divide_attempts", "count", ("polyalg.divide",),
     lambda a: a.calls["polyalg.divide"]),
    ("polyalg.divide_failed", "count", ("polyalg.divide",),
     lambda a: a.failed["polyalg.divide"]),
    ("polyalg.divide_success_ratio", "ratio", ("polyalg.divide",),
     lambda a: _ratio(a.calls["polyalg.divide"] - a.failed["polyalg.divide"],
                      a.calls["polyalg.divide"])),
    ("polyalg.normalize_s", "s", ("polyalg.normalize",),
     lambda a: a.total["polyalg.normalize"]),
    ("polyalg.add_s", "s", ("polyalg.add",), lambda a: a.total["polyalg.add"]),
    ("polyalg.add_calls", "count", ("polyalg.add",), lambda a: a.calls["polyalg.add"]),
    ("polyalg.lcd_factors_max", "count", ("polyalg.add",),
     lambda a: max(_factors(a.sizes["polyalg.add"]), default=0)),
    ("polyalg.num_terms_max", "count", ("polyalg.add",),
     lambda a: max(_terms(a.sizes["polyalg.add"]), default=0)),
    ("polyalg.mul_s", "s", ("polyalg.mul",), lambda a: a.total["polyalg.mul"]),
    ("polyalg.mul_calls", "count", ("polyalg.mul",), lambda a: a.calls["polyalg.mul"]),
    ("polyalg.truncate_s", "s", ("polyalg.truncate",),
     lambda a: a.total["polyalg.truncate"]),
    ("polyalg.result_terms", "count", ("polyalg.normalize",),
     lambda a: sum(_terms(a.sizes["polyalg.normalize"]))),
    ("polyalg.result_den_factors", "count", ("polyalg.normalize",),
     lambda a: sum(_factors(a.sizes["polyalg.normalize"]))),
    ("localization.sum_s", "s", ("localization.sum",),
     lambda a: a.total["localization.sum"]),
    ("localization.charts_summed", "count", ("localization.term",),
     lambda a: a.calls["localization.term"]),
    ("localization.degenerate_scan_s", "s", ("localization.degenerate_scan",),
     lambda a: a.total["localization.degenerate_scan"]),
    ("charts.enumerate_s", "s", ("charts.enumerate",),
     lambda a: a.total["charts.enumerate"]),
    ("charts.commuting_s", "s", ("charts.commuting",),
     lambda a: a.total["charts.commuting"]),
    ("charts.commuting_keep_ratio", "ratio", ("charts.commuting", "charts.build"),
     lambda a: _ratio(sum(a.sizes["charts.commuting"]),
                      a.under("charts.build", "charts.commuting"))),
    ("charts.to_gyt_s", "s", ("charts.to_gyt",), lambda a: a.total["charts.to_gyt"]),
    ("weights.weight_data_s", "s", ("weights.weight_data",),
     lambda a: a.total["weights.weight_data"]),
    ("weights.weight_data_calls", "count", ("weights.weight_data",),
     lambda a: a.calls["weights.weight_data"]),
    ("weights.fixed_dim_s", "s", ("weights.fixed_dim",),
     lambda a: a.total["weights.fixed_dim"]),
    ("cli.main_s", "s", ("cli.main",), lambda a: a.total["cli.main"]),
    ("homfly.hecke_s", "s", ("homfly.hecke",), lambda a: a.total["homfly.hecke"]),
    ("homfly.hecke_terms", "count", ("homfly.hecke",),
     lambda a: sum(a.sizes["homfly.hecke"])),
    ("homfly.trace_s", "s", ("homfly.trace",), lambda a: a.total["homfly.trace"]),
    ("homfly.total_s", "s", ("homfly.total",), lambda a: a.total["homfly.total"]),
    ("mfcheck.suite_s", "s", ("mfcheck.suite",), lambda a: a.total["mfcheck.suite"]),
    ("mfcheck.inverse_s", "s", ("mfcheck.inverse",),
     lambda a: a.total["mfcheck.inverse"]),
    ("mfcheck.inverse_calls", "count", ("mfcheck.inverse",),
     lambda a: a.calls["mfcheck.inverse"]),
    ("mfcheck.matmul_s", "s", ("mfcheck.matmul",), lambda a: a.total["mfcheck.matmul"]),
    ("mfcheck.det_s", "s", ("mfcheck.det",), lambda a: a.total["mfcheck.det"]),
    ("twostrand.s", "s", ("twostrand.homology",),
     lambda a: a.total["twostrand.homology"]),
) + tuple(
    (f"{layer}.self_s", "s", (), functools.partial(lambda layer, a: a.layer_self(layer), layer))
    for layer in LAYERS
)


class Tracer:
    """Records spans of the wrapped functions while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.missing: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._state()

    def _state(self) -> tuple:
        """This thread's stack of open span ids and the names among them."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], set())
        return state

    def install(self) -> "Tracer":
        for name, module, attribute, size in TARGETS:
            if not self._patch(name, module, attribute, size):
                self.missing.add(name)
        return self

    def _patch(self, name: str, module_name: str, attribute: str, size) -> bool:  # noqa: ANN001
        try:
            module = importlib.import_module(f"coxlinks.{module_name}")
        except ImportError:
            return False
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                return False
            setattr(owner, attr, self._wrap(vars(owner)[attr], name, size))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(original, name, size)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "coxlinks":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
        return True

    def _wrap(self, function, name: str, size):  # noqa: ANN001, ANN202
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack, active = tracer._state()
            if name in active:
                return function(*args, **kwargs)
            main_stack = tracer._main[0]
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            active.add(name)
            failure = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                failure = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                active.discard(name)
                if failure is not None:
                    tracer.spans.append(Span(span_id, parent, name, start, end, failure, None))
            tracer.spans.append(
                Span(span_id, parent, name, start, end, None, _measure(size, result))
            )
            return result

        return wrapper

    def metrics(self, output_bytes: int) -> dict:
        """Every per-layer metric as ``{"value": v, "unit": u}``; ``v`` is
        ``None`` for a metric whose target no longer exists.  The CLI's
        output size is counted by the caller, which captured that output."""
        aggregate = Aggregate(self.spans)
        out = {}
        for metric, unit, needs, value in METRICS:
            absent = any(name in self.missing for name in needs)
            out[metric] = {"value": None if absent else value(aggregate), "unit": unit}
        out["cli.output_bytes"] = {
            "value": None if "cli.main" in self.missing else output_bytes,
            "unit": "bytes",
        }
        return out
