"""Spans and counters recorded around the program's layers, from outside it.

``Tracer.installed()`` replaces each traced function by a wrapper in the
module that calls it: callers bind these names at import, so patching
only the defining module would record nothing.  The wrappers are removed
again on exit, so untraced passes run the program unchanged.

A span is kept in memory with its name, start, end, parent span and the
job it belongs to.  ``jet_mul`` is called far too often for spans; it is
counted and timed per job instead, and its time stays in its caller's
self time.  That keeps ``scheme.build_terms.self_s`` the cost of the
tensor recursion, which is almost all products of jets.  Spans are timed
on a clock that stops while the jet_mul counters are updated, so the
counting shows in the traced pass's wall time but in no layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name): the calls into each layer.
SPAN_TARGETS = (
    ("invseries.solver", "solve", "solver.solve"),
    ("invseries.cli", "solve", "solver.solve"),
    ("invseries.solver", "build_terms", "scheme.build_terms"),
    ("invseries.analysis", "build_terms", "scheme.build_terms"),
    ("invseries.solver", "apply_update", "scheme.apply_update"),
    ("invseries.solver", "evaluate_system", "scheme.evaluate_system"),
    ("invseries.analysis", "evaluate_system", "scheme.evaluate_system"),
    ("invseries.scheme", "jacobian_series", "scheme.jacobian_series"),
    ("invseries.scheme", "series_matrix_inverse", "scheme.series_matrix_inverse"),
    ("invseries.scheme", "eval_jet", "expr.eval_jet"),
    ("invseries.analysis", "eval_jet", "expr.eval_jet"),
    ("invseries.scheme", "lu_invert", "numerics.lu_invert"),
    ("invseries.cli", "estimate_order_known_root", "analysis.estimate_order"),
    ("invseries.cli", "estimate_order_successive", "analysis.estimate_order"),
    ("invseries.cli", "render_table", "analysis.render_table"),
    ("invseries.cli", "cmd_tables", "cli.tables"),
    ("invseries.cli", "cmd_order_check", "cli.order_check"),
    ("invseries.corpus", "builtin_problem", "corpus.builtin_problem"),
    ("invseries.cli", "builtin_problem", "corpus.builtin_problem"),
    ("invseries.expr", "parse_problem", "expr.parse_problem"),
    ("invseries.corpus", "parse_problem", "expr.parse_problem"),
    ("invseries.cli", "parse_problem", "expr.parse_problem"),
)

JET_MUL_TARGETS = (
    ("invseries.taylor", "jet_mul"),
    ("invseries.scheme", "jet_mul"),
    ("invseries.expr", "jet_mul"),
)

# per-layer metric -> (span name, rollup field); "jet_mul" and "solver"
# name the tracer's own counters
LAYER_METRICS = {
    "scheme.build_terms.self_s": ("scheme.build_terms", "self_s"),
    "scheme.series_matrix_inverse.self_s": ("scheme.series_matrix_inverse", "self_s"),
    "scheme.jacobian_series.self_s": ("scheme.jacobian_series", "self_s"),
    "expr.eval_jet.s": ("expr.eval_jet", "s"),
    "scheme.evaluate_system.s": ("scheme.evaluate_system", "s"),
    "scheme.apply_update.s": ("scheme.apply_update", "s"),
    "numerics.lu_invert.s": ("numerics.lu_invert", "s"),
    "numerics.lu_invert.calls": ("numerics.lu_invert", "calls"),
    "taylor.jet_mul.calls": ("jet_mul", "calls"),
    "taylor.jet_mul.s": ("jet_mul", "s"),
    "taylor.jet_mul.nonzero_frac": ("jet_mul", "nonzero_frac"),
    "solver.solve.s": ("solver.solve", "s"),
    "solver.iterations": ("solver", "iterations"),
    "analysis.estimate_order.s": ("analysis.estimate_order", "s"),
    "analysis.render_table.s": ("analysis.render_table", "s"),
    "cli.tables.s": ("cli.tables", "s"),
    "cli.order_check.s": ("cli.order_check", "s"),
    "corpus.builtin_problem.s": ("corpus.builtin_problem", "s"),
    "expr.parse_problem.s": ("expr.parse_problem", "s"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    job: str | None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def rollup(spans, job=None) -> dict:
    """Per span name: ``self_s``, ``s`` (inclusive, outermost spans of the
    name only, so nesting is not counted twice) and ``calls``."""
    own = self_times(spans)
    out = {}
    for index, span in enumerate(spans):
        if job is not None and span.job != job:
            continue
        entry = out.setdefault(span.name, {"self_s": 0.0, "s": 0.0, "calls": 0})
        entry["self_s"] += own[index]
        entry["calls"] += 1
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            entry["s"] += span.end - span.start
    return out


def pair_counts(a, b) -> tuple[int, int]:
    """(coefficient pairs a truncated product visits, pairs with both nonzero)."""
    d = a.max_degree
    stored = [[0] * (d + 1), [0] * (d + 1)]
    nonzero = [[0] * (d + 1), [0] * (d + 1)]
    for side, jet in enumerate((a, b)):
        for alpha, c in jet.coeffs.items():
            deg = sum(alpha)
            stored[side][deg] += 1
            if c:
                nonzero[side][deg] += 1
    visited = useful = 0
    for i in range(d + 1):
        for j in range(d + 1 - i):
            visited += stored[0][i] * stored[1][j]
            useful += nonzero[0][i] * nonzero[1][j]
    return visited, useful


class Tracer:
    """Spans, jet_mul counters and solver iterations of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: str | None = None
        # job -> [calls, seconds, pairs visited, nonzero pairs]
        self.jet_mul: dict = {}
        self.iterations: dict = {}
        self.paused = 0.0  # seconds spent counting, taken off the span clock

    def now(self) -> float:
        return perf_counter() - self.paused

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                self.stack.pop()
            if name == "solver.solve":
                self.iterations[self.job] = (
                    self.iterations.get(self.job, 0) + len(result.rows) - 1
                )
            return result

        return wrapper

    def _counted_jet_mul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            start = perf_counter()
            result = fn(a, b)
            done = perf_counter()
            visited, useful = pair_counts(a, b)
            entry = self.jet_mul.setdefault(self.job, [0, 0.0, 0, 0])
            entry[0] += 1
            entry[1] += done - start
            entry[2] += visited
            entry[3] += useful
            self.paused += perf_counter() - done
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in SPAN_TARGETS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(name, getattr(module, attr)))
            for module_name, attr in JET_MUL_TARGETS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counted_jet_mul(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, job=None) -> dict:
        """Every per-layer metric of this tracer, optionally for one job."""
        spans = rollup(self.spans, job)
        rows = [v for j, v in self.jet_mul.items() if job is None or j == job]
        totals = [sum(col) for col in zip(*rows)] or [0, 0.0, 0, 0]
        calls, seconds, visited, useful = totals
        iterations = sum(n for j, n in self.iterations.items() if job is None or j == job)
        counters = {
            "jet_mul": {
                "calls": calls,
                "s": seconds,
                "nonzero_frac": useful / visited if visited else 0.0,
            },
            "solver": {"iterations": iterations},
        }
        out = {}
        for metric, (source, field) in LAYER_METRICS.items():
            table = counters.get(source) or spans.get(source, {})
            out[metric] = table.get(field, 0)
        return out


def median_metrics(tracers, job=None) -> dict:
    """Median over passes of each per-layer metric (counts repeat exactly)."""
    per_pass = [t.layer_metrics(job) for t in tracers]
    return {m: statistics.median(p[m] for p in per_pass) for m in LAYER_METRICS}


def unit(metric: str) -> str:
    if metric.endswith((".calls", ".iterations")):
        return "count"
    return "1" if metric.endswith("_frac") else "s"
