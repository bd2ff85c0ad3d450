"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps the public functions of every layer module of
``dfsqec`` from outside the package: each ``dfsqec.<module>.<name>``
binding of such a function is replaced by a wrapper (modules bind
names directly, e.g. ``experiments`` holds its own reference to
``build_scenario_circuit``), plus ``DensityMatrix.__post_init__``,
``Operator.__post_init__`` and ``MetricReport.from_metrics`` on their
classes.  While tracing is active each call records a span: name,
start, end and the span that called it.  Spans are kept in flat
in-memory arrays and reduced only when the run ends.

A metric whose functions no longer exist is reported as absent rather
than failing the run, so the benchmark survives later changes that
delete functions from the sweep path.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "experiments", "codes", "channels", "metrics", "qstate")

# (layer, class, attribute) of methods traced on their classes
CLASS_METHODS = (
    ("qstate", "DensityMatrix", "__post_init__"),
    ("qstate", "Operator", "__post_init__"),
    ("metrics", "MetricReport", "from_metrics"),
)

OP_SPAN = "bench.op"
VALIDATION = ("qstate.DensityMatrix.__post_init__", "qstate.Operator.__post_init__")
# "channels.attenuation" is the single factor-matrix function that is
# planned to replace the three current ones; any of them counts.
ATTENUATION = (
    "channels.apply_incoherent",
    "channels.incoherent_dephase",
    "channels.markov_dephase",
    "channels.attenuation",
)


class Tracer:
    """Records spans of wrapped calls while ``active`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        nid = self._id(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        self.wrapped.add(span)
        return wrapper

    def install(self) -> None:
        """Wrap every binding of a public layer function, and the traced
        class methods.  A missing module, class or method is skipped."""
        layer_modules = {}
        for layer in LAYERS:
            try:
                layer_modules[layer] = importlib.import_module(f"dfsqec.{layer}")
            except ImportError:
                continue
        layer_of = {f"dfsqec.{layer}": layer for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for module in [importlib.import_module("dfsqec"), *layer_modules.values()]:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None or "." in value.__qualname__:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(f"{layer}.{value.__qualname__}", value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for layer, cls_name, attr in CLASS_METHODS:
            cls = getattr(layer_modules.get(layer), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            span = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(span, raw.__func__))
            else:
                new = self._wrap(span, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.name, self.parent, self.start, self.end)


class SpanSummary:
    """Per-name call counts, inclusive and self times (seconds) of a set
    of spans; a span's self time is its duration minus its children's."""

    def __init__(self, names, name, parent, start, end) -> None:
        self.names = list(names)
        self.ids = np.frombuffer(name, dtype=np.int32).astype(np.intp)
        self.par = np.frombuffer(parent, dtype=np.int32).astype(np.intp)
        self.dur = np.frombuffer(end, dtype=np.float64) - np.frombuffer(start, dtype=np.float64)
        child = np.zeros_like(self.dur)
        has_parent = self.par >= 0
        np.add.at(child, self.par[has_parent], self.dur[has_parent])
        k = len(self.names)
        self.calls = np.bincount(self.ids, minlength=k)
        self.incl = np.bincount(self.ids, weights=self.dur, minlength=k)
        self.self_time = np.bincount(self.ids, weights=self.dur - child, minlength=k)

    def _sum(self, arr: np.ndarray, names) -> float:
        return float(sum(arr[self.names.index(n)] for n in names if n in self.names))

    def calls_of(self, *names: str) -> float:
        return self._sum(self.calls, names)

    def incl_of(self, *names: str) -> float:
        return self._sum(self.incl, names)

    def self_of(self, *names: str) -> float:
        return self._sum(self.self_time, names)

    def layer_self(self, layer: str) -> float:
        return self._sum(self.self_time, [n for n in self.names if n.startswith(layer + ".")])

    def outer_incl(self, group) -> float:
        """Inclusive time of the group's spans not called from within
        another span of the group."""
        ids = [self.names.index(n) for n in group if n in self.names]
        member = np.isin(self.ids, ids)
        parent_ids = np.where(self.par >= 0, self.ids[np.maximum(self.par, 0)], -1)
        return float(self.dur[member & ~np.isin(parent_ids, ids)].sum())


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    s: SpanSummary,
    wrapped: set[str],
    *,
    points: int,
    ops: int,
    rows: int,
    overhead_pct: float,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of a traced window as ``{name: (value, unit)}``,
    plus the names of metrics whose functions no longer exist (reported
    with value 0).  ``points`` counts sweep points or probes, ``rows``
    the CSV rows written."""
    us = 1e6

    def per_pt(x: float) -> float:
        return _div(x, points)

    spec: list[tuple[str, str, tuple[str, ...], float]] = [
        ("codes.build_scenario_circuit.calls_per_point", "count", ("codes.build_scenario_circuit",),
         per_pt(s.calls_of("codes.build_scenario_circuit"))),
        ("codes.build_scenario_circuit.us_per_point", "us", ("codes.build_scenario_circuit",),
         per_pt(s.incl_of("codes.build_scenario_circuit") * us)),
        ("codes.apply_circuit.calls_per_point", "count", ("codes.apply_circuit",),
         per_pt(s.calls_of("codes.apply_circuit"))),
        ("codes.apply_circuit.self_us_per_point", "us", ("codes.apply_circuit",),
         per_pt(s.self_of("codes.apply_circuit") * us)),
        ("qstate.embed.calls_per_point", "count", ("qstate.embed",), per_pt(s.calls_of("qstate.embed"))),
        ("qstate.embed.us_per_point", "us", ("qstate.embed",), per_pt(s.incl_of("qstate.embed") * us)),
        ("qstate.apply_unitary.us_per_point", "us", ("qstate.apply_unitary",),
         per_pt(s.incl_of("qstate.apply_unitary") * us)),
        ("qstate.partial_trace.us_per_point", "us", ("qstate.partial_trace",),
         per_pt(s.incl_of("qstate.partial_trace") * us)),
        ("qstate.validations_per_point", "count", VALIDATION, per_pt(s.calls_of(*VALIDATION))),
        ("qstate.validation_us_per_point", "us", VALIDATION, per_pt(s.incl_of(*VALIDATION) * us)),
        ("experiments.prepare_inputs.calls_per_point", "count", ("experiments.prepare_inputs",),
         per_pt(s.calls_of("experiments.prepare_inputs"))),
        ("experiments.prepare_inputs.us_per_point", "us", ("experiments.prepare_inputs",),
         per_pt(s.incl_of("experiments.prepare_inputs") * us)),
        ("experiments.run_scenario.self_us_per_point", "us", ("experiments.run_scenario",),
         per_pt(s.self_of("experiments.run_scenario") * us)),
        ("experiments.emit_csv.us_per_row", "us", ("experiments.emit_csv",),
         _div(s.incl_of("experiments.emit_csv") * us, rows)),
        ("experiments.emit_chart.ms_per_chart", "ms", ("experiments.emit_chart",),
         _div(s.incl_of("experiments.emit_chart") * 1e3, s.calls_of("experiments.emit_chart"))),
        ("experiments.pauli_transfer_matrix.self_us", "us", ("experiments.pauli_transfer_matrix",),
         _div(s.self_of("experiments.pauli_transfer_matrix") * us,
              s.calls_of("experiments.pauli_transfer_matrix"))),
        ("channels.attenuation.us_per_point", "us", ATTENUATION, per_pt(s.outer_incl(ATTENUATION) * us)),
        ("channels.build_error_model.calls_per_point", "count", ("channels.build_error_model",),
         per_pt(s.calls_of("channels.build_error_model"))),
        ("metrics.correlation.us_per_point", "us", ("metrics.correlation",),
         per_pt(s.incl_of("metrics.correlation") * us)),
        ("metrics.analytic_reference.us_per_point", "us", ("metrics.analytic_reference",),
         per_pt(s.incl_of("metrics.analytic_reference") * us)),
        ("metrics.report.us_per_point", "us", ("metrics.MetricReport.from_metrics",),
         per_pt(s.incl_of("metrics.MetricReport.from_metrics") * us)),
        ("cli.parse_grid.us_per_op", "us", ("cli.parse_grid",), _div(s.incl_of("cli.parse_grid") * us, ops)),
        ("cli.self_ms_per_op", "ms", ("cli.main",), _div(s.layer_self("cli") * 1e3, ops)),
    ]
    for layer in LAYERS:
        members = tuple(n for n in wrapped if n.startswith(layer + "."))
        spec.append((f"{layer}.self_us_per_point", "us", members,
                     per_pt(s.layer_self(layer) * us)))
    spec.append(("untraced.us_per_point", "us", (OP_SPAN,), per_pt(s.self_of(OP_SPAN) * us)))
    spec.append(("trace_overhead_pct", "%", (OP_SPAN,), overhead_pct))

    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, unit, needs, value in spec:
        if not any(n in wrapped or n == OP_SPAN for n in needs):
            absent.append(name)
            value = 0.0
        out[name] = (float(value), unit)
    return out, absent


def closure_error(s: SpanSummary) -> float:
    """Relative gap between the operation time and the sum of every
    layer's self time plus the untraced remainder; 0 when the spans
    nest properly."""
    total = s.incl_of(OP_SPAN)
    parts = sum(s.layer_self(layer) for layer in LAYERS) + s.self_of(OP_SPAN)
    return abs(parts - total) / total if total else 0.0
