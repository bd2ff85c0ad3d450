"""Scenario runner: sweeps, metric reports, CSV and chart emission.

A scenario sweep prepares, on the three or four qubits of the scenario
circuit, the input

    |0><0|_1  x  sigma_u_2  x  |0><0|_3  [x  |0><0|_4],     u = x, y, z

(ancilla projectors softened to p|0><0| + (1-p) I/2 when the ancilla
purity p is below one), runs the scenario circuit with the engineered
noise at the marker, reduces to the data qubit 2, and reports the
correlation/fidelity/polarization metrics against the closed-form
reference curve.  Sweep points are evaluated in sweep order, so reruns
emit identical bytes.

At each point the three circuit runs are the only per-input work:
``_data_outputs`` stacks their final states, reduces the stack to the
data qubit in one pass and checks the reduced outputs with one
``check_stack`` call per kind, and the correlations and polarizations
each come from one batched overlap over that ``(3, 2, 2)`` stack.  The
stack's rows have the bits that ``partial_trace``, ``correlation`` and
``hs_overlap`` give one state at a time.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channels import INCOHERENT_SINC, NOISE_KINDS, COUPLING_CASES, NoiseSpec
from .codes import SCENARIOS, Circuit, apply_circuit, build_scenario_circuit, scenario_layout
from .metrics import _PAULI_NORMS, AXES, MetricReport, analytic_reference
from .qstate import (
    STATE,
    DensityMatrix,
    check_stack,
    hs_overlap_stack,
    partial_trace_stack,
    pauli,
    pauli_deviation,
)

__all__ = [
    "DEFAULT_SWEEP",
    "ScenarioConfig",
    "SweepPoint",
    "ScenarioResult",
    "HumpReport",
    "CSV_HEADER",
    "prepare_inputs",
    "run_scenario",
    "hump_demo",
    "emit_csv",
    "emit_chart",
    "write_svg_chart",
    "load_csv_series",
    "pauli_transfer_matrix",
    "ChartSeries",
]

# kappa0/2 from 0 to 6 in steps of 0.25, i.e. through both sinc zeros
DEFAULT_SWEEP = tuple(0.5 * k for k in range(25))

DATA_QUBIT = 2

CSV_HEADER = (
    "scenario,kind,case,kappa0,ratio,ancilla_purity,Cx,Cy,Cz,Fe,Fe_analytic,Px,Py,Pz,P"
)

# columns load_csv_series reads back for a chart
_CHART_COLUMNS = ("scenario", "kappa0", "Fe", "Fe_analytic")

# (I, sigma_x, sigma_y, sigma_z), read-only: the transfer matrix's
# basis, whose rows 1: are the sweep's input deviations
_PAULI_BASIS = np.stack([np.eye(2, dtype=complex)] + [pauli(u).entries for u in AXES])
_PAULI_BASIS.setflags(write=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one sweep experiment."""

    scenario: str
    kind: str = INCOHERENT_SINC
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    ratio: float = 0.5
    coupling_case: str = "a"
    ancilla_purity: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sweep", tuple(float(x) for x in self.sweep))
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.coupling_case not in COUPLING_CASES:
            raise ValueError(f"coupling case must be one of {COUPLING_CASES}")
        if not all(math.isfinite(x) for x in self.sweep):
            raise ValueError("sweep values must be finite")
        if any(x < 0 for x in self.sweep):
            raise ValueError("sweep values must be >= 0")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if not 0.0 <= self.ancilla_purity <= 1.0:
            raise ValueError(f"ancilla_purity must be in [0, 1], got {self.ancilla_purity}")

    @property
    def collective(self) -> bool:
        return scenario_layout(self.scenario)[1]

    def noise_spec(self, kappa0: float) -> NoiseSpec:
        return NoiseSpec(
            kappa0=kappa0,
            collective=self.collective,
            ratio=self.ratio,
            coupling_case=self.coupling_case,
            kind=self.kind,
        )


@dataclass(frozen=True)
class SweepPoint:
    kappa0: float
    spec: NoiseSpec
    report: MetricReport


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class HumpReport:
    """Qualitative summary of an imperfect-ancilla sweep."""

    result: ScenarioResult
    fe_at_zero: float
    non_monotone: bool
    crosses_reference: bool

    @property
    def hump_detected(self) -> bool:
        return self.non_monotone or self.crosses_reference


def _product_input(data: DensityMatrix, ancilla_purity: float, n_qubits: int) -> DensityMatrix:
    """``data`` on qubit 2 with p|0><0| + (1-p) I/2 ancillae everywhere
    else, checked once, as a whole of ``data``'s kind."""
    p = ancilla_purity
    m = anc = np.array([[(1.0 + p) / 2.0, 0.0], [0.0, (1.0 - p) / 2.0]], dtype=complex)
    for factor in [data.entries] + [anc] * (n_qubits - 2):
        # np.kron(m, factor): the same products, in the same order
        d = 2 * m.shape[0]
        m = (m[:, None, :, None] * factor[None, :, None, :]).reshape(d, d)
    return DensityMatrix(m, data.kind)


def prepare_inputs(axis: str, ancilla_purity: float = 1.0, n_qubits: int = 4) -> DensityMatrix:
    """Input deviation with the data on qubit 2 and |0> ancillae
    (softened to p|0><0| + (1-p) I/2) everywhere else."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if not 0.0 <= ancilla_purity <= 1.0:
        raise ValueError(f"ancilla_purity must be in [0, 1], got {ancilla_purity}")
    if n_qubits < 2:
        raise ValueError("need the data qubit plus at least one ancilla")
    return _product_input(pauli_deviation(axis), ancilla_purity, n_qubits)


def _data_outputs(circuit: Circuit, inputs: Mapping[str, DensityMatrix]) -> np.ndarray:
    """The ``(k, 2, 2)`` stack of data-qubit outputs of the k inputs, in
    input order.  Each input runs through the circuit once; the final
    states are reduced as one stack, and each run of inputs of one kind
    is checked with one ``check_stack`` call, in input order."""
    rhos = list(inputs.values())
    outs = partial_trace_stack(np.array([apply_circuit(rho, circuit).entries for rho in rhos]), {DATA_QUBIT})
    start = 0
    for kind, run in itertools.groupby(rho.kind for rho in rhos):
        stop = start + sum(1 for _ in run)
        check_stack(outs[start:stop], kind)
        start = stop
    return outs


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Evaluate every sweep point of a scenario, in sweep order.

    ``jobs`` is accepted for compatibility and has no effect.
    """
    if not config.sweep:
        return ScenarioResult(config, ())
    reference = build_scenario_circuit(config.scenario, config.noise_spec(0.0))
    inputs = {u: prepare_inputs(u, config.ancilla_purity, reference.n_qubits) for u in AXES}
    refs = _data_outputs(reference, inputs)
    ref_purity = hs_overlap_stack(refs, refs)
    for u, purity in zip(AXES, ref_purity.tolist()):
        if purity <= 1e-12:
            raise ValueError(f"reference output for axis {u!r} has zero purity")
    sigmas = _PAULI_BASIS[1:]
    norms = np.array([_PAULI_NORMS[pauli_deviation(u)] for u in AXES])
    points = []
    for x in config.sweep:
        spec = config.noise_spec(x)
        outs = _data_outputs(build_scenario_circuit(config.scenario, spec), inputs)
        # C_u = tr(sigma_u out_u) / tr(sigma_u sigma_u), P_u = tr(out_u^2) / tr(ref_u^2)
        cs = dict(zip(AXES, (hs_overlap_stack(sigmas, outs) / norms).tolist()))
        ps = dict(zip(AXES, (hs_overlap_stack(outs, outs) / ref_purity).tolist()))
        fe_ref = analytic_reference(config.scenario, spec)
        points.append(SweepPoint(x, spec, MetricReport.from_metrics(cs, ps, fe_ref)))
    return ScenarioResult(config, tuple(points))


def hump_demo(config: ScenarioConfig) -> HumpReport:
    """Sweep the three-qubit code with imperfect ancillae and flag the
    qualitative signature: a non-monotone fidelity curve, or a crossing
    of the ideal-ancilla reference curve.  The sweep must start at
    kappa0 = 0, where ``fe_at_zero`` is read."""
    if config.ancilla_purity >= 1.0:
        raise ValueError("hump_demo expects ancilla_purity < 1")
    if not config.sweep or config.sweep[0] != 0.0:
        raise ValueError("hump_demo expects a non-empty sweep that starts at kappa0 = 0")
    result = run_scenario(replace(config, scenario="qec_independent"))
    fes = np.array([p.report.Fe for p in result.points])
    refs = np.array([p.report.Fe_analytic for p in result.points])
    diffs = np.diff(fes)
    non_monotone = bool(np.any(diffs > 1e-12) and np.any(diffs < -1e-12))
    gap = fes - refs
    crosses = bool(np.any(gap > 1e-12) and np.any(gap < -1e-12))
    return HumpReport(result, float(fes[0]), non_monotone, crosses)


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def emit_csv(result: ScenarioResult, path: str | Path) -> None:
    """Write one sweep as CSV, 12 significant digits, deterministic bytes."""
    cfg = result.config
    lines = [CSV_HEADER]
    for pt in result.points:
        r = pt.report
        lines.append(
            ",".join(
                [
                    cfg.scenario,
                    cfg.kind,
                    cfg.coupling_case,
                    _fmt(pt.kappa0),
                    _fmt(cfg.ratio),
                    _fmt(cfg.ancilla_purity),
                    _fmt(r.Cx),
                    _fmt(r.Cy),
                    _fmt(r.Cz),
                    _fmt(r.Fe),
                    _fmt(r.Fe_analytic),
                    _fmt(r.Px),
                    _fmt(r.Py),
                    _fmt(r.Pz),
                    _fmt(r.P),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class ChartSeries:
    label: str
    points: tuple[tuple[float, float], ...]
    curve: tuple[tuple[float, float], ...] | None = None


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _series_from_result(result: ScenarioResult) -> ChartSeries:
    pts = tuple((p.kappa0, p.report.Fe) for p in result.points)
    curve = tuple((p.kappa0, p.report.Fe_analytic) for p in result.points if p.report.Fe_analytic is not None)
    return ChartSeries(result.config.scenario, pts, curve or None)


def emit_chart(results: Sequence[ScenarioResult], path: str | Path) -> None:
    """Self-contained SVG: simulated points as markers, closed-form
    references as continuous lines, one legend entry per scenario."""
    if not results:
        raise ValueError("need at least one scenario result")
    write_svg_chart([_series_from_result(r) for r in results], path)


def load_csv_series(path: str | Path) -> list[ChartSeries]:
    """Rebuild chart series from a CSV written by emit_csv; a missing
    column, or a row whose kappa0, Fe or Fe_analytic is not a finite
    number, raises ValueError naming the file and column or line."""
    groups: dict[str, list[tuple[float, float, float | None]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CHART_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if not row["scenario"]:
                raise ValueError(f"{where}: empty scenario")
            try:
                x, fe = float(row["kappa0"]), float(row["Fe"])
                fe_a = float(row["Fe_analytic"]) if row["Fe_analytic"] else None
            except (TypeError, ValueError):
                raise ValueError(f"{where}: kappa0, Fe and Fe_analytic must be numbers") from None
            if not all(math.isfinite(v) for v in (x, fe, fe_a) if v is not None):
                raise ValueError(f"{where}: kappa0, Fe and Fe_analytic must be finite")
            groups.setdefault(row["scenario"], []).append((x, fe, fe_a))
    series = []
    for label, rows in groups.items():
        pts = tuple((x, fe) for x, fe, _ in rows)
        curve = tuple((x, fa) for x, _, fa in rows if fa is not None)
        series.append(ChartSeries(label, pts, curve or None))
    return series


def write_svg_chart(series: Sequence[ChartSeries], path: str | Path) -> None:
    if not series:
        raise ValueError("need at least one series")
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 170.0, 20.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = [x for s in series for x, _ in s.points] or [0.0]
    ys = [y for s in series for _, y in s.points]
    ys += [y for s in series if s.curve for _, y in s.curve]
    ys = ys or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo = min(0.9, np.floor((min(ys) - 0.03) * 20.0) / 20.0)
    y_hi = 1.02

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    # y ticks at 0.1 intervals, x ticks at 6 even divisions
    y_tick = np.ceil(y_lo * 10.0) / 10.0
    while y_tick <= y_hi + 1e-9:
        yy = py(y_tick)
        out.append(
            f'<line x1="{left - 4:.1f}" y1="{yy:.2f}" x2="{left:.1f}" y2="{yy:.2f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{left - 8:.1f}" y="{yy + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{y_tick:.2f}</text>'
        )
        y_tick += 0.1
    for k in range(7):
        xv = x_lo + (x_hi - x_lo) * k / 6.0
        xx = px(xv)
        out.append(
            f'<line x1="{xx:.2f}" y1="{top + plot_h:.1f}" x2="{xx:.2f}" '
            f'y2="{top + plot_h + 4:.1f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{top + plot_h + 18:.1f}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{xv:.2f}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        'font-size="13" font-family="sans-serif">applied noise strength kappa0</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 16 {top + plot_h / 2:.1f})">'
        "entanglement fidelity</text>"
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if s.curve:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in s.curve)
            out.append(
                f'<polyline class="curve curve-{s.label}" points="{pts}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in s.points:
            out.append(
                f'<circle class="pt pt-{s.label}" cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                f'fill="{color}" fill-opacity="0.85"/>'
            )
        ly = top + 16.0 + 20.0 * i
        lx = left + plot_w + 12.0
        out.append(
            f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="14" height="10" fill="{color}"/>'
        )
        out.append(
            f'<text class="legend-label" x="{lx + 20:.1f}" y="{ly:.1f}" font-size="12" '
            f'font-family="sans-serif">{s.label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def pauli_transfer_matrix(scenario: str, spec: NoiseSpec, ancilla_purity: float = 1.0) -> np.ndarray:
    """4x4 transfer matrix of the data-qubit channel of a scenario,
    R[u, v] = tr(sigma_u E(sigma_v)) / 2 over (I, x, y, z)."""
    circuit = build_scenario_circuit(scenario, spec)
    n = circuit.n_qubits

    # identity column is probed with the maximally mixed data qubit,
    # E(I)/2; Pauli columns with the deviation inputs, E(sigma_v)
    inputs = {"I": _product_input(DensityMatrix(np.eye(2) / 2.0, STATE), ancilla_purity, n)}
    inputs.update((axis, prepare_inputs(axis, ancilla_purity, n)) for axis in AXES)
    scales = np.array([1.0, 0.5, 0.5, 0.5])

    # R[row, col] = tr(basis[row] outs[col]) * scales[col], one batched overlap
    return hs_overlap_stack(_PAULI_BASIS[:, None], _data_outputs(circuit, inputs)) * scales
