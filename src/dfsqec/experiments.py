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

Every sweep, transfer-matrix probe and ``prepare_inputs`` call builds
the same four inputs as one stack: I/2, sigma_x, sigma_y, sigma_z on
qubit 2, row 0 checked as a state and rows 1-3 as deviations, with one
``check_stack`` call each.  The transfer matrix runs all four rows and a
sweep rows 1-3.  A sweep of K points is one stream of K + 1 runs, run 0
the noise-free kappa0 = 0 reference whose output purities the
polarizations divide by.  One ``codes.sweep_outputs`` call evaluates
them all, noise before any circuit, and returns their checked
``(K + 1, 3, 2, 2)`` data-qubit outputs; the ``codes`` docstring says
how.  One batched overlap over them gives the reference purities and
the polarizations' numerators, one ``correlations`` call the
correlations, one ``analytic_curve`` call the closed form and one
``MetricReport.from_metrics`` call the K reports.
Every row has the bits that ``apply_circuit``, ``partial_trace``,
``correlation`` and ``analytic_reference`` give one state or point at a time.

The chart's one range rule is ``_in_chart_domain``: kappa0 finite and
>= 0, fidelities in [0, 1].  ``write_svg_chart`` applies it to every
value it draws, and ``load_csv_series`` to every row it reads.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import INCOHERENT_SINC, NoiseSpec, check_range
from .codes import DATA_QUBIT, apply_circuit, build_scenario_circuit, scenario_layout, sweep_outputs
from .metrics import AXES, MetricReport, analytic_curve, correlations
from .qstate import (
    DEVIATION,
    STATE,
    DensityMatrix,
    check_stack,
    hs_overlap_stack,
    partial_trace_stack,
    pauli,
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
    "format_number",
    "emit_csv",
    "emit_chart",
    "write_svg_chart",
    "load_csv_series",
    "pauli_transfer_matrix",
    "ChartSeries",
]

# kappa0/2 from 0 to 6 in steps of 0.25, i.e. through both sinc zeros
DEFAULT_SWEEP = tuple(0.5 * k for k in range(25))

# the sweep config's columns, then the measured ones: MetricReport's fields
_MEASURED = tuple(f.name for f in fields(MetricReport))
CSV_HEADER = ",".join(("scenario", "kind", "case", "kappa0", "ratio", "ancilla_purity") + _MEASURED)
_NUMBER_SPEC = ".12g"  # every printed number's format: 12 significant digits

# columns load_csv_series reads back for a chart
_CHART_COLUMNS = ("scenario", "kappa0", "Fe", "Fe_analytic")

# (I, sigma_x, sigma_y, sigma_z), read-only: the transfer matrix's
# basis, whose rows 1: are the sweep's input deviations
_PAULI_BASIS = np.stack([np.eye(2, dtype=complex)] + [pauli(u).entries for u in AXES])
_PAULI_BASIS.setflags(write=False)

# the data-qubit factors of the product inputs, read-only: the maximally
# mixed state I/2, the transfer matrix's identity probe, then the
# sweep's deviations sigma_x, sigma_y, sigma_z
_INPUT_DATA = np.array([np.eye(2) / 2.0, *_PAULI_BASIS[1:]], dtype=complex)
_INPUT_DATA.setflags(write=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one sweep experiment; each sweep value is a kappa0 that meets ``check_range``.
    Each run's ``NoiseSpec`` checks ``ratio`` and the per-kappa0 collective scale: ``emit_csv`` writes any ratio."""

    scenario: str
    kind: str = INCOHERENT_SINC
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    ratio: float = 0.5
    coupling_case: str = "a"
    ancilla_purity: float = 1.0

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0 and leaves every other float's bits
        object.__setattr__(self, "sweep", tuple(float(x) + 0.0 for x in self.sweep))
        object.__setattr__(self, "ratio", self.ratio + 0.0)
        object.__setattr__(self, "ancilla_purity", self.ancilla_purity + 0.0)
        scenario_layout(self.scenario)  # raises on an unknown scenario
        NoiseSpec(0.0, kind=self.kind, coupling_case=self.coupling_case)  # raises on an unknown kind or case
        for x in self.sweep:
            check_range("kappa0", x)
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


def _product_inputs(ancilla_purity: float, n_qubits: int) -> tuple[DensityMatrix, ...]:
    """The four inputs I/2, sigma_x, sigma_y, sigma_z on ``DATA_QUBIT``, in that
    order, with p|0><0| + (1-p) I/2 ancillae everywhere else.  They are
    built as one stack, row 0 is checked as a state and rows 1-3 as
    deviations with one ``check_stack`` call each, and every row has the
    bits of ``np.kron`` applied factor by factor."""
    if not 0.0 <= ancilla_purity <= 1.0:
        raise ValueError(f"ancilla_purity must be in [0, 1], got {ancilla_purity}")
    if n_qubits < 2:
        raise ValueError("need the data qubit plus at least one ancilla")
    p = ancilla_purity
    anc = np.array([[[(1.0 + p) / 2.0, 0.0], [0.0, (1.0 - p) / 2.0]]], dtype=complex)
    m, *factors = [_INPUT_DATA if q == DATA_QUBIT else anc for q in range(1, n_qubits + 1)]
    for factor in factors:
        # np.kron(m[i], factor[i]): the same products, in the same order
        d = 2 * m.shape[-1]
        m = (m[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(-1, d, d)
    m.setflags(write=False)
    check_stack(m[:1], STATE)
    check_stack(m[1:], DEVIATION)
    return (DensityMatrix._checked(m[0], STATE),) + tuple(DensityMatrix._checked(row, DEVIATION) for row in m[1:])


def prepare_inputs(axis: str, ancilla_purity: float = 1.0, n_qubits: int = 4) -> DensityMatrix:
    """Input deviation with the data on qubit 2 and |0> ancillae
    (softened to p|0><0| + (1-p) I/2) everywhere else."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _product_inputs(ancilla_purity, n_qubits)[1 + AXES.index(axis)]


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Evaluate every sweep point of a scenario, in sweep order, after the
    kappa0 = 0 reference run: every run's ``NoiseSpec`` is built first,
    then one ``sweep_outputs`` call gives the outputs, which are scored once.

    ``jobs`` is accepted for compatibility and has no effect.
    """
    specs = [config.noise_spec(x) for x in (0.0, *config.sweep)]
    inputs = _product_inputs(config.ancilla_purity, scenario_layout(config.scenario)[0])[1:]
    outs = sweep_outputs(config.scenario, specs, inputs)  # a non-finite attenuation raises before any circuit runs
    # C_u = tr(sigma_u out_u) / tr(sigma_u sigma_u), P_u = tr(out_u^2) / tr(ref_u^2)
    purities = hs_overlap_stack(outs, outs)
    for u, purity in zip(AXES, purities[0].tolist()):
        if purity <= 1e-12:
            raise ValueError(f"reference output for axis {u!r} has zero purity")
    cs = correlations(_PAULI_BASIS[1:], outs[1:])
    reports = MetricReport.from_metrics(cs, purities[1:] / purities[0], analytic_curve(config.scenario, specs[1:]))
    return ScenarioResult(config, tuple(map(SweepPoint, config.sweep, reports)))


def hump_demo(config: ScenarioConfig) -> HumpReport:
    """Sweep the three-qubit code (``qec_independent``) with imperfect
    ancillae and flag the qualitative signature: a non-monotone fidelity
    curve, or a crossing of the ideal-ancilla reference curve.  The sweep
    must start at kappa0 = 0, where ``fe_at_zero`` is read."""
    if config.scenario != "qec_independent":
        raise ValueError(f"hump_demo expects scenario 'qec_independent', got {config.scenario!r}")
    if config.ancilla_purity >= 1.0:
        raise ValueError("hump_demo expects ancilla_purity < 1")
    if not config.sweep or config.sweep[0] != 0.0:
        raise ValueError("hump_demo expects a non-empty sweep that starts at kappa0 = 0")
    result = run_scenario(config)
    fes = np.array([p.report.Fe for p in result.points])
    refs = np.array([p.report.Fe_analytic for p in result.points])
    diffs = np.diff(fes)
    non_monotone = bool(np.any(diffs > 1e-12) and np.any(diffs < -1e-12))
    gap = fes - refs
    crosses = bool(np.any(gap > 1e-12) and np.any(gap < -1e-12))
    return HumpReport(result, float(fes[0]), non_monotone, crosses)


def format_number(x: float) -> str:
    """Every printed number's format, ``_NUMBER_SPEC``."""
    return format(x, _NUMBER_SPEC)


def emit_csv(result: ScenarioResult, path: str | Path) -> None:
    """Write one sweep as CSV in ``CSV_HEADER`` order, deterministic bytes: every number as ``format_number``
    writes it.  The text fields (``%`` escaped), ratio and purity go into the row template once."""
    cfg = result.config
    number = "%" + _NUMBER_SPEC
    text = [field.replace("%", "%%") for field in (cfg.scenario, cfg.kind, cfg.coupling_case)]
    row = ",".join([*text, number, *map(format_number, (cfg.ratio, cfg.ancilla_purity))] + [number] * len(_MEASURED))
    measured = attrgetter(*_MEASURED)
    rows = [row % ((pt.kappa0,) + measured(pt.report)) for pt in result.points]
    Path(path).write_text("\n".join([CSV_HEADER, *rows, ""]), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class ChartSeries:
    label: str
    points: tuple[tuple[float, float], ...]
    curve: tuple[tuple[float, float], ...] | None = None


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# XML escapes for series labels; xml.sax.saxutils would import urllib, http and ssl
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
# what no escape can put in XML 1.0: C0 controls but tab, LF and CR, surrogates, U+FFFE and U+FFFF
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _in_chart_domain(x: float, y: float) -> bool:
    """The chart's range rule: kappa0 finite and >= 0, y in [0, 1]; NaN is outside."""
    return 0.0 <= x < math.inf and 0.0 <= y <= 1.0


def _series(label: str, rows: Sequence[tuple[float, float, float | None]]) -> ChartSeries:
    """A series from (kappa0, Fe, Fe_analytic or None) rows: every row is
    a point, and the rows with a closed form make the curve, if any."""
    curve = tuple((x, fa) for x, _, fa in rows if fa is not None)
    return ChartSeries(label, tuple((x, fe) for x, fe, _ in rows), curve or None)


def emit_chart(results: Sequence[ScenarioResult], path: str | Path) -> None:
    """Self-contained SVG: simulated points as markers, closed-form
    references as continuous lines, one legend entry per scenario."""
    rows = [(r.config.scenario, [(p.kappa0, p.report.Fe, p.report.Fe_analytic) for p in r.points]) for r in results]
    write_svg_chart([_series(label, pts) for label, pts in rows], path)


def load_csv_series(path: str | Path) -> list[ChartSeries]:
    """Rebuild chart series from a CSV written by emit_csv; a missing column, an empty scenario
    or one with a character that XML 1.0 forbids, a kappa0, Fe or Fe_analytic cell that is not a
    number, a row outside the chart's range, a byte that is not UTF-8 or a ``csv.Error`` (an
    oversized cell) raises ValueError naming the file and column or line."""
    groups: dict[str, list[tuple[float, float, float | None]]] = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        missing = [c for c in _CHART_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if not row["scenario"]:
                raise ValueError(f"{where}: empty scenario")
            if _XML_FORBIDDEN.search(row["scenario"]):
                raise ValueError(f"{where}: scenario {row['scenario']!r} has a character that XML 1.0 forbids")
            try:
                x, fe = float(row["kappa0"]), float(row["Fe"])
                fe_a = float(row["Fe_analytic"]) if row["Fe_analytic"] else None
            except (TypeError, ValueError):
                raise ValueError(f"{where}: kappa0, Fe and Fe_analytic must be numbers") from None
            if not all(_in_chart_domain(x, y) for y in ((fe,) if fe_a is None else (fe, fe_a))):
                raise ValueError(f"{where}: kappa0 must be finite and >= 0, Fe and Fe_analytic in [0, 1]")
            groups.setdefault(row["scenario"], []).append((x, fe, fe_a))
    except csv.Error as exc:
        # DictReader.line_num stops at the last good row, its reader's counts the failing line
        raise ValueError(f"{path}, line {reader.reader.line_num}: {exc}") from None
    return [_series(label, rows) for label, rows in groups.items()]


def write_svg_chart(series: Sequence[ChartSeries], path: str | Path) -> None:
    """Draw the series as one SVG: points as markers, curves as lines, one
    legend entry per series.  The domain is kappa0 finite and >= 0, y in
    [0, 1]; no series, a label with a character that XML 1.0 forbids, or a
    point or curve value outside the domain (NaN is), raises ValueError
    before the file is opened."""
    if not series:
        raise ValueError("need at least one series")
    for s in series:
        if _XML_FORBIDDEN.search(s.label):
            raise ValueError(f"series {s.label!r} has a character that XML 1.0 forbids")
    values = [(s.label, x, y) for s in series for x, y in (*s.points, *(s.curve or ()))]
    for label, x, y in values:
        if not _in_chart_domain(x, y):
            raise ValueError(f"series {label!r} has ({x}, {y}): kappa0 must be finite and >= 0, y in [0, 1]")
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 170.0, 20.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    # the axes span the points and the curves, so every value lands inside the frame
    xs = [x for _, x, _ in values] or [0.0]
    ys = [y for _, _, y in values] or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:  # one kappa0: pad it by 1, or start the axis at 0 where the padding rounds away
        x_lo, x_hi = (x_lo - 1.0, x_hi + 1.0) if x_lo - 1.0 < x_hi + 1.0 else (0.0, x_hi)
    y_lo = min(0.9, math.floor((min(ys) - 0.03) * 20.0) / 20.0)
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
    # y ticks at k / 10 up to 1, at most 11 since y_lo >= -0.05; x ticks at 6 even divisions
    for k in range(math.ceil(y_lo * 10.0), 11):
        y_tick = k / 10.0
        yy = py(y_tick)
        out.append(
            f'<line x1="{left - 4:.1f}" y1="{yy:.2f}" x2="{left:.1f}" y2="{yy:.2f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{left - 8:.1f}" y="{yy + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{y_tick:.2f}</text>'
        )
    for k in range(7):
        xv = x_lo + (x_hi - x_lo) * (k / 6.0)  # k / 6 <= 1, so a span near the float limit stays finite
        xx = px(xv)
        tick = f"{xv:.2f}" if xv < 1e6 else f"{xv:.2e}"  # at most 10 characters either way
        out.append(
            f'<line x1="{xx:.2f}" y1="{top + plot_h:.1f}" x2="{xx:.2f}" '
            f'y2="{top + plot_h + 4:.1f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{top + plot_h + 18:.1f}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{tick}</text>'
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
        label = s.label.translate(_XML_ESCAPES)
        token = "_".join(label.split())  # one class per series, whatever its spaces
        if s.curve:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in s.curve)
            out.append(
                f'<polyline class="curve curve-{token}" points="{pts}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in s.points:
            out.append(
                f'<circle class="pt pt-{token}" cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                f'fill="{color}" fill-opacity="0.85"/>'
            )
        ly = top + 16.0 + 20.0 * i
        lx = left + plot_w + 12.0
        out.append(
            f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="14" height="10" fill="{color}"/>'
        )
        out.append(
            f'<text class="legend-label" x="{lx + 20:.1f}" y="{ly:.1f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def pauli_transfer_matrix(scenario: str, spec: NoiseSpec, ancilla_purity: float = 1.0) -> np.ndarray:
    """4x4 transfer matrix of the data-qubit channel of a scenario,
    R[u, v] = tr(sigma_u E(sigma_v)) / 2 over (I, x, y, z)."""
    circuit = build_scenario_circuit(scenario, spec)
    # identity column is probed with the maximally mixed data qubit,
    # E(I)/2; Pauli columns with the deviation inputs, E(sigma_v)
    inputs = _product_inputs(ancilla_purity, circuit.n_qubits)
    outs = partial_trace_stack(np.array([apply_circuit(rho, circuit).entries for rho in inputs]), {DATA_QUBIT})
    check_stack(outs[:1], STATE)
    check_stack(outs[1:], DEVIATION)
    scales = np.array([1.0, 0.5, 0.5, 0.5])
    # R[row, col] = tr(basis[row] outs[col]) * scales[col], one batched overlap
    return hs_overlap_stack(_PAULI_BASIS[:, None], outs) * scales
