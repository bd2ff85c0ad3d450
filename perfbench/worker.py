"""One benchmark process: import dfsqec from the checkout, warm up, run
a workload's operations in a closed loop, check every output, and
print a JSON report as the last line of standard output.

``run.py`` starts this file in a fresh interpreter for every set-up
sample and for the measured (or traced) run.

Workloads (every operation is issued after the previous one ends).
Operations cycle through the four scenarios, then the two kinds (sinc
and exp), then the coupling case, so 16 operations cover every
combination once and 8 cover every scenario and kind.  The seed draws
the ratio and, for probes, purity and kappa0, so runs with different
seeds do the same mix of work on different inputs:

* ``paper-grid``: ``run_scenario`` + ``emit_csv`` on the paper's
  25-point ``DEFAULT_SWEEP``; every fourth operation also draws the
  figure with ``emit_chart``.  Per-sweep fixed costs weigh in here.
* ``long-sweep``: ``cli.main(["sweep", ...])`` over a 1000-point grid.
  Per-point evaluation dominates.
* ``channel-probe``: ``pauli_transfer_matrix`` at one point.  One point
  per configuration, so batching across kappa cannot help; it runs the
  step-by-step circuit path with state-kind inputs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

import dfsqec
from dfsqec import cli, experiments, metrics
from dfsqec.channels import NoiseSpec

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"  # scratch outputs of the operations, removed after each process

SCENARIOS = ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec")
COLLECTIVE = ("qec_hybrid", "dfs_qec")
KINDS = ("sinc", "exp")
CASES = ("a", "b")
CYCLE = len(SCENARIOS)
# runs stop at a multiple of this many operations, so every run does the
# same mix of scenarios and kinds, and with 16 of coupling cases too; long
# sweeps take 8 because one operation takes seconds
STRATUM = {"paper-grid": 16, "long-sweep": 8, "channel-probe": 16}
GRID_SPAN = {"sinc": 12.0, "exp": 5.0}
LONG_POINTS = 1000
WARMUP_POINTS = 25
MIN_OPS = {"paper-grid": 100, "long-sweep": 8, "channel-probe": 100}
UNITAL_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's output disagrees with its closed form."""


@dataclass(frozen=True)
class OpConfig:
    index: int
    scenario: str
    kind: str  # "sinc" or "exp"
    case: str
    ratio: float
    purity: float
    kappa0: float  # probe point, or the start offset of a long-sweep grid

    def spec(self, kappa0: float) -> NoiseSpec:
        return NoiseSpec(
            kappa0=kappa0,
            collective=self.scenario in COLLECTIVE,
            ratio=self.ratio,
            coupling_case=self.case,
            kind=cli.KIND_ALIASES[self.kind],
        )


def configs(workload: str, seed: int, stream: str) -> Iterator[OpConfig]:
    """Endless, reproducible operation configs for one seed.  Scenario,
    kind and coupling case cycle in a fixed order so every run has the
    same mix; the first 8 hold each scenario and kind once, with the
    cases balanced."""
    rng = random.Random(f"{workload}/{seed}/{stream}")
    for i in count():
        s, k = i % CYCLE, (i // CYCLE) % len(KINDS)
        kind = KINDS[k]
        case = CASES[(s + k + i // (CYCLE * len(KINDS))) % len(CASES)]
        ratio = rng.uniform(0.25, 2.0)
        # half the probes at purity exactly 1, where trace(R)/4 has a closed form
        purity = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        if workload == "long-sweep":
            kappa0 = rng.uniform(0.0, GRID_SPAN[kind] / LONG_POINTS)
        else:
            kappa0 = rng.uniform(0.0, GRID_SPAN[kind])
        yield OpConfig(i, SCENARIOS[s], kind, case, ratio, purity, kappa0)


def _finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"non-finite value in {values}")


def _check_fe(cfg: OpConfig, kappa0: float, fe: float) -> None:
    ref = metrics.analytic_reference(cfg.scenario, cfg.spec(kappa0))
    if not abs(fe - ref) <= cli.CHECK_TOL:
        raise CheckFailed(f"{cfg.scenario} kappa0={kappa0!r}: |Fe - analytic| = {abs(fe - ref):.3e}")


class PaperGrid:
    """One operation: a 25-point scenario sweep written as CSV; the fourth
    of each cycle also renders the four-scenario chart."""

    writes_csv = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.results: dict[str, object] = {}

    def points(self, cfg: OpConfig) -> int:
        return len(experiments.DEFAULT_SWEEP)

    def run(self, cfg: OpConfig):
        config = experiments.ScenarioConfig(
            cfg.scenario,
            kind=cli.KIND_ALIASES[cfg.kind],
            ratio=cfg.ratio,
            coupling_case=cfg.case,
        )
        result = experiments.run_scenario(config, jobs=1)
        path = self.workdir / f"{cfg.scenario}.csv"
        experiments.emit_csv(result, path)
        self.results[cfg.scenario] = result
        if cfg.index % CYCLE == CYCLE - 1:
            experiments.emit_chart([self.results[s] for s in SCENARIOS], self.workdir / "figure.svg")
        return result, path

    def check(self, cfg: OpConfig, out) -> bytes:
        result, path = out
        if [p.kappa0 for p in result.points] != list(experiments.DEFAULT_SWEEP):
            raise CheckFailed(f"sweep points {len(result.points)} do not match the grid")
        for p in result.points:
            r = p.report
            _finite(r.Cx, r.Cy, r.Cz, r.Fe, r.Px, r.Py, r.Pz, r.P)
            _check_fe(cfg, p.kappa0, r.Fe)
        return path.read_bytes()


class LongSweep:
    """One operation: ``dfsqec sweep`` over a seeded 1000-point grid,
    [0, 12) for sinc and [0, 5) for exp, written to a CSV file."""

    writes_csv = True

    def __init__(self, workdir: Path, points: int = LONG_POINTS) -> None:
        self.workdir = workdir
        self.n = points

    def points(self, cfg: OpConfig) -> int:
        return self.n

    def grid(self, cfg: OpConfig) -> tuple[float, float]:
        step = GRID_SPAN[cfg.kind] / LONG_POINTS
        return cfg.kappa0, step

    def run(self, cfg: OpConfig):
        start, step = self.grid(cfg)
        stop = start + (self.n - 1) * step
        path = self.workdir / f"sweep-{cfg.scenario}.csv"
        argv = [
            "sweep",
            "--scenario", cfg.scenario,
            "--kind", cfg.kind,
            "--kappa0", f"{start!r}:{stop!r}:{step!r}",
            "--ratio", repr(cfg.ratio),
            "--case", cfg.case,
            "--jobs", "1",
            "--out", str(path),
        ]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, path

    def check(self, cfg: OpConfig, out) -> bytes:
        code, path = out
        if code != 0:
            raise CheckFailed(f"dfsqec sweep exited with {code}")
        data = path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != self.n:
            raise CheckFailed(f"{len(rows)} rows, expected {self.n}")
        start, step = self.grid(cfg)
        for k, row in enumerate(rows):
            x = start + k * step
            values = [float(row[c]) for c in ("kappa0", "Cx", "Cy", "Cz", "Fe", "Px", "Py", "Pz", "P")]
            _finite(*values)
            if abs(values[0] - x) > 1e-9 * max(1.0, x):
                raise CheckFailed(f"row {k}: kappa0 {values[0]!r}, expected {x!r}")
            _check_fe(cfg, x, values[4])
        return data


class ChannelProbe:
    """One operation: the data-qubit Pauli transfer matrix at one point."""

    writes_csv = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def points(self, cfg: OpConfig) -> int:
        return 1

    def run(self, cfg: OpConfig):
        return experiments.pauli_transfer_matrix(cfg.scenario, cfg.spec(cfg.kappa0), ancilla_purity=cfg.purity)

    def check(self, cfg: OpConfig, out) -> bytes:
        r = np.asarray(out, dtype=float)
        if r.shape != (4, 4):
            raise CheckFailed(f"transfer matrix has shape {r.shape}")
        _finite(*r.ravel())
        unital = float(np.max(np.abs(r[:, 0] - [1.0, 0.0, 0.0, 0.0])))
        if unital > UNITAL_TOL:
            raise CheckFailed(f"identity column off (1,0,0,0) by {unital:.3e}")
        if float(np.max(np.abs(r))) > 1.0 + UNITAL_TOL:
            raise CheckFailed(f"|R| = {float(np.max(np.abs(r)))!r} exceeds 1")
        if cfg.purity == 1.0:
            _check_fe(cfg, cfg.kappa0, float(np.trace(r)) / 4.0)
        # 12 decimals, so last-bit noise around exact zeros does not show
        cells = ",".join(f"{round(v, 12) + 0.0:.12f}" for v in r.ravel())
        line = f"{cfg.scenario},{cfg.kind},{cfg.case},{cfg.kappa0!r},{cfg.ratio!r},{cfg.purity!r},{cells}\n"
        return line.encode()


WORKLOADS = {"paper-grid": PaperGrid, "long-sweep": LongSweep, "channel-probe": ChannelProbe}


@dataclass
class Window:
    """What one closed loop of operations did."""

    configs: list[OpConfig]
    intervals: list[tuple[float, float]]  # perf_counter() at start and end of each operation
    points: int
    rows: int
    failures: list[str]
    digest: str

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.intervals]


def run_window(
    workload,
    ops: Iterable[OpConfig],
    seconds: float | None = None,
    min_ops: int = 0,
    tracer: tracing.Tracer | None = None,
    stratum: int = CYCLE,
) -> Window:
    """Run operations one after another, checking each output.  With
    ``seconds``, stop at the first multiple of ``stratum`` operations
    after both ``seconds`` of wall time and ``min_ops`` operations.  The
    digest covers the outputs of the first scenario cycle, which every
    run completes."""
    done: list[OpConfig] = []
    intervals: list[tuple[float, float]] = []
    failures: list[str] = []
    points = rows = 0
    digest = hashlib.sha256()
    began = time.perf_counter()
    for cfg in ops:
        span = None
        if tracer is not None:
            tracer.active = True
            span = tracer.begin(tracing.OP_SPAN)
        t0 = time.perf_counter()
        try:
            out = workload.run(cfg)
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            error = f"op {cfg.index} {cfg.scenario}: raised {exc!r}"
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.finish(span)
            tracer.active = False
        if error is None:
            try:
                data = workload.check(cfg, out)
            except Exception as exc:  # any check error fails the operation
                error = f"op {cfg.index} {cfg.scenario}: {exc}"
        if error is None:
            points += workload.points(cfg)
            rows += workload.points(cfg) if workload.writes_csv else 0
            if len(done) < CYCLE:
                digest.update(data)
        else:
            failures.append(error)
        done.append(cfg)
        if (
            seconds is not None
            and len(done) % stratum == 0
            and len(done) >= min_ops
            and time.perf_counter() - began >= seconds
        ):
            break
    return Window(done, intervals, points, rows, failures, digest.hexdigest())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps.get("blas", {}).get("name", "unknown"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.perf_counter() at spawn")
    args = parser.parse_args(argv)

    origin = Path(dfsqec.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: dfsqec imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    sampler = speed.Sampler()
    try:
        report = _run(args, workdir, sampler.begin())
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _run(args: argparse.Namespace, workdir: Path, sampler: speed.Sampler) -> dict:
    """Set up and run one mode.  Times are normalised to reference host
    speed with ``sampler``, which is stopped before a traced run so that
    its samples do not land in the spans."""
    cls = WORKLOADS[args.workload]
    # warm-up: one cycle, long sweeps at the paper's 25 points
    warm_workload = LongSweep(workdir, WARMUP_POINTS) if cls is LongSweep else cls(workdir)
    warm = run_window(warm_workload, islice(configs(args.workload, args.seed, "warmup"), CYCLE))
    # the perf_counter() clock is system-wide (CLOCK_MONOTONIC on Linux)
    setup = (args.spawned_at, time.perf_counter())
    sampler.burst(speed.MIN_SAMPLES)
    report = {
        "setup_s": sampler.normalise([setup])[0],
        "setup_wall_s": setup[1] - setup[0],
        "attempted": len(warm.configs),
        "failures": warm.failures,
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if args.mode == "setup":
        return report

    workload = cls(workdir)
    ops = configs(args.workload, args.seed, "measure")
    if args.mode == "measure":
        win = run_window(workload, ops, args.seconds, MIN_OPS[args.workload], stratum=STRATUM[args.workload])
        sampler.stop()
        report.update(
            attempted=report["attempted"] + len(win.configs),
            failures=report["failures"] + win.failures,
            latencies=sampler.normalise(win.intervals),
            wall_latencies=win.latencies,
            speed_samples=len(sampler.dur),
            points=win.points,
            digest=win.digest,
            peak_rss_mb=_peak_rss_mb(),
        )
        return report

    # trace: an untraced window, then the same operations traced
    sampler.stop()
    plain = run_window(workload, ops, args.seconds / 2.0, CYCLE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_window(cls(workdir), plain.configs, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    pps_plain = plain.points / sum(plain.latencies)
    pps_traced = traced.points / sum(traced.latencies)
    layer, absent = tracing.layer_metrics(
        summary,
        tracer.wrapped,
        points=traced.points,
        ops=len(traced.configs),
        rows=traced.rows,
        overhead_pct=100.0 * (pps_plain - pps_traced) / pps_plain if pps_plain else 0.0,
    )
    failures = report["failures"] + plain.failures + traced.failures
    if traced.digest != plain.digest:
        failures.append("traced outputs differ from the untraced ones")
    report.update(
        attempted=report["attempted"] + len(plain.configs) + len(traced.configs),
        failures=failures,
        layer={k: list(v) for k, v in layer.items()},
        absent=absent,
        closure_error=tracing.closure_error(summary),
        spans=len(tracer.start),
        digest=plain.digest,
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
