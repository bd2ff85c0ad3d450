"""Tests of the benchmark itself: every metric named in BENCHMARK.json is
printed with its unit, and a corrupted or raising operation is counted
as failed rather than passed."""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dfsqec  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_cycle(workload: str, seed: int = 7):
    return islice(worker.configs(workload, seed, "test"), worker.CYCLE)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "channel-probe",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("csv_sha256 ") for line in lines)
    assert any(line.startswith("ops_attempted ") and " ops_failed 0" in line for line in lines)


def _perturbed(result):
    """The same sweep with the first point's Fe moved by 1e-6."""
    first = result.points[0]
    report = dataclasses.replace(first.report, Fe=first.report.Fe + 1e-6)
    return dataclasses.replace(result, points=(dataclasses.replace(first, report=report),) + result.points[1:])


def test_paper_grid_counts_a_perturbed_fe_as_failed(tmp_path, monkeypatch):
    clean = worker.run_window(worker.PaperGrid(tmp_path), one_cycle("paper-grid"))
    assert clean.failures == [] and clean.points == 4 * 25

    original = dfsqec.experiments.run_scenario
    monkeypatch.setattr(dfsqec.experiments, "run_scenario", lambda *a, **k: _perturbed(original(*a, **k)))
    bad = worker.run_window(worker.PaperGrid(tmp_path), one_cycle("paper-grid"))
    assert len(bad.failures) == 4 and bad.points == 0
    assert "|Fe - analytic|" in bad.failures[0]


def test_long_sweep_counts_a_perturbed_csv_row_as_failed(tmp_path, monkeypatch):
    clean = worker.run_window(worker.LongSweep(tmp_path, points=12), one_cycle("long-sweep"))
    assert clean.failures == [] and clean.rows == 4 * 12

    original = dfsqec.cli.emit_csv
    monkeypatch.setattr(dfsqec.cli, "emit_csv", lambda result, path: original(_perturbed(result), path))
    bad = worker.run_window(worker.LongSweep(tmp_path, points=12), one_cycle("long-sweep"))
    assert len(bad.failures) == 4 and bad.points == 0


def test_channel_probe_counts_a_non_unital_matrix_as_failed(tmp_path, monkeypatch):
    original = dfsqec.experiments.pauli_transfer_matrix

    def leaky(*args, **kwargs):
        r = original(*args, **kwargs).copy()
        r[0, 0] += 1e-9
        return r

    monkeypatch.setattr(dfsqec.experiments, "pauli_transfer_matrix", leaky)
    bad = worker.run_window(worker.ChannelProbe(tmp_path), one_cycle("channel-probe"))
    assert len(bad.failures) == 4 and "identity column" in bad.failures[0]


def test_raising_operation_is_failed_and_the_loop_goes_on(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(dfsqec.experiments, "pauli_transfer_matrix", broken)
    win = worker.run_window(worker.ChannelProbe(tmp_path), one_cycle("channel-probe"))
    assert len(win.configs) == 4 and len(win.failures) == 4 and "boom" in win.failures[0]


def test_failed_operations_make_the_run_exit_nonzero(monkeypatch, capsys):
    report = {
        "setup_s": 0.5, "setup_wall_s": 0.6, "attempted": 8, "failures": ["op 3 dfs_qec: mismatch"],
        "latencies": [0.1, 0.2], "wall_latencies": [0.15, 0.25], "speed_samples": 9, "points": 2,
        "digest": "0" * 64, "peak_rss_mb": 40.0, "numpy": "x", "blas": "x",
    }
    monkeypatch.setattr(run, "spawn", lambda args, mode, deadline: dict(report))
    code = run.main(["--workload", "channel-probe", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == run.SETUP_STARTS


def test_tracer_reports_a_deleted_function_as_absent(tmp_path, monkeypatch):
    original = dfsqec.qstate.embed

    def _embed(gate, targets, n_qubits):
        return original(gate, targets, n_qubits)

    monkeypatch.delattr(dfsqec.qstate, "embed")
    monkeypatch.delattr(dfsqec, "embed")
    monkeypatch.setattr(dfsqec.codes, "embed", _embed)
    tr = tracer.Tracer()
    tr.install()
    try:
        win = worker.run_window(worker.ChannelProbe(tmp_path), one_cycle("channel-probe"), tracer=tr)
    finally:
        tr.uninstall()
    assert win.failures == []
    summary = tr.summary()
    metrics, absent = tracer.layer_metrics(summary, tr.wrapped, points=win.points, ops=4, rows=0, overhead_pct=0.0)
    assert {"qstate.embed.calls_per_point", "qstate.embed.us_per_point"} <= set(absent)
    assert metrics["qstate.embed.calls_per_point"] == (0.0, "count")
    assert metrics["codes.apply_circuit.calls_per_point"] == (4.0, "count")
    assert tracer.closure_error(summary) < 1e-9
    assert dfsqec.DensityMatrix.__post_init__.__name__ == "__post_init__"
    assert not hasattr(dfsqec.DensityMatrix.__post_init__, "__wrapped__")


def test_tracer_counts_match_the_circuit(tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        win = worker.run_window(worker.LongSweep(tmp_path, points=8), one_cycle("long-sweep"), tracer=tr)
    finally:
        tr.uninstall()
    assert win.failures == []
    summary = tr.summary()
    metrics, absent = tracer.layer_metrics(
        summary, tr.wrapped, points=win.points, ops=4, rows=win.rows, overhead_pct=0.0
    )
    assert absent == []
    # one circuit per point plus one for the reference run of each sweep
    assert metrics["codes.build_scenario_circuit.calls_per_point"][0] == pytest.approx(1 + 1 / 8)
    # three inputs per point, each through every gate of its scenario
    gates = sum(len(dfsqec.build_scenario_circuit(s, cfg.spec(0.0)).steps) - 1
                for s, cfg in zip(worker.SCENARIOS, one_cycle("long-sweep")))
    assert metrics["qstate.embed.calls_per_point"][0] == pytest.approx(3 * gates / 4 * (1 + 1 / 8))
    assert np.isfinite(list(v for v, _ in metrics.values())).all()
    assert tracer.closure_error(summary) < 1e-9


@pytest.mark.parametrize("workload", sorted(worker.STRATUM))
def test_every_stratum_does_the_same_mix_of_work(workload):
    n = worker.STRATUM[workload]
    mix = [(c.scenario, c.kind) + ((c.case,) if n == 16 else ()) for c in islice(worker.configs(workload, 5, "t"), n)]
    assert len(set(mix)) == n
    cases = [c.case for c in islice(worker.configs(workload, 5, "t"), 8)]
    assert cases.count("a") == cases.count("b")
    assert next(worker.configs(workload, 5, "t")) != next(worker.configs(workload, 6, "t"))


def test_speed_normalisation_removes_kernel_time_and_scales_by_host_speed():
    sampler = speed.Sampler()
    # samples every 10 ms taking 2 * REF_S: the host runs at half speed
    for k in range(100):
        sampler.start.append(k * 0.01)
        sampler.dur.append(2 * speed.REF_S)
    # an operation from 0.105 to 0.305 s holds 20 samples
    (norm,) = sampler.normalise([(0.105, 0.305)])
    assert norm == pytest.approx((0.2 - 20 * 2 * speed.REF_S) / 2)
    # a short one between two samples still finds enough around it
    (short,) = sampler.normalise([(0.5005, 0.5015)])
    assert short == pytest.approx(0.001 / 2)


def test_speed_sampler_samples_while_started_and_normalising():
    sampler = speed.Sampler(interval=0.001).begin()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            speed.kernel()
        # samples keep arriving while earlier ones are being read
        for _ in range(50):
            sampler.normalise([(t0, t0 + 0.05)] * 20)
    finally:
        sampler.stop()
    assert len(sampler.dur) >= speed.MIN_SAMPLES
    count = len(sampler.dur)
    time.sleep(0.01)
    assert len(sampler.dur) == count
