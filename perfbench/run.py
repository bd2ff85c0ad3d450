#!/usr/bin/env python3
"""Benchmark of the dfsqec simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-grid|long-sweep|channel-probe \
        --seed N --seconds S --trace 0|1

Every sample runs in a fresh, single-threaded interpreter that imports
dfsqec from ``src/`` of this checkout.

``--trace 0`` measures the end-to-end metrics: the median set-up time
over several fresh starts (interpreter start, ``import dfsqec`` and a
warm-up cycle of operations), then one closed loop of operations for
``--seconds`` giving throughput, latency percentiles and peak memory.
Times are normalised to reference host speed by a calibration kernel
timed alongside the work (see ``speed.py``); the wall-clock figures are
printed with the machine facts.

``--trace 1`` runs the operations untraced for half of ``--seconds``,
then the same operations with every layer function wrapped, and reports
per-layer call counts and times plus the tracing overhead.

Every operation's output is checked against its closed form.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, the CSV digest and the machine facts.  The exit
code is 1 when any operation failed, and 2 (without a result) when a
sample could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "long-sweep", "channel-probe")
SETUP_STARTS = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SampleError(Exception):
    """A worker process failed to produce a report."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run one worker in a fresh interpreter and return its report."""
    spawned_at = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} worker did not finish within the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise SampleError(f"{mode} worker printed no report: {lines[-1][:200]!r}") from exc


def percentile(values: list[float], p: int) -> float:
    """p-th percentile of a sample, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timings(latencies: list[float], points: int, setups: list[float]) -> dict[str, float]:
    return {
        "points_per_s": points / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "setup_s": statistics.median(setups),
    }


def end_to_end(measure: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from times normalised to reference speed."""
    units = {"points_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s"}
    values = timings(measure["latencies"], measure["points"], setups)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    metrics["peak_rss_mb"] = (measure["peak_rss_mb"], "MB")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git;
    "unknown" when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(args: argparse.Namespace, worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "jobs": 1,
        "git_commit": git_commit(),
        "seed": args.seed,
    }


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run every sample of one benchmark invocation; returns the result
    object and the extra facts printed before it."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        rep = spawn(args, "trace", deadline)
        metrics = {k: tuple(v) for k, v in rep["layer"].items()}
        extra = {"absent": rep["absent"], "closure_error": rep["closure_error"], "spans": rep["spans"]}
        failures = list(rep["failures"])
        if not rep["closure_error"] <= 1e-6:
            failures.append(f"layer self times do not add up to the operation time ({rep['closure_error']:.2e})")
        reports = [rep]
    else:
        rep = spawn(args, "measure", deadline)
        reports = [rep] + [spawn(args, "setup", deadline) for _ in range(SETUP_STARTS - 1)]
        metrics = end_to_end(rep, [r["setup_s"] for r in reports])
        extra = {
            "wall_clock": timings(rep["wall_latencies"], rep["points"], [r["setup_wall_s"] for r in reports]),
            "speed_samples": rep["speed_samples"],
        }
        failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    extra.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        csv_sha256=rep["digest"],
        ops_attempted=attempted,
        ops_failed=len(failures),
        failures=failures[:10],
        machine=machine(args, rep),
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dfsqec benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, extra = run(args)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"info {json.dumps(extra)}")
    print(f"csv_sha256 {extra['csv_sha256']}")
    print(f"ops_attempted {extra['ops_attempted']} ops_failed {extra['ops_failed']}")
    for failure in extra["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
