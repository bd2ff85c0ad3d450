#!/usr/bin/env python3
"""Run the four storage scenarios over the default noise grid and
write CSVs plus a combined chart.

Usage:
    python3 scripts/run_sweeps.py [--out-dir results] [--kind sinc|exp]
"""
import sys
from pathlib import Path

from dfsqec import ScenarioConfig, emit_chart, emit_csv, run_scenario
from dfsqec.cli import KIND_ALIASES, ArgumentParser
from dfsqec.codes import SCENARIOS


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--kind", default="sinc", choices=sorted(KIND_ALIASES))
    try:
        args = parser.parse_args()
        return run(Path(args.out_dir), args.kind)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(out_dir: Path, kind: str) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for scenario in SCENARIOS:
        config = ScenarioConfig(scenario, kind=KIND_ALIASES[kind])
        result = run_scenario(config)
        results.append(result)
        csv_path = out_dir / f"{scenario}_{kind}.csv"
        emit_csv(result, csv_path)
        dev = max(abs(p.report.Fe - p.report.Fe_analytic) for p in result.points)
        print(f"{scenario:16s} -> {csv_path}  max |Fe - analytic| = {dev:.3e}")

    chart_path = out_dir / f"fidelity_{kind}.svg"
    emit_chart(results, chart_path)
    print(f"chart -> {chart_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
