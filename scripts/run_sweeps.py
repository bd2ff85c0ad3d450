#!/usr/bin/env python3
"""Run the four storage scenarios over the default noise grid and
write CSVs plus a combined chart.

Usage:
    python3 scripts/run_sweeps.py [--out-dir results] [--kind sinc|exp]
"""
from pathlib import Path

from dfsqec import ScenarioConfig, emit_chart, emit_csv, run_scenario
from dfsqec.cli import KIND_ALIASES, ArgumentParser, run_command
from dfsqec.codes import SCENARIOS


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default="results")
    parser.add_argument("--kind", default="sinc", choices=sorted(KIND_ALIASES))
    parser.set_defaults(func=run)
    return run_command(parser)


def run(args) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for scenario in SCENARIOS:
        config = ScenarioConfig(scenario, kind=KIND_ALIASES[args.kind])
        result = run_scenario(config)
        results.append(result)
        csv_path = args.out_dir / f"{scenario}_{args.kind}.csv"
        emit_csv(result, csv_path)
        dev = max(abs(p.report.Fe - p.report.Fe_analytic) for p in result.points)
        print(f"{scenario:16s} -> {csv_path}  max |Fe - analytic| = {dev:.3e}")

    chart_path = args.out_dir / f"fidelity_{args.kind}.svg"
    emit_chart(results, chart_path)
    print(f"chart -> {chart_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
