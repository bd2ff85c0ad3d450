#!/usr/bin/env python3
"""Show how imperfect ancilla initialization bends the error-corrected
fidelity curve: below one at zero noise, and eventually above the
ideal-ancilla reference once the sinc attenuation goes negative.

Usage:
    python3 scripts/hump_demo.py [--out-dir results] [--purities 0.9,0.7,0.5]
"""
import sys
from pathlib import Path

from dfsqec import ScenarioConfig, emit_csv, hump_demo, run_scenario
from dfsqec.cli import ArgumentParser
from dfsqec.experiments import ChartSeries, write_svg_chart


def series_for(result, label: str) -> ChartSeries:
    pts = tuple((p.kappa0, p.report.Fe) for p in result.points)
    return ChartSeries(label, pts)


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--purities", default="0.9,0.7,0.5")
    try:
        args = parser.parse_args()
        return run(Path(args.out_dir), args.purities)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(out_dir: Path, purities: str) -> int:
    # every run is computed, and checked, before anything is written
    reports = [
        hump_demo(ScenarioConfig("qec_independent", ancilla_purity=float(p))) for p in purities.split(",")
    ]
    ideal = run_scenario(ScenarioConfig("qec_independent", ancilla_purity=1.0))
    out_dir.mkdir(parents=True, exist_ok=True)

    series = [series_for(ideal, "purity-1.0")]
    print("purity 1.0: reference run")
    for report in reports:
        purity = report.result.config.ancilla_purity
        series.append(series_for(report.result, f"purity-{purity:g}"))
        emit_csv(report.result, out_dir / f"hump_p{purity:g}.csv")
        print(
            f"purity {purity:g}: Fe(0) = {report.fe_at_zero:.4f}, "
            f"non-monotone = {report.non_monotone}, "
            f"crosses ideal curve = {report.crosses_reference}"
        )

    chart_path = out_dir / "hump.svg"
    write_svg_chart(series, chart_path)
    print(f"chart -> {chart_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
