"""Command-line harness for the scenario sweeps.

Subcommands:

* ``sweep``           run one scenario over a noise-strength grid, write CSV
* ``analytic``        print a closed-form reference curve as CSV on stdout
* ``noise-strength``  print the overall and per-generator noise strengths
* ``chart``           render sweep CSVs into a self-contained SVG
* ``check``           verify the simulated curves against the closed forms
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .channels import (
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    build_error_model,
    noise_strength,
    partial_strengths,
    qubit3_strength_ratio,
)
from .codes import SCENARIOS, scenario_layout
from .experiments import (
    ScenarioConfig,
    emit_csv,
    load_csv_series,
    run_scenario,
    write_svg_chart,
)
from .metrics import analytic_reference

KIND_ALIASES = {"sinc": INCOHERENT_SINC, "exp": MARKOVIAN_EXP}

CHECK_TOL = 1e-9

# largest number of points a start:stop:step grid may expand to
MAX_GRID_POINTS = 100_000

ANALYTIC_CURVES = {"qec-independent": "qec_independent", "qec-strong": "qec_hybrid", "no-qec": "no_qec"}


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step``, a comma list, or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        if (stop - start) / step + 1 > MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-9 * max(1.0, step):
                break
            values.append(v)
            k += 1
        if not values:
            raise ValueError(f"grid {text!r} is empty")
        return tuple(values)
    return tuple(float(p) for p in text.split(","))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        scenario=args.scenario,
        kind=KIND_ALIASES[args.kind],
        sweep=parse_grid(args.kappa0),
        ratio=args.ratio,
        coupling_case=args.case,
        ancilla_purity=args.purity,
    )
    result = run_scenario(config, jobs=args.jobs)
    emit_csv(result, args.out)
    print(f"wrote {len(result.points)} sweep point(s) to {args.out}")
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
    config = ScenarioConfig(ANALYTIC_CURVES[args.curve], ratio=args.ratio)
    specs = [config.noise_spec(x) for x in parse_grid(args.kappa0)]
    print("kappa0,Fe")
    for spec in specs:
        print(f"{_fmt(spec.kappa0)},{_fmt(analytic_reference(config.scenario, spec))}")
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string(value) -> bool:
    return isinstance(value, str)


# JSON fields of a noise-strength config: ScenarioConfig's own, plus
# ``epsilon`` (the qubit-3 residual/collective amplitude ratio, may be
# null), each with its type check
_JSON_FIELDS = {
    "scenario": (_is_string, "a string"),
    "kind": (_is_string, "a string"),
    "coupling_case": (_is_string, "a string"),
    "ratio": (_is_number, "a number"),
    "ancilla_purity": (_is_number, "a number"),
    "sweep": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    "epsilon": (lambda v: v is None or _is_number(v), "a number or null"),
}


def _config_from_json(raw) -> ScenarioConfig:
    """ScenarioConfig from a JSON object whose fields are named and typed
    as its own, plus ``epsilon`` (read by noise-strength); ``kind`` also
    takes the CLI aliases."""
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(_JSON_FIELDS)
    if unknown:
        raise ValueError(f"unknown config field(s): {sorted(unknown)}")
    for key, value in raw.items():
        check, expected = _JSON_FIELDS[key]
        if not check(value):
            raise ValueError(f"config field {key!r} must be {expected}, got {json.dumps(value)}")
    kind = raw.get("kind", INCOHERENT_SINC)
    kwargs = {"scenario": "qec_independent", **{k: v for k, v in raw.items() if k != "epsilon"}}
    kwargs["kind"] = KIND_ALIASES.get(kind, kind)
    return ScenarioConfig(**kwargs)


def _cmd_noise_strength(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.spec}: JSON is nested too deeply") from None
    config = _config_from_json(raw)
    sweep = config.sweep if "sweep" in raw else (1.0,)
    epsilon = raw.get("epsilon")
    ratio = None if epsilon is None else qubit3_strength_ratio(epsilon)
    n, _ = scenario_layout(config.scenario)
    # every point is computed, and checked, before anything is printed
    lines = []
    for x in sweep:
        gens = build_error_model(config.noise_spec(x), n)
        lines.append(f"kappa0={_fmt(x)} lambda={_fmt(noise_strength(gens))}")
        for gen, lam_mu in zip(gens, partial_strengths(gens)):
            weights = "(" + ",".join(_fmt(w) for w in gen.weights) + ")"
            lines.append(f"  {gen.label}: weights={weights} strength={_fmt(gen.strength)} lambda_mu={_fmt(lam_mu)}")
    if ratio is not None:
        lines.append(f"qubit-3 single/two-environment strength ratio (epsilon={_fmt(epsilon)}): {_fmt(ratio)}")
    for line in lines:
        print(line)
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    series = []
    for path in args.inputs:
        series.extend(load_csv_series(path))
    if not series:
        raise ValueError("no data series found in the input CSV file(s)")
    write_svg_chart(series, args.out)
    print(f"wrote {args.out} with {len(series)} series")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    curves: dict[str, list[float]] = {}
    for scenario in SCENARIOS:
        config = ScenarioConfig(scenario)
        result = run_scenario(config)
        fes = [p.report.Fe for p in result.points]
        curves[scenario] = fes
        dev = max(
            abs(p.report.Fe - analytic_reference(scenario, p.spec)) for p in result.points
        )
        ok = dev <= CHECK_TOL
        failures += not ok
        print(f"{scenario}: max |Fe - analytic| = {dev:.3e} {'OK' if ok else 'MISMATCH'}")
    dev = max(abs(a - b) for a, b in zip(curves["dfs_qec"], curves["qec_independent"]))
    ok = dev <= CHECK_TOL
    failures += not ok
    print(f"dfs_qec vs qec_independent: max |dFe| = {dev:.3e} {'OK' if ok else 'MISMATCH'}")
    if failures:
        print(f"check failed: {failures} mismatch(es)", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqec", description="concatenated passive+active dephasing-code simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run one scenario over a noise grid and write CSV")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--kind", default="sinc", choices=sorted(KIND_ALIASES))
    p.add_argument("--kappa0", required=True, help="grid as start:stop:step or comma list")
    p.add_argument("--ratio", type=float, default=0.5, help="kappa0/kappa_c (default 0.5)")
    p.add_argument("--case", default="a", choices=("a", "b"))
    p.add_argument("--purity", type=float, default=1.0, help="ancilla purity in [0, 1]")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analytic", help="print a closed-form curve as CSV on stdout")
    p.add_argument("--curve", required=True, choices=tuple(ANALYTIC_CURVES))
    p.add_argument("--kappa0", required=True, help="grid as start:stop:step or comma list")
    p.add_argument("--ratio", type=float, default=0.5, help="kappa0/kappa_c for qec-strong, > 0")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("noise-strength", help="print lambda and per-generator partial strengths")
    p.add_argument("--spec", required=True, help="JSON config mirroring the sweep fields")
    p.set_defaults(func=_cmd_noise_strength)

    p = sub.add_parser("chart", help="render sweep CSVs as a self-contained SVG")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("check", help="compare simulated curves against the closed forms")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
