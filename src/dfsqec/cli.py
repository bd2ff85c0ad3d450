"""Command-line harness for the scenario sweeps.

Subcommands:

* ``sweep``           run one scenario over a noise-strength grid, write CSV
* ``analytic``        print a closed-form reference curve as CSV on stdout
* ``noise-strength``  print the overall and per-environment noise strengths
* ``chart``           render sweep CSVs into a self-contained SVG
* ``check``           verify the simulated curves against the closed forms
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Sequence

from .channels import (
    COUPLING_CASES,
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    error_model_strengths,
    noise_layout,
    qubit3_strength_ratio,
)
from .codes import SCENARIOS
from .experiments import (
    ScenarioConfig,
    emit_csv,
    format_number,
    load_csv_series,
    run_scenario,
    write_svg_chart,
)
from .metrics import analytic_curve

KIND_ALIASES = {"sinc": INCOHERENT_SINC, "exp": MARKOVIAN_EXP}

CHECK_TOL = 1e-9

# largest number of points a start:stop:step grid may expand to
MAX_GRID_POINTS = 100_000

ANALYTIC_CURVES = {"qec-independent": "qec_independent", "qec-strong": "qec_hybrid", "no-qec": "no_qec"}


class OptionValueError(argparse.ArgumentTypeError, ValueError):
    """A ValueError that argparse, when an option's ``type`` raises it, reports after the option's name."""


def number_list(text: str, sep: str = ",") -> tuple[float, ...]:
    """The numbers of a ``sep``-separated list, -0 read as 0; a bad entry is named."""
    values = []
    for entry in text.split(sep):
        try:
            values.append(float(entry) + 0.0)
        except ValueError:
            raise OptionValueError(f"not a number: {entry!r}") from None
    return tuple(values)


def positive_int(text: str) -> int:
    """An integer >= 1; anything else is named."""
    try:
        value = int(text)
    except ValueError:
        raise OptionValueError(f"not an integer: {text!r}") from None
    if value < 1:
        raise OptionValueError(f"must be >= 1, got {value}")
    return value


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step``, a comma list, or a single value.

    A ``start:stop:step`` grid is ``start + k * step`` for ``k < n``,
    with ``n = floor((stop - start) / step + 1e-9) + 1``: a point less
    than a billionth of a step past ``stop`` is on the grid.  The count
    is checked against ``MAX_GRID_POINTS`` before any value is built.
    """
    if ":" not in text:
        return number_list(text)
    bounds = number_list(text, ":")
    if len(bounds) != 3:
        raise OptionValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = bounds
    if not all(math.isfinite(v) for v in bounds):
        raise OptionValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise OptionValueError(f"grid step must be > 0, got {step}")
    last = (stop - start) / step + 1e-9  # the last k before the floor; +-inf on overflow
    if last >= MAX_GRID_POINTS:
        raise OptionValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    if last < 0:
        raise OptionValueError(f"grid {text!r} is empty")
    return tuple(start + k * step for k in range(math.floor(last) + 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        scenario=args.scenario,
        kind=KIND_ALIASES[args.kind],
        sweep=args.kappa0,
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
    specs = [config.noise_spec(x) for x in args.kappa0]  # each point checked
    fes = analytic_curve(config.scenario, specs)
    print("kappa0,Fe")
    for spec, fe in zip(specs, fes.tolist()):
        print(f"{format_number(spec.kappa0)},{format_number(fe)}")
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
    takes the CLI aliases, and ``sweep`` defaults to one point, 1.0."""
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
    kwargs = {"scenario": "qec_independent", "sweep": [1.0], **{k: v for k, v in raw.items() if k != "epsilon"}}
    kwargs["kind"] = KIND_ALIASES.get(kind, kind)
    return ScenarioConfig(**kwargs)


def _cmd_noise_strength(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.spec}: JSON is nested too deeply") from None
    config = _config_from_json(raw)
    if not config.sweep:
        raise ValueError("config field 'sweep' is empty")
    epsilon = raw.get("epsilon")
    ratio = None if epsilon is None else qubit3_strength_ratio(epsilon)
    # every point is computed, and checked, before anything is printed
    lines = []
    for x in config.sweep:
        spec = config.noise_spec(x)
        total, partials = error_model_strengths(spec)
        lines.append(f"kappa0={format_number(x)} lambda={format_number(total)}")
        for env, lam_mu in zip(noise_layout(spec), partials):
            parts = [(label, "(" + ",".join(map(format_number, w)) + ")", format_number(s)) for _, s, label, w in env]
            label, weights, strength = ("+".join(column) for column in zip(*parts))
            lines.append(f"  {label}: weights={weights} strength={strength} lambda_mu={format_number(lam_mu)}")
    if ratio is not None:
        eps = format_number(epsilon)
        lines.append(f"qubit-3 single/two-environment strength ratio (epsilon={eps}): {format_number(ratio)}")
    for line in lines:
        print(line)
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    series = []
    for path in args.inputs:
        series.extend(load_csv_series(path))
    write_svg_chart(series, args.out)
    print(f"wrote {args.out} with {len(series)} series")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    rows = []  # (label, deviation) of every sweep, all run before printing
    for (alias, kind), case in itertools.product(KIND_ALIASES.items(), COUPLING_CASES):
        runs = {s: run_scenario(ScenarioConfig(s, kind=kind, coupling_case=case)).points for s in SCENARIOS}
        for scenario, points in runs.items():
            dev = max(abs(p.report.Fe - p.report.Fe_analytic) for p in points)
            rows.append((f"{scenario} {alias} case {case}: max |Fe - analytic|", dev))
        dev = max(abs(p.report.Fe - q.report.Fe) for p, q in zip(runs["dfs_qec"], runs["qec_independent"]))
        rows.append((f"dfs_qec vs qec_independent {alias} case {case}: max |dFe|", dev))
    for label, dev in rows:
        print(f"{label} = {dev:.3e} {'OK' if dev <= CHECK_TOL else 'MISMATCH'}")
    failures = sum(not dev <= CHECK_TOL for _, dev in rows)
    if failures:
        print(f"check failed: {failures} mismatch(es)", file=sys.stderr)
        return 1
    return 0


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, so a bad
    command line is one ``error:`` line and exit 1 like any bad input;
    ``--help`` still prints and exits 0."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="dfsqec", description="concatenated passive+active dephasing-code simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid = dict(required=True, type=lambda text: parse_grid(text), help="grid as start:stop:step or comma list")

    p = sub.add_parser("sweep", help="run one scenario over a noise grid and write CSV")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--kind", default="sinc", choices=sorted(KIND_ALIASES))
    p.add_argument("--kappa0", **grid)
    p.add_argument("--ratio", type=float, default=0.5, help="kappa0/kappa_c (default 0.5)")
    p.add_argument("--case", default="a", choices=COUPLING_CASES)
    p.add_argument("--purity", type=float, default=1.0, help="ancilla purity in [0, 1]")
    p.add_argument("--jobs", type=positive_int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analytic", help="print a closed-form curve as CSV on stdout")
    p.add_argument("--curve", required=True, choices=tuple(ANALYTIC_CURVES))
    p.add_argument("--kappa0", **grid)
    p.add_argument("--ratio", type=float, default=0.5, help="kappa0/kappa_c for qec-strong, > 0")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("noise-strength", help="print lambda and per-environment partial strengths")
    p.add_argument("--spec", required=True, help="JSON config mirroring the sweep fields")
    p.set_defaults(func=_cmd_noise_strength)

    p = sub.add_parser("chart", help="render sweep CSVs as a self-contained SVG")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("check", help="compare simulated curves against the closed forms")
    p.set_defaults(func=_cmd_check)

    return parser


def run_command(parser: argparse.ArgumentParser, argv: Sequence[str] | None = None) -> int:
    """The one input-error boundary of ``dfsqec`` and the scripts: run the
    command (``func``) that ``parser`` reads from ``argv`` (default
    sys.argv[1:]).  A usage error of an ``ArgumentParser``, a bad value or
    an unwritable path is one ``error:`` line on stderr and exit 1."""
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_PARSER = build_parser()  # once; its grid options call parse_grid by name, so a wrapper of it sees every grid


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(_PARSER, argv)


if __name__ == "__main__":
    sys.exit(main())
