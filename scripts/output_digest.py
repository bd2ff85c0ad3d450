#!/usr/bin/env python3
"""Print SHA-256 digests of dfsqec's outputs, so that two checkouts can
be compared with one command each.

Usage:
    PYTHONPATH=src python3 scripts/output_digest.py

The first line hashes the ``emit_csv`` bytes of 288 sweep configs, in a
fixed order: 4 scenarios x 2 noise kinds x 2 coupling cases x ancilla
purity {1, 0.7, 0} x ratio {0.5, 0.25, 1.7} x two grids
(``DEFAULT_SWEEP``, and 60 points from 0 in steps of 0.0137).  The
second hashes 24 ``pauli_transfer_matrix`` probes (4 scenarios x 2
kinds x 3 points), each cell rounded to 12 decimals as the benchmark's
channel-probe digest does.  The third hashes the stdout, stderr and exit
status of ``dfsqec noise-strength`` on 200 JSON configs: 4 scenarios x
2 kinds x 2 coupling cases x ratio {0.5, 0.25, 1.7} x epsilon {unset,
0, 0.3, 2.5}, each over a sweep from 0 to 1e100, plus eight inputs
that overflow or are out of range.  It then hashes ``noise_strength``
and ``partial_strengths`` (or their error) on 324 hand-built generator
sets.  In every error model the CLI builds, the environments' squared
jump diagonals peak on one shared basis state, so the two terms of
``noise_strength``, sum_mu max l_mu^2 and max sum_mu l_mu^2, are equal
there; the hand-built sets, such as weights (1, 1, 0) with (1, -1, 0),
peak on different states and tell the terms apart.  The fourth hashes
the ``emit_chart`` bytes of the four scenarios' ``DEFAULT_SWEEP`` sweeps,
one chart per noise kind: the figures ``scripts/run_sweeps.py`` draws.
"""
import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from dfsqec import ScenarioConfig, cli, emit_chart, emit_csv, run_scenario
from dfsqec.channels import COUPLING_CASES, NOISE_KINDS, DephasingGenerator, noise_strength, partial_strengths
from dfsqec.codes import SCENARIOS
from dfsqec.experiments import DEFAULT_SWEEP, pauli_transfer_matrix

GRIDS = (DEFAULT_SWEEP, tuple(0.0137 * k for k in range(60)))
PURITIES = (1.0, 0.7, 0.0)
RATIOS = (0.5, 0.25, 1.7)
# (coupling case, ratio, ancilla purity, kappa0) of each probe point
PROBE_POINTS = (("a", 0.5, 1.0, 0.8), ("b", 0.25, 0.7, 2.9), ("a", 1.7, 0.85, 5.3))
EPSILONS = (None, 0.0, 0.3, 2.5)  # None leaves the field out
NOISE_SWEEP = [0, 0.37, 1, 2.9, 6, 1e3, 1e100]
# inputs whose strengths, collective scale or epsilon squared overflow,
# or that are out of range
NOISE_EDGES = (
    {"sweep": [1, 1e308]},
    {"scenario": "dfs_qec", "sweep": [8e307]},
    {"scenario": "qec_hybrid", "ratio": 1e-300, "sweep": [1e10]},
    {"scenario": "qec_hybrid", "kind": "exp", "ratio": 1e-170, "sweep": [1]},
    {"epsilon": 1.3e154},
    {"epsilon": 1e200},
    {"epsilon": -1},
    {"sweep": []},
)
# per-qubit weights of the generators of each hand-built set on three
# qubits, each set taken with every assignment of GENERATOR_STRENGTHS;
# the second set's diagonals peak on shared states, the others' do not
GENERATOR_WEIGHTS = (
    ((1, 1, 0), (1, -1, 0)),
    ((1, 0, 0), (0, 1, 0)),
    ((1, 1, 1), (1, -1, 0), (0, 1, -1)),
    ((2, -1, 0.5), (-1, 1, 1)),
)
GENERATOR_STRENGTHS = (0.0, 0.3, 1.0, 2.5, 1e3, 1e307)


def csv_configs() -> list[ScenarioConfig]:
    """The sweep configs whose CSV bytes the first digest covers."""
    return [
        ScenarioConfig(scenario, kind=kind, sweep=grid, ratio=ratio, coupling_case=case, ancilla_purity=purity)
        for scenario, kind, case, purity, ratio, grid in itertools.product(
            SCENARIOS, NOISE_KINDS, COUPLING_CASES, PURITIES, RATIOS, GRIDS
        )
    ]


def probes() -> list[tuple[str, ScenarioConfig, float]]:
    """(scenario, config, kappa0) of each transfer-matrix probe."""
    return [
        (scenario, ScenarioConfig(scenario, kind=kind, ratio=ratio, coupling_case=case, ancilla_purity=purity), x)
        for scenario, kind, (case, ratio, purity, x) in itertools.product(SCENARIOS, NOISE_KINDS, PROBE_POINTS)
    ]


def noise_configs() -> list[dict]:
    """The JSON configs whose noise-strength output the third digest covers."""
    configs = []
    for scenario, kind, case, ratio, epsilon in itertools.product(
        SCENARIOS, NOISE_KINDS, COUPLING_CASES, RATIOS, EPSILONS
    ):
        raw = {"scenario": scenario, "kind": kind, "coupling_case": case, "ratio": ratio, "sweep": NOISE_SWEEP}
        configs.append(raw if epsilon is None else {**raw, "epsilon": epsilon})
    return configs + list(NOISE_EDGES)


def generator_sets() -> list[list[DephasingGenerator]]:
    """The hand-built generator sets whose strengths the third digest covers."""
    return [
        [DephasingGenerator(np.array(w, dtype=float), s) for w, s in zip(weights, strengths)]
        for weights in GENERATOR_WEIGHTS
        for strengths in itertools.product(GENERATOR_STRENGTHS, repeat=len(weights))
    ]


def csv_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        for config in csv_configs():
            emit_csv(run_scenario(config), path)
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ptm_digest() -> str:
    digest = hashlib.sha256()
    for scenario, config, x in probes():
        r = pauli_transfer_matrix(scenario, config.noise_spec(x), config.ancilla_purity)
        digest.update((",".join(f"{round(v, 12) + 0.0:.12f}" for v in r.ravel()) + "\n").encode())
    return digest.hexdigest()


def noise_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        for raw in noise_configs():
            path.write_text(json.dumps(raw), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(["noise-strength", "--spec", str(path)])
            digest.update(f"{out.getvalue()}\0{err.getvalue()}\0{status}\n".encode())
    for gens in generator_sets():
        try:
            text = f"{noise_strength(gens)!r} {partial_strengths(gens)!r}"
        except ValueError as exc:
            text = f"error: {exc}"
        digest.update(f"{text}\n".encode())
    return digest.hexdigest()


def svg_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fidelity.svg"
        for kind in NOISE_KINDS:
            emit_chart([run_scenario(ScenarioConfig(scenario, kind=kind)) for scenario in SCENARIOS], path)
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    print(f"csv_sha256 {csv_digest()}  ({len(csv_configs())} configs)")
    print(f"ptm_sha256 {ptm_digest()}  ({len(probes())} probes)")
    print(f"noise_sha256 {noise_digest()}  ({len(noise_configs())} configs, {len(generator_sets())} generator sets)")
    print(f"svg_sha256 {svg_digest()}  ({len(NOISE_KINDS)} charts)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
