import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfsqec
from dfsqec.codes import SCENARIOS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("run_sweeps.py", [f"{s}_sinc.csv" for s in SCENARIOS] + ["fidelity_sinc.svg"]),
        ("hump_demo.py", ["hump_p0.9.csv", "hump_p0.7.csv", "hump_p0.5.csv", "hump.svg"]),
    ],
)
def test_script_writes_its_outputs(script, expected, tmp_path):
    proc = run_script(script, "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


@pytest.mark.parametrize("purities", ["1.0", "abc", "0.9,1.0"])
def test_hump_demo_bad_purities_are_one_error_line(purities, tmp_path):
    proc = run_script("hump_demo.py", "--out-dir", str(tmp_path / "out"), "--purities", purities)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("purities, entry", [("", "''"), ("0.9,abc", "'abc'")])
def test_hump_demo_names_the_option_and_the_bad_entry(purities, entry, tmp_path):
    proc = run_script("hump_demo.py", "--out-dir", str(tmp_path / "out"), "--purities", purities)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: argument --purities: not a number: {entry}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("run_sweeps.py", ["--kind", "bogus"], "error: argument --kind: invalid choice: 'bogus'"),
        ("hump_demo.py", ["--purity", "0.5"], "error: unrecognized arguments: --purity 0.5"),
    ],
)
def test_usage_error_is_one_error_line(script, args, message, tmp_path):
    proc = run_script(script, "--out-dir", str(tmp_path / "out"), *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_run_sweeps_unwritable_out_dir_is_one_error_line(tmp_path):
    (tmp_path / "file").write_text("")
    proc = run_script("run_sweeps.py", "--out-dir", str(tmp_path / "file" / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    # the child finds the package where this process did, installed or not,
    # and fails on any warning
    src = str(Path(dfsqec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / script), *args], capture_output=True, text=True, env=env
    )


def load_output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_covers_the_config_matrix():
    # the CSV digest run takes seconds, so only its inputs are checked here
    tool = load_output_digest()
    assert len(set(tool.csv_configs())) == 288
    probes = tool.probes()
    assert len(probes) == 24 and len(set(probes)) == 24
    # 4 scenarios x 2 kinds x 2 cases x 3 ratios x 4 epsilon settings, plus the edge inputs
    noise = [json.dumps(raw, sort_keys=True) for raw in tool.noise_configs()]
    assert len(noise) == 192 + len(tool.NOISE_EDGES) == 200 and len(set(noise)) == 200
    # 2 two-generator weight sets x 6^2 strengths, one with 6^3, one more with 6^2
    sets = tool.generator_sets()
    keys = {tuple((g.weights.tobytes(), g.strength) for g in gens) for gens in sets}
    assert len(sets) == len(keys) == 324
    # the two terms of noise_strength differ on some set, unlike on
    # every CLI error model
    split = 0
    for gens in sets:
        with np.errstate(over="ignore"):
            squares = [g.strength / 2.0 * g.z_values() ** 2 for g in gens]
        split += sum(sq.max() for sq in squares) != sum(squares).max()
    assert split > 100


def test_fast_output_digests_are_pinned():
    # the transfer-matrix, noise-strength and chart bytes, against the lines of
    # scripts/output_digest.expected (recorded with Python 3.11, numpy 2.4)
    tool = load_output_digest()
    expected = dict(line.split()[:2] for line in (SCRIPTS / "output_digest.expected").read_text().splitlines())
    assert tool.ptm_digest() == expected["ptm_sha256"]
    assert tool.noise_digest() == expected["noise_sha256"]
    assert tool.svg_digest() == expected["svg_sha256"]
