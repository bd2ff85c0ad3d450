import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


@pytest.mark.parametrize("purities", ["1.0", "abc", "0.9,1.0"])
def test_hump_demo_bad_purities_are_one_error_line(purities, tmp_path):
    proc = run_script("hump_demo.py", "--out-dir", str(tmp_path / "out"), "--purities", purities)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    # the child finds the package where this process did, installed or not
    src = str(Path(dfsqec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env
    )


def test_output_digest_covers_the_config_matrix():
    # the full digest run takes seconds, so only its inputs are checked here
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(set(tool.csv_configs())) == 288
    probes = tool.probes()
    assert len(probes) == 24 and len(set(probes)) == 24
