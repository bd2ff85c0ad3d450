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
    # the child finds the package where this process did, installed or not
    src = str(Path(dfsqec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


def test_output_digest_covers_the_config_matrix():
    # the full digest run takes seconds, so only its inputs are checked here
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(set(tool.csv_configs())) == 288
    probes = tool.probes()
    assert len(probes) == 24 and len(set(probes)) == 24
