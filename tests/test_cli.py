import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfsqec
from dfsqec.cli import _JSON_FIELDS, main, parse_grid
from dfsqec.experiments import CSV_HEADER, ScenarioConfig
from dfsqec.metrics import analytic_fe_qec_independent, analytic_fe_qec_strong


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestParseGrid:
    def test_colon_form(self):
        assert parse_grid("0:2:0.5") == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_stop_is_inclusive_when_on_grid(self):
        assert parse_grid("0:12:0.5")[-1] == 12.0
        assert len(parse_grid("0:12:0.5")) == 25

    def test_comma_list_and_single_value(self):
        assert parse_grid("1,2,3.5") == (1.0, 2.0, 3.5)
        assert parse_grid("2.0") == (2.0,)

    def test_bad_forms(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_grid("0:1")
        with pytest.raises(ValueError, match="step"):
            parse_grid("0:1:-1")
        with pytest.raises(ValueError, match="empty"):
            parse_grid("5:1:1")


class TestSweep:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--scenario",
                "qec_independent",
                "--kind",
                "sinc",
                "--kappa0",
                "0:2:1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        fe = float(lines[-1].split(",")[9])
        assert fe == pytest.approx(analytic_fe_qec_independent(2.0), abs=1e-9)

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        hashes = set()
        for k, jobs in enumerate(("1", "1", "4")):
            out = tmp_path / f"d{k}.csv"
            rc = main(
                [
                    "sweep",
                    "--scenario",
                    "dfs_qec",
                    "--kappa0",
                    "0:3:0.5",
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            hashes.add(sha(out))
        assert len(hashes) == 1

    def test_config_error_is_one_line_nonzero(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--scenario", "no_qec", "--kappa0", "2,1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestAnalytic:
    def test_independent_curve(self, capsys):
        rc = main(["analytic", "--curve", "qec-independent", "--kappa0", "0:2:1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kappa0,Fe"
        assert float(lines[2].split(",")[1]) == pytest.approx(analytic_fe_qec_independent(1.0), rel=1e-10)

    def test_strong_curve_uses_ratio(self, capsys):
        rc = main(["analytic", "--curve", "qec-strong", "--kappa0", "2.0", "--ratio", "0.5"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[1]) == pytest.approx(analytic_fe_qec_strong(2.0, 6.0), rel=1e-10)

    def test_no_qec_curve(self, capsys):
        rc = main(["analytic", "--curve", "no-qec", "--kappa0", "1.0"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        s = math.sin(0.5) / 0.5
        assert float(line.split(",")[1]) == pytest.approx((2 * s + 2) / 4, rel=1e-10)


class TestNoiseStrength:
    def test_prints_lambda_and_partials(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"scenario": "qec_independent", "sweep": [1.0]}))
        rc = main(["noise-strength", "--spec", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kappa0=1 lambda=3" in out
        assert out.count("lambda_mu=1") == 3

    def test_epsilon_ratio_line(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"scenario": "qec_hybrid", "sweep": [1.0], "epsilon": 0.5}))
        rc = main(["noise-strength", "--spec", str(cfg)])
        assert rc == 0
        assert "ratio (epsilon=0.5): 1.8" in capsys.readouterr().out

    def test_defaults_to_unit_scale_without_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text("{}")
        rc = main(["noise-strength", "--spec", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("kappa0=1 ")

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"spam": 1}))
        rc = main(["noise-strength", "--spec", str(cfg)])
        assert rc == 1
        assert "unknown config field" in capsys.readouterr().err

    def test_json_fields_are_the_config_fields_plus_epsilon(self):
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(_JSON_FIELDS) == fields | {"epsilon"}

    def test_null_epsilon_means_no_epsilon(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"epsilon": None}))
        assert main(["noise-strength", "--spec", str(cfg)]) == 0
        assert "epsilon" not in capsys.readouterr().out

    def test_missing_file(self, capsys):
        rc = main(["noise-strength", "--spec", "/nonexistent.json"])
        assert rc == 1

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(["noise-strength", "--spec", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "nested too deeply" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestChart:
    def test_chart_from_two_csvs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--scenario", "qec_independent", "--kappa0", "0:2:1", "--out", str(a)])
        main(["sweep", "--scenario", "no_qec", "--kappa0", "0:2:1", "--out", str(b)])
        out = tmp_path / "chart.svg"
        rc = main(["chart", "--in", str(a), str(b), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count('class="legend-label"') == 2
        assert text.count('class="pt pt-qec_independent"') == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "qec_independent", "--kappa0", "inf"],
        ["sweep", "--scenario", "qec_hybrid", "--kappa0", "1e308:1.7e308:1e307"],
        ["sweep", "--scenario", "no_qec", "--kappa0", "1", "--ratio", "inf"],
        ["sweep", "--scenario", "no_qec", "--kappa0", "0:1:nan"],
        ["sweep", "--scenario", "qec_independent", "--kappa0", "1e308"],
        ["sweep", "--scenario", "dfs_qec", "--kappa0", "8e307"],
        ["analytic", "--curve", "qec-strong", "--kappa0", "1", "--ratio", "0"],
        ["analytic", "--curve", "qec-strong", "--kappa0", "1", "--ratio", "inf"],
        ["analytic", "--curve", "no-qec", "--kappa0", "0:1e9:1e-9"],
        ["noise-strength", "--spec", '{"ratio": "x"}'],
        ["noise-strength", "--spec", '{"sweep": 5}'],
        ["noise-strength", "--spec", '{"kind": ["x"]}'],
        ["noise-strength", "--spec", '{"epsilon": "a"}'],
        ["noise-strength", "--spec", '{"ancilla_purity": null}'],
        ["noise-strength", "--spec", "[1, 2]"],
        ["noise-strength", "--spec", '{"sweep": [1, true]}'],
        ["noise-strength", "--spec", '{"ratio": 1' + "0" * 400 + "}"],
        ["noise-strength", "--spec", '{"sweep": [1e308]}'],
        ["noise-strength", "--spec", '{"sweep": [1, 1e308]}'],
        ["noise-strength", "--spec", '{"epsilon": 1e999}'],
        ["noise-strength", "--spec", '{"epsilon": -1}'],
        ["noise-strength", "--spec", '{"scenario": "qec_hybrid", "epsilon": 1e200, "sweep": [1.0]}'],
        ["chart", "--in", "scenario,kappa0,Fe\nno_qec,0,1\n"],
        ["chart", "--in", CSV_HEADER + "\nno_qec,incoherent_sinc,a,nan,0.5,1,1,1,1,1,1,1,1,1,1\n"],
        ["chart", "--in", CSV_HEADER + "\nno_qec,incoherent_sinc,a,0,0.5,1,1,1,1,nan,1,1,1,1,1\n"],
    ],
)
def test_bad_input_is_one_error_line_and_no_output(argv, tmp_path, capsys):
    out = tmp_path / ("x.svg" if argv[0] == "chart" else "x.csv")
    # the value after --spec or --in is the text of that input file
    argv = list(argv)
    text = ""
    for flag in ("--spec", "--in"):
        if flag in argv:
            i = argv.index(flag) + 1
            text = argv[i]
            (tmp_path / "input").write_text(text)
            argv[i] = str(tmp_path / "input")
    if argv[0] in ("sweep", "chart"):
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    if '"epsilon"' in text:
        assert "epsilon" in captured.err


def test_check_passes():
    assert main(["check"]) == 0


def test_module_entry_point():
    # the child finds the package where this process did, installed or not
    src = str(Path(dfsqec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dfsqec", "analytic", "--curve", "no-qec", "--kappa0", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "0,1"
