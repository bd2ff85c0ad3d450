import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dfsqec
from dfsqec.channels import COUPLING_CASES, NOISE_KINDS, NoiseSpec, noise_layout
from dfsqec.cli import _JSON_FIELDS, KIND_ALIASES, MAX_GRID_POINTS, main, parse_grid
from dfsqec.codes import SCENARIOS
from dfsqec.experiments import CSV_HEADER, ScenarioConfig, _in_chart_domain, emit_csv, format_number, run_scenario
from dfsqec.metrics import analytic_fe_qec_independent, analytic_fe_qec_strong


# log-uniform over the positive floats, from 5e-324 to 1.8e308
LOG_UNIFORM = st.floats(-323.3, 308.25).map(lambda e: 10.0**e)


def exact_strengths(kappa0: float, ratio: float, kind: str, case: str) -> tuple[Decimal, list[Decimal]]:
    """(lambda, [lambda_mu of each environment]) of a collective spec,
    from its parts' amplitudes in 50-digit decimal arithmetic on the
    exact inputs: case "a" (kappa0, kappa0, 2 (2 a_c + a_r)^2), case "b"
    (kappa0, kappa0, 4 kappa_c, kappa0)."""
    with localcontext() as ctx:
        ctx.prec = 50
        k, r = Decimal(kappa0), Decimal(ratio)
        k_c = k / r if kind == "sinc" else k / (r * r)
        if case == "b":
            partials = [k, k, 4 * k_c, k]
        else:
            a_c, a_r = (k_c / 2).sqrt(), (k * r / 2 if kind == "sinc" else k / 2).sqrt()
            partials = [k, k, 2 * (2 * a_c + a_r) ** 2]
        # every l_mu peaks on |0000>, so lambda = sum_mu max l_mu^2 + max sum_mu l_mu^2 = sum lambda_mu
        return sum(partials), partials


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
        assert math.copysign(1.0, parse_grid("-0")[0]) == 1.0

    def test_bad_forms(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_grid("0:1")
        with pytest.raises(ValueError, match="step"):
            parse_grid("0:1:-1")
        with pytest.raises(ValueError, match="empty"):
            parse_grid("5:1:1")
        with pytest.raises(ValueError, match="not a number: '2,3'"):
            parse_grid("1:2,3")

    @pytest.mark.parametrize(
        "text, n",
        [("0:1e-9:1e-10", 11), ("0:1e-12:1e-13", 11), ("0:1e-13:1e-14", 11), ("5e-324:1e-323:5e-324", 2)],
    )
    def test_one_count_sizes_a_small_step_grid(self, text, n):
        start, _, step = map(float, text.split(":"))
        assert parse_grid(text) == tuple(start + k * step for k in range(n))

    def test_point_within_a_billionth_of_a_step_past_stop_is_on_the_grid(self):
        assert parse_grid("0:0.9999999999:0.5") == (0.0, 0.5, 1.0)
        assert parse_grid("0:0.999999:0.5") == (0.0, 0.5)

    @pytest.mark.parametrize("span", [12.0, 5.0])
    def test_benchmark_long_sweep_form_gives_exact_points(self, span):
        # a 1000-point grid written as start:stop:step with stop = start + 999 * step
        rng = random.Random(1234)
        step = span / 1000
        for _ in range(200):
            start = rng.uniform(0.0, step)
            stop = start + 999 * step
            assert parse_grid(f"{start!r}:{stop!r}:{step!r}") == tuple(start + k * step for k in range(1000))

    def test_grid_size_limit(self):
        assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        # each count is rejected without building a value: 1e300 points,
        # and a span that overflows to inf
        for text in (f"0:{MAX_GRID_POINTS}:1", "0:1:1e-300", "-1e308:1e308:1"):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                parse_grid(text)
        with pytest.raises(ValueError, match="empty"):
            parse_grid("1e308:-1e308:1")


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

    def test_long_sweeps_have_their_recorded_digests(self, tmp_path):
        # scripts/long_sweeps.sha256, which CI checks with sha256sum -c: each
        # "# dfsqec sweep ..." comment is the sweep that writes the next file
        lines = (Path(__file__).resolve().parents[1] / "scripts" / "long_sweeps.sha256").read_text().splitlines()
        sweeps = [line.split()[2:] for line in lines if line.startswith("# dfsqec ")]
        digests = [line.split() for line in lines if not line.startswith("#")]
        assert len(sweeps) == len(digests) == 3
        for argv, (digest, name) in zip(sweeps, digests):
            assert argv[-2:] == ["--out", name]
            assert main(argv[:-1] + [str(tmp_path / name)]) == 0
            assert sha(tmp_path / name) == digest

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

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        argv = ["sweep", "--scenario", "qec_independent", "--kappa0=-0", "--ratio=-0", "--purity=-0"]
        assert main(argv + ["--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3:6] == ["0", "0", "0"]

    def test_polarization_at_kappa0_1e308_is_not_negative(self, tmp_path):
        # the y and z outputs keep entries of order 1e-17 that are
        # Hermitian only within rounding; Py and Pz sum their squared
        # moduli, so they print as tiny positive numbers
        out = tmp_path / "x.csv"
        assert main(["sweep", "--scenario", "qec_independent", "--kappa0", "1e308", "--out", str(out)]) == 0
        row = "qec_independent,incoherent_sinc,a,1e+308,0.5,1,1,0,0,0.5,0.5,1,5.57706020744e-34,5.57706020744e-34,0.333333333333"
        assert out.read_text().splitlines()[1] == row

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

    def test_negative_zero_is_printed_as_zero(self, capsys):
        assert main(["analytic", "--curve", "no-qec", "--kappa0=-0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,1"


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

    def test_readme_example_prints_what_the_readme_shows(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        spec, printed = re.search(
            r"`noise-strength` reads a JSON document.*?```json\n(.*?)```.*?The example above prints\n\n```\n(.*?)```",
            readme,
            re.S,
        ).groups()
        cfg = tmp_path / "spec.json"
        cfg.write_text(spec)
        assert main(["noise-strength", "--spec", str(cfg)]) == 0
        assert capsys.readouterr().out == printed

    def test_json_fields_are_the_config_fields_plus_epsilon(self):
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(_JSON_FIELDS) == fields | {"epsilon"}

    def test_null_epsilon_means_no_epsilon(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"epsilon": None}))
        assert main(["noise-strength", "--spec", str(cfg)]) == 0
        assert "epsilon" not in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", [0.5, 1e170])
    @pytest.mark.parametrize("case", COUPLING_CASES)
    @pytest.mark.parametrize("kind", ["sinc", "exp"])
    @pytest.mark.parametrize("scenario", ["qec_independent", "qec_hybrid"])
    def test_printed_lines_are_the_layout(self, scenario, kind, case, ratio, tmp_path, capsys):
        # one line per environment of noise_layout(spec), its parts' labels,
        # weights and scales joined by "+", at every kappa0: at ratio 1e170
        # the collective scale is 0 below kappa0 = 1e100 (exp) or 1e-320 (sinc)
        raw = {"scenario": scenario, "kind": kind, "coupling_case": case, "ratio": ratio}
        sweep = [0, 5e-324, 1e-320, 0.37, 6, 1e100]
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({**raw, "sweep": sweep}))
        assert main(["noise-strength", "--spec", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        config = ScenarioConfig(**{**raw, "kind": KIND_ALIASES[kind]})
        labels = set()
        for x in sweep:
            layout = noise_layout(config.noise_spec(x))
            assert lines.pop(0).startswith(f"kappa0={format_number(x)} lambda=")
            for env in layout:
                line = re.fullmatch(r"  (\S+): weights=(\S+) strength=(\S+) lambda_mu=\S+", lines.pop(0))
                label, weights, strengths = line.groups()
                assert label.split("+") == [part[2] for part in env]
                assert weights == "+".join("(" + ",".join(format_number(w) for w in part[3]) + ")" for part in env)
                assert re.split(r"(?<!e)\+", strengths) == [format_number(part[1]) for part in env]
                labels.add(label)
        assert lines == []
        assert len(labels) == len(layout)  # the same labels at every kappa0

    @pytest.mark.parametrize("case", COUPLING_CASES)
    @pytest.mark.parametrize("kind", ["sinc", "exp"])
    @settings(max_examples=100, deadline=None)
    @given(kappa0=LOG_UNIFORM, ratio=LOG_UNIFORM)
    @example(kappa0=6.0, ratio=1e160)  # exp: the collective scale 6e-320 is subnormal
    @example(kappa0=1e-300, ratio=1e100)  # sinc: the collective scale underflows to 0
    @example(kappa0=5.4e-323, ratio=1e15)  # sinc: sqrt(kappa0 / 2) would halve a subnormal
    @example(kappa0=0.0, ratio=1e-320)  # exp: 1 / ratio overflows; every strength is 0
    def test_strengths_are_the_exact_amplitudes(self, kind, case, kappa0, ratio, tmp_path_factory):
        try:
            NoiseSpec(kappa0, True, ratio, case, KIND_ALIASES[kind])
        except ValueError:
            assume(False)
        lam, partials = exact_strengths(kappa0, ratio, kind, case)
        assume(lam == 0 or Decimal(sys.float_info.min) <= lam <= Decimal(sys.float_info.max))
        cfg = tmp_path_factory.getbasetemp() / f"collective-{kind}-{case}.json"
        raw = {"scenario": "qec_hybrid", "kind": kind, "coupling_case": case, "ratio": ratio, "sweep": [kappa0]}
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["noise-strength", "--spec", str(cfg)]) == 0
        head, *lines = out.getvalue().splitlines()
        assert len(lines) == len(partials)
        printed = [head.rpartition(" lambda=")[2]] + [line.rpartition(" lambda_mu=")[2] for line in lines]
        # relative to the exact value, or a few units of 5e-324 where a partial is subnormal
        for got, want in zip(map(Decimal, printed), [lam] + partials):
            assert abs(got - want) <= want * Decimal("1e-11") + Decimal("2e-323"), (got, want)

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
        "data, line",
        [(b"\xff\xfe", 1), (b"scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\r\nA,1,\xff,1\n", 3)],
    )
    def test_non_utf8_input_names_its_file_and_line(self, data, line, tmp_path, capsys):
        src, out = tmp_path / "bad.csv", tmp_path / "chart.svg"
        src.write_bytes(data)
        assert main(["chart", "--in", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {src}, line {line}: 'utf-8' codec can't decode byte 0xff")
        assert len(captured.err.strip().splitlines()) == 1

    def test_scenario_that_xml_forbids_names_its_file_and_line(self, tmp_path, capsys):
        src, out = tmp_path / "bad.csv", tmp_path / "chart.svg"
        src.write_text("scenario,kappa0,Fe,Fe_analytic\nno\x01qec,0,1,1\n")
        assert main(["chart", "--in", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {src}, line 2: scenario 'no\\x01qec' has a character that XML 1.0 forbids\n"

    def test_zero_noise_rows_are_inside_the_domain(self, tmp_path):
        # Fe is 1 up to rounding at kappa0 = 0; it is not above 1 only
        # because the table Hadamard's h = fl(1/sqrt 2) rounds down.  The
        # values are checked before the CSV's 12 digits round them, as
        # emit_chart charts them unrounded
        inputs = []
        for scenario, kind, case, purity in itertools.product(SCENARIOS, NOISE_KINDS, COUPLING_CASES, (0, 0.3, 0.7, 1)):
            config = ScenarioConfig(scenario, kind=kind, sweep=(0.0,), coupling_case=case, ancilla_purity=purity)
            result = run_scenario(config)
            (point,) = result.points
            assert _in_chart_domain(0.0, point.report.Fe), (config, point.report.Fe)
            assert _in_chart_domain(0.0, point.report.Fe_analytic), (config, point.report.Fe_analytic)
            inputs.append(tmp_path / f"{len(inputs)}.csv")
            emit_csv(result, inputs[-1])
        assert len(inputs) == 64
        assert main(["chart", "--in", *map(str, inputs), "--out", str(tmp_path / "chart.svg")]) == 0

    def test_label_is_escaped(self, tmp_path):
        label = 'A&B <x> "q"'
        src = tmp_path / "odd.csv"
        src.write_text('scenario,kappa0,Fe,Fe_analytic\n"A&B <x> ""q""",0,1,1\n')
        out = tmp_path / "chart.svg"
        assert main(["chart", "--in", str(src), "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        legend = [t for t in root.iter("{http://www.w3.org/2000/svg}text") if t.get("class") == "legend-label"]
        assert [t.text for t in legend] == [label]
        circles = root.iter("{http://www.w3.org/2000/svg}circle")
        assert [c.get("class") for c in circles] == ['pt pt-A&B_<x>_"q"']

    def test_label_with_whitespace_is_one_class_token(self, tmp_path):
        src = tmp_path / "spaced.csv"
        src.write_text("scenario,kappa0,Fe,Fe_analytic\nx pt,0,1,1\nx pt,1,0.9,0.9\n")
        out = tmp_path / "chart.svg"
        assert main(["chart", "--in", str(src), "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        circles = list(root.iter("{http://www.w3.org/2000/svg}circle"))
        assert len(circles) == 2
        for c in circles:
            assert c.get("class").split() == ["pt", "pt-x_pt"]
        (curve,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert curve.get("class").split() == ["curve", "curve-x_pt"]
        legend = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if t.get("class") == "legend-label"]
        assert legend == ["x pt"]


# chart inputs that fail, each with the place its error names: the file,
# and the line of the first bad row
BAD_CHART_CSVS = {
    "scenario,kappa0,Fe\nno_qec,0,1\n": "input: missing column",
    CSV_HEADER + "\nno_qec,incoherent_sinc,a,nan,0.5,1,1,1,1,1,1,1,1,1,1\n": "input, line 2: ",
    CSV_HEADER + "\nno_qec,incoherent_sinc,a,0,0.5,1,1,1,1,nan,1,1,1,1,1\n": "input, line 2: ",
    # the SVG's y ticks run from the lowest Fe up in steps of 0.1, and
    # its x scale divides by the kappa0 span: such rows hang or give nan
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,1,-2000,1\n": "input, line 3: ",
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,1,-1e17,1\n": "input, line 3: ",
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,1,1.5,1\n": "input, line 3: ",
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,1,1,-0.5\n": "input, line 3: ",
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,-1,1,1\n": "input, line 3: ",
    "scenario,kappa0,Fe,Fe_analytic\nA,-1e308,1,1\nA,1e308,1,1\n": "input, line 2: ",
    # a control character that no XML 1.0 document may hold, in a chart label
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nno\x01qec,1,1,1\n": "input, line 3: ",
    # a cell past the csv module's field size limit, 131072 characters
    "scenario,kappa0,Fe,Fe_analytic\nA,0,1,1\nA,1," + "1" * 131073 + ",1\n": "input, line 3: ",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "qec_independent", "--kappa0", "inf"],
        ["sweep", "--scenario", "qec_hybrid", "--kappa0", "1e308:1.7e308:1e307"],
        ["sweep", "--scenario", "no_qec", "--kappa0", "1", "--ratio", "inf"],
        ["sweep", "--scenario", "no_qec", "--kappa0", "0:1:nan"],
        ["sweep", "--scenario", "qec_hybrid", "--kappa0", "1.5e308", "--ratio", "1"],
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
        # case "a" whose collective scale is subnormal and whose strength overflows
        ["noise-strength", "--spec", '{"scenario": "qec_hybrid", "ratio": 1.7e308, "sweep": [3]}'],
        ["noise-strength", "--spec", '{"sweep": []}'],
        ["noise-strength", "--spec", '{"epsilon": 1e999}'],
        ["noise-strength", "--spec", '{"epsilon": -1}'],
        ["noise-strength", "--spec", '{"scenario": "qec_hybrid", "epsilon": 1e200, "sweep": [1.0]}'],
    ]
    + [["chart", "--in", text] for text in BAD_CHART_CSVS],
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
    if argv[0] == "chart":
        assert f"error: {tmp_path / BAD_CHART_CSVS[text]}" in captured.err


# one-point sweeps at the edges of the kappa0 and ratio ranges
EDGE_KAPPA0 = ("0", "1", "1e300", "1e308", "1.7e308")
EDGE_RATIO = ("1e-320", "0.5", "1", "1e300", "1.7e308")


@pytest.mark.parametrize("ratio", EDGE_RATIO)
@pytest.mark.parametrize("kappa0", EDGE_KAPPA0)
@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("kind", ["sinc", "exp"])
@pytest.mark.parametrize("scenario", ["qec_hybrid", "dfs_qec"])
def test_edge_grid_sweep_succeeds_or_is_one_error_line(scenario, kind, case, kappa0, ratio, tmp_path, capsys):
    # warnings are errors here, so a RuntimeWarning fails the call
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", scenario, "--kind", kind, "--case", case]
    rc = main(argv + ["--kappa0", kappa0, "--ratio", ratio, "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 0:
        assert err == "" and len(out.read_text().splitlines()) == 2
    else:
        assert rc == 1 and err.startswith("error:") and len(err.splitlines()) == 1


def test_analytic_at_the_overflow_edge_is_finite(capsys):
    # warnings are errors here; kappa0 + kappa_c overflows, its half does not
    assert main(["analytic", "--curve", "qec-strong", "--kappa0", "1e308", "--ratio", "1"]) == 0
    kappa0, fe = capsys.readouterr().out.splitlines()[1].split(",")
    assert kappa0 == "1e+308" and math.isfinite(float(fe))


@pytest.mark.parametrize("scenario", ["qec_hybrid", "dfs_qec"])
def test_exp_sweep_accepts_a_ratio_whose_square_overflows(scenario, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", scenario, "--kind", "exp", "--kappa0", "0", "--ratio", "1e300"]
    assert main(argv + ["--out", str(out)]) == 0


def test_check_passes_on_every_kind_and_case(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20 and all(line.endswith(" OK") for line in lines)
    pairs = [line.split(":")[0] for line in lines if line.startswith("dfs_qec vs qec_independent")]
    assert pairs == [f"dfs_qec vs qec_independent {k} case {c}" for k in ("sinc", "exp") for c in "ab"]


def _no_qec_fe_off_by(delta, run):
    """run_scenario, with the first no_qec point's Fe moved by delta."""

    def wrapped(config, jobs=1):
        result = run(config, jobs)
        if config.scenario != "no_qec":
            return result
        first = result.points[0]
        report = dataclasses.replace(first.report, Fe=first.report.Fe + delta)
        return dataclasses.replace(result, points=(dataclasses.replace(first, report=report),) + result.points[1:])

    return wrapped


@pytest.mark.parametrize(
    "argv, message",
    [
        # a header-only CSV holds no series
        (["chart", "--in", "{header}", "--out", "{out}"], "error: need at least one series"),
        # no_qec runs once per kind and case, each run with one bad point
        (["check"], "check failed: 4 mismatch(es)"),
        # usage errors: one line, not argparse's usage block and exit 2
        (
            ["sweep", "--scenario", "no_qec", "--kappa0", "1", "--ratio", "x", "--out", "{out}"],
            "error: argument --ratio: invalid float value: 'x'",
        ),
        (
            ["sweep", "--scenario", "five_qubit", "--kappa0", "1", "--out", "{out}"],
            "error: argument --scenario: invalid choice: 'five_qubit' (choose from ",
        ),
        (["sweep", "--scenario", "no_qec", "--kappa0", "1"], "error: the following arguments are required: --out"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from "),
        # a bad grid entry is named after its option
        (
            ["sweep", "--scenario", "no_qec", "--kappa0", "0,,1", "--out", "{out}"],
            "error: argument --kappa0: not a number: ''",
        ),
        (
            ["sweep", "--scenario", "no_qec", "--kappa0", "1:2:x", "--out", "{out}"],
            "error: argument --kappa0: not a number: 'x'",
        ),
        (["analytic", "--curve", "no-qec", "--kappa0", "0,abc"], "error: argument --kappa0: not a number: 'abc'"),
        (["analytic", "--curve", "no-qec", "--kappa0", "0:1"], "error: argument --kappa0: grid must be start:stop:step, got '0:1'"),
        # --jobs has no effect, but it must still be a positive integer
        (["sweep", "--scenario", "no_qec", "--kappa0", "1", "--jobs", "0", "--out", "{out}"], "error: argument --jobs: must be >= 1, got 0"),
        (["sweep", "--scenario", "no_qec", "--kappa0", "1", "--jobs", "-3", "--out", "{out}"], "error: argument --jobs: must be >= 1, got -3"),
        (["sweep", "--scenario", "no_qec", "--kappa0", "1", "--jobs", "2.5", "--out", "{out}"], "error: argument --jobs: not an integer: '2.5'"),
    ],
    ids=[
        "chart",
        "check",
        "ratio-x",
        "unknown-scenario",
        "missing-out",
        "unknown-subcommand",
        "sweep-empty-entry",
        "sweep-grid-step-x",
        "analytic-entry-abc",
        "analytic-two-part-grid",
        "jobs-0",
        "jobs-negative",
        "jobs-not-an-integer",
    ],
)
def test_failure_is_exit_1_and_its_message(argv, message, tmp_path, monkeypatch, capsys):
    out, header = tmp_path / "x.svg", tmp_path / "header.csv"
    header.write_text(CSV_HEADER + "\n")
    argv = [a.format(out=out, header=header) for a in argv]
    monkeypatch.setattr(dfsqec.cli, "run_scenario", _no_qec_fe_off_by(1e-6, dfsqec.cli.run_scenario))
    assert main(argv) == 1
    # a choice error ends with the list of choices, spelled by the Python version
    err = capsys.readouterr().err
    assert err == message + "\n" or (message.endswith("(choose from ") and err.startswith(message))
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dfsqec")


def test_readme_command_block_runs_line_by_line(tmp_path, monkeypatch):
    # every dfsqec line of README's command block, in order, in a directory
    # holding README's JSON example as config.json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "config.json").write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["dfsqec"]]
    assert {argv[1] for argv in commands} == {"sweep", "analytic", "noise-strength", "chart", "check"}
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(dfsqec.cli, "build_parser", rebuild)
    assert main(["analytic", "--curve", "no-qec", "--kappa0", "1"]) == 0
    assert capsys.readouterr().out.startswith("kappa0,Fe\n1,")


def test_grid_options_call_parse_grid_by_name(monkeypatch):
    # so a wrapper bound in its place, such as the benchmark's tracer, sees every grid
    grids = []
    monkeypatch.setattr(dfsqec.cli, "parse_grid", lambda text: grids.append(text) or parse_grid(text))
    assert main(["analytic", "--curve", "no-qec", "--kappa0", "0:1:0.5"]) == 0
    assert grids == ["0:1:0.5"]


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
