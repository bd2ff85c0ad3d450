import hashlib

import numpy as np
import pytest

from dfsqec import experiments, qstate
from dfsqec.channels import NoiseSpec
from dfsqec.experiments import (
    CSV_HEADER,
    DEFAULT_SWEEP,
    ScenarioConfig,
    emit_chart,
    emit_csv,
    hump_demo,
    load_csv_series,
    pauli_transfer_matrix,
    prepare_inputs,
    run_scenario,
    write_svg_chart,
    ChartSeries,
)
from dfsqec.codes import apply_circuit, build_scenario_circuit
from dfsqec.qstate import (
    DEVIATION,
    STATE,
    DensityMatrix,
    _embed,
    hs_overlap,
    partial_trace,
    pauli,
    pauli_deviation,
)
from dfsqec.metrics import correlation
from .conftest import basis_state


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of emit_csv bytes on DEFAULT_SWEEP (ratio 0.5): a change that
# moves any printed digit fails here, so update these only together with
# an intended change of the numbers
PINNED_CSV_SHA256 = {
    ("qec_independent", "incoherent_sinc", "a", 1.0): "a78150f5691d3ce1b6aebecc340f2b5a4abbff910fcc7bb45b528c199e83c135",
    ("qec_independent", "incoherent_sinc", "a", 0.7): "de960bd208392ccea4195c0c808eaed0cf7567bb04acced2f0a4056cc15ce838",
    ("qec_independent", "incoherent_sinc", "b", 1.0): "9fb18cd9551d34d40a57343cd6b572899f088c33684e0cd7646ec7f23c5f0555",
    ("qec_independent", "incoherent_sinc", "b", 0.7): "2ae847c15218ea208bc39048a4a38b6614aad1cf492147a50fccd6167c809007",
    ("qec_independent", "markovian_exp", "a", 1.0): "ae8fa79a402f206adbd957df6032b608f4af6db4d4218b3b57502cd466bdab43",
    ("qec_independent", "markovian_exp", "a", 0.7): "a98102e7a51c839e20fd724c4d830023b092bccd3a1eaf2e166106888cc10fbc",
    ("qec_independent", "markovian_exp", "b", 1.0): "91783a67277fe93c2ff48f45e39c788dbd0c9ac56252b64ad548bbe5585061e0",
    ("qec_independent", "markovian_exp", "b", 0.7): "de1c74ae4b34479af16284e96706fc44aace4532678aafb2467fa7d51279a951",
    ("qec_hybrid", "incoherent_sinc", "a", 1.0): "57726d2aaee5dbfa954269204d9b8dbe2d8c59ecc353b13adc78e4440be637e6",
    ("qec_hybrid", "incoherent_sinc", "a", 0.7): "2ff226cc0b5faf4cf2737bb7d8693e4ca3c27ba886f722a5cc6289e2ed6bb802",
    ("qec_hybrid", "incoherent_sinc", "b", 1.0): "26928744194033eea6d91cb80815aa62af951acb9b4d0cf49059991a0eb8a212",
    ("qec_hybrid", "incoherent_sinc", "b", 0.7): "01c06e54d9d2308b56e9e3694c94e29b3a009d8a814cda3224827c1962b7dd82",
    ("qec_hybrid", "markovian_exp", "a", 1.0): "ed4ebb7a7bea9934222fa0aaa7cb5d7051e6eb85f56b23a655321c1322f8f085",
    ("qec_hybrid", "markovian_exp", "a", 0.7): "c7e06317ec172792ff3f173f663703e1fb0a34376ca38eaefe47c486ae6e7367",
    ("qec_hybrid", "markovian_exp", "b", 1.0): "48f25fd3b677ee55c9e03c844af701a708e16e5556041c5baa01f2daac4c1662",
    ("qec_hybrid", "markovian_exp", "b", 0.7): "11b3bdd1c21b9b99f7c21f9cf8c56da5e0ccc8e164e01e899079b2302c69bbf1",
    ("no_qec", "incoherent_sinc", "a", 1.0): "24e88ff4c0d6eb4e59bf1bfb2e768ef42543319f43793bfd6a21ad0593c54f5f",
    ("no_qec", "incoherent_sinc", "a", 0.7): "351e10f4b026aa8dca96fe0a980821fcef00f5520bd10dd9cd48beeaadc64584",
    ("no_qec", "incoherent_sinc", "b", 1.0): "dc3cd601400a824354307fa0f8da954700c51226fbc64f18bbba9febfc51b30a",
    ("no_qec", "incoherent_sinc", "b", 0.7): "d573b1a14f712314719385e35fb2ab1c88ca211cdf32af75a642f8cf5ae7dfd9",
    ("no_qec", "markovian_exp", "a", 1.0): "e3693a35d745e99541f138b295687a6c43c7902906d9f6fc94cc1131c4f31dde",
    ("no_qec", "markovian_exp", "a", 0.7): "f55418600489977f70ef2c3fae73d42408215957839270e01792171c2f492b37",
    ("no_qec", "markovian_exp", "b", 1.0): "e642d89dd6741480247a70838a31797222e96c4aeed9a1e85e767e148c886093",
    ("no_qec", "markovian_exp", "b", 0.7): "7e311694526217e21d62df040e6e445434651d9d0ddf572a60334c240d1c15fe",
    ("dfs_qec", "incoherent_sinc", "a", 1.0): "537225493a4f9c66ff33797ee98decda19a3a2597e35ffdd8b7279e85a70bbe9",
    ("dfs_qec", "incoherent_sinc", "a", 0.7): "177ea0e8eae968e5cf332a16d2eeb6463ce38c7f88b3407a57c6861fb24bfc0d",
    ("dfs_qec", "incoherent_sinc", "b", 1.0): "f005f5b9c2930dec392e26e88b1082aee3a0dcd742802d23b4d47d69d3357efa",
    ("dfs_qec", "incoherent_sinc", "b", 0.7): "3666cac2b3c5e76d5b81d751aa137f02eda873bddcf4cc890bd7f300caa76dbb",
    ("dfs_qec", "markovian_exp", "a", 1.0): "bd6fa6455a72051297e7514c64521b14f2bfafb7773d98899f8d25a22110581b",
    ("dfs_qec", "markovian_exp", "a", 0.7): "96fab10a13d6ace6867b54167cf8f5097e7fa5a99deb15268c175c7234c8e307",
    ("dfs_qec", "markovian_exp", "b", 1.0): "28da8532bf0d8ddb48c93b94513d24384cc12b116ec8341f4c7ec2e89c764c64",
    ("dfs_qec", "markovian_exp", "b", 0.7): "262d0300630f75cd410cb16626ce1af053c70c939f6079852db56035f547d501",
}


# SHA-256 of rounded pauli_transfer_matrix cells (12 decimals, as the
# benchmark's channel-probe digest), keyed by (scenario, kind, case,
# ratio, purity, kappa0): pins the probe path, which the CSV digests
# above do not reach
PINNED_PTM_SHA256 = {
    ("qec_independent", "incoherent_sinc", "a", 0.5, 1.0, 1.3): "d229313f7acc613a5213bb290c65e81cca880e258dd53dece8f440b2ee2f750b",
    ("qec_independent", "markovian_exp", "b", 0.5, 0.7, 2.7): "b56ebaaaba88167fdfc1afcf14c23e0b8b9e46259914c07c04f6992e6cddad2f",
    ("qec_hybrid", "incoherent_sinc", "b", 1.3, 0.7, 0.9): "b60d2c3d4bf20557242268d4e0b5e2447bd89252be4eb4b205b03e3780651eae",
    ("qec_hybrid", "markovian_exp", "a", 0.25, 1.0, 3.1): "68fedd1206c29daa0b875f19749697060b53603d5e0b93609a76b62f2f922944",
    ("no_qec", "incoherent_sinc", "a", 0.5, 0.7, 4.4): "4cbcc74663ab3426b84202e120001740278dcad039de01e6ec3002501e75a83e",
    ("no_qec", "markovian_exp", "b", 0.5, 1.0, 0.6): "8f4e7b6d5c79ce2cf3ba71dc26cb4c73d1f1e9d6481c929f7195b0ce74ecd146",
    ("dfs_qec", "incoherent_sinc", "a", 0.5, 1.0, 5.2): "a620594365e2e4b39db645afcf3888693189e8b55c30187a642475542e44f690",
    ("dfs_qec", "markovian_exp", "b", 1.7, 0.7, 1.7): "47ffac4e5a863e43629d57f4c4c6c1a3368d09c8e03887016d05730eb13f56dd",
}


class TestPrepareInputs:
    def test_exact_input_at_full_purity(self):
        rho = prepare_inputs("z", 1.0, 4)
        proj0 = np.diag([1.0, 0.0])
        sz = np.diag([1.0, -1.0])
        want = np.kron(np.kron(proj0, sz), np.kron(proj0, proj0))
        assert np.array_equal(rho.entries, want)
        assert rho.kind == DEVIATION

    def test_zero_purity_gives_maximally_mixed_ancillae(self):
        # marginals of a deviation vanish, so probe the ancilla factor
        # next to the data qubit: the pair reduction is anc x sigma_x
        pair = partial_trace(prepare_inputs("x", 0.0, 4), {1, 2})
        want = np.kron(np.eye(2) / 2, pauli_deviation("x").entries)
        assert np.max(np.abs(pair.entries - want)) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_data_reduction_is_the_pauli_deviation(self, axis):
        # tracing a deviation onto qubit 2 picks up the unit ancilla traces
        rho = prepare_inputs(axis, 1.0, 4)
        data = partial_trace(rho, {2})
        assert np.max(np.abs(data.entries - pauli_deviation(axis).entries)) <= 1e-12

    def test_three_qubit_variant(self):
        rho = prepare_inputs("y", 1.0, 3)
        assert rho.n_qubits == 3

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            prepare_inputs("w", 1.0, 4)

    def test_purity_range_checked(self):
        with pytest.raises(ValueError, match="purity"):
            prepare_inputs("x", 1.5, 4)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("purity", [1.0, 0.7, 0.0])
    def test_product_is_the_kron_chain_checked_once(self, n, purity, monkeypatch):
        # the same bits as np.kron factor by factor, and one check for the
        # whole product of either kind
        anc = np.diag([(1.0 + purity) / 2.0, (1.0 - purity) / 2.0]).astype(complex)
        wants = []
        for data in (pauli_deviation("y"), DensityMatrix(np.eye(2) / 2.0)):
            want = np.kron(anc, data.entries)
            for _ in range(n - 2):
                want = np.kron(want, anc)
            wants.append((data, want))
        real_check = qstate.check_stack
        checks = []

        def counting_check(stack, kind):
            checks.append(kind)
            return real_check(stack, kind)

        monkeypatch.setattr(qstate, "check_stack", counting_check)
        for data, want in wants:
            got = experiments._product_input(data, purity, n)
            assert got.kind == data.kind
            assert np.array_equal(got.entries, want)
        assert checks == [DEVIATION, STATE]


class TestRunScenario:
    def test_zero_noise_point(self):
        res = run_scenario(ScenarioConfig("dfs_qec", sweep=(0.0,)))
        rep = res.points[0].report
        assert rep.Fe == pytest.approx(1.0, abs=1e-12)
        assert rep.P == pytest.approx(1.0, abs=1e-12)

    def test_independent_value_at_half_spread_one(self):
        res = run_scenario(ScenarioConfig("qec_independent", sweep=(2.0,)))
        assert res.points[0].report.Fe == pytest.approx(0.9821474294581827, abs=1e-12)

    def test_hybrid_value_at_half_spread_one(self):
        res = run_scenario(ScenarioConfig("qec_hybrid", sweep=(2.0,), ratio=0.5))
        assert res.points[0].report.Fe == pytest.approx(0.9241685492011245, abs=1e-12)

    def test_fe_range_across_scenarios(self):
        for scenario in ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec"):
            res = run_scenario(ScenarioConfig(scenario))
            for p in res.points:
                assert 0.25 <= p.report.Fe <= 1.0 + 1e-9

    def test_polarization_is_one_for_identical_channels(self):
        res = run_scenario(ScenarioConfig("qec_independent", sweep=(0.0,)))
        assert res.points[0].report.P == pytest.approx(1.0, abs=1e-12)

    def test_empty_sweep(self):
        res = run_scenario(ScenarioConfig("no_qec", sweep=()))
        assert res.points == ()

    def test_state_mode_matches_deviation_mode(self):
        # a pure data input (I + sigma_u)/2 in place of the deviation
        # sigma_u yields the same correlation tr(sigma_u E(rho)) for
        # these unital circuits
        cfg = ScenarioConfig("qec_independent", sweep=(0.0, 1.0, 3.0))
        res = run_scenario(cfg)
        zero = basis_state("0").entries
        for point in res.points:
            circuit = build_scenario_circuit(cfg.scenario, point.spec)
            for axis in ("x", "y", "z"):
                data = (np.eye(2) + pauli(axis).entries) / 2.0
                rho = DensityMatrix(np.kron(np.kron(zero, data), zero))
                out = partial_trace(apply_circuit(rho, circuit), {2})
                c = float(np.trace(pauli(axis).entries @ out.entries).real)
                assert getattr(point.report, "C" + axis) == pytest.approx(c, abs=1e-12)

    def test_parallel_equals_serial(self):
        # jobs is accepted for compatibility and has no effect
        cfg = ScenarioConfig("dfs_qec", sweep=tuple(DEFAULT_SWEEP[:8]))
        serial = run_scenario(cfg, jobs=1)
        parallel = run_scenario(cfg, jobs=4)
        for a, b in zip(serial.points, parallel.points):
            assert a.report == b.report


# a few points through both sinc zeros; 0 is the reference run's point
STACK_SWEEP = (0.0, 0.8, 2.9, 5.3)


def _stacked_inputs(purity: float, n: int) -> dict[str, DensityMatrix]:
    # the transfer-matrix inputs: a state, then the three deviations
    inputs = {"I": experiments._product_input(DensityMatrix(np.eye(2) / 2.0, STATE), purity, n)}
    inputs.update((u, prepare_inputs(u, purity, n)) for u in "xyz")
    return inputs


class TestStackedPath:
    @pytest.mark.parametrize("purity", [1.0, 0.7])
    @pytest.mark.parametrize("case", ["a", "b"])
    @pytest.mark.parametrize("kind", ["incoherent_sinc", "markovian_exp"])
    @pytest.mark.parametrize("scenario", ["qec_independent", "qec_hybrid", "no_qec", "dfs_qec"])
    def test_stack_matches_the_per_state_path_bit_for_bit(self, scenario, kind, case, purity):
        config = ScenarioConfig(scenario, kind=kind, sweep=STACK_SWEEP, coupling_case=case, ancilla_purity=purity)
        result = run_scenario(config)
        n = build_scenario_circuit(scenario, config.noise_spec(0.0)).n_qubits
        inputs = _stacked_inputs(purity, n)

        def per_state(circuit):
            return {key: partial_trace(apply_circuit(rho, circuit), {2}) for key, rho in inputs.items()}

        refs = per_state(build_scenario_circuit(scenario, config.noise_spec(0.0)))
        for point in result.points:
            circuit = build_scenario_circuit(scenario, point.spec)
            outs = per_state(circuit)
            stacked = experiments._data_outputs(circuit, inputs)
            assert stacked.shape == (4, 2, 2)
            for row, out in zip(stacked, outs.values()):
                # array_equal, and the sign of zero too
                assert row.tobytes() == out.entries.tobytes()
            for u in "xyz":
                assert getattr(point.report, "C" + u) == correlation(pauli_deviation(u), outs[u])
                want_p = hs_overlap(outs[u], outs[u]) / hs_overlap(refs[u], refs[u])
                assert getattr(point.report, "P" + u) == want_p

    @staticmethod
    def _fake_outputs(monkeypatch, make):
        # apply_circuit returns, for its k-th call, the state that
        # make(k, true output) builds, unchecked
        calls = []

        def fake(rho, circuit):
            calls.append(rho)
            m = make(len(calls), apply_circuit(rho, circuit).entries)
            return DensityMatrix._checked(m, rho.kind)

        monkeypatch.setattr(experiments, "apply_circuit", fake)
        return calls

    @pytest.mark.parametrize("scenario", ["qec_independent", "dfs_qec"])
    def test_first_non_hermitian_output_in_input_order_raises(self, scenario, monkeypatch):
        # from the second run on, a k * 1e-9 anti-Hermitian part in the
        # data qubit's coherence: the second input is the first to fail,
        # in run_scenario's reference run and in the transfer matrix,
        # whose second input is the first deviation
        def make(k, m):
            m = m.copy()
            m[0, m.shape[0] // 4] += (k > 1) * k * 1e-9
            return m

        message = "^matrix is not Hermitian, max deviation 2.00e-09$"
        self._fake_outputs(monkeypatch, make)
        with pytest.raises(ValueError, match=message):
            run_scenario(ScenarioConfig(scenario, sweep=(0.0, 1.0), coupling_case="a"))
        calls = self._fake_outputs(monkeypatch, make)
        spec = ScenarioConfig(scenario).noise_spec(1.0)
        with pytest.raises(ValueError, match=message):
            pauli_transfer_matrix(scenario, spec, 0.8)
        assert [rho.kind for rho in calls[:2]] == [STATE, DEVIATION]

    def test_state_output_that_fails_its_trace_check_raises(self, monkeypatch):
        # a deviation-like output for the transfer matrix's state input
        self._fake_outputs(monkeypatch, lambda k, m: m - np.eye(m.shape[0]) / m.shape[0] if k == 1 else m)
        with pytest.raises(ValueError, match=r"^state trace is 0\.0, expected 1$"):
            pauli_transfer_matrix("no_qec", NoiseSpec(1.0))

    @pytest.mark.parametrize("first_bad", [1, 4], ids=["reference-run", "sweep-point"])
    def test_output_with_imaginary_overlap_raises(self, first_bad, monkeypatch):
        # from the reference run's outputs or from the first point's on:
        # Hermitian within 1e-13, but with entries of 1e4, so that
        # tr(out out) has imaginary part 2 * 1e4 * 1e-13 = 2e-9
        r = np.array([[0.0, 1e4], [1e4 + 1e-13j, 0.0]])
        zero = np.diag([1.0, 0.0])
        full = np.kron(np.kron(zero, r), zero)
        calls = self._fake_outputs(monkeypatch, lambda k, m: full if k >= first_bad else m)
        with pytest.raises(ValueError, match="^overlap has imaginary part 2.00e-09; inputs must be Hermitian$"):
            run_scenario(ScenarioConfig("no_qec", sweep=(0.0, 1.0)))
        # raised after the three circuit runs that gave those outputs
        assert len(calls) == first_bad + 2

    def test_zero_purity_reference_raises(self, monkeypatch):
        self._fake_outputs(monkeypatch, lambda k, m: np.zeros_like(m))
        with pytest.raises(ValueError, match="^reference output for axis 'x' has zero purity$"):
            run_scenario(ScenarioConfig("dfs_qec", sweep=(0.0,)))


class TestScenarioConfig:
    def test_sweep_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ScenarioConfig("no_qec", sweep=(1.0, 1.0))

    def test_sweep_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("no_qec", sweep=(-1.0, 1.0))

    def test_purity_range(self):
        with pytest.raises(ValueError, match="purity"):
            ScenarioConfig("no_qec", ancilla_purity=-0.1)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            ScenarioConfig("other")

    def test_noise_spec_wiring(self):
        cfg = ScenarioConfig("qec_hybrid", ratio=0.25, coupling_case="b")
        spec = cfg.noise_spec(2.0)
        assert spec == NoiseSpec(2.0, collective=True, ratio=0.25, coupling_case="b")


class TestHump:
    def test_reduced_purity_shows_the_hump(self):
        rep = hump_demo(ScenarioConfig("qec_independent", ancilla_purity=0.5))
        assert rep.fe_at_zero < 1.0
        assert rep.fe_at_zero == pytest.approx(0.9375, abs=1e-12)
        assert rep.hump_detected
        assert rep.crosses_reference

    def test_full_purity_curve_is_monotone_up_to_first_zero(self):
        res = run_scenario(ScenarioConfig("qec_independent", ancilla_purity=1.0))
        fes = [p.report.Fe for p in res.points if p.kappa0 <= 2.0 * np.pi]
        assert all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))

    def test_full_purity_rejected(self):
        with pytest.raises(ValueError, match="purity"):
            hump_demo(ScenarioConfig("qec_independent", ancilla_purity=1.0))

    @pytest.mark.parametrize("sweep", [(), (3.0,)])
    def test_sweep_must_start_at_zero(self, sweep):
        # fe_at_zero is read at the first point, so it must be kappa0 = 0
        with pytest.raises(ValueError, match="starts at kappa0 = 0"):
            hump_demo(ScenarioConfig("qec_independent", sweep=sweep, ancilla_purity=0.5))


class TestCsv:
    def test_header_only_for_empty_sweep(self, tmp_path):
        res = run_scenario(ScenarioConfig("no_qec", sweep=()))
        out = tmp_path / "empty.csv"
        emit_csv(res, out)
        assert out.read_text() == CSV_HEADER + "\n"

    def test_two_point_sweep_is_three_lines(self, tmp_path):
        res = run_scenario(ScenarioConfig("no_qec", sweep=(0.0, 1.0)))
        out = tmp_path / "two.csv"
        emit_csv(res, out)
        assert len(out.read_text().splitlines()) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = ScenarioConfig("qec_hybrid", sweep=tuple(DEFAULT_SWEEP[:6]))
        hashes = set()
        for k in range(3):
            out = tmp_path / f"run{k}.csv"
            emit_csv(run_scenario(cfg), out)
            hashes.add(file_hash(out))
        assert len(hashes) == 1

    @pytest.mark.parametrize("scenario, kind, case, purity", sorted(PINNED_CSV_SHA256))
    def test_bytes_match_pinned_digest(self, tmp_path, scenario, kind, case, purity):
        cfg = ScenarioConfig(scenario, kind=kind, coupling_case=case, ancilla_purity=purity)
        out = tmp_path / "pinned.csv"
        emit_csv(run_scenario(cfg), out)
        assert file_hash(out) == PINNED_CSV_SHA256[scenario, kind, case, purity]

    def test_cold_and_warm_embed_cache_give_same_bytes(self, tmp_path):
        cfg = ScenarioConfig("dfs_qec", kind="markovian_exp", ancilla_purity=0.7)
        _embed.cache_clear()
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        emit_csv(run_scenario(cfg), cold)
        emit_csv(run_scenario(cfg), warm)
        assert file_hash(cold) == file_hash(warm)

    def test_roundtrip_through_loader(self, tmp_path):
        cfg = ScenarioConfig("dfs_qec", sweep=(0.0, 1.0, 2.0))
        res = run_scenario(cfg)
        out = tmp_path / "dfs.csv"
        emit_csv(res, out)
        (series,) = load_csv_series(out)
        assert series.label == "dfs_qec"
        assert len(series.points) == 3
        assert series.points[2][1] == pytest.approx(res.points[2].report.Fe, rel=1e-10)
        assert series.curve is not None

    @pytest.mark.parametrize(
        "text, match",
        [
            ("scenario,kappa0,Fe\nno_qec,0,1\n", "missing column.*Fe_analytic"),
            ("scenario,kappa0,Fe,Fe_analytic\nno_qec,0,1,1\nno_qec,nan,1,1\n", "line 3.*finite"),
            ("scenario,kappa0,Fe,Fe_analytic\nno_qec,0,x,1\n", "line 2.*numbers"),
        ],
        ids=["missing-column", "nan-kappa0", "text-Fe"],
    )
    def test_loader_rejects_bad_csv(self, tmp_path, text, match):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_csv_series(bad)
        assert str(bad) in str(info.value)


class TestChart:
    def test_marker_count_matches_sweep(self, tmp_path):
        res = run_scenario(ScenarioConfig("qec_independent"))
        out = tmp_path / "chart.svg"
        emit_chart([res], out)
        text = out.read_text()
        assert text.count('class="pt pt-qec_independent"') == 25
        assert text.count('class="legend-label"') == 1

    def test_four_scenarios_four_legend_entries(self, tmp_path):
        results = [
            run_scenario(ScenarioConfig(s, sweep=(0.0, 1.0)))
            for s in ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec")
        ]
        out = tmp_path / "all.svg"
        emit_chart(results, out)
        text = out.read_text()
        assert text.count('class="legend-label"') == 4
        for s in ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec"):
            assert f">{s}</text>" in text

    def test_zero_noise_markers_share_height(self, tmp_path):
        res = run_scenario(ScenarioConfig("dfs_qec", sweep=(0.0, 1e-9, 2e-9)))
        out = tmp_path / "flat.svg"
        emit_chart([res], out)
        import re

        heights = re.findall(r'class="pt pt-dfs_qec" cx="[0-9.]+" cy="([0-9.]+)"', out.read_text())
        assert len(set(heights)) == 1

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            emit_chart([], tmp_path / "x.svg")
        with pytest.raises(ValueError, match="series"):
            write_svg_chart([], tmp_path / "y.svg")

    def test_chart_is_deterministic(self, tmp_path):
        res = run_scenario(ScenarioConfig("no_qec", sweep=(0.0, 1.0, 2.0)))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_chart([res], a)
        emit_chart([res], b)
        assert file_hash(a) == file_hash(b)

    def test_series_without_curve(self, tmp_path):
        series = ChartSeries("bare", ((0.0, 1.0), (1.0, 0.9)))
        out = tmp_path / "bare.svg"
        write_svg_chart([series], out)
        text = out.read_text()
        assert 'class="pt pt-bare"' in text
        assert "polyline" not in text


def test_qualitative_curve_ordering():
    # the collective component erodes the code's advantage: strictly
    # below the independent-noise code everywhere, and below even the
    # uncorrected qubit in a mid-strength band
    grid = DEFAULT_SWEEP
    fes = {
        s: [p.report.Fe for p in run_scenario(ScenarioConfig(s, sweep=grid)).points]
        for s in ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec")
    }
    for i, kappa0 in enumerate(grid):
        if 0.5 <= kappa0 <= 6.0:
            assert fes["qec_hybrid"][i] < fes["qec_independent"][i]
        if 2.5 <= kappa0 <= 4.0:
            assert fes["qec_hybrid"][i] < fes["no_qec"][i]
        assert abs(fes["dfs_qec"][i] - fes["qec_independent"][i]) <= 1e-9


def test_transfer_matrix_is_identity_without_noise():
    got = pauli_transfer_matrix("qec_independent", NoiseSpec(0.0))
    assert np.max(np.abs(got - np.eye(4))) <= 1e-12


def test_transfer_matrix_of_no_qec_dephasing():
    got = pauli_transfer_matrix("no_qec", NoiseSpec(2.0))
    s = float(np.sin(1.0))
    want = np.diag([1.0, s, s, 1.0])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("key", sorted(PINNED_PTM_SHA256))
def test_transfer_matrix_matches_pinned_digest(key):
    scenario, kind, case, ratio, purity, kappa0 = key
    spec = ScenarioConfig(scenario, kind=kind, ratio=ratio, coupling_case=case).noise_spec(kappa0)
    r = pauli_transfer_matrix(scenario, spec, purity)
    cells = ",".join(f"{round(v, 12) + 0.0:.12f}" for v in r.ravel())
    assert hashlib.sha256(cells.encode()).hexdigest() == PINNED_PTM_SHA256[key]
