import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfsqec import channels, codes, experiments
from dfsqec.channels import COUPLING_CASES, NOISE_KINDS, NoiseSpec, attenuation, collective_scale_of
from dfsqec.experiments import (
    CSV_HEADER,
    DEFAULT_SWEEP,
    ScenarioConfig,
    ScenarioResult,
    SweepPoint,
    emit_chart,
    emit_csv,
    format_number,
    hump_demo,
    load_csv_series,
    pauli_transfer_matrix,
    prepare_inputs,
    run_scenario,
    write_svg_chart,
    ChartSeries,
)
from dfsqec.codes import SCENARIOS, build_scenario_circuit
from dfsqec.qstate import (
    DEVIATION,
    STATE,
    DensityMatrix,
    partial_trace,
    pauli_deviation,
)
from dfsqec.cli import CHECK_TOL
from dfsqec.metrics import MetricReport, analytic_reference


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


BLOCK = codes._BLOCK  # circuits per _run_block call
# bound at import, so that a fake installed twice in one test wraps the real one
_run_block = codes._run_block


def counted(calls, key, f):
    """``f``, adding one to ``calls[key]`` on each call."""

    def wrapper(*args):
        calls[key] += 1
        return f(*args)

    return wrapper


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


def closed_form_rows(config: ScenarioConfig) -> np.ndarray:
    """The ``(K, 9)`` exact forms of a sweep's report columns, in ``MetricReport`` order.
    s_d, s_a and s_b attenuate the data qubit and the two ancillae, sinc(kappa/2) or
    exp(-kappa) each: ``qec_independent`` and ``qec_hybrid`` have C_x = 1 and
    C_y = C_z = (s_d + p (s_a + s_b) - p^2 s_d s_a s_b) / 2, with s_b the qubit-3 carrier in
    ``qec_hybrid``; ``no_qec`` has C_x = C_y = s_d, C_z = 1; ``dfs_qec`` at p = 1 is
    ``qec_independent``, and at p < 1 has, with r = s_a = s_d attenuating the pair's
    |01>-|10> coherence and s_c its |00>-|11> one,
        C_x = (1 + p + (1 - p) s_c) / 2,
        4 C_y = s_d (1 + s_c) + p (r + s_a + s_d + s_c + s_a s_c - s_c s_d)
                - p^2 (s_c + s_a s_c - s_a - r + s_a s_c s_d + r s_a s_d) + p^3 s_a s_d (s_c - r),
        4 C_z = 2 s_d + p (1 + 2 s_a + r) - p^2 (1 - r + s_a s_d + r s_a s_d) + p^3 s_a s_d (1 - r).
    P_u = (C_u / C_u(0))^2, Fe is the fidelity of the C_u, and Fe_analytic the p = 1 Fe of
    independent carriers (of qubit 3 in ``qec_hybrid``)."""
    p, kind = config.ancilla_purity, config.kind
    x = np.array([0.0, *config.sweep])  # the kappa0 = 0 reference first
    incoherent = kind == channels.INCOHERENT_SINC
    s0 = channels.sinc(x / 2.0) if incoherent else np.exp(-x)
    s3 = s0
    xc = collective_scale_of(x, config.ratio, kind) if config.collective else None
    if config.scenario == "qec_hybrid":
        with np.errstate(over="ignore"):
            if config.coupling_case == "a":  # one environment: spreads, or rate amplitudes, add
                s3 = channels.sinc(x / 2.0 + xc / 2.0) if incoherent else np.exp(-((np.sqrt(x) + np.sqrt(xc)) ** 2))
            else:  # two environments: the qubit-3 attenuation factorizes
                s3 = s0 * channels.sinc(xc / 2.0) if incoherent else np.exp(-(x + xc))
    one = np.ones_like(x)
    if config.scenario == "no_qec":
        c = np.array([s0, s0, one])
    elif config.scenario == "dfs_qec" and p < 1.0:
        # s_c: the pair's |00>-|11> coherence, which sees the collective spread twice
        with np.errstate(over="ignore"):
            if config.coupling_case == "a":
                sc = channels.sinc(xc + x / 2.0) if incoherent else np.exp(-((2.0 * np.sqrt(xc) + np.sqrt(x)) ** 2))
            else:
                sc = channels.sinc(xc) * s0 if incoherent else np.exp(-4.0 * xc) * np.exp(-x)
        sa = sd = r = s0
        cy = (
            sd * (1.0 + sc)
            + p * (r + sa + sd + sc + sa * sc - sc * sd)
            - p**2 * (sc + sa * sc - sa - r + sa * sc * sd + r * sa * sd)
            + p**3 * sa * sd * (sc - r)
        ) / 4.0
        cz = (2.0 * sd + p * (1.0 + 2.0 * sa + r) - p**2 * (1.0 - r + sa * sd + r * sa * sd) + p**3 * sa * sd * (1.0 - r)) / 4.0
        c = np.array([(1.0 + p + (1.0 - p) * sc) / 2.0, cy, cz])
    else:
        cyz = (s0 + p * (s0 + s3) - p * p * s0 * s0 * s3) / 2.0
        c = np.array([one, cyz, cyz])
    pu = (c / c[:, :1]) ** 2
    fe_analytic = (s0 + 1.0) / 2.0 if config.scenario == "no_qec" else 0.5 + (s0 + s0 + s3 - s0 * s0 * s3) / 4.0
    return np.array([*c, (1.0 + c.sum(0)) / 4.0, fe_analytic, *pu, pu.mean(0)]).T[1:]


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
        assert rho.dim == 8

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            prepare_inputs("w", 1.0, 4)

    def test_purity_range_checked(self):
        with pytest.raises(ValueError, match="purity"):
            prepare_inputs("x", 1.5, 4)

    @pytest.mark.parametrize("purity", [1.5, -0.2, float("nan")])
    def test_transfer_matrix_and_sweep_check_the_purity(self, purity):
        message = rf"^ancilla_purity must be in \[0, 1\], got {purity}$"
        with pytest.raises(ValueError, match=message):
            pauli_transfer_matrix("qec_independent", NoiseSpec(0.3), ancilla_purity=purity)
        with pytest.raises(ValueError, match=message):
            prepare_inputs("x", purity, 4)
        with pytest.raises(ValueError, match=message):
            experiments._product_inputs(purity, 4)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("purity", [1.0, 0.7, 0.0])
    def test_product_is_the_kron_chain_checked_once(self, n, purity, monkeypatch):
        # the same bits as np.kron factor by factor, in the fixed order
        # I/2, x, y, z, and one check for the state row and one for the
        # three deviations
        anc = np.diag([(1.0 + purity) / 2.0, (1.0 - purity) / 2.0]).astype(complex)
        wants = []
        for data in [DensityMatrix(np.eye(2) / 2.0)] + [pauli_deviation(u) for u in "xyz"]:
            want = np.kron(anc, data.entries)
            for _ in range(n - 2):
                want = np.kron(want, anc)
            wants.append((data, want))
        real_check = experiments.check_stack
        checks = []

        def counting_check(stack, kind):
            checks.append((kind, len(stack)))
            return real_check(stack, kind)

        monkeypatch.setattr(experiments, "check_stack", counting_check)
        got = experiments._product_inputs(purity, n)
        assert isinstance(got, tuple) and len(got) == 4
        for (data, want), rho in zip(wants, got):
            assert rho.kind == data.kind
            assert np.array_equal(rho.entries, want)
            assert not rho.entries.flags.writeable
        assert checks == [(STATE, 1), (DEVIATION, 3)]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("purity", [0.0, 0.3, 0.7, 1.0])
    def test_stack_has_the_bytes_of_the_per_input_chain(self, n, purity):
        # the per-input builder the stack replaced, one product per input
        def chain(data):
            m = anc = np.array([[(1.0 + purity) / 2.0, 0.0], [0.0, (1.0 - purity) / 2.0]], dtype=complex)
            for factor in [data.entries] + [anc] * (n - 2):
                d = 2 * m.shape[0]
                m = (m[:, None, :, None] * factor[None, :, None, :]).reshape(d, d)
            return DensityMatrix(m, data.kind)

        datas = [DensityMatrix(np.eye(2) / 2.0, STATE)] + [pauli_deviation(u) for u in "xyz"]
        stacked = experiments._product_inputs(purity, n)
        for key, data, rho in zip("Ixyz", datas, stacked):
            want = chain(data)
            assert rho.kind == want.kind
            assert rho.entries.tobytes() == want.entries.tobytes()
            if key != "I":
                assert prepare_inputs(key, purity, n).entries.tobytes() == want.entries.tobytes()


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

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig("qec_independent", sweep=(1e308,)),
            ScenarioConfig("qec_hybrid", sweep=(1.0,), ratio=1e308, coupling_case="a"),
            ScenarioConfig("qec_hybrid", sweep=(1.0,), ratio=1e-308, coupling_case="b"),
        ],
        ids=["kappa0-1e308", "case-a-ratio-1e308", "case-b-kappa_c-1e308"],
    )
    def test_finite_attenuation_past_an_overflowing_delta_runs(self, config):
        # kappa * Delta or Delta itself overflows, kappa * Delta / 4 does not
        (point,) = run_scenario(config).points
        want = analytic_reference(config.scenario, config.noise_spec(point.kappa0))
        assert point.report.Fe_analytic == want
        assert abs(point.report.Fe - want) <= CHECK_TOL

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig("dfs_qec", sweep=(6.0,), ratio=1e-17),
            ScenarioConfig("qec_hybrid", kind="markovian_exp", sweep=(6.0,), ratio=1e160),
        ],
        ids=["dfs-sinc-ratio-1e-17", "hybrid-exp-ratio-1e160"],
    )
    def test_case_a_keeps_both_parts_of_its_environment(self, config):
        # a combined qubit-3 weight fl(1 + ratio) drops the residual kappa0
        # noise on the pair at ratio 1e-17, and its (Delta / 2)^2 overflows
        # beside the subnormal lambda_c of ratio 1e160
        (point,) = run_scenario(config).points
        assert abs(point.report.Fe - analytic_reference(config.scenario, config.noise_spec(6.0))) <= CHECK_TOL

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(SCENARIOS),
        st.sampled_from(NOISE_KINDS),
        st.sampled_from(COUPLING_CASES),
        st.floats(-308.0, 308.0),
        st.lists(
            st.one_of(st.floats(0.0, 20.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.one_of(st.sampled_from([1.0, 0.7, 0.3, 0.0]), st.floats(0.0, 1.0)),
    )
    def test_every_accepted_sweep_row_matches_its_closed_form(self, scenario, kind, case, log_ratio, kappa0s, purity):
        config = ScenarioConfig(
            scenario, kind=kind, sweep=sorted(kappa0s), ratio=10.0**log_ratio, coupling_case=case, ancilla_purity=purity
        )
        try:
            specs = [config.noise_spec(x) for x in config.sweep]
        except ValueError:
            assume(False)
        # a case "a" sinc argument kappa_c + kappa0 / 2 past the float
        # range is an error, not a row
        assume(all(math.isfinite(collective_scale_of(s.kappa0, s.ratio, kind) + s.kappa0 / 2) for s in specs if s.collective))
        points = run_scenario(config).points
        for point, want in zip(points, closed_form_rows(config), strict=True):
            r = point.report
            assert all(map(math.isfinite, dataclasses.astuple(r)))
            assert purity < 1.0 or abs(r.Fe - r.Fe_analytic) <= CHECK_TOL
            assert 0.0 <= r.Fe <= 1.0
            assert all(-1.0 <= c <= 1.0 for c in (r.Cx, r.Cy, r.Cz))
            assert all(p >= 0.0 for p in (r.Px, r.Py, r.Pz, r.P))
            got = np.array(dataclasses.astuple(r))
            known = ~np.isnan(want)
            assert np.abs(got[known] - want[known]).max() <= 1e-12, (got, want)
            assert known.all()
        if scenario == "dfs_qec" and purity == 1.0:
            bare = run_scenario(dataclasses.replace(config, scenario="qec_independent")).points
            for point, want in zip(points, bare):
                assert np.max(np.abs(np.subtract(dataclasses.astuple(point.report), dataclasses.astuple(want.report)))) <= CHECK_TOL

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

    @pytest.mark.parametrize("points, case", [(300, "a"), (1000, "b")])
    def test_sweep_peak_memory_is_per_point(self, points, case):
        # the circuits run in blocks of codes._BLOCK, each block's
        # final states are reduced before the next block's circuits are
        # built, and each marker gathers its factor when its circuit is
        # built; a stack of final states would add about 4 MB at 300
        # points, a list of the 2 KB factors about 2 MB at 1000
        run_scenario(ScenarioConfig("dfs_qec", sweep=(0.0, 1.0)))  # warms numpy up first
        config = ScenarioConfig("dfs_qec", sweep=tuple(12.0 * k / points for k in range(points)), coupling_case=case)
        tracemalloc.start()
        try:
            result = run_scenario(config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.points) == points
        assert peak - retained < 1.5e6

    def test_an_overflowing_point_fails_before_any_circuit_runs(self, monkeypatch):
        # the whole sweep's attenuation is evaluated first: kappa_c * Delta / 4
        # = 1.5e308 * 1.5 overflows at the last point
        runs = []
        monkeypatch.setattr(codes, "_run_block", lambda *a: runs.append(a) or _run_block(*a))
        config = ScenarioConfig("qec_hybrid", sweep=(0.0, 2.9, 1.5e308), ratio=1.0)
        with pytest.raises(ValueError, match="^noise attenuation is not finite: generator strengths are too large$"):
            run_scenario(config)
        assert runs == []

    @pytest.mark.parametrize("scenario, case", [("no_qec", "a"), ("dfs_qec", "a"), ("dfs_qec", "b")])
    def test_a_sweep_evaluates_its_noise_once_per_environment(self, scenario, case, monkeypatch):
        # one attenuation per environment for the sweep's tables, whose
        # row 0 is the reference run's, however many points
        calls = []

        def counted(*args):
            calls.append(args)
            return attenuation(*args)

        monkeypatch.setattr(channels, "attenuation", counted)
        monkeypatch.setattr(codes, "attenuation", counted)
        config = ScenarioConfig(scenario, sweep=tuple(0.012 * k for k in range(1000)), coupling_case=case)
        assert len(run_scenario(config).points) == 1000
        assert len(calls) == len(channels._LAYOUTS[config.collective, case])

    @pytest.mark.parametrize("points", [0, 1, BLOCK - 1, BLOCK, 25])
    def test_a_sweep_runs_its_reference_and_points_as_one_stream(self, points, monkeypatch):
        # the reference run is row 0 of the points' blocks: one sweep_outputs
        # call, ceil((K + 1) / BLOCK) _run_block calls, and, besides the
        # two input checks, one check_stack call on the outputs
        calls = {"outputs": 0, "runs": 0, "checks": 0}
        monkeypatch.setattr(experiments, "sweep_outputs", counted(calls, "outputs", codes.sweep_outputs))
        monkeypatch.setattr(codes, "_run_block", counted(calls, "runs", _run_block))
        monkeypatch.setattr(experiments, "check_stack", counted(calls, "checks", experiments.check_stack))
        monkeypatch.setattr(codes, "check_stack", counted(calls, "checks", codes.check_stack))
        config = ScenarioConfig("dfs_qec", sweep=tuple(0.5 * k for k in range(points)))
        assert len(run_scenario(config).points) == points
        runs = math.ceil((points + 1) / BLOCK)
        assert calls == {"outputs": 1, "runs": runs, "checks": 2 + 1}

    @pytest.mark.parametrize("scenario, gates", [("no_qec", 0), ("dfs_qec", 2)])
    def test_a_sweep_builds_each_circuit_once_and_embeds_each_gate_once_per_run(self, scenario, gates, monkeypatch):
        # K points and the reference run are K + 1 circuits, and every run of
        # each of the three inputs embeds each gate once, across block edges
        spec = ScenarioConfig(scenario).noise_spec(0.0)
        assert sum(isinstance(s, codes.Gate) for s in build_scenario_circuit(scenario, spec).steps) == gates
        calls = {"builds": 0, "embeds": 0}
        monkeypatch.setattr(codes, "build_scenario_circuit", counted(calls, "builds", codes.build_scenario_circuit))
        monkeypatch.setattr(codes, "embed", counted(calls, "embeds", codes.embed))
        points = 2 * BLOCK + 3
        assert len(run_scenario(ScenarioConfig(scenario, sweep=tuple(0.5 * k for k in range(points)))).points) == points
        assert calls == {"builds": points + 1, "embeds": (points + 1) * 3 * gates}


def _bits(points) -> list[list[str]]:
    """Each point's kappa0 and report fields as float.hex, which only a float has."""
    return [[v.hex() for v in (pt.kappa0, *dataclasses.astuple(pt.report))] for pt in points]


class TestPointTable:
    """A sweep keeps its points as one float table until they are read."""

    @staticmethod
    def assert_points_have_the_report_bits(config: ScenarioConfig) -> None:
        # a report per row of from_metrics' columns, after the config's kappa0s
        tables = []
        original = MetricReport.from_metrics

        def spy(c, p, fe_analytic):
            tables.append(original(c, p, fe_analytic))
            return tables[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MetricReport, "from_metrics", spy)
            result = run_scenario(config)
        (columns,) = tables
        want = tuple(map(SweepPoint, config.sweep, map(MetricReport, *columns.T.tolist())))
        assert len(result.points) == len(want)
        assert _bits(result.points) == _bits(want)
        assert result.points == want and result.points[:1] + result.points[1:] == want
        assert hash(result.points) == hash(want) and repr(result.points) == repr(want)

    @pytest.mark.parametrize("purity", [1.0, 0.7, 0.3, 0.0])
    def test_points_at_the_fixed_purities(self, purity):
        for scenario, kind, case in itertools.product(SCENARIOS, NOISE_KINDS, COUPLING_CASES):
            self.assert_points_have_the_report_bits(ScenarioConfig(scenario, kind=kind, coupling_case=case, ancilla_purity=purity))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SCENARIOS),
        st.sampled_from(NOISE_KINDS),
        st.sampled_from(COUPLING_CASES),
        st.one_of(st.sampled_from([1.0, 0.7, 0.3, 0.0]), st.floats(0.0, 1.0)),
        st.lists(st.floats(0.0, 20.0), max_size=6, unique=True),
    )
    def test_points_at_drawn_purities_and_grids(self, scenario, kind, case, purity, kappa0s):
        config = ScenarioConfig(scenario, kind=kind, sweep=sorted(kappa0s), coupling_case=case, ancilla_purity=purity)
        self.assert_points_have_the_report_bits(config)

    def test_given_points_reach_the_csv_and_the_chart(self, tmp_path):
        result = run_scenario(ScenarioConfig("qec_hybrid", sweep=(0.0, 1.0, 2.5), ancilla_purity=0.7))
        cfg, (first, *rest) = result.config, result.points
        moved = (dataclasses.replace(first, report=dataclasses.replace(first.report, Fe=first.report.Fe - 1e-6)), *rest)
        text = [cfg.scenario, cfg.kind, cfg.coupling_case]
        numbers = [(p.kappa0, cfg.ratio, cfg.ancilla_purity, *dataclasses.astuple(p.report)) for p in moved]
        rows = [",".join(text + [format_number(v) for v in values]) for values in numbers]
        series = ChartSeries(
            cfg.scenario, tuple((p.kappa0, p.report.Fe) for p in moved), tuple((p.kappa0, p.report.Fe_analytic) for p in moved)
        )
        write_svg_chart([series], tmp_path / "want.svg")
        for given in (dataclasses.replace(result, points=moved[:1] + result.points[1:]), ScenarioResult(cfg, moved)):
            assert given.points == moved and given.points[0] is moved[0]
            emit_csv(given, tmp_path / "given.csv")
            assert (tmp_path / "given.csv").read_text(encoding="utf-8").splitlines() == [CSV_HEADER, *rows]
            emit_chart([given], tmp_path / "given.svg")
            assert file_hash(tmp_path / "given.svg") == file_hash(tmp_path / "want.svg")

    def test_a_long_result_retains_its_table_not_a_report_per_point(self):
        # 1000 reports and points held about 470 KB; the (1000, 10) table holds 80 KB,
        # and taking the length, as the CLI's summary line does, builds no point
        run_scenario(ScenarioConfig("dfs_qec", sweep=(0.0, 1.0)))  # warms numpy up first
        config = ScenarioConfig("dfs_qec", sweep=tuple(12.0 * k / 1000 for k in range(1000)))
        tracemalloc.start()
        try:
            result = run_scenario(config)
            assert len(result.points) == 1000
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 150e3


class TestStackedPath:
    def test_bad_noise_factors_across_a_block_boundary_raise_the_first_ones_message(self, monkeypatch):
        # a table row of the last environment, at the last point of the first
        # block or the first of the second (after the reference run's row 0),
        # with an entry past 1 in magnitude, a NaN, or its diagonal class not 1:
        # the sweep's certificate raises before any circuit runs.  A skewed
        # factor cannot be built, since the joint index is symmetric
        config = ScenarioConfig("dfs_qec", sweep=tuple(0.5 * k for k in range(2 * BLOCK)))
        _, columns, index = channels._DISTINCT[True, "a"]
        diagonal, other = columns[-1][index[0, 0]], columns[-1][index[0, 3]]
        assert diagonal != other
        runs = []
        monkeypatch.setattr(codes, "_run_block", lambda *a: runs.append(a) or _run_block(*a))
        for row, column, value in [(BLOCK - 1, other, 1.0 + 2**-52), (BLOCK, other, math.nan), (BLOCK, diagonal, 1.0 - 2**-53)]:
            calls = []

            def bad(envs, kind):
                table = attenuation(envs, kind)
                calls.append(table)
                if len(calls) == len(columns):
                    table[row, column] = value
                return table

            monkeypatch.setattr(channels, "attenuation", bad)
            with pytest.raises(ValueError) as info:
                run_scenario(config)
            assert str(info.value) == "noise attenuation is not a dephasing channel: |factor| > 1, or a diagonal factor is not 1"
            assert runs == [] and len(calls) == len(columns)

    @staticmethod
    def _fake_outputs(monkeypatch, make):
        # the k-th circuit run in (circuit, input) order, whether a sweep's
        # _run_block or the transfer matrix's apply_circuit makes it,
        # returns the state that make(k, true output) builds, unchecked
        calls = []

        def fake_run(inputs, circuits, *encoded):
            outs = np.array(_run_block(inputs, circuits, *encoded))
            for row in outs:
                for rho, out in zip(inputs, row):
                    calls.append(rho)
                    out[...] = make(len(calls), out)
            return outs

        def fake_apply(rho, circuit):
            return DensityMatrix._checked(fake_run([rho], [circuit])[0, 0], rho.kind)

        monkeypatch.setattr(codes, "_run_block", fake_run)
        monkeypatch.setattr(experiments, "apply_circuit", fake_apply)
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

    def test_first_bad_point_in_sweep_order_raises(self, monkeypatch):
        # points k = 3 and k = 7 of eight each get a k * 1e-9
        # anti-Hermitian part in their first deviation output; every
        # circuit runs, then the k = 3 output raises
        def make(call, m):
            k, axis = divmod(call - 4, 3)  # calls 1-3 are the reference run
            if axis == 0 and k in (3, 7):
                m = m.copy()
                m[0, m.shape[0] // 4] += k * 1e-9
            return m

        calls = self._fake_outputs(monkeypatch, make)
        with pytest.raises(ValueError, match="^matrix is not Hermitian, max deviation 3.00e-09$"):
            run_scenario(ScenarioConfig("dfs_qec", sweep=tuple(0.5 * k for k in range(8))))
        assert len(calls) == 3 * (1 + 8)

    def test_bad_spec_at_the_last_point_raises_before_any_run(self, monkeypatch):
        calls = self._fake_outputs(monkeypatch, lambda k, m: m)
        config = ScenarioConfig("qec_hybrid", sweep=(0.0, 1.0, 1e300), ratio=1e-10)
        with pytest.raises(ValueError, match="^collective scale is not finite for kappa0=1e\\+300, ratio=1e-10$"):
            run_scenario(config)
        assert calls == []

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

    def test_negative_zero_is_stored_as_zero(self):
        cfg = ScenarioConfig("no_qec", sweep=(-0.0,), ratio=-0.0, ancilla_purity=-0.0)
        assert [np.copysign(1.0, x) for x in (*cfg.sweep, cfg.ratio, cfg.ancilla_purity)] == [1.0] * 3

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

    @pytest.mark.parametrize("scenario", ["dfs_qec", "qec_hybrid", "no_qec"])
    def test_other_scenario_rejected(self, scenario):
        # rejected, not silently swept as qec_independent
        with pytest.raises(ValueError, match=f"^hump_demo expects scenario 'qec_independent', got '{scenario}'$"):
            hump_demo(ScenarioConfig(scenario, ancilla_purity=0.5))

    @pytest.mark.parametrize("sweep", [(), (3.0,)])
    def test_sweep_must_start_at_zero(self, sweep):
        # fe_at_zero is read at the first point, so it must be kappa0 = 0
        with pytest.raises(ValueError, match="starts at kappa0 = 0"):
            hump_demo(ScenarioConfig("qec_independent", sweep=sweep, ancilla_purity=0.5))


class TestCsv:
    def test_header_is_the_config_columns_then_the_report_fields(self):
        assert CSV_HEADER == "scenario,kind,case,kappa0,ratio,ancilla_purity,Cx,Cy,Cz,Fe,Fe_analytic,Px,Py,Pz,P"

    def test_sweep_point_is_kappa0_and_report(self):
        assert [f.name for f in dataclasses.fields(SweepPoint)] == ["kappa0", "report"]

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

    @settings(max_examples=100, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        kind=st.sampled_from(NOISE_KINDS),
        case=st.sampled_from(COUPLING_CASES),
        ratio=st.floats(),
        purity=st.floats(0.0, 1.0),
        rows=st.lists(st.lists(st.floats(), min_size=10, max_size=10), max_size=4),
    )
    @example(scenario="dfs_qec", kind="markovian_exp", case="b", ratio=-0.0, purity=0.0, rows=[[-0.0] * 10])
    @example(
        scenario="qec_independent", kind="incoherent_sinc", case="a", ratio=math.inf, purity=1.0,
        rows=[[math.inf] * 10, [-math.inf] * 10],
    )
    @example(scenario="qec_hybrid", kind="markovian_exp", case="a", ratio=math.nan, purity=0.5, rows=[[math.nan] * 10])
    @example(scenario="no_qec", kind="incoherent_sinc", case="b", ratio=5e-324, purity=5e-324, rows=[[5e-324] * 10])
    @example(
        scenario="no_qec", kind="markovian_exp", case="a", ratio=1.7976931348623157e308, purity=1.0,
        rows=[[1.7976931348623157e308] * 10],
    )
    def test_rows_are_the_text_fields_and_format_number(self, scenario, kind, case, ratio, purity, rows, tmp_path_factory):
        # each row is [kappa0, *report fields]; the report's fields are
        # stored as given, so every measured column sees arbitrary floats
        cfg = ScenarioConfig(scenario, kind=kind, coupling_case=case, ratio=ratio, ancilla_purity=purity)
        points = tuple(SweepPoint(x, MetricReport(*report)) for x, *report in rows)
        out = tmp_path_factory.getbasetemp() / "template.csv"
        emit_csv(ScenarioResult(cfg, points), out)
        header, *lines = out.read_text(encoding="utf-8").split("\n")[:-1]
        assert header == CSV_HEADER
        assert lines == [
            ",".join([scenario, kind, case] + [format_number(v) for v in (x, cfg.ratio, cfg.ancilla_purity, *report)])
            for x, *report in rows
        ]

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

    def test_loader_accepts_an_empty_closed_form_cell(self, tmp_path):
        # hand-written CSVs may leave Fe_analytic out of some rows
        src = tmp_path / "hand.csv"
        src.write_text("scenario,kappa0,Fe,Fe_analytic\nA,0,1,\nA,1,0.9,0.95\nB,0,1,\n")
        a, b = load_csv_series(src)
        assert a.points == ((0.0, 1.0), (1.0, 0.9)) and a.curve == ((1.0, 0.95),)
        assert b.points == ((0.0, 1.0),) and b.curve is None

    @pytest.mark.parametrize(
        "text, match",
        [
            ("scenario,kappa0,Fe\nno_qec,0,1\n", "missing column.*Fe_analytic"),
            ("scenario,kappa0,Fe,Fe_analytic\nno_qec,0,x,1\n", "line 2.*numbers"),
        ],
        ids=["missing-column", "text-Fe"],
    )
    def test_loader_rejects_bad_csv(self, tmp_path, text, match):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_csv_series(bad)
        assert str(bad) in str(info.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path: ScenarioConfig("no_qec", kind="bogus"), "unknown noise kind 'bogus'"),
        (lambda path: ScenarioConfig("no_qec", coupling_case="c"), "coupling case must be one of ('a', 'b'), got 'c'"),
        (lambda path: prepare_inputs("x", n_qubits=1), "need the data qubit plus at least one ancilla"),
        (lambda path: load_csv_series(path), "{path}, line 3: empty scenario"),
    ],
)
def test_error_messages(call, message, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("scenario,kappa0,Fe,Fe_analytic\nno_qec,0,1,1\n,0,1,1\n")
    with pytest.raises(ValueError) as info:
        call(path)
    assert str(info.value) == message.format(path=path)


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

    @pytest.mark.parametrize(
        "series",
        [
            ChartSeries("A", ((0.0, 1.0), (1.0, -2000.0))),
            ChartSeries("A", ((-1e308, 1.0), (1e308, 0.5))),
            ChartSeries("A", ((0.0, 1.0), (-1.0, 1.0))),
            ChartSeries("A", ((0.0, 1.0), (1.0, math.nan))),
            ChartSeries("A", ((0.0, 1.0), (1.0, 0.9)), ((0.0, 1.0), (1.0, 1.5))),
        ],
        ids=["y-2000", "kappa0-1e308", "kappa0-negative", "nan-y", "curve-1.5"],
    )
    def test_out_of_domain_value_is_one_error_and_no_file(self, tmp_path, series):
        # unchecked, y = -2000 draws 20,018 tick lines and kappa0 = +-1e308 nan coordinates
        out = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match="finite") as info:
            write_svg_chart([ChartSeries("ok", ((0.0, 1.0),)), series], out)
        assert str(info.value).startswith("series 'A' has (") and len(str(info.value).splitlines()) == 1
        assert not out.exists()

    def test_label_that_xml_forbids_is_one_error_and_no_file(self, tmp_path):
        # a control character would leave an SVG that is not well-formed, and a
        # lone surrogate cannot be encoded into a file at all; the loader rejects
        # such a CSV cell itself, naming its line, so these labels come from the API
        src, out = tmp_path / "bad.csv", tmp_path / "bad.svg"
        src.write_text("scenario,kappa0,Fe,Fe_analytic\nno_qec,0,1,1\nno\x01qec,0,1,1\n")
        with pytest.raises(ValueError) as info:
            load_csv_series(src)
        assert str(info.value) == f"{src}, line 3: scenario 'no\\x01qec' has a character that XML 1.0 forbids"
        for series in (ChartSeries("no\x01qec", ((0.0, 1.0),)), ChartSeries("A\ud800", ((0.0, 1.0),))):
            with pytest.raises(ValueError) as info:
                write_svg_chart([ChartSeries("ok", ((0.0, 1.0),)), series], out)
            assert str(info.value) == f"series {series.label!r} has a character that XML 1.0 forbids"
            assert not out.exists()

    @pytest.mark.parametrize(
        "row", ["no_qec,nan,1,1", "no_qec,-1,1,1", "no_qec,1,-2000,1", "no_qec,1,1,1.5", "no_qec,1,nan,"]
    )
    def test_loader_applies_the_chart_rule_and_names_the_line(self, tmp_path, row):
        src = tmp_path / "bad.csv"
        src.write_text(f"scenario,kappa0,Fe,Fe_analytic\nno_qec,0,1,1\n{row}\n")
        with pytest.raises(ValueError) as info:
            load_csv_series(src)
        want = f"{src}, line 3: kappa0 must be finite and >= 0, Fe and Fe_analytic in [0, 1]"
        assert str(info.value) == want

    def test_emit_chart_applies_the_same_rule(self, tmp_path):
        res = run_scenario(ScenarioConfig("no_qec", sweep=(0.0, 1.0)))
        first = res.points[0]
        bad = dataclasses.replace(first, report=dataclasses.replace(first.report, Fe_analytic=1.0 + 1e-9))
        out = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match="'no_qec'.*finite"):
            emit_chart([dataclasses.replace(res, points=(bad,) + res.points[1:])], out)
        assert not out.exists()

    def test_zero_tick_is_unsigned_and_ticks_are_counted(self, tmp_path):
        # the lowest y 0.01 puts the axis at -0.05; the zero tick is k = 0 of k / 10, so it has no sign
        out = tmp_path / "low.svg"
        write_svg_chart([ChartSeries("low", ((0.0, 0.01), (1.0, 1.0)))], out)
        labels = re.findall(r'text-anchor="end"[^>]*>([^<]*)<', out.read_text())
        assert labels == [f"{k / 10:.2f}" for k in range(11)]

    @pytest.mark.parametrize("kappa0s", [(0.0,), (1.0,), (1e17,), (1.7976931348623157e308,), (0.0, 1e308)])
    def test_kappa0_anywhere_in_the_domain_draws(self, tmp_path, kappa0s):
        # a lone kappa0 past 2**53 absorbs a padding of +-1, and six
        # times a span past 3e307 overflows
        out = tmp_path / "wide.svg"
        points = tuple((x, 0.5) for x in kappa0s)
        write_svg_chart([ChartSeries("wide", points, points)], out)
        text = out.read_text()
        assert "nan" not in text and "inf" not in text and text.count('class="pt pt-wide"') == len(kappa0s)
        # fixed-point x tick labels below 1e6, a short exponent form above
        assert max(map(len, re.findall(r'font-size="12"[^>]*>([^<]*)<', text))) <= 10

    def test_curve_past_the_last_point_stays_in_the_frame(self, tmp_path):
        out = tmp_path / "long.svg"
        write_svg_chart([ChartSeries("long", ((0.0, 1.0), (1.0, 0.9)), ((0.0, 1.0), (5.0, 0.5)))], out)
        (points,) = re.findall(r'<polyline[^>]* points="([^"]*)"', out.read_text())
        # the frame runs from x = 70 to 70 + 480
        assert [float(p.split(",")[0]) for p in points.split()] == [70.0, 550.0]

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
