import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec.channels import INCOHERENT_SINC, MARKOVIAN_EXP, DephasingGenerator, NoiseSpec, attenuation
from dfsqec.codes import (
    SCENARIOS,
    Circuit,
    Gate,
    GateStep,
    NoiseStep,
    apply_circuit,
    build_scenario_circuit,
    circuit_states,
    cnot,
    dfs_decode,
    dfs_encode,
    hadamard,
    logical_gate,
    pauli_z,
    qec3_encode,
    qec3_recover,
    toffoli,
)
from dfsqec.experiments import ScenarioConfig, pauli_transfer_matrix, prepare_inputs
from dfsqec.metrics import correlation, entanglement_fidelity
from dfsqec.qstate import (
    SX,
    SZ,
    DensityMatrix,
    Operator,
    apply_unitary,
    computational_state,
    embed,
    partial_trace,
    pauli,
    pauli_deviation,
    tensor_dm,
)


def run_gates(state: DensityMatrix, gates, n: int) -> DensityMatrix:
    circ = Circuit(n, tuple(GateStep(g) for g in gates))
    return apply_circuit(state, circ)


def fidelity_through(circuit, noise_override=None) -> float:
    cs = []
    for axis in ("x", "y", "z"):
        rho = prepare_inputs(axis, 1.0, circuit.n_qubits)
        out = partial_trace(apply_circuit(rho, circuit, noise_override=noise_override), {2})
        cs.append(correlation(pauli_deviation(axis), out))
    return entanglement_fidelity(cs)


def plus_minus_state(sign: int, n: int = 3) -> np.ndarray:
    one = np.array([1.0, sign]) / np.sqrt(2.0)
    vec = one
    for _ in range(n - 1):
        vec = np.kron(vec, one)
    return vec


class TestPhaseCode:
    def test_encodes_zero_to_all_plus(self):
        rho = run_gates(computational_state("000"), qec3_encode(1, 2, 3), 3)
        want = plus_minus_state(+1)
        assert np.max(np.abs(rho.entries - np.outer(want, want))) <= 1e-12

    def test_encodes_one_to_all_minus(self):
        rho = run_gates(computational_state("100"), qec3_encode(1, 2, 3), 3)
        want = plus_minus_state(-1)
        assert np.max(np.abs(rho.entries - np.outer(want, want))) <= 1e-12

    def test_roundtrip_is_identity(self):
        spec = NoiseSpec(0.0)
        circuit = build_scenario_circuit("qec_independent", spec)
        assert abs(fidelity_through(circuit) - 1.0) <= 1e-12

    @pytest.mark.parametrize("carrier", [1, 2, 3])
    def test_single_phase_flip_is_corrected_exactly(self, carrier):
        spec = NoiseSpec(0.0)
        circuit = build_scenario_circuit("qec_independent", spec)
        flip = embed(SZ, [carrier], 3)
        fe = fidelity_through(circuit, noise_override=lambda r: apply_unitary(r, flip))
        assert abs(fe - 1.0) <= 1e-12

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    def test_double_phase_flip_leaves_bit_flip_on_data(self, pair):
        # the decoder maps every uncorrectable pattern onto the logical
        # operator Z1 Z2 Z3, an X on the decoded data qubit
        spec = NoiseSpec(0.0)
        circuit = build_scenario_circuit("qec_independent", spec)
        flips = [embed(SZ, [q], 3) for q in pair]

        def noise(rho):
            for f in flips:
                rho = apply_unitary(rho, f)
            return rho

        for axis, sign in (("x", +1.0), ("y", -1.0), ("z", -1.0)):
            rho = prepare_inputs(axis, 1.0, 3)
            out = partial_trace(apply_circuit(rho, circuit, noise_override=noise), {2})
            assert np.max(np.abs(out.entries - sign * pauli_deviation(axis).entries)) <= 1e-12

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            qec3_encode(1, 1, 3)
        with pytest.raises(ValueError, match="distinct"):
            qec3_recover(2, 3, 3)


class TestDfsEncoding:
    def test_zero_maps_to_01(self):
        rho = run_gates(computational_state("00"), _shift_to_pair(dfs_encode()), 2)
        assert np.max(np.abs(rho.entries - computational_state("01").entries)) <= 1e-12

    def test_one_maps_to_10(self):
        rho = run_gates(computational_state("10"), _shift_to_pair(dfs_encode()), 2)
        assert np.max(np.abs(rho.entries - computational_state("10").entries)) <= 1e-12

    def test_decode_inverts_encode(self, rng):
        from .conftest import random_state

        pair = random_state(rng, 1)
        rho = DensityMatrix(np.kron(pair.entries, computational_state("0").entries))
        gates = _shift_to_pair(dfs_encode()) + _shift_to_pair(dfs_decode())
        out = run_gates(rho, gates, 2)
        assert np.max(np.abs(out.entries - rho.entries)) <= 1e-12


def _shift_to_pair(gates):
    # dfs fragments address qubits 3 and 4; retarget onto a bare pair 1, 2
    shifted = []
    for g in gates:
        targets = tuple(t - 2 for t in g.targets)
        shifted.append(Gate(g.name, g.matrix, targets))
    return shifted


class TestLogicalGates:
    def test_z_l_action(self):
        z_l = logical_gate("Z_L")
        v01 = np.zeros(4)
        v01[1] = 1.0
        v10 = np.zeros(4)
        v10[2] = 1.0
        assert np.array_equal(z_l.matrix.entries @ v01, v01)
        assert np.array_equal(z_l.matrix.entries @ v10, -v10)

    def test_x_l_swaps_logical_states(self):
        x_l = logical_gate("X_L")
        v01 = np.zeros(4)
        v01[1] = 1.0
        out = x_l.matrix.entries @ v01
        assert out[2] == 1.0 and np.count_nonzero(out) == 1

    def test_h_l_definition(self):
        h_l = logical_gate("H_L")
        v01 = np.zeros(4)
        v01[1] = 1.0
        out = h_l.matrix.entries @ v01
        want = np.zeros(4)
        want[1] = want[2] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(out - want)) <= 1e-12

    @pytest.mark.parametrize("name", ["X_L", "Z_L", "H_L"])
    def test_pair_gates_preserve_block_structure(self, name):
        m = logical_gate(name).matrix.entries
        block = [1, 2]
        other = [0, 3]
        for i in block:
            for j in other:
                assert abs(m[i, j]) <= 1e-12
                assert abs(m[j, i]) <= 1e-12

    def test_cnot_into_l_is_controlled_x_l(self):
        m = logical_gate("CNOT_into_L", 2).matrix.entries
        assert np.array_equal(m[:4, :4], np.eye(4))
        assert np.array_equal(m[4:, 4:], logical_gate("X_L").matrix.entries)
        assert logical_gate("CNOT_into_L", 2).targets == (2, 3, 4)

    def test_cnot_from_l_controls_on_z_l_carrier(self):
        g = logical_gate("CNOT_from_L", 1)
        assert g.targets == (3, 1)
        assert np.array_equal(g.matrix.entries, cnot(1, 2).matrix.entries)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown logical gate"):
            logical_gate("Y_L")


class TestScenarioCircuits:
    @pytest.mark.parametrize("scenario", ["qec_independent", "qec_hybrid", "no_qec", "dfs_qec"])
    def test_zero_noise_roundtrip_identity(self, scenario):
        collective = scenario in ("qec_hybrid", "dfs_qec")
        spec = NoiseSpec(0.0, collective=collective)
        circuit = build_scenario_circuit(scenario, spec)
        assert abs(fidelity_through(circuit) - 1.0) <= 1e-12

    def test_exactly_one_noise_marker(self):
        for scenario, collective in (
            ("qec_independent", False),
            ("qec_hybrid", True),
            ("no_qec", False),
            ("dfs_qec", True),
        ):
            circuit = build_scenario_circuit(scenario, NoiseSpec(1.0, collective=collective))
            assert circuit.noise_marker_count() == 1

    def test_dfs_collective_only_noise_is_harmless(self):
        spec = NoiseSpec(0.0, collective=True, kappa_c=7.0)
        circuit = build_scenario_circuit("dfs_qec", spec)
        assert abs(fidelity_through(circuit) - 1.0) <= 1e-12

    def test_dfs_single_logical_phase_flip_is_corrected(self):
        spec = NoiseSpec(0.0, collective=True)
        circuit = build_scenario_circuit("dfs_qec", spec)
        z_l = embed(SZ, [3], 4)
        fe = fidelity_through(circuit, noise_override=lambda r: apply_unitary(r, z_l))
        assert abs(fe - 1.0) <= 1e-12

    @pytest.mark.parametrize("carrier", [1, 2])
    def test_dfs_single_physical_phase_flip_is_corrected(self, carrier):
        spec = NoiseSpec(0.0, collective=True)
        circuit = build_scenario_circuit("dfs_qec", spec)
        flip = embed(SZ, [carrier], 4)
        fe = fidelity_through(circuit, noise_override=lambda r: apply_unitary(r, flip))
        assert abs(fe - 1.0) <= 1e-12

    def test_no_leakage_along_dfs_circuit(self):
        # population outside span{|01>,|10>} of qubits 3,4 stays zero
        # between the pair encoding and the pair decoding
        spec = NoiseSpec(1.3, collective=True)
        circuit = build_scenario_circuit("dfs_qec", spec)
        n_steps = len(circuit.steps)
        bad = np.zeros((4, 4))
        bad[0, 0] = bad[3, 3] = 1.0
        proj_bad = embed(Operator(bad), [3, 4], 4).entries
        data = DensityMatrix((np.eye(2) + SX.entries) / 2.0)
        rho0 = tensor_dm(tensor_dm(computational_state("0"), data), computational_state("00"))
        for idx, (step, rho) in enumerate(circuit_states(rho0, circuit)):
            if 1 < idx + 1 < n_steps - 1:  # after dfs_encode, before dfs_decode
                pop = float(np.trace(proj_bad @ rho.entries).real)
                assert pop <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([INCOHERENT_SINC, MARKOVIAN_EXP]),
        st.sampled_from(["a", "b"]),
        st.floats(0.1, 2.0),
        st.floats(0.5, 1.0),
        st.floats(0.0, 12.0),
    )
    def test_data_qubit_channel_equals_reference_code(self, kind, case, ratio, purity, kappa0):
        # the concatenated circuit under hybrid noise must realize the
        # same data-qubit channel as the bare code under independent
        # noise; every channel is unital (the premise of F_e), also with
        # impure ancillae, which in the encoded pair leave the
        # decoherence-free subspace, so the two codes agree only at purity 1
        hybrid = NoiseSpec(kappa0, collective=True, ratio=ratio, coupling_case=case, kind=kind)
        bare = NoiseSpec(kappa0, kind=kind)
        for scenario, spec in (("dfs_qec", hybrid), ("qec_independent", bare)):
            got = pauli_transfer_matrix(scenario, spec, ancilla_purity=purity)
            assert np.max(np.abs(got[:, 0] - [1.0, 0.0, 0.0, 0.0])) <= 1e-12
        got = pauli_transfer_matrix("dfs_qec", hybrid)
        want = pauli_transfer_matrix("qec_independent", bare)
        assert np.max(np.abs(got - want)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(SCENARIOS),
        st.sampled_from([INCOHERENT_SINC, MARKOVIAN_EXP]),
        st.sampled_from(["a", "b"]),
        st.floats(0.1, 2.0),
        st.floats(0.5, 1.0),
        st.floats(0.0, 12.0),
    )
    def test_data_qubit_channel_is_cptp(self, scenario, kind, case, ratio, purity, kappa0):
        # Choi matrix (1/2) sum_v sigma_v^T x E(sigma_v), with
        # E(sigma_v) = sum_u R[u, v] sigma_u, is positive semidefinite
        spec = ScenarioConfig(scenario, kind=kind, ratio=ratio, coupling_case=case).noise_spec(kappa0)
        r = pauli_transfer_matrix(scenario, spec, ancilla_purity=purity)
        sigmas = [np.eye(2)] + [pauli(u).entries for u in "xyz"]
        choi = sum(
            np.kron(sigmas[v].T, sum(r[u, v] * sigmas[u] for u in range(4))) for v in range(4)
        ) / 2.0
        assert np.linalg.eigvalsh(choi)[0] >= -1e-12

    def test_scenario_spec_mismatch_errors(self):
        with pytest.raises(ValueError, match="independent"):
            build_scenario_circuit("qec_independent", NoiseSpec(1.0, collective=True))
        with pytest.raises(ValueError, match="collective"):
            build_scenario_circuit("qec_hybrid", NoiseSpec(1.0))
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario_circuit("five_qubit", NoiseSpec(1.0))


class TestCircuitPlumbing:
    def test_gate_validation(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate("bad", Operator(np.diag([1.0, 2.0])), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            Gate("bad", cnot(1, 2).matrix, (1, 1))
        with pytest.raises(ValueError, match="does not fit"):
            Gate("bad", SZ, (1, 2))

    def test_circuit_target_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(2, (GateStep(hadamard(3)),))

    def test_circuit_noise_generator_width_checked(self):
        gen = DephasingGenerator(np.array([1.0]), 1.0, "z1")
        with pytest.raises(ValueError, match="generator"):
            Circuit(2, (NoiseStep((gen,)),))

    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_noise_factor_is_the_attenuation(self, kind):
        spec = NoiseSpec(2.3, collective=True, ratio=0.7, kind=kind)
        (step,) = [s for s in build_scenario_circuit("dfs_qec", spec).steps if isinstance(s, NoiseStep)]
        assert np.array_equal(step.factor, attenuation(step.generators, step.kind))
        assert step.factor is step.factor
        assert not step.factor.flags.writeable

    def test_pretty_printer(self):
        spec = NoiseSpec(1.5)
        circuit = build_scenario_circuit("qec_independent", spec)
        text = circuit.pretty()
        lines = text.splitlines()
        assert lines[0] == "CNOT 2 1"
        assert lines[1] == "CNOT 2 3"
        assert "NOISE z1 κ=1.5, z2 κ=1.5, z3 κ=1.5" in lines
        assert lines[-1] == "TOFFOLI 1 3 2"

    def test_toffoli_matrix_action(self):
        t = toffoli(1, 2, 3)
        rho = computational_state("110")
        out = apply_unitary(rho, embed(t.matrix, t.targets, 3))
        assert np.max(np.abs(out.entries - computational_state("111").entries)) <= 1e-12

    def test_pauli_z_gate(self):
        g = pauli_z(1)
        assert np.array_equal(g.matrix.entries, SZ.entries)
