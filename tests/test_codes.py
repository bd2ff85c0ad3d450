import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec import codes
from dfsqec.channels import (
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    DephasingGenerator,
    NoiseSpec,
    attenuation,
    incoherent_dephase,
)
from dfsqec.codes import (
    SCENARIOS,
    Circuit,
    Gate,
    NoiseStep,
    apply_circuit,
    build_scenario_circuit,
    circuit_states,
    cnot,
    dfs_decode,
    dfs_encode,
    hadamard,
    scenario_layout,
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
    check_stack,
    computational_state,
    embed,
    partial_trace,
    pauli,
    pauli_deviation,
    tensor_dm,
)


def run_gates(state: DensityMatrix, gates, n: int) -> DensityMatrix:
    circ = Circuit(n, tuple(gates))
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


def table_gates(scenario: str, name: str | None = None):
    # the (before, after) gates of a scenario, or the first gate named `name`
    _, _, before, after = codes._SCENARIOS[scenario]
    if name is None:
        return before, after
    return next(g for g in before + after if g.name == name)


class TestPhaseCode:
    def test_encodes_zero_to_all_plus(self):
        rho = run_gates(computational_state("000"), table_gates("qec_independent")[0], 3)
        want = plus_minus_state(+1)
        assert np.max(np.abs(rho.entries - np.outer(want, want))) <= 1e-12

    def test_encodes_one_to_all_minus(self):
        # the data qubit is qubit 2
        rho = run_gates(computational_state("010"), table_gates("qec_independent")[0], 3)
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

    def test_physical_and_logical_codes_share_one_gate_sequence(self):
        # the concatenated network is the phase code with the logical
        # pair as its second ancilla: same order, same controls
        def layout(gates):
            return [(g.name, g.targets) for g in gates]

        encode, recover = table_gates("qec_independent")
        assert layout(encode) == [("CNOT", (2, 1)), ("CNOT", (2, 3)), ("H", (2,)), ("H", (1,)), ("H", (3,))]
        assert layout(recover) == [
            ("H", (2,)), ("H", (1,)), ("H", (3,)), ("CNOT", (2, 3)), ("CNOT", (2, 1)), ("TOFFOLI", (1, 3, 2)),
        ]
        assert table_gates("qec_hybrid") == (encode, recover)
        before, after = table_gates("dfs_qec")
        logical = {("H", (3,)): ("H_L", (3, 4)), ("CNOT", (2, 3)): ("CNOT_into_L", (2, 3, 4))}
        assert layout(before) == layout(dfs_encode()) + [logical.get(g, g) for g in layout(encode)]
        assert layout(after) == [logical.get(g, g) for g in layout(recover)] + layout(dfs_decode())


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
        # Z_L is sigma_z on qubit 3, the control the recovery Toffoli
        # reads: +1 on |0_L> = |01>, -1 on |1_L> = |10>
        z3 = embed(SZ, [1], 2).entries
        for bit, sign in (("0", 1.0), ("1", -1.0)):
            rho = run_gates(computational_state(bit + "0"), _shift_to_pair(dfs_encode()), 2)
            assert np.array_equal(z3 @ rho.entries, sign * rho.entries)

    def test_x_l_swaps_logical_states(self):
        x_l = table_gates("dfs_qec", "CNOT_into_L").matrix.entries[4:, 4:]
        v01 = np.zeros(4)
        v01[1] = 1.0
        out = x_l @ v01
        assert out[2] == 1.0 and np.count_nonzero(out) == 1

    def test_h_l_definition(self):
        h_l = table_gates("dfs_qec", "H_L")
        assert h_l.targets == (3, 4)
        v01 = np.zeros(4)
        v01[1] = 1.0
        out = h_l.matrix.entries @ v01
        want = np.zeros(4)
        want[1] = want[2] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(out - want)) <= 1e-12

    @pytest.mark.parametrize("name", ["X_L", "H_L"])
    def test_pair_gates_preserve_block_structure(self, name):
        if name == "X_L":
            m = table_gates("dfs_qec", "CNOT_into_L").matrix.entries[4:, 4:]
        else:
            m = table_gates("dfs_qec", name).matrix.entries
        block = [1, 2]
        other = [0, 3]
        for i in block:
            for j in other:
                assert abs(m[i, j]) <= 1e-12
                assert abs(m[j, i]) <= 1e-12

    def test_cnot_from_l_controls_on_z_l_carrier(self):
        # the recovery Toffoli reads the logical qubit through qubit 3,
        # the carrier of Z_L, as a plain computational-basis control
        g = table_gates("dfs_qec", "TOFFOLI")
        assert g.targets == (1, 3, 2)
        assert np.array_equal(g.matrix.entries, toffoli(1, 3, 2).matrix.entries)

    def test_cnot_into_l_is_controlled_x_l(self):
        g = table_gates("dfs_qec", "CNOT_into_L")
        m = g.matrix.entries
        assert np.array_equal(m[:4, :4], np.eye(4))
        assert np.array_equal(m[4:, 4:], np.kron(SX.entries, SX.entries))
        assert g.targets == (2, 3, 4)


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
            assert sum(isinstance(step, NoiseStep) for step in circuit.steps) == 1

    def test_scenario_layout(self):
        assert [scenario_layout(s) for s in SCENARIOS] == [(3, False), (4, True), (3, False), (4, True)]
        for scenario in SCENARIOS:
            n, collective = scenario_layout(scenario)
            assert build_scenario_circuit(scenario, NoiseSpec(1.0, collective=collective)).n_qubits == n
            assert ScenarioConfig(scenario).collective is collective
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_layout("five_qubit")

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_gates_are_shared_across_noise_strengths(self, scenario):
        # only the noise marker depends on kappa0; the gates are built once
        collective = scenario_layout(scenario)[1]
        low, high = (build_scenario_circuit(scenario, NoiseSpec(k, collective=collective)) for k in (0.5, 3.0))
        assert len(low.steps) == len(high.steps)
        for a, b in zip(low.steps, high.steps):
            if isinstance(a, Gate):
                assert a is b
            else:
                assert isinstance(b, NoiseStep) and a is not b

    def test_dfs_collective_only_noise_is_harmless(self):
        circuit = build_scenario_circuit("dfs_qec", NoiseSpec(0.0, collective=True))
        collective = DephasingGenerator(np.array([0.0, 0.0, 1.0, 1.0]), 7.0, "z34-collective")
        fe = fidelity_through(circuit, noise_override=lambda r: incoherent_dephase(r, collective))
        assert abs(fe - 1.0) <= 1e-12

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
        with pytest.raises(ValueError, match="collective"):
            build_scenario_circuit("dfs_qec", NoiseSpec(1.0))
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
            Circuit(2, (hadamard(3),))

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

    def test_toffoli_matrix_action(self):
        t = toffoli(1, 2, 3)
        rho = computational_state("110")
        out = apply_unitary(rho, embed(t.matrix, t.targets, 3))
        assert np.max(np.abs(out.entries - computational_state("111").entries)) <= 1e-12

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_states_equal_a_chain_of_single_steps(self, scenario, kind):
        # the stepping on raw arrays computes the same bits as checked
        # single steps, for deviation and state inputs alike
        circuit = build_scenario_circuit(scenario, ScenarioConfig(scenario, kind=kind).noise_spec(1.7))
        n = circuit.n_qubits
        mixed_data = DensityMatrix(np.eye(2) / 2.0)
        for rho in (prepare_inputs("y", 0.7, n), tensor_dm(tensor_dm(computational_state("0"), mixed_data),
                                                           computational_state("0" * (n - 2)))):
            for step, got in circuit_states(rho, circuit):
                if isinstance(step, Gate):
                    rho = apply_unitary(rho, embed(step.matrix, step.targets, n))
                else:
                    rho = DensityMatrix(rho.entries * attenuation(step.generators, step.kind), rho.kind)
                assert got.kind == rho.kind
                assert np.array_equal(got.entries, rho.entries)
                assert not got.entries.flags.writeable

    def test_noise_override_receives_a_checked_state(self):
        circuit = build_scenario_circuit("qec_independent", NoiseSpec(0.0))
        rho = computational_state("010")
        seen = []

        def override(r):
            seen.append(r)
            return r

        states = [s for _, s in circuit_states(rho, circuit, noise_override=override)]
        marker = next(i for i, step in enumerate(circuit.steps) if isinstance(step, NoiseStep))
        (got,) = seen
        assert np.array_equal(got.entries, states[marker - 1].entries)
        assert not got.entries.flags.writeable
        # a gate within the unitarity tolerance that pushes the trace past
        # TRACE_TOL: the run stops before the override sees its state
        sloppy = Gate("sloppy", Operator(np.eye(2) * (1.0 + 5e-12), unitary=True), (1,))
        seen.clear()
        with pytest.raises(ValueError, match="state trace"):
            list(circuit_states(rho, Circuit(3, (sloppy,) + circuit.steps), noise_override=override))
        assert seen == []

    def test_each_state_is_checked_once(self, monkeypatch):
        # two noise markers, so two overrides: the checks before each
        # override and the final one cover every state exactly once
        circuit = build_scenario_circuit("qec_independent", NoiseSpec(0.3))
        twice = Circuit(3, circuit.steps + circuit.steps)
        checked = []

        def recording_check(stack, kind):
            checked.append(len(stack))
            return check_stack(stack, kind)

        monkeypatch.setattr(codes, "check_stack", recording_check)
        states = list(circuit_states(computational_state("010"), twice, noise_override=lambda r: r))
        assert len(checked) == 3
        assert sum(checked) == len(states) == len(twice.steps)

    def test_invalid_run_raises_before_its_first_yield(self):
        circuit = build_scenario_circuit("qec_independent", NoiseSpec(0.4))
        sloppy = Gate("sloppy", Operator(np.eye(2) * (1.0 + 5e-12), unitary=True), (1,))
        run = circuit_states(computational_state("010"), Circuit(3, circuit.steps + (sloppy,)))
        with pytest.raises(ValueError, match="state trace"):
            next(run)

    def test_empty_circuit_yields_nothing(self):
        rho = computational_state("01")
        assert list(circuit_states(rho, Circuit(2, ()))) == []
        assert apply_circuit(rho, Circuit(2, ())) is rho
