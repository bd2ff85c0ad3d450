import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfsqec import codes, experiments
from dfsqec.channels import (
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    DephasingGenerator,
    NoiseSpec,
    _quarter_delta,
    attenuation,
    collective_scale_of,
    incoherent_dephase,
    noise_layout,
    sinc,
    sweep_attenuation,
)
from dfsqec.codes import (
    DATA_QUBIT,
    SCENARIOS,
    Circuit,
    Gate,
    NoiseStep,
    apply_circuit,
    build_scenario_circuit,
    cnot,
    dfs_decode,
    dfs_encode,
    hadamard,
    scenario_layout,
    sweep_outputs,
    toffoli,
)
from dfsqec.experiments import ScenarioConfig, pauli_transfer_matrix, prepare_inputs, run_scenario
from dfsqec.metrics import correlation, entanglement_fidelity
from dfsqec.qstate import (
    DEVIATION,
    SX,
    SZ,
    DensityMatrix,
    Operator,
    apply_unitary,
    check_stack,
    conjugate,
    embed,
    hs_overlap_stack,
    partial_trace,
    partial_trace_stack,
    pauli_deviation,
)
from .conftest import basis_state


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


def _whole_register(gates, n: int) -> tuple[Gate, ...]:
    return tuple(Gate(g.name, embed(g.matrix, g.targets, n), tuple(range(1, n + 1))) for g in gates)


# each scenario's table gates, embedded once into whole-register gates
# that every run then takes unchanged from embed
_GATE_LEVEL = {s: (n, _whole_register(b, n), _whole_register(a, n)) for s, (n, _, b, a) in codes._SCENARIOS.items()}


def gate_level_circuit(scenario: str, noise: NoiseSpec | NoiseStep) -> Circuit:
    # the scenario's network as the table declares it, gate by gate,
    # around the marker a sweep passes, or a new one for a spec: the
    # reference for the compiled one
    n, before, after = _GATE_LEVEL[scenario]
    marker = noise if isinstance(noise, NoiseStep) else NoiseStep(noise)
    return Circuit(n, before + (marker,) + after)


def data_outputs(circuit: Circuit, inputs) -> np.ndarray:
    # each input through apply_circuit, one state at a time, reduced to the data qubit
    return partial_trace_stack(np.array([apply_circuit(rho, circuit).entries for rho in inputs]), {DATA_QUBIT})


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
@pytest.mark.parametrize("case", ["a", "b"])
@settings(max_examples=2, deadline=None)
@given(
    ratio=st.floats(np.log(0.05), np.log(20.0)).map(np.exp),
    purity=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    kappa0s=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=2 * codes._BLOCK + 1, unique=True).map(sorted),
)
# K + 1 runs that end at a _BLOCK boundary, and one run past it
@example(ratio=0.5, purity=1.0, kappa0s=[0.7 * k for k in range(codes._BLOCK - 1)])
@example(ratio=20.0, purity=0.0, kappa0s=[0.7 * k for k in range(codes._BLOCK)])
def test_three_evaluators_give_one_unital_cptp_pauli_channel(scenario, kind, case, ratio, purity, kappa0s):
    check_three_evaluators(scenario, kind, case, ratio, purity, kappa0s)


def check_three_evaluators(scenario, kind, case, ratio, purity, kappa0s):
    # at every run of a sweep, its kappa0 = 0 reference too, (a) apply_circuit on the gate-level
    # network, (b) apply_circuit on the compiled circuit and (c) the sweep give one data-qubit
    # channel, which is unital and CPTP (the premises of F_e) and a Pauli channel
    config = ScenarioConfig(scenario, kind=kind, sweep=kappa0s, ratio=ratio, coupling_case=case, ancilla_purity=purity)
    specs = [config.noise_spec(x) for x in (0.0, *config.sweep)]
    inputs = experiments._product_inputs(purity, scenario_layout(scenario)[0])  # I/2, then sigma_x, sigma_y, sigma_z
    markers = [NoiseStep(s) for s in specs]
    gate_level, compiled = (
        np.array([data_outputs(build(scenario, m), inputs) for m in markers]) for build in (gate_level_circuit, build_scenario_circuit)
    )
    swept = np.concatenate([sweep_outputs(scenario, specs, ins) for ins in (inputs[:1], inputs[1:])], 1)
    assert compiled.tobytes() == swept.tobytes()
    # R[k, u, v] = tr(sigma_u E_k(rho_v)) * scale_v over (I, x, y, z), pauli_transfer_matrix's formula
    basis = experiments._PAULI_BASIS
    r, r_a = (hs_overlap_stack(basis[:, None], outs[:, None]) * [1.0, 0.5, 0.5, 0.5] for outs in (compiled, gate_level))
    assert all(np.array_equal(rk, pauli_transfer_matrix(scenario, s, purity)) for rk, s in zip(r, specs))
    assert np.abs(r_a - r).max() <= 1e-14
    assert np.abs(r[:, :, 0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-12
    # Choi matrix (1/2) sum_v sigma_v^T x E(sigma_v), with E(sigma_v) = sum_u R[u, v] sigma_u
    choi = np.einsum("vji,kvab->kiajb", basis, np.einsum("kuv,uab->kvab", r, basis)).reshape(-1, 4, 4) / 2.0
    assert np.linalg.eigvalsh(choi)[:, 0].min() >= -1e-12
    assert np.abs(r[:, 1:, 1:] * (1.0 - np.eye(3))).max() <= 1e-14
    # C_u of (b)'s outputs, one output at a time, and P_u, their purities over the reference run's
    devs = [pauli_deviation(u) for u in "xyz"]
    c = np.array([[correlation(d, DensityMatrix(o, DEVIATION)) for d, o in zip(devs, outs[1:])] for outs in compiled])
    p = hs_overlap_stack(compiled[:, 1:], compiled[:, 1:]) / hs_overlap_stack(compiled[0, 1:], compiled[0, 1:])
    assert np.abs(p - (c / c[0]) ** 2).max() <= 1e-14
    reports = np.array([[getattr(pt.report, f) for f in ("Cx", "Cy", "Cz", "Px", "Py", "Pz")] for pt in run_scenario(config).points])
    assert reports.tobytes() == np.concatenate([c, p], 1)[1:].tobytes()
    if scenario == "dfs_qec" and purity == 1.0:
        # nothing leaves span{|01>, |10>} of qubits 3 and 4 between dfs_encode and dfs_decode;
        # the I/2 input's support holds every data state with pure ancillae; the prefix states are
        # a chain of one-step runs, as test_states_equal_a_chain_of_single_steps pins
        outside = np.isin(np.arange(16) % 4, (0, 3))
        for m in markers:
            steps = gate_level_circuit(scenario, m).steps[: -len(dfs_decode())]
            prefixes = list(itertools.accumulate(steps, lambda rho, step: apply_circuit(rho, Circuit(4, (step,))), initial=inputs[0]))
            for rho in prefixes[len(dfs_encode()) :]:
                assert rho.entries.diagonal().real[outside].sum() <= 1e-12


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("purity", [0.0, 0.3, 0.7, 1.0])
# the same clauses on fixed sweeps: a few points through both sinc zeros, and K + 1 runs one past a _BLOCK boundary
@pytest.mark.parametrize("kappa0s", [(0.8, 2.9, 5.3), tuple(0.7 * k for k in range(codes._BLOCK))], ids=["zeros", "block"])
def test_three_evaluators_agree_on_pinned_sweeps(scenario, kind, case, purity, kappa0s):
    check_three_evaluators(scenario, kind, case, 0.5, purity, kappa0s)


def table_gates(scenario: str, name: str | None = None):
    # the (before, after) gates of a scenario, or the first gate named `name`
    _, _, before, after = codes._SCENARIOS[scenario]
    if name is None:
        return before, after
    return next(g for g in before + after if g.name == name)


class TestPhaseCode:
    def test_encodes_zero_to_all_plus(self):
        rho = run_gates(basis_state("000"), table_gates("qec_independent")[0], 3)
        want = plus_minus_state(+1)
        assert np.max(np.abs(rho.entries - np.outer(want, want))) <= 1e-12

    def test_encodes_one_to_all_minus(self):
        # the data qubit is qubit 2
        rho = run_gates(basis_state("010"), table_gates("qec_independent")[0], 3)
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
        rho = run_gates(basis_state("00"), _shift_to_pair(dfs_encode()), 2)
        assert np.max(np.abs(rho.entries - basis_state("01").entries)) <= 1e-12

    def test_one_maps_to_10(self):
        rho = run_gates(basis_state("10"), _shift_to_pair(dfs_encode()), 2)
        assert np.max(np.abs(rho.entries - basis_state("10").entries)) <= 1e-12

    def test_decode_inverts_encode(self, rng):
        from .conftest import random_state

        pair = random_state(rng, 1)
        rho = DensityMatrix(np.kron(pair.entries, basis_state("0").entries))
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
            rho = run_gates(basis_state(bit + "0"), _shift_to_pair(dfs_encode()), 2)
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
    def test_compiled_gates_are_the_exact_products_of_the_table(self, scenario):
        n, collective, before, after = codes._SCENARIOS[scenario]
        steps = build_scenario_circuit(scenario, NoiseSpec(1.0, collective=collective)).steps
        gates = [(step, table) for step, table in zip((steps[0], steps[-1]), (before, after)) if table]
        assert [step.name for step, _ in gates] == (["encode", "recover"] if before else [])
        assert len(steps) == 1 + len(gates)
        # 1/2 and sqrt(2)/4 as products of the table's h = fl(1/sqrt 2)
        h = table_gates("qec_independent", "H").matrix.entries[0, 0].real
        exact = [0.0, h * h, h * h * h]
        assert abs(exact[1] - 0.5) <= 2 * np.spacing(0.5)
        assert abs(exact[2] - np.sqrt(2.0) / 4.0) <= 2 * np.spacing(np.sqrt(2.0) / 4.0)
        for step, table in gates:
            u = step.matrix.entries
            assert step.targets == tuple(range(1, n + 1))
            assert not u.imag.any() and np.isin(np.abs(u.real), exact).all()
            product = np.eye(2**n)
            for g in table:
                product = embed(g.matrix, g.targets, n).entries @ product
            assert (np.abs(u - product) <= 2 * np.spacing(np.abs(u))).all()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    @pytest.mark.parametrize("case", ["a", "b"])
    @pytest.mark.parametrize("purity", [0.0, 0.3, 0.7, 1.0])
    def test_outputs_are_the_noise_factor_against_heisenberg_weights(self, scenario, kind, case, purity):
        # R_vu = 1/2 tr(sigma_v U2 (F o U1 rho_u U1^dag) U2^dag) = sum_ij F_ij W_vu[i, j], with
        # W_vu = 1/2 (A_v^T o B_u), A_v = U2^dag sigma_v U2 and B_u = U1 rho_u U1^dag, v and u
        # over (I, x, y, z), rho_u the probe's inputs: one sweep is one product F @ W
        n = scenario_layout(scenario)[0]
        u1, u2 = (gates[0].matrix if gates else Operator(np.eye(2**n)) for gates in codes._COMPILED[scenario])
        b = conjugate(u1, np.array([rho.entries for rho in experiments._product_inputs(purity, n)]))
        sigma = np.array([embed(Operator(s), (DATA_QUBIT,), n).entries for s in experiments._PAULI_BASIS])
        a = conjugate(Operator(u2.adjoint), sigma)
        w = 0.5 * a.swapaxes(-1, -2)[:, None] * b
        # W is Hermitian, so a real symmetric F sees only Re W
        assert np.abs(w.imag + w.imag.swapaxes(-1, -2)).max() <= 4 * np.spacing(np.abs(w).max())
        nonzero = {"no_qec": 4 if purity == 1.0 else 16, "qec_independent": 64}.get(scenario, 64 if purity == 1.0 else 128)
        assert np.count_nonzero(w[1:, 1:].any(axis=(0, 1))) == nonzero
        config = ScenarioConfig(scenario, kind=kind, coupling_case=case, ancilla_purity=purity)
        specs = [config.noise_spec(x) for x in config.sweep]
        r = np.einsum("kij,vuij->kvu", np.array([attenuation(noise_layout(s), kind) for s in specs]), w.real)
        cs = [[p.report.Cx, p.report.Cy, p.report.Cz] for p in run_scenario(config).points]
        assert len(cs) >= 20
        assert np.abs(np.diagonal(r[:, 1:, 1:], axis1=1, axis2=2) - cs).max() <= 1e-14
        # the 3x3 block is diagonal: the data-qubit channel is a Pauli channel
        assert np.abs(r[:, 1:, 1:] * (1.0 - np.eye(3))).max() <= 1e-30
        scales = np.array([1.0, 0.5, 0.5, 0.5])  # the probe's column scales, against W's 1/2
        for k in (0, 6, 17):
            assert np.abs(r[k] * (2.0 * scales) - pauli_transfer_matrix(scenario, specs[k], purity)).max() <= 1e-14

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

    def test_a_ready_marker_is_used_as_given(self):
        # a sweep passes each point's marker with its gathered factor
        spec = NoiseSpec(1.3, collective=True, coupling_case="b")
        (factor,) = sweep_attenuation([spec])
        marker = NoiseStep(spec, factor)
        assert marker.factor is factor and not factor.flags.writeable
        assert factor.tobytes() == NoiseStep(spec).factor.tobytes()
        assert [step for step in build_scenario_circuit("dfs_qec", marker).steps if isinstance(step, NoiseStep)] == [marker]
        with pytest.raises(ValueError, match="independent"):
            build_scenario_circuit("qec_independent", marker)

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

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([INCOHERENT_SINC, MARKOVIAN_EXP]),
        st.sampled_from(["a", "b"]),
        st.floats(-308.0, 308.0),
        st.floats(0.0, 12.0),
    )
    def test_data_qubit_channel_equals_reference_code(self, kind, case, log_ratio, kappa0):
        # the concatenated circuit under hybrid noise must realize the
        # same data-qubit channel as the bare code under independent
        # noise, at any ratio NoiseSpec accepts; impure ancillae in the
        # encoded pair leave the decoherence-free subspace, so the two
        # codes agree only at purity 1
        try:
            hybrid = NoiseSpec(kappa0, collective=True, ratio=10.0**log_ratio, coupling_case=case, kind=kind)
        except ValueError:
            assume(False)
        got = pauli_transfer_matrix("dfs_qec", hybrid)
        want = pauli_transfer_matrix("qec_independent", NoiseSpec(kappa0, kind=kind))
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_scenario_spec_mismatch_errors(self):
        with pytest.raises(ValueError, match="independent"):
            build_scenario_circuit("qec_independent", NoiseSpec(1.0, collective=True))
        with pytest.raises(ValueError, match="collective"):
            build_scenario_circuit("qec_hybrid", NoiseSpec(1.0))
        with pytest.raises(ValueError, match="collective"):
            build_scenario_circuit("dfs_qec", NoiseSpec(1.0))
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario_circuit("five_qubit", NoiseSpec(1.0))

    def test_noise_marker_is_checked_when_built(self):
        # the marker's attenuation is computed by build_scenario_circuit,
        # not by the first run; kappa_c * Delta / 4 = 1.5e308 * 1.5 overflows
        spec = NoiseSpec(1.5e308, collective=True, ratio=1.0, coupling_case="a", kind=INCOHERENT_SINC)
        with pytest.raises(ValueError, match="^noise attenuation is not finite"):
            build_scenario_circuit("qec_hybrid", spec)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SCENARIOS),
        st.sampled_from([INCOHERENT_SINC, MARKOVIAN_EXP]),
        st.sampled_from(["a", "b"]),
        st.floats(0.0, 1e307),
        st.floats(-308.0, 308.0),
    )
    @example("qec_hybrid", INCOHERENT_SINC, "a", 1.0, 308.0)  # Delta = 2e308 overflows
    def test_every_accepted_spec_builds_a_finite_factor(self, scenario, kind, case, kappa0, log_ratio):
        # evaluability, not agreement with the closed form: every spec
        # NoiseSpec accepts, with collective scale <= 1e308, builds
        collective = scenario_layout(scenario)[1]
        ratio = 10.0**log_ratio
        try:
            spec = NoiseSpec(kappa0, collective, ratio, case, kind)
        except ValueError:
            assume(False)
        assume(not collective or collective_scale_of(kappa0, ratio, kind) <= 1e308)
        (step,) = [s for s in build_scenario_circuit(scenario, spec).steps if isinstance(s, NoiseStep)]
        assert np.isfinite(step.factor).all()
        assert (np.abs(step.factor) <= 1.0).all()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: NoiseStep(NoiseSpec(1.0, kind="bogus")), "unknown noise kind 'bogus'"),
        (
            lambda: NoiseStep(NoiseSpec(1.5e308, collective=True, ratio=1.0)),
            "noise attenuation is not finite: generator strengths are too large",
        ),
        (lambda: Circuit(2, ("H",)), "unknown step type str"),
        (
            lambda: apply_circuit(basis_state("000"), Circuit(2, (hadamard(1),))),
            "state dimension 8 does not match 2-qubit circuit",
        ),
        # sweep_outputs' contract: apply_circuit's message for a dimension
        # mismatch; one kind of input per sweep; no specs, or no inputs,
        # rejected
        (
            lambda: sweep_outputs("no_qec", [NoiseSpec(0.0)], [basis_state("000"), basis_state("0000")]),
            "state dimension 16 does not match 3-qubit circuit",
        ),
        (
            lambda: sweep_outputs("no_qec", [NoiseSpec(0.0)], [basis_state("000"), prepare_inputs("z", 1.0, 3)]),
            "inputs of one sweep must all be of one kind",
        ),
        (lambda: sweep_outputs("no_qec", [], [basis_state("000")]), "need at least one spec and one input"),
        (lambda: sweep_outputs("no_qec", [NoiseSpec(0.0)], []), "need at least one spec and one input"),
    ],
)
def test_error_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def assert_run_rejects(circuit, message):
    """Running ``circuit`` on a basis state raises ``message``."""
    with pytest.raises(ValueError, match=message):
        apply_circuit(basis_state("0" * circuit.n_qubits), circuit)


class TestCircuitPlumbing:
    def test_gate_validation(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate("bad", Operator(np.diag([1.0, 2.0])), (1,))
        # targets are checked by embed, when the gate runs
        assert_run_rejects(Circuit(2, (Gate("bad", cnot(1, 2).matrix, (1, 1)),)), r"^duplicate target qubit in \[1, 1\]$")
        assert_run_rejects(Circuit(2, (Gate("bad", SZ, (1, 2)),)), "^gate of dimension 2 does not fit 2 target")

    def test_circuit_target_range_checked(self):
        assert_run_rejects(Circuit(2, (hadamard(3),)), r"^targets \[3\] out of range 1..2$")

    def test_circuit_noise_factor_shape_checked(self):
        four_qubit = NoiseStep(NoiseSpec(1.0, collective=True))
        with pytest.raises(ValueError, match=r"^noise factor of shape \(16, 16\) does not fit 3-qubit circuit$"):
            Circuit(3, (four_qubit,))
        assert Circuit(4, (four_qubit,)).steps == (four_qubit,)

    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_noise_factor_is_the_attenuation(self, kind):
        spec = NoiseSpec(2.3, collective=True, ratio=0.7, kind=kind)
        (step,) = [s for s in build_scenario_circuit("dfs_qec", spec).steps if isinstance(s, NoiseStep)]
        assert step.spec is spec
        # the table's environments: z1, z2 and case "a"'s two parts whose
        # arguments add, each from its unit pattern's Delta / 4
        q1, q2, q3, q34 = (_quarter_delta(np.isin(np.arange(1, 5), qubits) * 1.0) for qubits in (1, 2, 3, (3, 4)))
        x, xc = spec.kappa0, collective_scale_of(spec.kappa0, spec.ratio, kind)
        if kind == INCOHERENT_SINC:
            want = sinc(x * q1) * sinc(x * q2) * sinc(xc * q34 + x * q3)
        else:
            pair = (np.sqrt(xc) * (2.0 * q34) + np.sqrt(x) * (2.0 * q3)) ** 2
            want = np.exp(-x * (2.0 * q1) ** 2) * np.exp(-x * (2.0 * q2) ** 2) * np.exp(-pair)
        assert step.factor.tobytes() == want.tobytes()
        assert step.factor is step.factor
        assert not step.factor.flags.writeable

    def test_toffoli_matrix_action(self):
        t = toffoli(1, 2, 3)
        rho = basis_state("110")
        out = apply_unitary(rho, embed(t.matrix, t.targets, 3))
        assert np.max(np.abs(out.entries - basis_state("111").entries)) <= 1e-12

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_states_equal_a_chain_of_single_steps(self, scenario, kind):
        # the stepping on raw arrays computes the same bits as checked
        # single steps, for deviation and state inputs alike
        circuit = build_scenario_circuit(scenario, ScenarioConfig(scenario, kind=kind).noise_spec(1.7))
        n = circuit.n_qubits
        mixed = np.kron(np.kron(basis_state("0").entries, np.eye(2) / 2.0), basis_state("0" * (n - 2)).entries)
        for start in (prepare_inputs("y", 0.7, n), DensityMatrix(mixed)):
            rho = start
            for i, step in enumerate(circuit.steps):
                if isinstance(step, Gate):
                    rho = apply_unitary(rho, embed(step.matrix, step.targets, n))
                else:
                    rho = DensityMatrix(rho.entries * attenuation(noise_layout(step.spec), step.spec.kind), rho.kind)
                got = apply_circuit(start, Circuit(n, circuit.steps[: i + 1]))
                assert got.kind == rho.kind
                assert np.array_equal(got.entries, rho.entries)
                assert not got.entries.flags.writeable

    def test_noise_override_receives_a_checked_state(self):
        circuit = build_scenario_circuit("qec_independent", NoiseSpec(0.0))
        rho = basis_state("010")
        seen = []

        def override(r):
            seen.append(r)
            return r

        apply_circuit(rho, circuit, noise_override=override)
        marker = next(i for i, step in enumerate(circuit.steps) if isinstance(step, NoiseStep))
        (got,) = seen
        assert np.array_equal(got.entries, apply_circuit(rho, Circuit(3, circuit.steps[:marker])).entries)
        assert not got.entries.flags.writeable
        # a gate within the unitarity tolerance that pushes the trace past
        # TRACE_TOL: the run stops before the override sees its state
        sloppy = Gate("sloppy", Operator(np.eye(2) * (1.0 + 5e-12)), (1,))
        seen.clear()
        with pytest.raises(ValueError, match="state trace"):
            apply_circuit(rho, Circuit(3, (sloppy,) + circuit.steps), noise_override=override)
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
        apply_circuit(basis_state("010"), twice, noise_override=lambda r: r)
        assert len(checked) == 3
        assert sum(checked) == len(twice.steps)

    def test_final_state_that_fails_its_check_raises(self):
        circuit = build_scenario_circuit("qec_independent", NoiseSpec(0.4))
        sloppy = Gate("sloppy", Operator(np.eye(2) * (1.0 + 5e-12)), (1,))
        assert_run_rejects(Circuit(3, circuit.steps + (sloppy,)), "state trace")

    def test_a_block_is_every_input_through_every_circuit(self):
        # row i, column j is apply_circuit of input j and circuit i, bit
        # for bit, and the block is read-only: the block steps the whole
        # stack at once, apply_circuit one state alone.  Every scenario,
        # ancilla purity and input kind, over both noise kinds, in blocks
        # of one, of fewer, of exactly and of more than codes._BLOCK
        for scenario, purity in itertools.product(SCENARIOS, (1.0, 0.7, 0.0)):
            n = scenario_layout(scenario)[0]
            state, *deviations = experiments._product_inputs(purity, n)
            configs = [ScenarioConfig(scenario, kind=kind) for kind in (INCOHERENT_SINC, MARKOVIAN_EXP)]
            for size in (1, 7, 8, 9):
                circuits = [build_scenario_circuit(scenario, configs[i % 2].noise_spec(0.37 * i)) for i in range(size)]
                for inputs in ([state, DensityMatrix(np.eye(2**n) / 2**n)], deviations):
                    block = codes._run_block(inputs, circuits)
                    assert block.shape == (size, len(inputs), 2**n, 2**n)
                    assert not block.flags.writeable
                    for row, circuit in zip(block, circuits, strict=True):
                        for out, rho in zip(row, inputs, strict=True):
                            assert out.tobytes() == apply_circuit(rho, circuit).entries.tobytes()

    @staticmethod
    def _dfs_block():
        # every circuit of a dfs_qec block is (encode, marker, recover), with
        # one encode object: k = 3 deviation inputs through B = 8 circuits
        _, *inputs = experiments._product_inputs(0.7, 4)
        circuits = [build_scenario_circuit("dfs_qec", NoiseSpec(0.37 * i, collective=True)) for i in range(codes._BLOCK)]
        assert (len(inputs), len(circuits)) == (3, 8)
        return inputs, circuits

    def test_a_block_runs_its_shared_encode_once_per_input(self, monkeypatch):
        # conjugate steps k + B k matrices, not 2 B k
        stepped = []
        monkeypatch.setattr(codes, "conjugate", lambda u, m: stepped.append(m.shape[:-2]) or conjugate(u, m))
        codes._run_block(*self._dfs_block())
        assert stepped == [(3,), (8, 3)]

    def test_a_block_without_a_marker_broadcasts_each_inputs_final_state(self):
        # every gate runs once per input, and each run's final state still
        # has apply_circuit's bits
        circuit = Circuit(3, (cnot(1, 2), hadamard(2), cnot(2, 3)))
        _, *inputs = experiments._product_inputs(0.3, 3)
        block = codes._run_block(inputs, [circuit] * 3)
        assert block.shape == (3, len(inputs), 8, 8) and not block.flags.writeable
        for row in block:
            for out, rho in zip(row, inputs, strict=True):
                assert out.tobytes() == apply_circuit(rho, circuit).entries.tobytes()

    def test_empty_circuit_returns_its_input(self):
        rho = basis_state("01")
        assert apply_circuit(rho, Circuit(2, ())) is rho


class TestPermutationConjugation:
    # every gate of the scenario table, embedded at its scenario's size
    GATES = [(n, g) for n, _, before, after in codes._SCENARIOS.values() for g in before + after]

    def test_permutation_gates_conjugate_exactly_as_the_products(self, rng):
        names = set()
        for n, gate in self.GATES:
            if not np.isin(gate.matrix.entries, (0, 1)).all():
                continue
            names.add(gate.name)
            u = embed(gate.matrix, gate.targets, n)
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            for m in (g + g.conj().T, (g + g.conj().T) / 7.0):
                want = u.entries @ m @ u.entries.conj().T
                assert np.array_equal(conjugate(u, m), want)
                out = np.empty_like(m)
                assert conjugate(u, m, out=out) is out
                assert np.array_equal(out, want)
        assert names == {"X", "CNOT", "TOFFOLI", "CNOT_into_L"}
