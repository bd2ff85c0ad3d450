import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec import codes, experiments, qstate
from dfsqec.qstate import (
    DEVIATION,
    STATE,
    SX,
    SY,
    SZ,
    DensityMatrix,
    Operator,
    apply_unitary,
    check_stack,
    conjugate,
    embed,
    hs_overlap_stack,
    maximally_mixed,
    partial_trace,
    partial_trace_stack,
    pauli,
    pauli_deviation,
)
from dfsqec.channels import COUPLING_CASES, NOISE_KINDS
from dfsqec.codes import NoiseStep
from dfsqec.metrics import correlations
from .conftest import basis_state, oracle_partial_trace, random_deviation, random_state

H = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
CNOT = Operator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class TestConstruction:
    def test_operator_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.ones((2, 3)))

    def test_operator_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Operator(np.eye(3))

    def test_operator_rejects_scalar_dim(self):
        with pytest.raises(ValueError, match="power of two"):
            Operator(np.eye(1))

    def test_unitary_flag_is_checked(self):
        # every operator is checked: a non-unitary matrix is rejected
        with pytest.raises(ValueError, match="unitary"):
            Operator(np.array([[1, 0], [0, 2]]))

    def test_state_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_state_must_have_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_state_must_be_positive(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_deviation_must_be_traceless(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2) / 2, DEVIATION)

    def test_deviation_allows_negative_eigenvalues(self):
        dev = DensityMatrix(SZ.entries, DEVIATION)
        assert dev.kind == DEVIATION

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DensityMatrix(np.eye(2) / 2, "other")

    def test_entries_are_frozen(self):
        rho = maximally_mixed(1)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0


class TestCheckStack:
    @pytest.mark.parametrize(
        "kind, bad",
        [
            (STATE, [[0.5, 1.0], [0.0, 0.5]]),
            (STATE, np.eye(2)),
            (STATE, np.diag([1.5, -0.5])),
            (DEVIATION, [[0.0, 1.0], [0.0, 0.0]]),
            (DEVIATION, np.eye(2) / 2),
        ],
        ids=["state-non-hermitian", "state-trace", "state-negative", "deviation-non-hermitian", "deviation-trace"],
    )
    def test_bad_third_matrix_raises_the_constructor_message(self, kind, bad):
        good = maximally_mixed(1) if kind == STATE else pauli_deviation("z")
        stack = np.array([good.entries, good.entries, bad, good.entries], dtype=complex)
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad, kind)
        with pytest.raises(ValueError) as batched:
            check_stack(stack, kind)
        assert str(batched.value) == str(single.value)

    def test_first_bad_matrix_decides(self):
        stack = np.array([np.eye(2) / 2, np.eye(2), [[0.5, 1.0], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ValueError, match="state trace is 2.0"):
            check_stack(stack, STATE)

    @pytest.mark.parametrize("kind", [STATE, DEVIATION])
    @pytest.mark.parametrize(
        "value, where",
        [(np.nan, (0, 0)), (np.nan, (0, 1)), (np.inf, (0, 0)), (-np.inf, (1, 0)), (complex(0, np.inf), (1, 1))],
    )
    def test_non_finite_entries_raise_without_warnings(self, kind, value, where):
        good = maximally_mixed(1) if kind == STATE else pauli_deviation("z")
        bad = good.entries.copy()
        bad[where] = value
        # a non-Hermitian matrix after it: the first failing matrix decides
        stack = np.array([good.entries, bad, [[0.5, 1.0], [0.0, 0.5]]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                DensityMatrix(bad, kind)
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                check_stack(stack, kind)

    @pytest.mark.parametrize("kind", [STATE, DEVIATION])
    def test_overflowing_hermiticity_error_is_not_hermitian(self, kind):
        # finite entries whose A - A^dag overflows to inf
        stack = np.array([[[0.5, 1e308], [-1e308, 0.5]]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix is not Hermitian, max deviation inf$"):
                check_stack(stack, kind)
            with pytest.raises(ValueError, match="^matrix is not Hermitian, max deviation inf$"):
                DensityMatrix(stack[0], kind)

    def test_finite_matrix_whose_trace_sums_to_nan_is_rejected(self):
        # exact trace 5, but the pairwise diagonal sum meets inf + -inf
        bad = np.diag([1e308, -1e308, 5.0] + [0.0] * 5 + [1e308, -1e308] + [0.0] * 6).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(bad).all() and np.isnan(bad.trace())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^deviation trace is nan, expected 0$"):
                DensityMatrix(bad, DEVIATION)
            with pytest.raises(ValueError, match="^deviation trace is nan, expected 0$"):
                check_stack(np.array([np.zeros((16, 16)), bad]), DEVIATION)

    @pytest.mark.parametrize("kind, entries", [(DEVIATION, [[np.nan, 0], [0, np.nan]]), (STATE, [[np.nan, 0], [0, 1]])])
    def test_nan_matrices_are_rejected(self, kind, entries):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(entries, kind)

    def test_valid_and_empty_stacks_pass(self, rng):
        check_stack(np.array([random_state(rng, 2).entries for _ in range(5)]), STATE)
        check_stack(np.empty((0, 4, 4), dtype=complex), STATE)
        check_stack(np.empty((0, 4, 4), dtype=complex), DEVIATION)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            check_stack(np.array([np.eye(2) / 2]), "other")

    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
    def test_real_stack_passes_and_is_left_unchanged(self, writeable):
        stack = np.eye(4)[None] / 4
        stack.setflags(write=writeable)
        check_stack(stack, STATE)
        assert np.array_equal(stack, np.eye(4)[None] / 4)

    def test_real_non_symmetric_stack_is_not_hermitian(self):
        stack = np.array([[[0.5, 0.25], [0.0, 0.5]]])
        with pytest.raises(ValueError, match="^matrix is not Hermitian, max deviation 2.50e-01$"):
            check_stack(stack, STATE)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_all_non_finite_states_raise_the_finiteness_message(self, d, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                check_stack(np.full((1, d, d), value, dtype=complex), STATE)

    def test_negative_state_before_a_non_finite_one_decides(self):
        d = 16
        negative = np.diag([-0.2] + [1.2 / (d - 1)] * (d - 1)).astype(complex)
        stack = np.array([negative, np.full((d, d), np.nan)])
        with pytest.raises(ValueError, match="^state has negative eigenvalue -2.00e-01$"):
            check_stack(stack, STATE)


def _eigvalsh_check_stack(stack: np.ndarray, kind: str) -> None:
    """The reference: check_stack deciding positivity by one batched
    eigvalsh over the whole stack."""
    errs = np.conjugate(stack)
    errs -= stack.swapaxes(1, 2)
    herms = np.maximum.reduce(abs(errs), (1, 2)).tolist()
    traces = np.add.reduce(stack.diagonal(0, 1, 2), 1).tolist()
    if kind == STATE:
        target, lowests = 1, np.linalg.eigvalsh(stack)[:, 0].tolist()
    else:
        target, lowests = 0, [0.0] * len(herms)
    for herm, tr, lowest in zip(herms, traces, lowests):
        if not np.isfinite(herm):
            raise ValueError("matrix has non-finite entries")
        if herm > qstate.HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian, max deviation {herm:.2e}")
        if abs(tr.real - target) > qstate.TRACE_TOL:
            raise ValueError(f"{kind} trace is {tr.real!r}, expected {target}")
        if lowest < qstate.STATE_MIN_EIG:
            raise ValueError(f"state has negative eigenvalue {lowest:.2e}")


def _state_outcome(check, stack: np.ndarray) -> str | None:
    try:
        check(stack, STATE)
    except ValueError as exc:
        return str(exc)
    return None


def _spectral_state(rng: np.random.Generator, u: np.ndarray, lowest: float) -> np.ndarray:
    """Unit-trace ``U diag(lam) U^dag``, exactly Hermitian, whose lowest
    eigenvalue ``lowest`` belongs to U's first column."""
    rest = rng.uniform(0.01, 1.0, len(u) - 1)
    rest *= (1.0 - lowest) / rest.sum()
    m = (u * np.concatenate([[lowest], rest])) @ u.conj().T
    return (m + m.conj().T) / 2


class TestPositivityDecision:
    """check_stack decides positivity as one batched eigvalsh over the
    whole stack does."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4, 8, 16]),
        st.lists(st.floats(-3e-10, 1e-10), min_size=1, max_size=6),
    )
    def test_random_stacks_decide_as_eigvalsh_alone(self, seed, d, lowests):
        rng = np.random.default_rng(seed)
        stack = np.array([_spectral_state(rng, _random_unitary(rng, d), low) for low in lowests])
        assert _state_outcome(check_stack, stack) == _state_outcome(_eigvalsh_check_stack, stack)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize(
        "lowest, message",
        [
            (0.0, None),
            (-4e-11, None),
            (-7e-11, None),
            (-1.5e-10, "state has negative eigenvalue -1.50e-10"),
        ],
    )
    def test_fixed_margins_decide_as_eigvalsh_alone(self, d, lowest, message):
        rng = np.random.default_rng(d)
        stack = np.array([_spectral_state(rng, _random_unitary(rng, d), low) for low in (0.0, lowest, 0.0)])
        assert _state_outcome(_eigvalsh_check_stack, stack) == message
        assert _state_outcome(check_stack, stack) == message

    @pytest.mark.parametrize("step, lowest", [(-0.9e-12, -4.5e-11), (0.9e-12, -5.5e-11)])
    def test_triangles_that_differ_within_the_hermiticity_tolerance(self, step, lowest):
        # the upper triangle is off by `step` everywhere, so the matrix
        # read from it has lambda_min moved by (d - 1) * step along the
        # uniform vector: the two readings straddle -5e-11, and both are
        # above STATE_MIN_EIG, whichever triangle eigvalsh reads
        d = 16
        rng = np.random.default_rng(7)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g[:, 0] = 1.0
        u = np.linalg.qr(g)[0]
        m = _spectral_state(rng, u, lowest) + np.triu(np.full((d, d), step), 1)
        stack = m[None]
        assert _state_outcome(_eigvalsh_check_stack, stack) is None
        assert _state_outcome(check_stack, stack) is None
        upper = np.triu(m) + np.triu(m, 1).conj().T
        assert np.linalg.eigvalsh(upper)[0] == pytest.approx(lowest + (d - 1) * step, abs=1e-13)


class TestEmbed:
    def test_single_qubit_definition(self):
        got = embed(SZ, [3], 4).entries
        want = np.kron(np.kron(np.eye(2), np.eye(2)), np.kron(SZ.entries, np.eye(2)))
        assert np.array_equal(got, want)

    def test_identity_embedding(self):
        assert np.array_equal(embed(H, [1], 1).entries, H.entries)

    def test_reversed_cnot_targets(self):
        # control on qubit 2, target qubit 1: |01> -> |11>
        u = embed(CNOT, [2, 1], 2).entries
        vec = np.zeros(4)
        vec[0b01] = 1.0
        out = u @ vec
        want = np.zeros(4)
        want[0b11] = 1.0
        assert np.array_equal(out, want)

    def test_full_basis_action_of_reversed_cnot(self):
        u = embed(CNOT, [2, 1], 2).entries
        for src, dst in ((0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)):
            vec = np.zeros(4)
            vec[src] = 1.0
            assert np.argmax(np.abs(u @ vec)) == dst

    def test_errors(self):
        with pytest.raises(ValueError, match="range"):
            embed(SZ, [5], 4)
        with pytest.raises(ValueError, match="duplicate"):
            embed(CNOT, [1, 1], 2)
        with pytest.raises(ValueError, match="does not fit"):
            embed(CNOT, [1], 2)

    def test_results_are_read_only(self):
        got = embed(SZ, [3], 4)
        assert not got.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.entries[0, 0] = 2.0

    def test_whole_register_gate_in_order_is_its_own_embedding(self):
        for gate, n in ((H, 1), (CNOT, 2)):
            assert embed(gate, range(1, n + 1), n) is gate
        # any other order builds a new operator: the reversed CNOT swaps |01> and |11>
        rev = embed(CNOT, [2, 1], 2)
        assert rev is not CNOT
        assert np.array_equal(rev.entries, np.eye(4)[[0, 3, 2, 1]])

    def test_invalid_call_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="range"):
                embed(SZ, [5], 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_disjoint_embeddings_commute(self, seed, n):
        rng = np.random.default_rng(seed)
        j, k = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        g = Operator(_random_unitary(rng, 2))
        h = Operator(_random_unitary(rng, 2))
        a = embed(g, [int(j)], n).entries
        b = embed(h, [int(k)], n).entries
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


class TestApplyUnitary:
    def test_identity(self, rng):
        rho = random_state(rng, 2)
        out = apply_unitary(rho, Operator(np.eye(4)))
        assert np.array_equal(out.entries, rho.entries)

    def test_bit_flip(self):
        out = apply_unitary(basis_state("0"), SX)
        assert np.allclose(out.entries, basis_state("1").entries)

    def test_hadamard_maps_sigma_z_to_sigma_x(self):
        out = apply_unitary(pauli_deviation("z"), H)
        assert np.max(np.abs(out.entries - SX.entries)) <= 1e-12

    def test_preserves_trace_and_spectrum(self, rng):
        for n in (1, 2, 3):
            rho = random_state(rng, n)
            u = Operator(_random_unitary(rng, 2**n))
            out = apply_unitary(rho, u)
            assert abs(out.trace() - rho.trace()) <= 1e-12
            got = np.sort(np.linalg.eigvalsh(out.entries))
            want = np.sort(np.linalg.eigvalsh(rho.entries))
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_preserves_kind(self):
        out = apply_unitary(pauli_deviation("x"), H)
        assert out.kind == DEVIATION

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(maximally_mixed(2), SX)

    def test_cyclic_permutation_conjugates_exactly(self, rng):
        # |k> -> |k+1 mod 4> is not its own inverse, so conjugating by the
        # inverse permutation would fail here
        shift = Operator(np.roll(np.eye(4), 1, axis=0))
        rho = random_state(rng, 2)
        want = shift.entries @ rho.entries @ shift.entries.conj().T
        assert np.array_equal(apply_unitary(rho, shift).entries, want)

    def test_adjoint_is_cached_and_read_only(self, rng):
        u = Operator(_random_unitary(rng, 4))
        assert np.array_equal(u.adjoint, u.entries.conj().T)
        assert u.adjoint is u.adjoint
        assert not u.adjoint.flags.writeable


ONE = np.eye(4, dtype=complex) / 4
STACK = np.broadcast_to(ONE, (3, 4, 4))


class TestConjugate:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_same_bits_as_the_matmul_products(self, rng, dim):
        # the compiled encode and recover unitaries of that size, one
        # embedded gate and a random unitary; a (B, k, d, d) stack into a
        # strided step view of a block's buffer, and a (k, d, d) stack
        # broadcast into one, have the bits of each matrix alone
        compiled = [g.matrix for pair in codes._COMPILED.values() for steps in pair for g in steps]
        n = dim.bit_length() - 1
        gate = embed(CNOT, (n, 1), n) if n > 1 else H
        us = [u for u in compiled if u.dim == dim] + [gate, Operator(_random_unitary(rng, dim))]
        assert len(us) >= (4 if dim >= 8 else 2)  # the compiled pair of a 3- or 4-qubit scenario is there
        for u in us:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g + g.conj().T
            for arg in (m, _read_only(m.view()), m / 7.0):
                want = (u.entries @ arg) @ u.adjoint
                assert conjugate(u, arg).tobytes() == want.tobytes()
                buf = np.empty((dim, dim), dtype=complex)
                assert conjugate(u, arg, out=buf) is buf
                assert buf.tobytes() == want.tobytes()
            g = rng.normal(size=(3, 2, dim, dim)) + 1j * rng.normal(size=(3, 2, dim, dim))
            stack = g + g.conj().swapaxes(-1, -2)
            states = np.empty((3, 2, 4, dim, dim), dtype=complex)
            for arg, out in ((stack, states[:, :, 1]), (stack[0], states[:, :, 2])):
                assert conjugate(u, arg, out=out) is out
                rows = np.broadcast_to(arg, out.shape).reshape(-1, dim, dim)
                for rho, got in zip(rows, out.reshape(-1, dim, dim), strict=True):
                    assert got.tobytes() == conjugate(u, rho).tobytes()
            assert conjugate(u, stack).tobytes() == states[:, :, 1].tobytes()

    @pytest.mark.parametrize(
        "m, out",
        [
            (ONE, np.empty((4, 4))),
            (ONE, np.empty((4, 4), dtype=np.complex64)),
            (ONE, np.empty((4, 4), dtype=complex, order="F")),
            (ONE, np.empty((4, 8), dtype=complex)[:, ::2]),
            (ONE, np.empty((4, 5), dtype=complex)),
            (ONE, np.empty((1, 4, 4), dtype=complex)),
            (ONE, _read_only(np.zeros((4, 4), dtype=complex))),
            (STACK, np.empty((3, 4, 4))),
            (STACK, np.empty((3, 4, 4), dtype=np.complex64)),
            (STACK, np.empty((3, 4, 4), dtype=int)),
            (STACK, np.empty((2, 4, 4), dtype=complex)),
            (STACK, np.empty((1, 4, 4), dtype=complex)),
            (STACK, np.empty((4, 4), dtype=complex)),
            (STACK, _read_only(np.zeros((3, 4, 4), dtype=complex))),
        ],
        ids=["real", "complex64", "fortran", "strided", "shape", "stack", "read-only"]
        + ["stack-real", "stack-complex64", "stack-int", "stack-shape", "stack-short", "stack-2d", "stack-read-only"],
    )
    def test_any_other_out_raises(self, m, out):
        # a real U, whose stacks take the dgemm path, and a complex one
        for u in (CNOT, Operator(np.kron(SY.entries, SX.entries))):
            with pytest.raises(ValueError):
                conjugate(u, m, out=out)

    def test_real_gates_keep_a_read_only_real_part(self, rng):
        # every gate of the four networks, each compiled encode and recover, and the
        # real Paulis have entries that are exactly real; a complex unitary has none
        gates = {g.matrix for _, _, encode, recover in codes._SCENARIOS.values() for g in (*encode, *recover)}
        compiled = {g.matrix for pair in codes._COMPILED.values() for steps in pair for g in steps}
        assert len(gates) == 6 and len(compiled) == 6
        for u in (SX, SZ, H, CNOT, *gates, *compiled):
            assert u.real.tobytes() == np.ascontiguousarray(u.entries.real).tobytes()
            assert u.real.flags.c_contiguous and not u.real.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                u.real[0, 0] = 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                u.real = None
        for u in (SY, Operator(_random_unitary(rng, 4))):
            assert u.real is None

    @pytest.mark.parametrize("purity", [1.0, 0.7, 0.0])
    @pytest.mark.parametrize("scenario", ["qec_independent", "qec_hybrid", "dfs_qec"])
    def test_stack_of_sweep_states_has_the_per_matrix_dot_bits(self, scenario, purity):
        # a sweep's states at its compiled gates: the inputs at encode, then the encoded
        # inputs times the noise factors of both kinds at recover; at kappa0 = 1e3 the
        # exp factors underflow to 0
        (encode,), (recover,) = codes._COMPILED[scenario]
        n = codes.scenario_layout(scenario)[0]
        inputs = np.array([rho.entries for rho in experiments._product_inputs(purity, n)])
        encoded = conjugate(encode.matrix, inputs)
        factors = [
            NoiseStep(experiments.ScenarioConfig(scenario, kind=kind, coupling_case=case).noise_spec(x)).factor
            for kind in NOISE_KINDS
            for case in COUPLING_CASES
            for x in (0.0, 0.8, 2.9, 1e3)
        ]
        noisy = encoded * np.array(factors)[:, None]
        for u, stack, got in ((encode.matrix, inputs, encoded), (recover.matrix, noisy, conjugate(recover.matrix, noisy))):
            assert u.real is not None
            for m, z in zip(stack.reshape(-1, 2**n, 2**n), got.reshape(-1, 2**n, 2**n), strict=True):
                assert z.tobytes() == np.dot(np.dot(u.entries, m), u.adjoint).tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_sparse_stack_with_signed_zeros_has_the_dot_values(self, rng, dim):
        # every entry has np.dot's bits but for the sign of an exact zero: zgemm also
        # sums the +-0 products of a real U's zero imaginary parts, which can flip it
        # (with numpy 2.4.6's OpenBLAS, seen on 2x2 stacks only)
        n = dim.bit_length() - 1
        compiled = [g.matrix for pair in codes._COMPILED.values() for steps in pair for g in steps]
        gates = [u for u in compiled if u.dim == dim] + ([embed(CNOT, (n, 1), n)] if n > 1 else [H, SX, SZ])
        m = np.empty((64, dim, dim), dtype=complex)
        m.real = rng.choice([0.0, -0.0, -1.0, 0.5], size=m.shape, p=[0.1, 0.6, 0.2, 0.1])
        m.imag = rng.choice([0.0, -0.0, 1.0, -0.5], size=m.shape, p=[0.4, 0.4, 0.15, 0.05])
        for u in gates:
            for x, z in zip(m, conjugate(u, m), strict=True):
                want = np.dot(np.dot(u.entries, x), u.adjoint)
                assert (z + 0j).tobytes() == (want + 0j).tobytes()


class TestPartialTrace:
    def test_product_state_first_factor(self, rng):
        a, b = random_state(rng, 1), random_state(rng, 1)
        out = partial_trace(DensityMatrix(np.kron(a.entries, b.entries)), {1})
        assert np.max(np.abs(out.entries - a.entries)) <= 1e-12

    def test_bell_state_marginal_is_maximally_mixed(self):
        vec = np.zeros(4)
        vec[0b00] = vec[0b11] = 1 / np.sqrt(2)
        bell = DensityMatrix(np.outer(vec, vec))
        out = partial_trace(bell, {1})
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) <= 1e-12

    def test_retained_factor_of_four_qubit_product(self, rng):
        factors = [random_state(rng, 1) for _ in range(4)]
        m = factors[0].entries
        for f in factors[1:]:
            m = np.kron(m, f.entries)
        out = partial_trace(DensityMatrix(m), {3})
        assert np.max(np.abs(out.entries - factors[2].entries)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_matches_index_sum_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, n)
        keep = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1), replace=False))
        keep = [int(q) for q in keep]
        got = partial_trace(rho, keep).entries
        want = oracle_partial_trace(rho.entries, n, keep)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_trace_preserved_for_states(self, rng):
        rho = random_state(rng, 3)
        assert abs(partial_trace(rho, {2}).trace() - 1.0) <= 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(maximally_mixed(2), set())

    @pytest.mark.parametrize("n, keep", [(2, {1}), (3, {2}), (3, {1, 3}), (4, {2}), (4, {2, 3, 4})])
    def test_stack_rows_equal_the_single_reductions(self, rng, n, keep):
        rhos = [random_state(rng, n), random_deviation(rng, n), random_state(rng, n)]
        got = partial_trace_stack(np.stack([rho.entries for rho in rhos]), keep)
        assert got.shape == (3, 2 ** len(keep), 2 ** len(keep))
        for row, rho in zip(got, rhos):
            assert row.tobytes() == partial_trace(rho, keep).entries.tobytes()

    def test_stack_keep_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace_stack(np.eye(4)[None] / 4, {3})


def hs_overlap(a: DensityMatrix, b: DensityMatrix) -> float:
    """The overlap of two matrices, as a stack of one each."""
    return float(hs_overlap_stack(a.entries[None], b.entries[None])[0])


class TestHsOverlap:
    def test_pure_state_purity(self):
        rho = basis_state("0")
        assert hs_overlap(rho, rho) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_orthogonality(self):
        assert hs_overlap(pauli_deviation("z"), pauli_deviation("x")) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_overlap(self):
        rho = maximally_mixed(1)
        assert hs_overlap(rho, rho) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_overlap(maximally_mixed(1), maximally_mixed(2))

    def test_stack_entries_equal_the_single_overlaps(self, rng):
        a = [random_state(rng, 1), random_deviation(rng, 1), pauli_deviation("y")]
        b = [random_deviation(rng, 1), random_state(rng, 1), random_state(rng, 1)]
        got = hs_overlap_stack(np.stack([x.entries for x in a]), np.stack([y.entries for y in b]))
        assert got.tolist() == [hs_overlap(x, y) for x, y in zip(a, b)]
        # leading axes broadcast: every pair of a and b
        table = hs_overlap_stack(np.stack([x.entries for x in a])[:, None], np.stack([y.entries for y in b]))
        assert table.tolist() == [[hs_overlap(x, y) for y in b] for x in a]

    def test_first_imaginary_overlap_raises(self):
        # tr(c I . i I) = 2ic: the second pair is the first above 1e-10
        eye = np.eye(2, dtype=complex)
        a = np.stack([eye, 3e-10 * eye, 5e-10 * eye])
        b = np.stack([eye, 1j * eye, 1j * eye])
        with pytest.raises(ValueError, match="^overlap has imaginary part 6.00e-10; inputs must be Hermitian$"):
            hs_overlap_stack(a, b)

    def test_nan_overlap_raises(self):
        # one NaN entry made the overlap [nan], which correlations passed on
        a = np.eye(2, dtype=complex)[None]
        b = a.copy()
        b[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^overlap is not finite, got \(nan\+nanj\); inputs must be finite$"):
            hs_overlap_stack(a, b)
        with pytest.raises(ValueError, match="^overlap is not finite"):
            correlations(a, b)

    def test_overflowing_overlap_raises_without_a_warning(self):
        # 1e200 entries overflowed to inf with an overflow RuntimeWarning
        a = np.full((1, 2, 2), 1e200, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^overlap is not finite, got \(inf\+0j\); inputs must be finite$"):
                hs_overlap_stack(a, a)
            with pytest.raises(ValueError, match="^overlap is not finite"):
                correlations(a, a)

    def test_first_bad_overlap_in_c_order_raises(self):
        # an imaginary part before a non-finite overlap, and after one
        eye = np.eye(2, dtype=complex)
        pairs = np.stack([eye, 1e-9j * eye, np.nan * eye])
        with pytest.raises(ValueError, match="^overlap has imaginary part 2.00e-09"):
            hs_overlap_stack(eye, pairs)
        with pytest.raises(ValueError, match="^overlap is not finite"):
            hs_overlap_stack(eye, pairs[::-1])


def test_pauli_lookup():
    assert pauli("x") is SX and pauli("y") is SY and pauli("z") is SZ
    with pytest.raises(ValueError, match="axis"):
        pauli("w")


def test_pauli_deviations_are_the_paulis_and_read_only():
    for axis, op in (("x", SX), ("y", SY), ("z", SZ)):
        dev = pauli_deviation(axis)
        assert dev.kind == DEVIATION
        assert np.array_equal(dev.entries, op.entries) and not dev.entries.flags.writeable
    with pytest.raises(ValueError, match="axis"):
        pauli_deviation("w")


def test_sigma_z_convention():
    # sigma_z |0> = +|0>, needed for |01> to be collective-noise invariant
    vec = np.array([1.0, 0.0])
    assert np.array_equal(SZ.entries @ vec, vec)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
