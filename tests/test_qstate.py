import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    computational_state,
    embed,
    hs_overlap,
    maximally_mixed,
    partial_trace,
    pauli,
    pauli_deviation,
    tensor_dm,
)
from .conftest import oracle_partial_trace, random_state

H = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2), unitary=True)
CNOT = Operator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), unitary=True)


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
        with pytest.raises(ValueError, match="unitary"):
            Operator(np.array([[1, 0], [0, 2]]), unitary=True)

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

    def test_valid_and_empty_stacks_pass(self, rng):
        check_stack(np.array([random_state(rng, 2).entries for _ in range(5)]), STATE)
        check_stack(np.empty((0, 4, 4), dtype=complex), STATE)
        check_stack(np.empty((0, 4, 4), dtype=complex), DEVIATION)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            check_stack(np.array([np.eye(2) / 2]), "other")


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor_dm(maximally_mixed(1), maximally_mixed(1)).entries, np.eye(4) / 4.0)

    def test_sigma_z_times_identity(self):
        want = np.diag([1.0, 1.0, -1.0, -1.0]) / 2.0
        assert np.array_equal(tensor_dm(pauli_deviation("z"), maximally_mixed(1)).entries, want)

    def test_projector_times_sigma_x(self):
        got = tensor_dm(computational_state("0"), pauli_deviation("x")).entries
        want = np.zeros((4, 4), dtype=complex)
        want[0, 1] = want[1, 0] = 1.0
        assert np.array_equal(got, want)

    def test_associativity_is_exact_for_exact_entries(self):
        # entries 0, +-1, +-0.5 multiply exactly in binary floating point
        a = DensityMatrix(np.array([[0.5, 1.0], [1.0, -0.5]]), DEVIATION)
        b = pauli_deviation("z")
        c = DensityMatrix(np.array([[0.5, -0.5], [-0.5, -0.5]]), DEVIATION)
        left = tensor_dm(tensor_dm(a, b), c).entries
        right = tensor_dm(a, tensor_dm(b, c)).entries
        assert np.array_equal(left, right)

    def test_unitary_flag_propagates(self):
        # embedding extends a gate by a Kronecker product with the identity
        assert embed(SX, [2], 2).unitary
        assert not embed(Operator(np.diag([1.0, 2.0])), [2], 2).unitary

    def test_tensor_dm_kind(self):
        s, d = maximally_mixed(1), pauli_deviation("z")
        assert tensor_dm(s, s).kind == STATE
        assert tensor_dm(s, d).kind == DEVIATION
        assert tensor_dm(d, d).kind == DEVIATION


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

    def test_results_are_cached_and_read_only(self):
        got = embed(SZ, [3], 4)
        assert embed(SZ, (3,), 4) is got
        assert not got.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.entries[0, 0] = 2.0

    def test_invalid_call_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="range"):
                embed(SZ, [5], 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_disjoint_embeddings_commute(self, seed, n):
        rng = np.random.default_rng(seed)
        j, k = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        g = Operator(_random_unitary(rng, 2), unitary=True)
        h = Operator(_random_unitary(rng, 2), unitary=True)
        a = embed(g, [int(j)], n).entries
        b = embed(h, [int(k)], n).entries
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


class TestApplyUnitary:
    def test_identity(self, rng):
        rho = random_state(rng, 2)
        out = apply_unitary(rho, Operator(np.eye(4), unitary=True))
        assert np.array_equal(out.entries, rho.entries)

    def test_bit_flip(self):
        out = apply_unitary(computational_state("0"), SX)
        assert np.allclose(out.entries, computational_state("1").entries)

    def test_hadamard_maps_sigma_z_to_sigma_x(self):
        out = apply_unitary(pauli_deviation("z"), H)
        assert np.max(np.abs(out.entries - SX.entries)) <= 1e-12

    def test_preserves_trace_and_spectrum(self, rng):
        for n in (1, 2, 3):
            rho = random_state(rng, n)
            u = Operator(_random_unitary(rng, 2**n), unitary=True)
            out = apply_unitary(rho, u)
            assert abs(out.trace() - rho.trace()) <= 1e-12
            got = np.sort(np.linalg.eigvalsh(out.entries))
            want = np.sort(np.linalg.eigvalsh(rho.entries))
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_preserves_kind(self):
        out = apply_unitary(pauli_deviation("x"), H)
        assert out.kind == DEVIATION

    def test_requires_unitary_flag(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(maximally_mixed(1), Operator(np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(maximally_mixed(2), SX)

    def test_adjoint_is_cached_and_read_only(self, rng):
        u = Operator(_random_unitary(rng, 4), unitary=True)
        assert np.array_equal(u.adjoint, u.entries.conj().T)
        assert u.adjoint is u.adjoint
        assert not u.adjoint.flags.writeable
        # conjugate rejects operators not flagged unitary, so they keep none
        assert Operator(u.entries).adjoint is None


class TestPartialTrace:
    def test_product_state_first_factor(self, rng):
        a, b = random_state(rng, 1), random_state(rng, 1)
        out = partial_trace(tensor_dm(a, b), {1})
        assert np.max(np.abs(out.entries - a.entries)) <= 1e-12

    def test_bell_state_marginal_is_maximally_mixed(self):
        vec = np.zeros(4)
        vec[0b00] = vec[0b11] = 1 / np.sqrt(2)
        bell = DensityMatrix(np.outer(vec, vec))
        out = partial_trace(bell, {1})
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) <= 1e-12

    def test_retained_factor_of_four_qubit_product(self, rng):
        factors = [random_state(rng, 1) for _ in range(4)]
        rho = factors[0]
        for f in factors[1:]:
            rho = tensor_dm(rho, f)
        out = partial_trace(rho, {3})
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


class TestHsOverlap:
    def test_pure_state_purity(self):
        rho = computational_state("0")
        assert hs_overlap(rho, rho) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_orthogonality(self):
        assert hs_overlap(pauli_deviation("z"), pauli_deviation("x")) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_overlap(self):
        rho = maximally_mixed(1)
        assert hs_overlap(rho, rho) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_overlap(maximally_mixed(1), maximally_mixed(2))


def test_pauli_lookup():
    assert pauli("x") is SX and pauli("y") is SY and pauli("z") is SZ
    with pytest.raises(ValueError, match="axis"):
        pauli("w")


def test_pauli_deviations_are_shared_and_read_only():
    for axis, op in (("x", SX), ("y", SY), ("z", SZ)):
        dev = pauli_deviation(axis)
        assert dev is pauli_deviation(axis) and dev.kind == DEVIATION
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
