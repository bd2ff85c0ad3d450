import warnings

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
    embed,
    hs_overlap,
    hs_overlap_stack,
    maximally_mixed,
    partial_trace,
    partial_trace_stack,
    pauli,
    pauli_deviation,
)
from .conftest import basis_state, oracle_partial_trace, random_deviation, random_state

H = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
CNOT = Operator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))


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

    def test_cyclic_permutation_conjugates_by_gather(self, rng):
        # |k> -> |k+1 mod 4> is not its own inverse, so a gather index
        # built from the inverse permutation would fail here
        shift = Operator(np.roll(np.eye(4), 1, axis=0))
        assert shift.gather is not None
        rho = random_state(rng, 2)
        want = shift.entries @ rho.entries @ shift.entries.conj().T
        assert np.array_equal(apply_unitary(rho, shift).entries, want)

    def test_adjoint_is_cached_and_read_only(self, rng):
        u = Operator(_random_unitary(rng, 4))
        assert np.array_equal(u.adjoint, u.entries.conj().T)
        assert u.adjoint is u.adjoint
        assert not u.adjoint.flags.writeable


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
