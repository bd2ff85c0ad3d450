import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec.channels import (
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    DephasingGenerator,
    NoiseSpec,
    _delta,
    attenuation,
    build_error_model,
    incoherent_dephase,
    markov_dephase,
    noise_strength,
    partial_strengths,
    qubit3_strength_ratio,
    sinc,
)
from dfsqec.metrics import fit_error_rates, fit_grid
from dfsqec.qstate import DEVIATION, DensityMatrix, maximally_mixed
from .conftest import (
    oracle_lindblad_evolve,
    oracle_noise_strengths,
    oracle_phase_average,
    oracle_z_values,
    random_deviation,
    random_state,
)


def single(weight_index: int, n: int, strength: float) -> DephasingGenerator:
    w = np.zeros(n)
    w[weight_index - 1] = 1.0
    return DephasingGenerator(w, strength)


def dfs_coherence() -> DensityMatrix:
    # sigma_x-like deviation supported on span{|01>, |10>} of a qubit pair
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = m[2, 1] = 1.0
    return DensityMatrix(m, DEVIATION)


class TestGenerator:
    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError, match="zero"):
            DephasingGenerator(np.zeros(2), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match=r"weights must be finite, got \[1\.0, (nan|inf|-inf)\]"):
            DephasingGenerator(np.array([1.0, bad]), 1.0)

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError, match="strength"):
            DephasingGenerator(np.ones(1), -0.5)

    def test_z_values_match_bit_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            w = rng.normal(size=n)
            w[int(rng.integers(0, n))] = 1.0
            gen = DephasingGenerator(w, 1.0)
            assert np.max(np.abs(gen.z_values() - oracle_z_values(w))) <= 1e-12


def test_delta_is_cached_and_read_only():
    gen = DephasingGenerator(np.array([0.0, 0.0, 1.3, 1.0]), 2.0)
    z = gen.z_values()
    delta = _delta(gen.weights.tobytes())
    assert np.array_equal(delta, z[:, None] - z[None, :])
    assert not delta.flags.writeable
    same_weights = DephasingGenerator(np.array([0.0, 0.0, 1.3, 1.0]), 5.0)
    assert _delta(same_weights.weights.tobytes()) is delta


class TestIncoherentDephase:
    def test_full_dephasing_at_half_spread_pi(self):
        kappa = 2.0 * np.pi
        gen = single(1, 1, kappa)
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = incoherent_dephase(rho, gen)
        assert abs(out.entries[0, 1]) <= 1e-15
        assert np.allclose(np.diag(out.entries), np.diag(rho.entries))

    def test_zero_spread_is_identity(self, rng):
        rho = random_state(rng, 2)
        out = incoherent_dephase(rho, single(1, 2, 0.0))
        assert np.array_equal(out.entries, rho.entries)

    def test_collective_generator_preserves_dfs_coherence(self):
        gen = DephasingGenerator(np.array([1.0, 1.0]), 37.3)
        out = incoherent_dephase(dfs_coherence(), gen)
        assert np.array_equal(out.entries, dfs_coherence().entries)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_monte_carlo_phase_average(self, n, rng):
        w = rng.normal(size=n)
        w[0] = 1.0
        kappa = 1.7
        gen = DephasingGenerator(w, kappa)
        rho = random_state(rng, n)
        got = incoherent_dephase(rho, gen).entries
        mean, se = oracle_phase_average(rho.entries, w, kappa, 100_000, rng)
        assert np.all(np.abs(got - mean) <= 3.0 * se + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            incoherent_dephase(maximally_mixed(2), single(1, 1, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 40.0, allow_nan=False),
        st.integers(1, 3),
    )
    def test_unital_trace_preserving_hermitian(self, seed, kappa, n):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=n)
        w[int(rng.integers(0, n))] = 1.0
        gen = DephasingGenerator(w, kappa)
        mixed = maximally_mixed(n)
        out = incoherent_dephase(mixed, gen)
        assert np.max(np.abs(out.entries - mixed.entries)) <= 1e-12
        rho = random_state(rng, n)
        out = incoherent_dephase(rho, gen)
        assert abs(out.trace() - 1.0) <= 1e-12
        assert np.max(np.abs(out.entries - out.entries.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out.entries)[0] >= -1e-9


class TestMarkovDephase:
    def test_zero_time_is_identity(self, rng):
        rho = random_state(rng, 2)
        out = markov_dephase(rho, [single(1, 2, 1.0)], 0.0)
        assert np.array_equal(out.entries, rho.entries)

    def test_single_qubit_coherence_decay(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = markov_dephase(rho, [single(1, 1, 1.0)], 1.0)
        assert out.entries[0, 1] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-12)

    def test_collective_generator_fixes_dfs_coherence_for_all_t(self):
        gen = DephasingGenerator(np.array([1.0, 1.0]), 2.5)
        for t in (0.1, 1.0, 10.0, 100.0):
            out = markov_dephase(dfs_coherence(), [gen], t)
            assert np.array_equal(out.entries, dfs_coherence().entries)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            markov_dephase(maximally_mixed(1), [single(1, 1, 1.0)], -0.1)

    def test_matches_lindblad_exponential_oracle(self, rng):
        for _ in range(10):
            lam = float(rng.uniform(0.05, 2.0))
            t = float(rng.uniform(0.0, 2.0))
            w1 = rng.normal(size=2)
            w1[0] = 1.0
            gens = [DephasingGenerator(w1, lam), DephasingGenerator(np.array([0.0, 1.0]), 0.7 * lam)]
            rho = random_state(rng, 2)
            got = markov_dephase(rho, gens, t).entries
            want = oracle_lindblad_evolve(rho.entries, [g.lindblad_matrix() for g in gens], t)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_semigroup_composition(self, rng):
        rho = random_state(rng, 2)
        gens = [single(1, 2, 0.8), single(2, 2, 0.3)]
        t1, t2 = 0.4, 1.1
        once = markov_dephase(rho, gens, t1 + t2)
        twice = markov_dephase(markov_dephase(rho, gens, t1), gens, t2)
        assert np.max(np.abs(once.entries - twice.entries)) <= 1e-12

    def test_incoherent_channel_violates_composition(self):
        # two spread-2 averages are not one spread-4 average
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        gen2 = single(1, 1, 2.0)
        gen4 = single(1, 1, 4.0)
        twice = incoherent_dephase(incoherent_dephase(rho, gen2), gen2)
        once = incoherent_dephase(rho, gen4)
        assert abs(twice.entries[0, 1] - once.entries[0, 1]) > 0.1


class TestNoiseStrength:
    def test_single_generator_reproduces_strength(self):
        lam = 0.4
        got = noise_strength([single(1, 1, lam)])
        # eigenvalue oracle on the explicit 2x2 jump operator
        L = np.sqrt(lam / 2.0) * np.diag([1.0, -1.0])
        want = np.max(np.abs(np.linalg.eigvals(L))) ** 2 + np.max(
            np.abs(np.linalg.eigvalsh(L.conj().T @ L))
        )
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(lam, abs=1e-12)

    def test_partial_strength_reproduces_input(self):
        for lam in (0.1, 0.7, 2.0):
            (lam_mu,) = partial_strengths([single(1, 1, lam)])
            assert lam_mu == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_case_ratio(self, eps):
        want = (1.0 + eps) ** 2 / (1.0 + eps**2)
        assert qubit3_strength_ratio(eps) == pytest.approx(want, abs=1e-12)

    def test_case_ratio_at_half(self):
        assert qubit3_strength_ratio(0.5) == pytest.approx(1.8, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            noise_strength([])

    @pytest.mark.parametrize("lam", [1e308, 1.7e308])
    def test_overflowing_strength_rejected(self, lam):
        with pytest.raises(ValueError, match="not finite"):
            noise_strength([single(q, 3, lam) for q in (1, 2, 3)])
        with pytest.raises(ValueError, match="not finite"):
            partial_strengths([DephasingGenerator(np.array([1e200]), lam)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    def test_strengths_equal_the_dense_definition(self, seed, n, k):
        # k generators on n qubits, weights and strengths spanning ten
        # decades, some zero: the diagonal formulas give the SVD norms' bits
        rng = np.random.default_rng(seed)
        weights = 10.0 ** rng.uniform(-5.0, 5.0, (k, n)) * rng.choice([-1.0, 0.0, 1.0], (k, n))
        weights[:, 0] += weights[:, 0] == 0.0  # no all-zero weight vector
        strengths = 10.0 ** rng.uniform(-5.0, 5.0, k) * rng.integers(0, 2, k)
        gens = [DephasingGenerator(w, float(s)) for w, s in zip(weights, strengths)]
        total, partials = oracle_noise_strengths(gens)
        assert noise_strength(gens) == total
        assert partial_strengths(gens) == partials
        # one more generator whose |L_mu|^2 = 2 * 1.7e308 overflows
        gens.append(DephasingGenerator(np.full(n, 2.0), 1.7e308))
        total, partials = oracle_noise_strengths(gens)
        assert total == partials[-1] == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^noise strength is not finite"):
                noise_strength(gens)
            with pytest.raises(ValueError, match="^partial noise strength is not finite"):
                partial_strengths(gens)


class TestBuildErrorModel:
    def test_independent_three_generators(self):
        gens = build_error_model(NoiseSpec(1.5), 3)
        assert [g.label for g in gens] == ["z1", "z2", "z3"]
        got = np.array([g.weights for g in gens])
        assert np.array_equal(got, np.eye(3))
        assert all(g.strength == 1.5 for g in gens)

    def test_case_a_total_qubit3_spread_is_three_x(self):
        x = 0.8
        gens = build_error_model(NoiseSpec(x, collective=True, ratio=0.5), 4)
        combined = gens[-1]
        assert combined.label == "z34-combined"
        # qubit-3 amplitude: weight * spread = (1 + ratio) * kappa_c = 3x
        assert combined.weights[2] * combined.strength == pytest.approx(3.0 * x, abs=1e-12)
        assert combined.weights[3] == 1.0

    def test_case_b_keeps_generators_separate(self):
        gens = build_error_model(NoiseSpec(1.0, collective=True, ratio=0.5, coupling_case="b"), 4)
        labels = [g.label for g in gens]
        assert labels == ["z1", "z2", "z34-collective", "z3-residual"]
        assert gens[2].strength == pytest.approx(2.0)

    def test_zero_scale_generators_act_as_identity(self, rng):
        rho = random_state(rng, 4)
        for case in ("a", "b"):
            gens = build_error_model(NoiseSpec(0.0, collective=True, coupling_case=case), 4)
            for kind in (INCOHERENT_SINC, MARKOVIAN_EXP):
                assert np.array_equal(rho.entries * attenuation(gens, kind), rho.entries)

    def test_collective_requires_four_qubits(self):
        with pytest.raises(ValueError, match="four-qubit"):
            build_error_model(NoiseSpec(1.0, collective=True), 3)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            NoiseSpec(1.0, collective=True, ratio=0.0)

    def test_markovian_scales(self):
        gens = build_error_model(NoiseSpec(1.0, collective=True, kind=MARKOVIAN_EXP), 4)
        combined = gens[-1]
        # rates scale as amplitude squared: lambda_c = lambda_0 / ratio^2
        assert combined.strength == pytest.approx(4.0)
        assert combined.weights[2] == pytest.approx(1.5)


class TestAttenuation:
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    @pytest.mark.parametrize("collective, case", [(False, "a"), (True, "a"), (True, "b")])
    def test_factor_is_the_in_order_product_of_single_factors(self, kind, collective, case):
        # the stacked evaluation multiplies generator by generator, in
        # order, from 1.0: the bits of a running product
        n = 4 if collective else 3
        for x in np.linspace(0.0, 12.0, 49):
            gens = build_error_model(NoiseSpec(float(x), collective, 0.3, case, kind), n)
            want = 1.0
            for gen in gens:
                want = want * attenuation([gen], kind)
            assert attenuation(gens, kind).tobytes() == want.tobytes()

    def test_no_generators_give_one(self):
        for kind in (INCOHERENT_SINC, MARKOVIAN_EXP):
            assert attenuation([], kind) == 1.0


class TestCptpRandomized:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_markov_positivity_and_unitality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        w = rng.normal(size=n)
        w[int(rng.integers(0, n))] = 1.0
        gens = [DephasingGenerator(w, float(rng.uniform(0, 3.0)))]
        t = float(rng.uniform(0, 3.0))
        mixed = maximally_mixed(n)
        assert np.max(np.abs(markov_dephase(mixed, gens, t).entries - mixed.entries)) <= 1e-12
        rho = random_state(rng, n)
        out = markov_dephase(rho, gens, t)
        assert abs(out.trace() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out.entries)[0] >= -1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_markov_semigroup_composition(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            w = rng.normal(size=n)
            w[int(rng.integers(0, n))] = 1.0
            gens.append(DephasingGenerator(w, float(rng.uniform(0, 3.0))))
        rho = random_state(rng, n)
        twice = markov_dephase(markov_dephase(rho, gens, t1), gens, t2)
        once = markov_dephase(rho, gens, t1 + t2)
        assert np.max(np.abs(twice.entries - once.entries)) <= 1e-12

    def test_deviation_kind_passes_through(self, rng):
        dev = random_deviation(rng, 2)
        out = incoherent_dephase(dev, single(1, 2, 1.3))
        assert out.kind == DEVIATION
        assert abs(out.trace()) <= 1e-12


def test_error_expansion_first_order_rate_bounded_by_strength():
    lam0 = 0.6
    gen = single(1, 1, lam0)
    lam = noise_strength([gen])
    rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    samples = []
    for t in fit_grid(lam):
        out = markov_dephase(rho, [gen], float(t))
        # entanglement fidelity of one-qubit dephasing: (2 s + 2) / 4
        s = out.entries[0, 1].real / 0.5
        samples.append((float(t), (2.0 * s + 2.0) / 4.0))
    fit = fit_error_rates(samples, 3, lam)
    assert fit.tau_inv_k[0] == pytest.approx(lam0 / 2.0, abs=1e-6)
    assert fit.tau_inv_k[0] <= lam * (1.0 + 1e-6)
    assert fit.satisfies_bound()


def test_sinc_convention():
    assert sinc(0.0) == 1.0
    assert float(sinc(np.pi)) == pytest.approx(0.0, abs=1e-15)
    assert float(sinc(1.0)) == pytest.approx(np.sin(1.0), abs=1e-15)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="kappa0"):
        NoiseSpec(-1.0)
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(1.0, kind="other")
    with pytest.raises(ValueError, match="case"):
        NoiseSpec(1.0, coupling_case="c")
    for bad in (
        dict(kappa0=float("inf")),
        dict(kappa0=float("nan")),
        dict(kappa0=1.0, ratio=float("inf")),
        dict(kappa0=1e308, collective=True, ratio=0.5),
        dict(kappa0=1.0, collective=True, ratio=1e-200, kind=MARKOVIAN_EXP),
        dict(kappa0=1.0, collective=True, ratio=1e200, kind=MARKOVIAN_EXP),
    ):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**bad)
    with pytest.raises(ValueError, match="finite"):
        qubit3_strength_ratio(float("inf"))
    spec = NoiseSpec(2.0, collective=True, ratio=0.5)
    assert spec.collective_scale() == pytest.approx(4.0)
    assert NoiseSpec(2.0).collective_scale() is None
