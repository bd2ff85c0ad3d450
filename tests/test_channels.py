import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec import channels
from dfsqec.channels import (
    INCOHERENT_SINC,
    MARKOVIAN_EXP,
    NOISE_KINDS,
    DephasingGenerator,
    NoiseSpec,
    _quarter_delta,
    attenuation,
    build_error_model,
    collective_scale_of,
    error_model_strengths,
    incoherent_dephase,
    markov_dephase,
    noise_layout,
    noise_strength,
    partial_strengths,
    qubit3_strength_ratio,
    sinc,
    sweep_attenuation,
    sweep_noise,
)
from dfsqec.codes import NoiseStep
from dfsqec.experiments import ScenarioConfig, run_scenario
from dfsqec.metrics import analytic_fe_qec_strong, fit_error_rates, fit_grid
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


def environments(gens) -> list:
    """Each generator as a one-part environment of ``attenuation``."""
    return [[(_quarter_delta(g.weights), g.strength)] for g in gens]


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


def test_quarter_delta_is_read_only_and_finite_where_delta_overflows():
    gen = DephasingGenerator(np.array([0.0, 0.0, 1.3, 1.0]), 2.0)
    z = gen.z_values()
    quarter = _quarter_delta(gen.weights)
    # scaling by a power of two commutes with rounding in the normal range
    assert np.array_equal(quarter, (z[:, None] - z[None, :]) / 4.0)
    assert not quarter.flags.writeable
    # finite where Delta itself overflows
    assert np.isfinite(_quarter_delta(np.array([1e308, 1.0]))).all()
    # the layout's unit patterns are constants shared by every spec
    for part, again in zip(noise_layout(NoiseSpec(1.0, True)), noise_layout(NoiseSpec(2.0, True))):
        assert all(p[0] is q[0] and not p[0].flags.writeable for p, q in zip(part, again))


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
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("collective, case", [(False, "a"), (False, "b"), (True, "a"), (True, "b")])
    def test_jump_diagonals_apply_the_circuit_noise(self, collective, case, kind):
        # an environment whose jump operator is diag(l) attenuates entry
        # (i, j) by exp(-(l_i - l_j)^2 / 2) (Markovian), or, its parts
        # adding their spreads at the first part's scale s, by
        # sinc(sqrt(2 s) (l_i - l_j) / 4): the circuit's noise, from the
        # diagonals noise-strength reads
        for ratio, x in itertools.product((0.01, 0.3, 1.7, 100.0), np.linspace(0.0, 12.0, 25)):
            spec = NoiseSpec(float(x), collective, ratio, case, kind)
            got = 1.0
            for env, l in zip(noise_layout(spec), build_error_model(spec)):
                delta = l[:, None] - l[None, :]
                spread = np.sqrt(2.0 * env[0][1])
                got = got * (np.exp(-delta**2 / 2.0) if kind == MARKOVIAN_EXP else sinc(spread * delta / 4.0))
            assert np.max(np.abs(got - NoiseStep(spec).factor)) <= 1e-12

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("collective", [False, True])
    def test_one_part_environments_are_their_generators(self, collective, kind):
        # where every environment has one part, its strengths are those of
        # the generator of weights w at the part's scale, within rounding
        # of the amplitudes sqrt(kappa0 / 2) and sqrt(kappa_c / 2)
        for x in np.geomspace(1e-300, 1e300, 301):
            spec = NoiseSpec(float(x), collective, 0.3, "b", kind)
            gens = [DephasingGenerator(np.array(w, dtype=float), s) for ((_, s, _, w),) in noise_layout(spec)]
            total, partials = error_model_strengths(spec)
            assert total == pytest.approx(noise_strength(gens), rel=1e-15)
            assert partials == pytest.approx(partial_strengths(gens), rel=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec(1.7e308), NoiseSpec(1e308, True, 1.0, "b"), NoiseSpec(3.0, True, 1.7e308, "a")],
    )
    def test_overflowing_strength_is_one_error_and_no_warning(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^noise strength is not finite"):
                error_model_strengths(spec)

    def test_zero_scale_environments_act_as_identity(self, rng):
        rho = random_state(rng, 4)
        for case in ("a", "b"):
            for kind in (INCOHERENT_SINC, MARKOVIAN_EXP):
                envs = noise_layout(NoiseSpec(0.0, collective=True, coupling_case=case, kind=kind))
                assert np.array_equal(rho.entries * attenuation(envs, kind), rho.entries)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            NoiseSpec(1.0, collective=True, ratio=0.0)


class TestAttenuation:
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    @pytest.mark.parametrize("collective, case", [(False, "a"), (True, "a"), (True, "b")])
    def test_factor_is_the_in_order_product_of_single_factors(self, kind, collective, case):
        # the stacked evaluation multiplies environment by environment,
        # in order, from 1.0: the bits of a running product
        for x in np.linspace(0.0, 12.0, 49):
            envs = noise_layout(NoiseSpec(float(x), collective, 0.3, case, kind))
            want = 1.0
            for env in envs:
                want = want * attenuation([env], kind)
            assert attenuation(envs, kind).tobytes() == want.tobytes()

    def test_no_generators_give_one(self):
        for kind in (INCOHERENT_SINC, MARKOVIAN_EXP):
            assert attenuation([], kind) == 1.0

    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_overflowing_delta_is_one_error_and_no_warning(self, kind):
        # W's eigenvalues and their differences overflow in the Delta
        # lookup; it runs under the same errstate as the factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^noise attenuation is not finite"):
                attenuation(environments([DephasingGenerator(np.array([1e308, 1e308]), 1.0)]), kind)

    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    def test_zero_strength_generator_with_overflowing_delta_is_one(self, kind):
        # 0 * inf is nan; a zero strength still leaves every element
        idle = DephasingGenerator(np.array([1.7e308, 0.0]), 0.0)
        active = DephasingGenerator(np.array([0.0, 1.0]), 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = attenuation(environments([idle]), kind)
            both = attenuation(environments([idle, active]), kind)
        assert alone.shape == (4, 4) and (alone == 1.0).all()
        assert both.tobytes() == attenuation(environments([active]), kind).tobytes()


# every layout and kind at these ratios and kappa0s: 288 specs, from a
# subnormal collective scale to 1e300, 284 of which NoiseSpec accepts
SWEEP_RATIOS = (1e-17, 1e-3, 0.3, 1.7, 1e5, 1e160)
SWEEP_KAPPAS = (0.0, 1e-320, 2.9, 6.0, 1e100, 1e300)
LAYOUTS = [(False, "a"), (False, "b"), (True, "a"), (True, "b")]
# the channel properties' grid: 401 kappa0 in [0, 60], then up to 1e12, at these ratios
CHANNEL_KAPPAS = np.array([*np.linspace(0.0, 60.0, 401), 1e3, 1e6, 1e9, 1e12])
CHANNEL_RATIOS = (0.05, 0.5, 1.0, 5.0, 20.0)


class TestSweepAttenuation:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("collective, case", LAYOUTS)
    def test_sweep_factors_are_the_point_factors(self, collective, case, kind):
        # one sweep per ratio over every kappa0 whose spec NoiseSpec
        # accepts: each factor has the bits of NoiseStep(spec).factor
        for ratio in SWEEP_RATIOS:
            specs = []
            for kappa0 in SWEEP_KAPPAS:
                try:
                    specs.append(NoiseSpec(kappa0, collective, ratio, case, kind))
                except ValueError:  # the collective scale overflows
                    pass
            got = list(sweep_attenuation(specs))
            assert len(got) == len(specs)
            for spec, factor in zip(specs, got):
                want = NoiseStep(spec).factor
                assert factor.shape == want.shape and factor.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("collective, case", LAYOUTS)
    def test_sweeps_across_row_block_edges_give_the_point_factors(self, collective, case, kind):
        # the joint rows come in blocks of 32: sweeps that end inside, at and past
        # a block's edge, and the same around 8, the block of circuits a sweep runs
        assert channels._ROWS == 32
        for n in (1, 7, 8, 9, 17, 31, 32, 33, 65, 1001):
            specs = [NoiseSpec(12.0 * k / n, collective, 0.5, case, kind) for k in range(n)]
            got = list(sweep_attenuation(specs))
            assert len(got) == n
            for spec, factor in zip(specs, got):
                want = attenuation(noise_layout(spec), kind)
                assert factor.shape == want.shape and factor.tobytes() == want.tobytes()

    @pytest.mark.parametrize("collective, case", LAYOUTS)
    def test_joint_columns_reproduce_each_environment_index(self, collective, case):
        # the joint tuples are those of the upper triangle, mirrored: 14 of the
        # 64 entries on 3 qubits, 41 of the 256 on 4, and the index is symmetric
        values, columns, index = channels._DISTINCT[collective, case]
        envs = channels._LAYOUTS[collective, case]
        d = 16 if collective else 8
        assert index.shape == (d, d) and len(values) == len(columns) == len(envs)
        assert (index == index.T).all()
        assert [len(c) for c in columns] == [41 if collective else 14] * len(envs)
        for env, parts, column in zip(envs, values, columns):
            quarters = [_quarter_delta(np.array(w, dtype=float)) for _, w, _ in env]
            mirrored = [np.triu(q) + np.triu(q, 1).T for q in quarters]
            _, env_index = np.unique(np.stack([q.ravel() for q in mirrored], 1), axis=0, return_inverse=True)
            assert (column[index] == env_index.reshape(d, d)).all()
            for part, mirror in zip(parts, mirrored):
                assert part[column[index]].tobytes() == mirror.tobytes()
        read_only = [index, *columns, *(v for parts in values for v in parts)]
        assert not any(a.flags.writeable for a in read_only)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("collective, case", LAYOUTS)
    def test_every_gathered_factor_is_a_channel(self, collective, case, kind):
        # a Schur multiplier rho -> F o rho is a channel iff F is real,
        # symmetric, of unit diagonal and positive semidefinite; |F| <= 1
        # keeps the entries bounded
        for ratio in CHANNEL_RATIOS:
            specs = [NoiseSpec(k, collective, ratio, case, kind) for k in CHANNEL_KAPPAS]
            factors = np.array(list(sweep_attenuation(specs)))
            assert factors.dtype == np.float64 and factors.shape[0] == len(specs)
            assert (factors == factors.swapaxes(1, 2)).all()
            assert (factors.diagonal(0, 1, 2) == 1.0).all() and (abs(factors) <= 1.0).all()
            assert np.linalg.eigvalsh(factors)[:, 0].min() >= -1e-12

    @pytest.mark.parametrize("collective, case", LAYOUTS)
    def test_sinc_is_even_bit_for_bit_on_the_table_arguments(self, collective, case):
        # the mirrored classes give entry (j, i) the factor of (i, j), whose
        # sinc argument is the negated one
        for ratio in CHANNEL_RATIOS:
            scales = channels._scales(NoiseSpec(0.0, collective, ratio, case), CHANNEL_KAPPAS[:, None, None])
            for env in channels._LAYOUTS[collective, case]:
                x = sum(scales[scale] * channels._UNIT_QUARTERS[w] for _, w, scale in env)
                assert sinc(-x).tobytes() == sinc(x).tobytes()

    def test_one_overflowing_point_fails_the_sweep_with_the_point_message(self):
        # kappa_c * Delta / 4 = 1.5e308 * 1.5 overflows at the last point
        specs = [NoiseSpec(k, True, 1.0, "a") for k in (0.0, 2.9, 1.5e308)]
        with pytest.raises(ValueError) as point:
            NoiseStep(specs[-1])
        with pytest.raises(ValueError) as sweep:
            sweep_attenuation(specs)
        assert str(sweep.value) == str(point.value) == "noise attenuation is not finite: generator strengths are too large"

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_zero_strength_rows_are_exactly_one(self, kind):
        # the zero-strength rule holds row by row for a column of
        # strengths, even where Delta / 4 is past the float range
        quarters = np.array([0.0, 0.5, np.inf])
        table = attenuation([[(quarters, np.array([[0.0], [0.0]]))]], kind)
        assert table.shape == (2, 3) and (table == 1.0).all()
        table = attenuation([[(quarters[:2], np.array([[0.0], [2.0]])), (quarters[:2], np.array([[0.0], [0.0]]))]], kind)
        row = attenuation([[(quarters[:2], 2.0), (quarters[:2], 0.0)]], kind)
        assert (table[0] == 1.0).all() and table[1].tobytes() == row.tobytes() and (row != 1.0).any()
        for collective, case in LAYOUTS:
            (factor,) = sweep_attenuation([NoiseSpec(0.0, collective, 0.5, case, kind)])
            assert (factor == 1.0).all()

    def test_specs_must_differ_only_in_kappa0(self):
        for other in (NoiseSpec(1.0, ratio=0.3), NoiseSpec(1.0, coupling_case="b"), NoiseSpec(1.0, kind=MARKOVIAN_EXP)):
            with pytest.raises(ValueError, match="^a sweep's noise specs must differ only in kappa0$"):
                sweep_attenuation([NoiseSpec(0.5), other])

    def test_a_sweep_needs_a_spec(self):
        with pytest.raises(ValueError, match="^a sweep needs at least one noise spec$"):
            sweep_attenuation([])

    def test_sweep_noise_is_the_first_spec_and_a_float_kappa0_column(self):
        specs = [NoiseSpec(0.5, True), NoiseSpec(2, True)]
        spec, kappa0 = sweep_noise(specs)
        assert spec is specs[0]
        assert kappa0.dtype == np.float64 and kappa0.tolist() == [0.5, 2.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DephasingGenerator(np.ones((2, 2)), 1.0), "weights must be a per-qubit vector"),
        (lambda: DephasingGenerator(np.array([]), 1.0), "weights must be a per-qubit vector"),
        (lambda: attenuation([], "bogus"), "unknown noise kind 'bogus'"),
        (lambda: noise_strength([single(1, 1, 1.0), single(1, 2, 1.0)]), "generators must share a common qubit count"),
        (lambda: attenuation(environments([single(1, 2, 1.0), single(1, 3, 1.0)]), INCOHERENT_SINC), "generators must share a common qubit count"),
        (lambda: attenuation(environments([single(1, 2, 1.0), single(1, 3, 1.0)]), MARKOVIAN_EXP), "generators must share a common qubit count"),
    ],
)
def test_error_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
    ):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**bad)
    # ratio**2 overflows, but the collective scale underflows to 0
    NoiseSpec(1.0, collective=True, ratio=1e200, kind=MARKOVIAN_EXP)
    assert collective_scale_of(1.0, 1e200, MARKOVIAN_EXP) == 0.0
    with pytest.raises(ValueError, match="finite"):
        qubit3_strength_ratio(float("inf"))
    assert collective_scale_of(2.0, 0.5, INCOHERENT_SINC) == pytest.approx(4.0)


# each site that takes a noise scale: (the scale's name, a call with the scale set to x)
_NOISE_SCALE_SITES = {
    "NoiseSpec": ("kappa0", lambda x: NoiseSpec(x)),
    "ScenarioConfig": ("kappa0", lambda x: ScenarioConfig("no_qec", sweep=(x,))),
    "analytic_fe_qec_strong-kappa0": ("kappa0", lambda x: analytic_fe_qec_strong(x, 1.0)),
    "analytic_fe_qec_strong-kappa3": ("kappa3", lambda x: analytic_fe_qec_strong(1.0, x)),
    "markov_dephase": ("t", lambda x: markov_dephase(maximally_mixed(1), [single(1, 1, 1.0)], x)),
    "qubit3_strength_ratio": ("epsilon", qubit3_strength_ratio),
    "DephasingGenerator": ("strength", lambda x: DephasingGenerator(np.array([1.0]), x)),
}


@pytest.mark.parametrize("site", _NOISE_SCALE_SITES)
def test_every_noise_scale_must_be_finite_and_nonnegative(site):
    name, call = _NOISE_SCALE_SITES[site]
    for bad in (math.nan, math.inf, -1.0, -5e-324):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be finite and >= 0, got {bad}"
    for zero in (0.0, -0.0):
        call(zero)


def test_overflowing_rate_times_time_is_a_too_large_attenuation():
    # strength * t is inf; the generator's own strength is in range
    with pytest.raises(ValueError) as info:
        markov_dephase(maximally_mixed(1), [DephasingGenerator(np.array([1.0]), 1e300)], 1e10)
    assert str(info.value) == "noise attenuation is not finite: generator strengths are too large"


def _outcome(call):
    """What a call gives under -W error: its ValueError's message, a sweep's MetricReports, or its result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValueError as error:
            return str(error)
    return [p.report for p in result.points] if hasattr(result, "points") else result


@pytest.mark.parametrize(
    "call",
    [
        lambda x: NoiseSpec(x(1e300), True, 1e-10),
        lambda x: NoiseSpec(1.0, True, x(1e200), kind=MARKOVIAN_EXP),
        lambda x: NoiseSpec(1.0, True, x(1e-200), kind=MARKOVIAN_EXP),
        lambda x: run_scenario(ScenarioConfig("dfs_qec", kind=MARKOVIAN_EXP, ratio=x(1e200), sweep=(1.0,))),
    ],
    ids=["kappa0-overflow", "exp-square-overflow", "exp-square-underflow", "run_scenario-exp"],
)
def test_numpy_scalar_noise_scales_act_as_python_floats(call):
    assert _outcome(lambda: call(np.float64)) == _outcome(lambda: call(float))


@pytest.mark.parametrize("kappa0, ratio", [(1e-7, 1e-157), (1e-320, 1e-170)])
def test_markovian_scale_keeps_its_bits_where_the_square_underflows(kappa0, ratio):
    # ratio**2 is subnormal (1e-314) or 0 (1e-340): dividing by it lost
    # the scale's bits or raised, dividing twice rounds twice
    NoiseSpec(kappa0, collective=True, ratio=ratio, kind=MARKOVIAN_EXP)
    want = Fraction(kappa0) / Fraction(ratio) ** 2
    assert abs(Fraction(collective_scale_of(kappa0, ratio, MARKOVIAN_EXP)) - want) <= want / 2**51
