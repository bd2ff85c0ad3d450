import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqec import experiments
from dfsqec.channels import MARKOVIAN_EXP, DephasingGenerator, NoiseSpec, incoherent_dephase
from dfsqec.codes import Circuit, Gate, cnot
from dfsqec.experiments import ScenarioConfig, run_scenario
from dfsqec.metrics import (
    MetricReport,
    analytic_fe_qec_independent,
    analytic_fe_qec_strong,
    analytic_reference,
    correlation,
    entanglement_fidelity,
    fit_error_rates,
    fit_grid,
)
from dfsqec.qstate import DensityMatrix, Operator, pauli_deviation

SINC1 = float(np.sin(1.0))  # sin(1)/1


def dephased(axis: str, kappa: float) -> DensityMatrix:
    gen = DephasingGenerator(np.array([1.0]), kappa)
    return incoherent_dephase(pauli_deviation(axis), gen)


def correlations(outputs) -> tuple[float, float, float]:
    return tuple(correlation(pauli_deviation(u), outputs[u]) for u in "xyz")


def polarizations(config: ScenarioConfig) -> np.ndarray:
    (point,) = run_scenario(config).points
    r = point.report
    return np.array([r.Px, r.Py, r.Pz, r.P])


class TestCorrelations:
    def test_identity_channel(self):
        ins = {u: pauli_deviation(u) for u in "xyz"}
        assert correlations(ins) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_complete_dephasing(self):
        outs = {u: dephased(u, 2.0 * np.pi) for u in "xyz"}
        assert correlations(outs) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_sinc_dephasing_at_half_spread_one(self):
        outs = {u: dephased(u, 2.0) for u in "xyz"}
        assert correlations(outs) == pytest.approx((SINC1, SINC1, 1.0), abs=1e-12)

    def test_zero_norm_input_rejected(self):
        zero = DensityMatrix(np.zeros((2, 2)), "deviation")
        with pytest.raises(ValueError, match="zero norm"):
            correlation(zero, pauli_deviation("x"))


class TestEntanglementFidelity:
    def test_examples(self):
        assert entanglement_fidelity((1, 1, 1)) == 1.0
        assert entanglement_fidelity((0, 0, 1)) == 0.5
        assert entanglement_fidelity((0, 0, 0)) == 0.25


class TestAvgPolarization:
    def test_noise_free_run(self):
        for scenario in ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec"):
            got = polarizations(ScenarioConfig(scenario, sweep=(0.0,), ancilla_purity=0.7))
            assert got == pytest.approx((1, 1, 1, 1), abs=1e-12)

    def test_complete_dephasing_without_qec(self):
        px, py, pz, p = polarizations(ScenarioConfig("no_qec", sweep=(2.0 * np.pi,)))
        assert (px, py, pz) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
        assert p == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_insensitive_to_shared_unitary(self, rng, monkeypatch):
        # a unitary error on the data qubit after recovery acts on the
        # noisy and on the noise-free reference run alike: the
        # correlations see it, the polarizations do not
        from .test_qstate import _random_unitary

        config = ScenarioConfig("qec_independent", sweep=(1.3,))
        plain = run_scenario(config).points[0].report
        u = Gate("U", Operator(_random_unitary(rng, 2), unitary=True), (2,))
        build = experiments.build_scenario_circuit

        def with_error(scenario, spec):
            circuit = build(scenario, spec)
            return Circuit(circuit.n_qubits, circuit.steps + (u,))

        monkeypatch.setattr(experiments, "build_scenario_circuit", with_error)
        rotated = run_scenario(config).points[0].report
        assert abs(rotated.Fe - plain.Fe) > 1e-3
        for field in ("Px", "Py", "Pz", "P"):
            assert getattr(rotated, field) == pytest.approx(getattr(plain, field), abs=1e-12)

    def test_zero_purity_reference_rejected(self, monkeypatch):
        # swapping the data onto an ancilla leaves no data deviation on
        # qubit 2 even without noise
        swap = [cnot(1, 2), cnot(2, 1), cnot(1, 2)]
        monkeypatch.setattr(
            experiments, "build_scenario_circuit", lambda s, spec: Circuit(3, swap)
        )
        with pytest.raises(ValueError, match="zero purity"):
            run_scenario(ScenarioConfig("no_qec", sweep=(0.0,)))


class TestAnalyticCurves:
    def test_independent_at_zero(self):
        assert analytic_fe_qec_independent(0.0) == 1.0

    def test_independent_at_first_sinc_zero(self):
        assert analytic_fe_qec_independent(2.0 * np.pi) == pytest.approx(0.5, abs=1e-15)

    def test_independent_at_half_spread_one(self):
        s = SINC1
        want = 0.5 + (3 * s - s**3) / 4.0
        assert analytic_fe_qec_independent(2.0) == pytest.approx(want, abs=1e-15)
        # frozen against the full circuit simulation
        assert analytic_fe_qec_independent(2.0) == pytest.approx(0.9821474294581827, abs=1e-12)

    def test_strong_reduces_to_independent_when_equal(self):
        for kappa in (0.0, 1.0, 3.7):
            assert analytic_fe_qec_strong(kappa, kappa) == pytest.approx(
                analytic_fe_qec_independent(kappa), abs=1e-15
            )

    def test_strong_is_one_when_only_third_carrier_is_noisy(self):
        for kappa3 in (0.5, 2.0, 50.0):
            assert analytic_fe_qec_strong(0.0, kappa3) == pytest.approx(1.0, abs=1e-15)

    def test_strong_at_half_spread_one_ratio_half(self):
        # frozen against the full circuit simulation
        assert analytic_fe_qec_strong(2.0, 6.0) == pytest.approx(0.9241685492011245, abs=1e-12)

    def test_no_qec_curve(self):
        assert analytic_reference("no_qec", NoiseSpec(0.0)) == 1.0
        assert analytic_reference("no_qec", NoiseSpec(2.0)) == pytest.approx((2 * SINC1 + 2) / 4, abs=1e-15)

    def test_markov_at_zero_time(self):
        zero = NoiseSpec(0.0, kind=MARKOVIAN_EXP)
        assert analytic_reference("qec_independent", zero) == 1.0
        assert analytic_reference("no_qec", zero) == 1.0

    def test_markov_first_derivative_vanishes_at_zero(self):
        h = 1e-7
        slope = (markov("qec_independent", h) - markov("qec_independent", 0.0)) / h
        assert abs(slope) <= 1e-6

    def test_markov_no_qec_slope_is_minus_half_lambda(self):
        lam = 0.8
        h = 1e-7
        slope = (markov("no_qec", lam * h) - 1.0) / h
        assert slope == pytest.approx(-lam / 2.0, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 30.0, allow_nan=False))
    def test_curves_stay_in_physical_range(self, kappa):
        for fe in (
            analytic_fe_qec_independent(kappa),
            analytic_fe_qec_strong(kappa, 3.0 * kappa),
            analytic_reference("no_qec", NoiseSpec(kappa)),
        ):
            assert 0.25 <= fe <= 1.0 + 1e-12

    def test_analytic_reference_dispatch(self):
        # every branch against its closed form, as tabulated in the README
        spec = NoiseSpec(2.0)
        assert analytic_reference("qec_independent", spec) == analytic_fe_qec_independent(2.0)
        assert analytic_reference("no_qec", spec) == pytest.approx((2 * SINC1 + 2) / 4, abs=1e-15)
        hybrid = NoiseSpec(2.0, collective=True, ratio=0.5)
        assert analytic_reference("qec_hybrid", hybrid) == analytic_fe_qec_strong(2.0, 6.0)
        dfs = NoiseSpec(2.0, collective=True, ratio=0.5)
        assert analytic_reference("dfs_qec", dfs) == analytic_fe_qec_independent(2.0)
        s0 = SINC1
        s3 = s0 * float(np.sin(2.0) / 2.0)  # case "b": sinc(kappa_c/2), kappa_c = 4
        want = 0.5 + (2 * s0 + s3 - s0**2 * s3) / 4.0
        case_b = NoiseSpec(2.0, collective=True, ratio=0.5, coupling_case="b")
        assert analytic_reference("qec_hybrid", case_b) == pytest.approx(want, abs=1e-15)
        # Markovian: lambda_c t = 0.5 / 0.5**2 = 2
        s0 = np.exp(-0.5)
        for case, s3 in (("a", np.exp(-((np.sqrt(0.5) + np.sqrt(2.0)) ** 2))), ("b", np.exp(-2.5))):
            markov_spec = NoiseSpec(0.5, collective=True, ratio=0.5, coupling_case=case, kind=MARKOVIAN_EXP)
            want = 0.5 + (2 * s0 + s3 - s0**2 * s3) / 4.0
            assert analytic_reference("qec_hybrid", markov_spec) == pytest.approx(want, abs=1e-15)
        assert markov("dfs_qec", 0.5) == markov("qec_independent", 0.5)
        assert markov("qec_independent", 0.5) == pytest.approx(0.5 + (3 * s0 - s0**3) / 4.0, abs=1e-15)
        with pytest.raises(ValueError, match="collective"):
            analytic_reference("qec_hybrid", NoiseSpec(2.0))
        with pytest.raises(ValueError, match="scenario"):
            analytic_reference("other", spec)


def markov(scenario: str, lambda_t: float) -> float:
    return analytic_reference(scenario, NoiseSpec(lambda_t, kind=MARKOVIAN_EXP))


class TestFitErrorRates:
    def test_known_exponential_curve(self):
        lam = 0.3
        ts = fit_grid(lam)
        samples = [(float(t), (1.0 + np.exp(-lam * t)) / 2.0) for t in ts]
        fit = fit_error_rates(samples, 3, lam)
        assert fit.tau_inv_k[0] == pytest.approx(0.15, abs=1e-4)

    def test_qec_curve_first_order_cancels(self):
        lam = 3.0
        ts = fit_grid(lam)
        samples = [(float(t), markov("qec_independent", float(t))) for t in ts]
        fit = fit_error_rates(samples, 3, lam)
        assert abs(fit.tau_inv_k[0]) <= 1e-6
        assert fit.tau_inv_k[1] > 0.0
        assert fit.satisfies_bound()

    def test_constant_samples_give_zero_rates(self):
        samples = [(0.01 * k, 1.0) for k in range(12)]
        fit = fit_error_rates(samples, 3)
        assert all(abs(r) <= 1e-12 for r in fit.tau_inv_k)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            fit_error_rates([(0.0, 1.0), (0.1, 0.9), (0.2, 0.8)], 2)

    def test_orders_reported(self):
        samples = [(0.01 * k, 1.0 - 0.001 * k) for k in range(12)]
        fit = fit_error_rates(samples, 2)
        assert fit.orders == (1, 2)

    def test_bound_requires_lambda(self):
        samples = [(0.01 * k, 1.0) for k in range(12)]
        with pytest.raises(ValueError, match="bound"):
            fit_error_rates(samples, 1).satisfies_bound()

    def test_initial_slope_distinguishes_noise_kinds(self):
        # without correction, Markovian noise decays linearly from t=0
        # while the incoherent average starts flat (curvature only)
        lam = 3.0
        ts = tuple(float(t) for t in fit_grid(lam))
        markov = run_scenario(ScenarioConfig("no_qec", kind="markovian_exp", sweep=ts))
        fit_m = fit_error_rates([(p.kappa0, p.report.Fe) for p in markov.points], 3)
        assert fit_m.tau_inv_k[0] == pytest.approx(0.5, abs=1e-4)

        incoh = run_scenario(ScenarioConfig("no_qec", kind="incoherent_sinc", sweep=ts))
        fit_i = fit_error_rates([(p.kappa0, p.report.Fe) for p in incoh.points], 3)
        assert abs(fit_i.tau_inv_k[0]) <= 1e-6
        assert fit_i.tau_inv_k[1] > 0.0


class TestMetricReport:
    def test_fe_recomputed_from_correlations(self):
        rep = MetricReport.from_metrics(
            {"x": 0.5, "y": 0.25, "z": 1.0}, {"x": 1.0, "y": 1.0, "z": 1.0}
        )
        assert rep.Fe == (0.5 + 0.25 + 1.0 + 1.0) / 4.0
        assert rep.P == 1.0

    def test_ideal_channel_reports_all_ones(self):
        rep = MetricReport.from_metrics(
            {u: 1.0 for u in "xyz"}, {u: 1.0 for u in "xyz"}, fe_analytic=1.0
        )
        for field in (rep.Cx, rep.Cy, rep.Cz, rep.Fe, rep.Px, rep.Py, rep.Pz, rep.P):
            assert abs(field - 1.0) <= 1e-12

