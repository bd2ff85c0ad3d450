import dataclasses
import itertools
import math

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
    collective_scale_of,
    incoherent_dephase,
    sinc,
)
from dfsqec.codes import Circuit, Gate, cnot
from dfsqec.experiments import ScenarioConfig, pauli_transfer_matrix, run_scenario
from dfsqec.metrics import (
    MetricReport,
    analytic_curve,
    analytic_fe_qec_independent,
    analytic_fe_qec_strong,
    analytic_reference,
    correlation,
    correlations,
    entanglement_fidelity,
    fit_error_rates,
    fit_grid,
)
from dfsqec.qstate import DensityMatrix, Operator, pauli_deviation

SINC1 = float(np.sin(1.0))  # sin(1)/1


def dephased(axis: str, kappa: float) -> DensityMatrix:
    gen = DephasingGenerator(np.array([1.0]), kappa)
    return incoherent_dephase(pauli_deviation(axis), gen)


def axis_correlations(outputs) -> tuple[float, float, float]:
    return tuple(correlation(pauli_deviation(u), outputs[u]) for u in "xyz")


def polarizations(config: ScenarioConfig) -> np.ndarray:
    (point,) = run_scenario(config).points
    r = point.report
    return np.array([r.Px, r.Py, r.Pz, r.P])


class TestCorrelations:
    def test_identity_channel(self):
        ins = {u: pauli_deviation(u) for u in "xyz"}
        assert axis_correlations(ins) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_complete_dephasing(self):
        outs = {u: dephased(u, 2.0 * np.pi) for u in "xyz"}
        assert axis_correlations(outs) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_sinc_dephasing_at_half_spread_one(self):
        outs = {u: dephased(u, 2.0) for u in "xyz"}
        assert axis_correlations(outs) == pytest.approx((SINC1, SINC1, 1.0), abs=1e-12)
        # an input built from the same entries scores the same bits
        fresh = correlation(DensityMatrix(pauli_deviation("x").entries, "deviation"), outs["x"])
        assert fresh == axis_correlations(outs)[0]

    def test_zero_norm_input_rejected(self):
        zero = DensityMatrix(np.zeros((2, 2)), "deviation")
        with pytest.raises(ValueError, match="zero norm"):
            correlation(zero, pauli_deviation("x"))
        sigmas = np.array([pauli_deviation(u).entries for u in "xyz"])
        with pytest.raises(ValueError, match="zero norm"):
            correlations(np.array([sigmas[0], zero.entries]), sigmas[:2])

    def test_stack_rows_are_the_single_correlations(self):
        # a (K, 3) table: each sweep point's outputs against the three inputs
        sigmas = np.array([pauli_deviation(u).entries for u in "xyz"])
        outs = [{u: dephased(u, kappa) for u in "xyz"} for kappa in (0.0, 2.0, 5.5)]
        table = correlations(sigmas, np.array([[o[u].entries for u in "xyz"] for o in outs]))
        assert table.tolist() == [list(axis_correlations(o)) for o in outs]


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
        u = Gate("U", Operator(_random_unitary(rng, 2)), (2,))
        build = codes.build_scenario_circuit

        def with_error(scenario, noise):
            # noise is the marker of the reference run or of a sweep point
            circuit = build(scenario, noise)
            return Circuit(circuit.n_qubits, circuit.steps + (u,))

        monkeypatch.setattr(codes, "build_scenario_circuit", with_error)
        rotated = run_scenario(config).points[0].report
        assert abs(rotated.Fe - plain.Fe) > 1e-3
        for field in ("Px", "Py", "Pz", "P"):
            assert getattr(rotated, field) == pytest.approx(getattr(plain, field), abs=1e-12)

    def test_zero_purity_reference_rejected(self, monkeypatch):
        # swapping the data onto an ancilla leaves no data deviation on
        # qubit 2 even without noise
        swap = [cnot(1, 2), cnot(2, 1), cnot(1, 2)]
        monkeypatch.setattr(
            codes, "build_scenario_circuit", lambda s, spec: Circuit(3, swap)
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
    collective = codes.scenario_layout(scenario)[1]
    return analytic_reference(scenario, NoiseSpec(lambda_t, collective, kind=MARKOVIAN_EXP))


def scalar_reference(scenario: str, spec: NoiseSpec) -> float:
    """The one-point closed form as it was before the array form, kept
    verbatim as the array form's oracle."""
    incoherent = spec.kind == INCOHERENT_SINC

    def carrier(x: float) -> float:
        return float(sinc(x / 2.0)) if incoherent else float(np.exp(-x))

    x = spec.kappa0
    s0 = carrier(x)
    if scenario in ("qec_independent", "dfs_qec"):
        s3 = s0
    elif scenario == "no_qec":
        return (2.0 * s0 + 2.0) / 4.0
    else:
        xc = collective_scale_of(x, spec.ratio, spec.kind)
        if spec.coupling_case == "a":
            if incoherent:
                s3 = float(sinc(x / 2.0 + xc / 2.0))
            else:
                with np.errstate(over="ignore"):
                    s3 = carrier((np.sqrt(x) + np.sqrt(xc)) ** 2)
        else:
            s3 = s0 * float(sinc(xc / 2.0)) if incoherent else carrier(x + xc)
    return 0.5 + (s0 + s0 + s3 - s0 * s0 * s3) / 4.0


# qec_hybrid, exp, case "a", ratio 1.7: (sqrt(x) + sqrt(xc)) ** 2 is
# 0.8158943127680641 by C pow (a float64 scalar's ** 2), which the CSV
# has, and 0.815894312768064 by an ndarray's ** 2, which squares
POW_TRAP_KAPPA0 = 0.3234478139780117


class TestAnalyticCurveArray:
    @pytest.mark.parametrize("case", ["a", "b"])
    @pytest.mark.parametrize("kind", [INCOHERENT_SINC, MARKOVIAN_EXP])
    @pytest.mark.parametrize("scenario", ["qec_independent", "qec_hybrid", "no_qec", "dfs_qec"])
    def test_matches_the_scalar_form_bit_for_bit(self, scenario, kind, case):
        # 2000 kappa0 in [0, 50] at each of three ratios: 96,000 values over the 16 configs
        rng = np.random.default_rng(17)
        kappa0 = np.concatenate([[0.0, POW_TRAP_KAPPA0, 50.0], rng.uniform(0.0, 50.0, 1997)]).tolist()
        collective = scenario in ("qec_hybrid", "dfs_qec")
        for ratio in (0.5, 1.7, rng.uniform(0.1, 3.0)):
            specs = [NoiseSpec(x, collective, ratio, case, kind) for x in kappa0]
            got = analytic_curve(scenario, specs)
            assert got.shape == (2000,)
            want = [scalar_reference(scenario, spec) for spec in specs]
            # float.hex: bit for bit, the sign of zero too
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))

    def test_pow_trap_is_pinned(self):
        spec = NoiseSpec(POW_TRAP_KAPPA0, collective=True, ratio=1.7, kind=MARKOVIAN_EXP)
        v = np.sqrt(POW_TRAP_KAPPA0) + np.sqrt(collective_scale_of(POW_TRAP_KAPPA0, 1.7, MARKOVIAN_EXP))
        assert v**2 == 0.8158943127680641 and (np.array([v]) ** 2)[0] == 0.815894312768064
        want = scalar_reference("qec_hybrid", spec)
        assert analytic_reference("qec_hybrid", spec) == want
        assert analytic_curve("qec_hybrid", [spec])[0] == want


class TestAnalyticCurveContract:
    @pytest.mark.parametrize(
        "other",
        [
            dict(kind=MARKOVIAN_EXP),
            dict(coupling_case="b"),
            dict(ratio=0.7),
            dict(collective=False),
        ],
        ids=["kind", "case", "ratio", "collectiveness"],
    )
    @pytest.mark.parametrize("scenario", ["qec_hybrid", "no_qec"])
    def test_mixed_specs_raise(self, scenario, other):
        # also where the closed form reads none of the mixed fields
        spec = NoiseSpec(1.0, collective=True, ratio=0.5)
        mixed = [spec, dataclasses.replace(spec, kappa0=2.0, **other)]
        with pytest.raises(ValueError, match="^a sweep's noise specs must differ only in kappa0$"):
            analytic_curve(scenario, mixed)

    def test_hybrid_needs_the_collective_component(self):
        with pytest.raises(ValueError, match="^qec_hybrid requires the collective noise component$"):
            analytic_curve("qec_hybrid", [NoiseSpec(1.0)])

    @pytest.mark.parametrize("scenario", codes.SCENARIOS)
    def test_closed_forms_reject_the_pairs_circuits_reject(self, scenario):
        # the scenario with the other kind of noise: one rule, one message
        spec = NoiseSpec(1.0, collective=not codes.scenario_layout(scenario)[1])
        with pytest.raises(ValueError) as circuit:
            pauli_transfer_matrix(scenario, spec)
        for closed_form in (analytic_reference, lambda s, x: analytic_curve(s, [x, x])):
            with pytest.raises(ValueError) as reference:
                closed_form(scenario, spec)
            assert str(reference.value) == str(circuit.value)

    @pytest.mark.parametrize("specs", [[], [NoiseSpec(1.0)]])
    def test_unknown_scenario_raises_with_or_without_specs(self, specs):
        with pytest.raises(ValueError, match="^unknown scenario 'other'$"):
            analytic_curve("other", specs)

    def test_no_specs_give_an_empty_curve(self):
        assert analytic_curve("qec_hybrid", []).shape == (0,)

    @pytest.mark.parametrize("kappa0", [-1.0, float("nan"), float("inf")])
    def test_independent_form_rejects_an_invalid_scale(self, kappa0):
        with pytest.raises(ValueError, match="^kappa0 must be finite and >= 0"):
            analytic_fe_qec_independent(kappa0)

    def test_one_point_forms_are_curve_rows(self):
        specs = [NoiseSpec(x, collective=True, ratio=0.8, coupling_case="b") for x in (0.0, 1.3, 7.9)]
        curve = analytic_curve("qec_hybrid", specs).tolist()
        assert curve == [analytic_reference("qec_hybrid", spec) for spec in specs]
        plain = [NoiseSpec(x) for x in (0.0, 1.3, 7.9)]
        curve = analytic_curve("qec_independent", plain).tolist()
        assert curve == [analytic_fe_qec_independent(spec.kappa0) for spec in plain]


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

    @pytest.mark.parametrize("bound", [math.nan, -1.0, 0.0, math.inf])
    def test_bound_must_be_finite_and_positive(self, bound):
        # satisfies_bound() would read False for the first three and True for inf
        samples = [(0.01 * k, 1.0) for k in range(12)]
        with pytest.raises(ValueError, match=rf"^lambda_bound must be finite and > 0, got {bound}$"):
            fit_error_rates(samples, 1, bound)

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


_NON_FINITE_SAMPLES = "sample times and fidelities must be finite"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fit_grid(0.0), "lambda_bound must be > 0"),
        (lambda: fit_error_rates([(0.1 * k, 1.0) for k in range(6)], 4), "max_order must be in 1..3, got 4"),
        (lambda: fit_error_rates([(0.0, 1.0)] * 5, 1), "samples must span a nonzero time interval"),
        (lambda: fit_grid(math.nan), "lambda_bound must be finite, with a finite grid end, got nan"),
        (lambda: fit_grid(math.inf), "lambda_bound must be finite, with a finite grid end, got inf"),
        (lambda: fit_grid(5e-324), "lambda_bound must be finite, with a finite grid end, got 5e-324"),
        (lambda: fit_grid(-math.inf), "lambda_bound must be > 0"),
        (lambda: fit_error_rates([(0.1 * k, 1.0 if k else math.nan) for k in range(5)], 1), _NON_FINITE_SAMPLES),
        (lambda: fit_error_rates([(0.1 * k if k else math.nan, 1.0) for k in range(5)], 1), _NON_FINITE_SAMPLES),
        (lambda: fit_error_rates([(0.1 * k if k else -math.inf, 1.0) for k in range(5)], 1), _NON_FINITE_SAMPLES),
        # scale**3 of the largest time overflows
        (
            lambda: fit_error_rates([(1e120 * k, 1 - 0.01 * k) for k in range(6)], 3),
            "sample times up to 5e+120 overflow an order-3 fit",
        ),
        (lambda: analytic_fe_qec_strong(1.0, math.inf), "kappa3 must be finite and >= 0, got inf"),
        (lambda: analytic_fe_qec_strong(1.0, math.nan), "kappa3 must be finite and >= 0, got nan"),
        (lambda: analytic_fe_qec_strong(-1.0, 2.0), "kappa0 must be finite and >= 0, got -1.0"),
        (lambda: analytic_fe_qec_independent(math.nan), "kappa0 must be finite and >= 0, got nan"),
    ],
)
def test_error_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestMetricReport:
    def test_fields_are_the_measured_csv_columns_without_defaults(self):
        names = ["Cx", "Cy", "Cz", "Fe", "Fe_analytic", "Px", "Py", "Pz", "P"]
        assert [f.name for f in dataclasses.fields(MetricReport)] == names
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(MetricReport))

    def test_fe_recomputed_from_correlations(self):
        c, p = np.array([[0.5, 0.25, 1.0]]), np.array([[1.0, 1.0, 1.0]])
        (rep,) = MetricReport.from_metrics(c, p, fe_analytic=np.array([0.9]))
        assert rep.Fe == (0.5 + 0.25 + 1.0 + 1.0) / 4.0
        assert rep.P == 1.0

    def test_ideal_channel_reports_all_ones(self):
        (rep,) = MetricReport.from_metrics(np.ones((1, 3)), np.ones((1, 3)), fe_analytic=np.ones(1))
        for field in (rep.Cx, rep.Cy, rep.Cz, rep.Fe, rep.Px, rep.Py, rep.Pz, rep.P):
            assert abs(field - 1.0) <= 1e-12

    @pytest.mark.parametrize("purity", [1.0, 0.7, 0.3, 0.0])
    def test_every_sweep_report_has_the_bits_of_the_one_point_formulas(self, purity):
        # from_metrics computes Fe and P as columns: each row must have the
        # bits of the formulas on that row's Python floats
        for scenario, kind, case in itertools.product(codes.SCENARIOS, (INCOHERENT_SINC, MARKOVIAN_EXP), ("a", "b")):
            result = run_scenario(ScenarioConfig(scenario, kind=kind, coupling_case=case, ancilla_purity=purity))
            assert len(result.points) == 25
            for point in result.points:
                r = point.report
                assert all(type(v) is float for v in dataclasses.astuple(r))
                assert r.Fe.hex() == entanglement_fidelity((r.Cx, r.Cy, r.Cz)).hex()
                assert r.P.hex() == ((r.Px + r.Py + r.Pz) / 3.0).hex()

