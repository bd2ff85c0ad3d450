"""Fidelity and polarization metrics plus closed-form reference curves.

For unital one-qubit dynamics the entanglement fidelity is obtained
from the three input/output correlations of the Pauli deviations,

    C_u = tr(rho_in_u rho_out_u) / tr(rho_in_u^2),        u = x, y, z
    F_e = (C_x + C_y + C_z + 1) / 4.

The average output polarization compares only the lengths of the
output deviations against a noise-free reference run,

    P_u = tr(rho_out_u^2) / tr(rho_ref_u^2),   P = (P_x + P_y + P_z) / 3,

which makes it blind to any unitary error applied to both arms.

For the three-carrier phase code with independent per-carrier phase
flip channels of attenuations (s_d, s_a, s_b) the exact entanglement
fidelity of the protected qubit is

    F_e = 1/2 + (s_d + s_a + s_b - s_d s_a s_b) / 4,

which reduces to 1/2 + (3 s - s^3)/4 for equal carriers and to
1/2 + (2 s_0 + s_3 - s_0^2 s_3)/4 when one carrier is noisier.  The
attenuation is sinc(kappa/2) for the incoherent gradient noise and
exp(-lambda t) for Markovian dephasing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import INCOHERENT_SINC, NoiseSpec, check_range, collective_scale_of, sinc, sweep_noise
from .codes import check_noise, scenario_layout
from .qstate import DensityMatrix, hs_overlap_stack

__all__ = [
    "AXES",
    "MetricReport",
    "ErrorRateFit",
    "correlation",
    "correlations",
    "entanglement_fidelity",
    "analytic_fe_qec_independent",
    "analytic_fe_qec_strong",
    "analytic_reference",
    "analytic_curve",
    "fit_error_rates",
    "fit_grid",
    "FIT_GRID_POINTS",
    "FIT_GRID_MAX_LAMBDA_T",
]

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class MetricReport:
    """Per-sweep-point metric bundle; its fields, in order, are the CSV's measured
    columns.  ``from_metrics`` computes a sweep's columns, the Fe and P ones from the
    components, never taken in; ``MetricReport(*row)`` is one row's report."""

    Cx: float
    Cy: float
    Cz: float
    Fe: float
    Fe_analytic: float
    Px: float
    Py: float
    Pz: float
    P: float

    @classmethod
    def from_metrics(cls, c: np.ndarray, p: np.ndarray, fe_analytic: np.ndarray) -> np.ndarray:
        """The read-only ``(K, 9)`` report columns, in field order, of a sweep's ``(K, 3)``
        C_u and P_u arrays, columns in ``AXES`` order, and ``(K,)`` closed forms: each row
        has the one-point formulas' bits.  It builds no report."""
        c, p = c.T, p.T
        # left to right, then one division: np.mean's bits on three items
        # (sum() adds floats with compensation from Python 3.12 on)
        columns = np.stack((*c, entanglement_fidelity(c), fe_analytic, *p, (p[0] + p[1] + p[2]) / 3.0), 1)
        columns.setflags(write=False)
        return columns


def correlations(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Normalized overlaps tr(in out) / tr(in in) of two stacks of
    Hermitian matrices whose leading axes broadcast; an input of zero
    norm raises."""
    norms = hs_overlap_stack(inputs, inputs)
    if (norms <= 1e-12).any():
        raise ValueError("input deviation has zero norm")
    return hs_overlap_stack(inputs, outputs) / norms


def correlation(input_dev: DensityMatrix, output_dev: DensityMatrix) -> float:
    """Normalized overlap tr(in out) / tr(in in): one row of ``correlations``."""
    return float(correlations(input_dev.entries[None], output_dev.entries[None])[0])


def entanglement_fidelity(c: Sequence[float]) -> float:
    """(Cx + Cy + Cz + 1)/4 for unital one-qubit dynamics, of floats or columns."""
    cx, cy, cz = c
    return (cx + cy + cz + 1.0) / 4.0


def _fe_three_carriers(s_data, s_anc_a, s_anc_b):
    # exact fidelity of the phase code under independent per-carrier
    # phase-flip channels with coherence attenuations s_j (floats or arrays)
    return 0.5 + (s_data + s_anc_a + s_anc_b - s_data * s_anc_a * s_anc_b) / 4.0


def analytic_fe_qec_independent(kappa0: float) -> float:
    """1/2 + (3 sinc(k0/2) - sinc^3(k0/2)) / 4, at a valid ``NoiseSpec``
    scale: the one-point ``analytic_curve`` of ``qec_independent``."""
    return analytic_reference("qec_independent", NoiseSpec(kappa0))


def analytic_fe_qec_strong(kappa0: float, kappa3: float) -> float:
    """1/2 + (2 sinc(k0/2) + sinc(k3/2) - sinc^2(k0/2) sinc(k3/2)) / 4, at finite spreads >= 0."""
    check_range("kappa0", kappa0)
    check_range("kappa3", kappa3)
    s0 = float(sinc(kappa0 / 2.0))
    s3 = float(sinc(kappa3 / 2.0))
    return _fe_three_carriers(s0, s0, s3)


def analytic_reference(scenario: str, spec: NoiseSpec) -> float:
    """Ideal-ancilla closed form for a scenario at the spec's scale: the
    one-point ``analytic_curve``."""
    return analytic_curve(scenario, [spec]).item()


def analytic_curve(scenario: str, specs: Sequence[NoiseSpec]) -> np.ndarray:
    """Ideal-ancilla closed form for a scenario at each spec's scale, one
    array with each point's bits.  The specs, each checked when built,
    must be a ``channels.sweep_noise`` sweep (or none), and their noise must
    pass the scenario's ``codes.check_noise``.  The concatenated scenario is
    referenced to the independent-noise curve: the collective component
    must not show."""
    scenario_layout(scenario)  # raises on an unknown scenario
    if not specs:
        return np.empty(0)
    spec, x = sweep_noise(specs)
    check_noise(scenario, spec.collective)
    incoherent = spec.kind == INCOHERENT_SINC

    def carrier(x: np.ndarray) -> np.ndarray:
        # attenuation at phase spread x, or at the folded product lambda*t
        return sinc(x / 2.0) if incoherent else np.exp(-x)

    s0 = carrier(x)
    if scenario == "no_qec":
        return (2.0 * s0 + 2.0) / 4.0
    if scenario != "qec_hybrid":
        return _fe_three_carriers(s0, s0, s0)
    xc = collective_scale_of(x, spec.ratio, spec.kind)
    # a lambda*t sum that overflows attenuates to 0
    with np.errstate(over="ignore"):
        if spec.coupling_case == "a":
            # one environment: the spreads add (halved first, so the
            # sum cannot overflow); the folded products lambda*t add as
            # amplitudes on one axis.  float_power squares with C pow,
            # as the float64 scalar's ** 2 of the one-point form did;
            # an array's ** 2 multiplies, 1 ulp off at times
            if incoherent:
                s3 = sinc(x / 2.0 + xc / 2.0)
            else:
                s3 = carrier(np.float_power(np.sqrt(x) + np.sqrt(xc), 2))
        else:
            # case "b": two environments, carrier-3 attenuation factorizes
            s3 = s0 * sinc(xc / 2.0) if incoherent else carrier(x + xc)
    return _fe_three_carriers(s0, s0, s3)


@dataclass(frozen=True)
class ErrorRateFit:
    """Fitted error rates 1/|tau_k^k| of the short-time expansion
    F_e(t) = 1 + sum_k (t/tau_k)^k / k!; each rate is bounded by the
    k-th power of the overall noise strength."""

    orders: tuple[int, ...]
    tau_inv_k: tuple[float, ...]
    lambda_bound: float | None = None

    def satisfies_bound(self) -> bool:
        if self.lambda_bound is None:
            raise ValueError("no lambda bound was attached to this fit")
        return all(
            rate <= self.lambda_bound**k * (1.0 + 1e-6)
            for k, rate in zip(self.orders, self.tau_inv_k)
        )


FIT_GRID_POINTS = 12
# Short enough that the first omitted Taylor order cannot leak more
# than ~1e-8 into the fitted first-order rate.
FIT_GRID_MAX_LAMBDA_T = 0.01


def fit_grid(lambda_bound: float) -> np.ndarray:
    """FIT_GRID_POINTS sample times for fit_error_rates, linear on
    [0, FIT_GRID_MAX_LAMBDA_T / lambda_bound]; that end must be finite and > 0."""
    if lambda_bound <= 0:
        raise ValueError("lambda_bound must be > 0")
    end = FIT_GRID_MAX_LAMBDA_T / lambda_bound
    if not 0.0 < end < math.inf:
        raise ValueError(f"lambda_bound must be finite, with a finite grid end, got {lambda_bound}")
    return np.linspace(0.0, end, FIT_GRID_POINTS)


def fit_error_rates(
    samples: Sequence[tuple[float, float]],
    max_order: int,
    lambda_bound: float | None = None,
) -> ErrorRateFit:
    """Ordinary least-squares fit of 1 - F_e(t), at finite samples, by a polynomial
    without constant term; reports 1/|tau_k^k| = k! |c_k| for k = 1..max_order.
    """
    if not 1 <= max_order <= 3:
        raise ValueError(f"max_order must be in 1..3, got {max_order}")
    if lambda_bound is not None and not 0.0 < lambda_bound < math.inf:
        raise ValueError(f"lambda_bound must be finite and > 0, got {lambda_bound}")
    samples = list(samples)
    if len(samples) < max_order + 2:
        raise ValueError(f"need at least {max_order + 2} samples, got {len(samples)}")
    ts = np.array([s[0] for s in samples], dtype=float)
    fes = np.array([s[1] for s in samples], dtype=float)
    if not (np.isfinite(ts).all() and np.isfinite(fes).all()):
        raise ValueError("sample times and fidelities must be finite")
    scale = float(np.max(np.abs(ts)))
    if scale == 0.0:
        raise ValueError("samples must span a nonzero time interval")
    u = ts / scale
    design = np.column_stack([u**k for k in range(1, max_order + 1)])
    coef_u, *_ = np.linalg.lstsq(design, 1.0 - fes, rcond=None)
    orders = tuple(range(1, max_order + 1))
    try:
        rates = tuple(
            float(math.factorial(k) * abs(c) / scale**k) for k, c in zip(orders, coef_u)
        )
    except OverflowError:  # scale**k of a float does not return inf, it raises
        raise ValueError(f"sample times up to {scale:g} overflow an order-{max_order} fit") from None
    return ErrorRateFit(orders, rates, lambda_bound)
