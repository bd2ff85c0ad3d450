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
from typing import Mapping, Sequence

import numpy as np

from .channels import INCOHERENT_SINC, NoiseSpec, sinc
from .qstate import DensityMatrix, hs_overlap

__all__ = [
    "AXES",
    "MetricReport",
    "ErrorRateFit",
    "correlation",
    "entanglement_fidelity",
    "analytic_fe_qec_independent",
    "analytic_fe_qec_strong",
    "analytic_reference",
    "fit_error_rates",
    "fit_grid",
    "FIT_GRID_POINTS",
    "FIT_GRID_MAX_LAMBDA_T",
]

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class MetricReport:
    """Per-sweep-point metric bundle; Fe and P are recomputed from the
    stored components on construction, never passed in."""

    Cx: float
    Cy: float
    Cz: float
    Fe: float
    Px: float
    Py: float
    Pz: float
    P: float
    Fe_analytic: float | None = None

    @classmethod
    def from_metrics(
        cls,
        c: Mapping[str, float],
        p: Mapping[str, float],
        fe_analytic: float | None = None,
    ) -> "MetricReport":
        cs = [float(c[u]) for u in AXES]
        ps = [float(p[u]) for u in AXES]
        return cls(*cs, entanglement_fidelity(cs), *ps, float(np.mean(ps)), fe_analytic)


def correlation(input_dev: DensityMatrix, output_dev: DensityMatrix) -> float:
    """Normalized overlap tr(in out) / tr(in in)."""
    norm = hs_overlap(input_dev, input_dev)
    if norm <= 1e-12:
        raise ValueError("input deviation has zero norm")
    return hs_overlap(input_dev, output_dev) / norm


def entanglement_fidelity(c: Sequence[float]) -> float:
    """(Cx + Cy + Cz + 1)/4 for unital one-qubit dynamics."""
    cx, cy, cz = c
    return (cx + cy + cz + 1.0) / 4.0


def _fe_three_carriers(s_data: float, s_anc_a: float, s_anc_b: float) -> float:
    # exact fidelity of the phase code under independent per-carrier
    # phase-flip channels with coherence attenuations s_j
    return 0.5 + (s_data + s_anc_a + s_anc_b - s_data * s_anc_a * s_anc_b) / 4.0


def analytic_fe_qec_independent(kappa0: float) -> float:
    """1/2 + (3 sinc(k0/2) - sinc^3(k0/2)) / 4."""
    s = float(sinc(kappa0 / 2.0))
    return _fe_three_carriers(s, s, s)


def analytic_fe_qec_strong(kappa0: float, kappa3: float) -> float:
    """1/2 + (2 sinc(k0/2) + sinc(k3/2) - sinc^2(k0/2) sinc(k3/2)) / 4."""
    s0 = float(sinc(kappa0 / 2.0))
    s3 = float(sinc(kappa3 / 2.0))
    return _fe_three_carriers(s0, s0, s3)


def analytic_reference(scenario: str, spec: NoiseSpec) -> float:
    """Ideal-ancilla closed form for a scenario at the spec's scale.

    The concatenated scenario is referenced to the independent-noise
    curve: the collective component must not show up in it.
    """
    incoherent = spec.kind == INCOHERENT_SINC

    def carrier(x: float) -> float:
        # attenuation at phase spread x, or at the folded product lambda*t
        return float(sinc(x / 2.0)) if incoherent else float(np.exp(-x))

    x = spec.kappa0
    s0 = carrier(x)
    if scenario in ("qec_independent", "dfs_qec"):
        s3 = s0
    elif scenario == "no_qec":
        return (2.0 * s0 + 2.0) / 4.0
    elif scenario == "qec_hybrid":
        xc = spec.collective_scale()
        if xc is None:
            raise ValueError("qec_hybrid reference needs the collective component")
        if spec.coupling_case == "a":
            # one environment: the spreads add; the folded products
            # lambda*t add as amplitudes on one axis
            s3 = carrier(x + xc) if incoherent else carrier((np.sqrt(x) + np.sqrt(xc)) ** 2)
        else:
            # case "b": two environments, carrier-3 attenuation factorizes
            s3 = s0 * float(sinc(xc / 2.0)) if incoherent else carrier(x + xc)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _fe_three_carriers(s0, s0, s3)


@dataclass(frozen=True)
class ErrorRateFit:
    """Fitted error rates 1/|tau_k^k| of the short-time expansion
    F_e(t) = 1 + sum_k (t/tau_k)^k / k!; each rate is bounded by the
    k-th power of the overall noise strength."""

    orders: tuple[int, ...]
    tau_inv_k: tuple[float, ...]
    lambda_bound: float | None = None

    def satisfies_bound(self, rtol: float = 1e-6) -> bool:
        if self.lambda_bound is None:
            raise ValueError("no lambda bound was attached to this fit")
        return all(
            rate <= self.lambda_bound**k * (1.0 + rtol)
            for k, rate in zip(self.orders, self.tau_inv_k)
        )


FIT_GRID_POINTS = 12
# Short enough that the first omitted Taylor order cannot leak more
# than ~1e-8 into the fitted first-order rate.
FIT_GRID_MAX_LAMBDA_T = 0.01


def fit_grid(lambda_bound: float, points: int = FIT_GRID_POINTS) -> np.ndarray:
    """Default sample times for fit_error_rates, linear on
    [0, FIT_GRID_MAX_LAMBDA_T / lambda_bound]."""
    if lambda_bound <= 0:
        raise ValueError("lambda_bound must be > 0")
    return np.linspace(0.0, FIT_GRID_MAX_LAMBDA_T / lambda_bound, points)


def fit_error_rates(
    samples: Sequence[tuple[float, float]],
    max_order: int,
    lambda_bound: float | None = None,
) -> ErrorRateFit:
    """Ordinary least-squares fit of 1 - F_e(t) by a polynomial without
    constant term; reports 1/|tau_k^k| = k! |c_k| for k = 1..max_order.
    """
    if not 1 <= max_order <= 3:
        raise ValueError(f"max_order must be in 1..3, got {max_order}")
    samples = list(samples)
    if len(samples) < max_order + 2:
        raise ValueError(f"need at least {max_order + 2} samples, got {len(samples)}")
    ts = np.array([s[0] for s in samples], dtype=float)
    fes = np.array([s[1] for s in samples], dtype=float)
    scale = float(np.max(np.abs(ts)))
    if scale == 0.0:
        raise ValueError("samples must span a nonzero time interval")
    u = ts / scale
    design = np.column_stack([u**k for k in range(1, max_order + 1)])
    coef_u, *_ = np.linalg.lstsq(design, 1.0 - fes, rcond=None)
    orders = tuple(range(1, max_order + 1))
    rates = tuple(
        float(math.factorial(k) * abs(c) / scale**k) for k, c in zip(orders, coef_u)
    )
    return ErrorRateFit(orders, rates, lambda_bound)
