"""Engineered z-dephasing channels and the associated noise bookkeeping.

Every noise generator here is a weighted sum of sigma_z operators,
``W = sum_j w_j sigma_z^j``.  Because all such generators commute, both
channel families have exact closed-form actions on matrix elements.
Writing ``Delta`` for the difference of W eigenvalues between the ket
and bra basis states of an element:

* incoherent dephasing is the ensemble average of the unitary
  ``U(phi) = exp(-i phi W / 2)`` with phi uniform on
  ``[-kappa/2, kappa/2]``.  Each element is multiplied by
  ``sin(x)/x`` at ``x = kappa * Delta / 4``.  This is the attenuation
  produced by a field-gradient pulse integrated over a spatially
  uniform sample; it is unital and completely positive but not a
  semigroup, two averages do not compose into one.
* Markovian dephasing is the exact solution of the Lindblad equation
  with jump operators ``L_mu = sqrt(lambda_mu / 2) W_mu``; each element
  is multiplied by ``exp(-lambda_mu t Delta^2 / 4)``.

An element with ``Delta = 0`` is untouched at any strength.  For the
collective generator ``sigma_z^3 + sigma_z^4`` this is what makes
``span{|01>, |10>}`` of qubits 3 and 4 a decoherence-free subspace.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .qstate import DensityMatrix

__all__ = [
    "DephasingGenerator",
    "NoiseSpec",
    "INCOHERENT_SINC",
    "MARKOVIAN_EXP",
    "COUPLING_CASES",
    "sinc",
    "attenuation",
    "incoherent_dephase",
    "markov_dephase",
    "noise_strength",
    "partial_strengths",
    "qubit3_strength_ratio",
    "build_error_model",
    "collective_scale_of",
]

INCOHERENT_SINC = "incoherent_sinc"
MARKOVIAN_EXP = "markovian_exp"
NOISE_KINDS = (INCOHERENT_SINC, MARKOVIAN_EXP)
COUPLING_CASES = ("a", "b")

# distinct generator weight vectors kept by attenuation's Delta / 4 cache:
# the scenario error models have seven fixed ones, plus one case "a"
# combined generator per ratio, whose weights do not change with kappa0
DELTA_CACHE_SIZE = 16


def sinc(x):
    """Unnormalized sinc, sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True, eq=False)
class DephasingGenerator:
    """One z-type noise axis: per-qubit weights plus a strength.

    ``strength`` is the phase spread kappa when the generator drives an
    incoherent average, or the rate lambda_mu when it drives Markovian
    dephasing.  The represented operator is ``W = sum_j w_j sigma_z^j``
    (jump operator ``sqrt(strength/2) W`` in the Markovian reading).
    """

    weights: np.ndarray
    strength: float
    label: str = ""

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a per-qubit vector")
        # Python-level checks: one generator per axis is built at every
        # sweep point, and numpy reductions cost more on so few weights
        values = w.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(f"weights must be finite, got {values}")
        if not any(values):
            raise ValueError("weights must not all be zero")
        if not (self.strength >= 0.0):
            raise ValueError(f"strength must be >= 0, got {self.strength}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_qubits(self) -> int:
        return self.weights.size

    def z_values(self) -> np.ndarray:
        """Eigenvalue of W on each computational basis state."""
        return _z_values(self.weights)

    def lindblad_matrix(self) -> np.ndarray:
        """Dense jump operator sqrt(strength/2) W."""
        return np.diag(_jump_diagonal(self)).astype(complex)


def _jump_diagonal(gen: DephasingGenerator) -> np.ndarray:
    """Diagonal of the jump operator sqrt(strength/2) W."""
    return np.sqrt(gen.strength / 2.0) * gen.z_values()


def _z_values(weights: np.ndarray) -> np.ndarray:
    n = weights.size
    idx = np.arange(2**n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    return (1.0 - 2.0 * bits) @ weights


@functools.lru_cache(maxsize=DELTA_CACHE_SIZE)
def _quarter_delta(weights: bytes) -> np.ndarray:
    """Read-only Delta / 4 matrix of the float64 weight vector with these
    bytes, formed from z / 4, so finite wherever W's eigenvalues z are; it
    does not depend on the strength, and a case "a" generator's weights
    change only with the ratio, so every point of a sweep shares it."""
    z = _z_values(np.frombuffer(weights)) / 4.0
    quarter = z[:, None] - z[None, :]
    quarter.setflags(write=False)
    return quarter


def attenuation(gens: Sequence[DephasingGenerator], kind: str) -> np.ndarray:
    """Elementwise factor matrix of the combined channel of commuting
    z-type generators on one register; a state's matrix elements are
    multiplied by it.

    With Delta the ket/bra difference of W eigenvalues of each generator,
    the factor is prod sinc(kappa (Delta / 4)) for the incoherent kind and
    prod exp(-lambda (Delta / 2)^2) for the Markovian kind (lambda is the
    rate times the storage time); Delta is scaled first, so only an
    argument past the float range raises.  A zero strength gives exactly
    1, even where W's eigenvalues overflow, and no generators give 1.0.
    The generators, of one qubit count, are evaluated as one ``(G, d, d)``
    stack, and the product is taken over it in generator order.
    """
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if not gens:
        return 1.0
    if len({gen.n_qubits for gen in gens}) > 1:
        raise ValueError("generators must share a common qubit count")
    strengths = np.array([gen.strength for gen in gens])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        quarters = np.array([_quarter_delta(gen.weights.tobytes()) for gen in gens])
        if kind == INCOHERENT_SINC:
            factors = sinc(strengths * quarters)
        else:
            factors = np.exp(-strengths * (2.0 * quarters) ** 2)
        # 0 * inf is nan where W's eigenvalues overflow; elsewhere a no-op
        factors[strengths[:, 0, 0] == 0.0] = 1.0
        factor = np.multiply.reduce(factors, 0)
    if not np.isfinite(factor).all():
        raise ValueError("noise attenuation is not finite: generator strengths are too large")
    return factor


def _dephase(rho: DensityMatrix, gens: Sequence[DephasingGenerator], kind: str) -> DensityMatrix:
    if any(2**g.n_qubits != rho.dim for g in gens):
        raise ValueError(f"generator qubit count does not match dimension {rho.dim}")
    return DensityMatrix(rho.entries * attenuation(gens, kind), rho.kind)


def incoherent_dephase(rho: DensityMatrix, gen: DephasingGenerator) -> DensityMatrix:
    """Exact uniform-phase average of exp(-i phi W / 2) conjugation:
    each matrix element is multiplied by sinc(kappa * Delta / 4)."""
    return _dephase(rho, [gen], INCOHERENT_SINC)


def markov_dephase(rho: DensityMatrix, gens: Sequence[DephasingGenerator], t: float) -> DensityMatrix:
    """Exact Lindblad evolution for commuting z-type jump operators over
    time t; for a single-qubit generator the coherence decays as
    exp(-lambda t)."""
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time must be >= 0 and finite, got {t}")
    return _dephase(rho, [replace(g, strength=g.strength * t) for g in gens], MARKOVIAN_EXP)


def noise_strength(gens: Sequence[DephasingGenerator]) -> float:
    """Overall noise strength sum_mu |L_mu|^2 + |sum_mu L_mu^dag L_mu|,
    with |X| the largest singular value and L_mu = sqrt(strength/2) W_mu.
    Every L_mu is diagonal, diag(l_mu), so |L_mu| = max |l_mu| and the
    second term is the largest entry of sum_mu l_mu^2.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if len({g.n_qubits for g in gens}) > 1:
        raise ValueError("generators must share a common qubit count")
    with np.errstate(over="ignore", invalid="ignore"):
        diags = [_jump_diagonal(g) for g in gens]
        total = sum(np.max(np.abs(d)) ** 2 for d in diags)
        strength = float(total + np.max(sum(d * d for d in diags)))
    if not math.isfinite(strength):
        raise ValueError("noise strength is not finite: generator strengths are too large")
    return strength


def partial_strengths(gens: Sequence[DephasingGenerator]) -> list[float]:
    """Per-generator partial strengths lambda_mu = 2 |L_mu|^2 (see noise_strength)."""
    with np.errstate(over="ignore", invalid="ignore"):
        strengths = [float(2.0 * np.max(np.abs(_jump_diagonal(g))) ** 2) for g in gens]
    if not all(map(math.isfinite, strengths)):
        raise ValueError("partial noise strength is not finite: generator strengths are too large")
    return strengths


def qubit3_strength_ratio(epsilon: float) -> float:
    """Qubit-3 noise-strength ratio between the single-environment
    coupling (collective and residual amplitudes added into one
    generator) and the two-environment coupling (kept separate).

    ``epsilon`` is the residual/collective amplitude ratio on qubit 3;
    the exact value of the ratio is (1 + eps)^2 / (1 + eps^2), but it is
    computed here from the operator-norm definition.
    """
    if not (0.0 <= epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not math.isfinite(epsilon * epsilon):
        raise ValueError(f"epsilon squared overflows, got epsilon={epsilon}")
    # the qubit-3 components: one generator of amplitude 1 + eps, or the
    # collective (amplitude 1) and residual (eps) generators separately
    single = noise_strength([DephasingGenerator(np.array([1.0 + epsilon]), 1.0)])
    unit = np.array([1.0])
    pair = noise_strength([DephasingGenerator(unit, 1.0), DephasingGenerator(unit, epsilon**2)])
    return single / pair


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of one engineered error model.

    ``kappa0`` is the independent per-qubit scale: the phase spread
    kappa_0 for the incoherent kind, or the dimensionless product
    lambda_0 * t for the Markovian kind.  When ``collective`` is set,
    qubits 3 and 4 additionally see a collective axis whose scale is
    ``kappa0 / ratio`` (incoherent) or ``kappa0 / ratio**2`` (Markovian,
    rates scale as amplitude squared).

    ``coupling_case`` selects how the collective and residual noise on
    qubit 3 combine: case "a" shares one environment, so the amplitudes
    add into a single generator and the qubit-3 totals are
    kappa_3 = kappa_c + kappa_0; case "b" keeps two separate
    environments.
    """

    kappa0: float
    collective: bool = False
    ratio: float = 0.5
    coupling_case: str = "a"
    kind: str = INCOHERENT_SINC

    def __post_init__(self):
        if not (0.0 <= self.kappa0 < math.inf):
            raise ValueError(f"kappa0 must be finite and >= 0, got {self.kappa0}")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.coupling_case not in COUPLING_CASES:
            raise ValueError(f"coupling case must be one of {COUPLING_CASES}, got {self.coupling_case!r}")
        if not math.isfinite(self.ratio):
            raise ValueError(f"ratio must be finite, got {self.ratio}")
        if self.collective and not (self.ratio > 0.0):
            raise ValueError(f"ratio must be > 0 with collective noise enabled, got {self.ratio}")
        if self.collective:
            try:
                scale = collective_scale_of(self.kappa0, self.ratio, self.kind)
            except ZeroDivisionError:  # ratio**2 underflows to 0
                scale = math.inf
            if not math.isfinite(scale):
                raise ValueError(
                    f"collective scale is not finite for kappa0={self.kappa0}, ratio={self.ratio}"
                )


def collective_scale_of(kappa0, ratio: float, kind: str):
    """The collective scale of ``kappa0``, a float or an array of them:
    ``kappa0 / ratio`` (incoherent) or ``kappa0 / ratio**2`` (Markovian)."""
    if kind == INCOHERENT_SINC:
        return kappa0 / ratio
    try:
        return kappa0 / ratio**2
    except OverflowError:
        # the square overflows, so the scale is tiny: divide twice
        return kappa0 / ratio / ratio


def build_error_model(spec: NoiseSpec) -> list[DephasingGenerator]:
    """Generators realizing a NoiseSpec; the spec fixes the register,
    qubits 1-3, plus qubit 4 when ``spec.collective`` is set.

    Independent axes act on qubits 1, 2 and 3 with scale ``kappa0``.
    The collective axis acts on qubits 3 and 4.
    In case "a" the independent qubit-3 axis and the collective axis
    are one and the same environment: they are emitted as a single
    generator with weights (1 + e, 1) on qubits (3, 4), where e is the
    residual/collective amplitude ratio, the spec's ``ratio``
    (kappa0/kappa_c, or sqrt(lambda0/lambda_c) for the Markovian kind),
    so the qubit-3 total spread is exactly kappa_c + kappa_0 while the
    decoherence-free pair sees only the residual kappa_0; at a zero
    collective scale only the residual qubit-3 axis is emitted.  In
    case "b" the collective and residual generators stay separate.
    """
    n_qubits = 4 if spec.collective else 3

    def axis(qubit: int, strength: float, label: str) -> DephasingGenerator:
        w = np.zeros(n_qubits)
        w[qubit - 1] = 1.0
        return DephasingGenerator(w, strength, label)

    x = spec.kappa0
    gens = [axis(1, x, "z1"), axis(2, x, "z2")]
    if not spec.collective:
        gens.append(axis(3, x, "z3"))
        return gens

    base_c = collective_scale_of(x, spec.ratio, spec.kind)
    if spec.coupling_case == "b":
        w = np.zeros(n_qubits)
        w[2] = w[3] = 1.0
        gens.append(DephasingGenerator(w, base_c, "z34-collective"))
        gens.append(axis(3, x, "z3-residual"))
        return gens

    # case "a": one environment; amplitudes on qubit 3 add coherently
    if base_c > 0.0:
        w = np.zeros(n_qubits)
        w[2] = 1.0 + spec.ratio
        w[3] = 1.0
        gens.append(DephasingGenerator(w, base_c, "z34-combined"))
    else:
        gens.append(axis(3, x, "z3-residual"))
    return gens
