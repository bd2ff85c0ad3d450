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
``span{|01>, |10>}`` of qubits 3 and 4 a decoherence-free subspace
(Lidar, Chuang and Whaley, PRL 81, 2594 (1998)).

The scenario noise is declared once, in the table ``_LAYOUTS``, as
environments whose parts share one random phase, so the parts'
arguments add inside one attenuation.  Case "a" is one environment
with two parts, the collective pair and qubit 3's residual noise;
case "b" puts them in two environments.

A sweep varies only the strengths, so each environment's attenuation
over a whole sweep is one table of its few distinct Delta / 4 values
against the sweep's strengths, and ``sweep_attenuation`` multiplies the
tables at the m joint tuples that a layout's matrix entries take (14 on
3 qubits, 41 on 4).  The DFS protection is the collective pair's Delta = 0 column.
A factor F is a Schur multiplier rho -> F o rho, a channel iff F is real,
symmetric, of unit diagonal and PSD (Paulsen, ch. 3; Havel, J. Math. Phys.
44, 534 (2003)): the index makes F symmetric, and ``sweep_attenuation``
certifies |F| <= 1 and a unit diagonal before any circuit runs.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .qstate import DensityMatrix

__all__ = [
    "DephasingGenerator",
    "NoiseSpec",
    "INCOHERENT_SINC",
    "MARKOVIAN_EXP",
    "COUPLING_CASES",
    "check_range",
    "sinc",
    "attenuation",
    "incoherent_dephase",
    "markov_dephase",
    "noise_strength",
    "partial_strengths",
    "qubit3_strength_ratio",
    "build_error_model",
    "error_model_strengths",
    "noise_layout",
    "sweep_noise",
    "sweep_attenuation",
    "collective_scale_of",
]

INCOHERENT_SINC = "incoherent_sinc"
MARKOVIAN_EXP = "markovian_exp"
NOISE_KINDS = (INCOHERENT_SINC, MARKOVIAN_EXP)
COUPLING_CASES = ("a", "b")


def check_range(name: str, value: float) -> None:
    """The one range rule of every noise scale (kappa0, kappa3, t, epsilon, strength): finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
        values = w.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(f"weights must be finite, got {values}")
        if not any(values):
            raise ValueError("weights must not all be zero")
        check_range("strength", self.strength)
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


def _quarter_delta(weights: np.ndarray) -> np.ndarray:
    """Read-only Delta / 4 matrix of a weight vector, formed from z / 4,
    so finite wherever W's eigenvalues z are."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = _z_values(weights) / 4.0
        quarter = z[:, None] - z[None, :]
    quarter.setflags(write=False)
    return quarter


def _argument(env, kind: str):
    """One environment's sinc argument or Markovian exponent (see attenuation)."""
    if kind == INCOHERENT_SINC:
        return sum(strength * quarter for quarter, strength, *_ in env)
    if len(env) == 1:
        quarter, strength, *_ = env[0]
        return strength * (2.0 * quarter) ** 2
    return sum(2.0 * np.sqrt(strength) * quarter for quarter, strength, *_ in env) ** 2


def attenuation(environments: Sequence[Sequence[tuple]], kind: str) -> np.ndarray:
    """Elementwise factor matrix of commuting z-type noise on one
    register; a state's matrix elements are multiplied by it.

    Each environment is a sequence of parts (Delta / 4, strength, ...)
    that share one random phase, so their arguments add inside one
    attenuation: sinc(sum_k kappa_k Delta_k / 4), or for the Markovian
    kind exp(-(sum_k sqrt(lambda_k) Delta_k / 2)^2), lambda being the
    rate times the storage time; one part gives exp(-lambda (Delta / 2)^2).
    A strength is a number >= 0, or a ``(K, 1)`` column of them against
    Delta / 4 values of shape ``(m,)``, which gives a ``(K, m)`` table
    (see ``sweep_attenuation``).  Only an argument past the float range
    raises.  An environment at zero strength, or a row of it, gives
    exactly 1, even where W's eigenvalues overflow; no environments give
    1.0.  The product runs over the ``(E, ...)`` stack in order.
    """
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if len({part[0].shape for env in environments for part in env}) > 1:
        raise ValueError("generators must share a common qubit count")
    with np.errstate(over="ignore", invalid="ignore"):
        args = np.array([_argument(env, kind) for env in environments])
        factors = sinc(args) if kind == INCOHERENT_SINC else np.exp(-args)
        # 0 * inf is nan where W's eigenvalues overflow; elsewhere a no-op.
        # idle is (E,) or, for strength columns, (E, K, 1): pad it to broadcast
        idle = np.array([sum(part[1] for part in env) for env in environments]) == 0.0
        np.copyto(factors, 1.0, where=idle.reshape(idle.shape + (1,) * (factors.ndim - idle.ndim)))
        factor = np.multiply.reduce(factors, 0)
    if not np.isfinite(factor).all():
        raise ValueError("noise attenuation is not finite: generator strengths are too large")
    return factor


def _dephase(rho: DensityMatrix, gens: Sequence[DephasingGenerator], t: float, kind: str) -> DensityMatrix:
    if any(2**g.n_qubits != rho.dim for g in gens):
        raise ValueError(f"generator qubit count does not match dimension {rho.dim}")
    environments = [[(_quarter_delta(g.weights), g.strength * t)] for g in gens]
    return DensityMatrix(rho.entries * attenuation(environments, kind), rho.kind)


def incoherent_dephase(rho: DensityMatrix, gen: DephasingGenerator) -> DensityMatrix:
    """Exact uniform-phase average of exp(-i phi W / 2) conjugation:
    each matrix element is multiplied by sinc(kappa * Delta / 4)."""
    return _dephase(rho, [gen], 1.0, INCOHERENT_SINC)


def markov_dephase(rho: DensityMatrix, gens: Sequence[DephasingGenerator], t: float) -> DensityMatrix:
    """Exact Lindblad evolution for commuting z-type jump operators over
    time t; for a single-qubit generator the coherence decays as
    exp(-lambda t)."""
    check_range("t", t)
    return _dephase(rho, gens, t, MARKOVIAN_EXP)


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
    return _diagonal_strength(map(_jump_diagonal, gens))


def _diagonal_strength(diags) -> float:
    """``noise_strength`` of the jump operators diag(l_mu), each l_mu from
    ``diags``, an iterable evaluated here, under the errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        diags = list(diags)
        total = sum(np.max(np.abs(d)) ** 2 for d in diags)
        strength = float(total + np.max(sum(d * d for d in diags)))
    if not math.isfinite(strength):
        raise ValueError("noise strength is not finite: generator strengths are too large")
    return strength


def partial_strengths(gens: Sequence[DephasingGenerator]) -> list[float]:
    """Per-generator partial strengths lambda_mu = 2 |L_mu|^2 (see noise_strength)."""
    return _diagonal_partials(map(_jump_diagonal, gens))


def _diagonal_partials(diags) -> list[float]:
    """``partial_strengths`` of the jump operators diag(l_mu) (see _diagonal_strength)."""
    with np.errstate(over="ignore", invalid="ignore"):
        strengths = [float(2.0 * np.max(np.abs(d)) ** 2) for d in diags]
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
    check_range("epsilon", epsilon)
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
    qubit 3 combine: case "a" is one environment, two parts whose
    arguments add, so the qubit-3 total spread is kappa_c + kappa_0;
    case "b" keeps two separate environments.
    """

    kappa0: float
    collective: bool = False
    ratio: float = 0.5
    coupling_case: str = "a"
    kind: str = INCOHERENT_SINC

    def __post_init__(self):
        check_range("kappa0", self.kappa0)
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.coupling_case not in COUPLING_CASES:
            raise ValueError(f"coupling case must be one of {COUPLING_CASES}, got {self.coupling_case!r}")
        if not math.isfinite(self.ratio):
            raise ValueError(f"ratio must be finite, got {self.ratio}")
        if self.collective and not (self.ratio > 0.0):
            raise ValueError(f"ratio must be > 0 with collective noise enabled, got {self.ratio}")
        if self.collective:
            scale = collective_scale_of(float(self.kappa0), float(self.ratio), self.kind)
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
        square = float(ratio) ** 2
    except OverflowError:
        square = math.inf
    if sys.float_info.min <= square < math.inf:
        return kappa0 / square
    # the square overflows, or underflows and loses bits: divide twice
    return kappa0 / ratio / ratio


# (collective, coupling case) -> environments, each a tuple of parts
# (label, weights, scale): a unit pattern of sigma_z on the register, at
# the scale "kappa0" or "collective"
_Z1, _Z2, _Z3 = ("z1", (1, 0, 0), "kappa0"), ("z2", (0, 1, 0), "kappa0"), ("z3", (0, 0, 1), "kappa0")
_C1, _C2 = ("z1", (1, 0, 0, 0), "kappa0"), ("z2", (0, 1, 0, 0), "kappa0")
_C34, _C3 = ("z34-collective", (0, 0, 1, 1), "collective"), ("z3-residual", (0, 0, 1, 0), "kappa0")
_LAYOUTS = {
    (False, "a"): ((_Z1,), (_Z2,), (_Z3,)),
    (False, "b"): ((_Z1,), (_Z2,), (_Z3,)),
    (True, "a"): ((_C1,), (_C2,), (_C34, _C3)),
    (True, "b"): ((_C1,), (_C2,), (_C34,), (_C3,)),
}
# Delta / 4 of each unit pattern, built once
_UNIT_QUARTERS = {
    w: _quarter_delta(np.array(w, dtype=float)) for envs in _LAYOUTS.values() for env in envs for _, w, _ in env
}


def _distinct_tuples(arrays) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The distinct tuples of same-shape arrays' entries, one ``(m,)``
    column per array, and the index of each entry into them, all read-only."""
    values, index = np.unique(np.stack([a.ravel() for a in arrays], 1), axis=0, return_inverse=True)
    index = index.reshape(arrays[0].shape)
    values.setflags(write=False)
    index.setflags(write=False)
    return tuple(values.T), index


def _distinct(envs) -> tuple[tuple, tuple[np.ndarray, ...], np.ndarray]:
    """A layout's tables: each environment's distinct (Delta / 4 of each part) tuples,
    one ``(m_e,)`` vector per part; the joint tuples of their indices, one ``(m,)``
    column per environment; and the symmetric ``(d, d)`` index of each entry into the
    latter: sinc and the Gaussian are even, so each Delta / 4 is its upper triangle, mirrored."""
    mirror = [[np.triu(q) + np.triu(q, 1).T for q in (_UNIT_QUARTERS[w] for _, w, _ in env)] for env in envs]
    values, indices = zip(*map(_distinct_tuples, mirror))
    return (values, *_distinct_tuples(indices))


# each layout's _distinct tables, built once: 14 joint tuples of the 64 entries on 3 qubits, 41 of
# the 256 on 4; each index is symmetric, its diagonal one class, so every gathered factor is symmetric
_DISTINCT = {layout: _distinct(envs) for layout, envs in _LAYOUTS.items()}
assert all((i == i.T).all() and len(set(i.diagonal())) == 1 for _, _, i in _DISTINCT.values())
_ROWS = 32  # sweep points per block of joint factor rows


def _scales(spec: NoiseSpec, kappa0) -> dict:
    """Each layout scale of ``spec`` at ``kappa0``, a float or an array of them."""
    scales = {"kappa0": kappa0}
    if spec.collective:
        scales["collective"] = collective_scale_of(kappa0, spec.ratio, spec.kind)
    return scales


def noise_layout(spec: NoiseSpec) -> list[list[tuple]]:
    """The spec's environments from the layout table, each part as
    (Delta / 4, strength, label, weights): ``attenuation``'s parts, labeled."""
    scales = _scales(spec, spec.kappa0)
    envs = _LAYOUTS[spec.collective, spec.coupling_case]
    return [[(_UNIT_QUARTERS[w], scales[scale], label, w) for label, w, scale in env] for env in envs]


def sweep_noise(specs: Sequence[NoiseSpec]) -> tuple[NoiseSpec, np.ndarray]:
    """A non-empty sweep's first spec and ``(K,)`` float kappa0 column; its specs share all else."""
    if not specs:
        raise ValueError("a sweep needs at least one noise spec")
    if len({(s.collective, s.ratio, s.coupling_case, s.kind) for s in specs}) > 1:
        raise ValueError("a sweep's noise specs must differ only in kappa0")
    return specs[0], np.array([s.kappa0 for s in specs], dtype=float)


def sweep_attenuation(specs: Sequence[NoiseSpec]) -> Iterator[np.ndarray]:
    """The factor ``attenuation(noise_layout(spec), spec.kind)`` of each
    spec of a ``sweep_noise`` sweep, in order and bit for bit.

    ``attenuation`` runs once per environment, now, on its distinct
    Delta / 4 values against the sweep's ``(K, 1)`` column of strengths,
    so a non-finite factor anywhere in the sweep raises before this
    returns, as does an entry past 1 in magnitude or a diagonal one not 1.
    The iterator multiplies the ``(K, m_e)`` tables at their joint
    columns, ``_ROWS`` points at a time and in layout order as
    ``attenuation`` multiplies, into a block of ``(m,)`` joint rows, and
    gathers the block's factors through the joint ``(d, d)`` index.
    """
    spec, kappa0 = sweep_noise(specs)
    layout = spec.collective, spec.coupling_case
    values, columns, index = _DISTINCT[layout]
    scales = _scales(spec, kappa0[:, None])
    envs = [[(q, scales[scale]) for q, (_, _, scale) in zip(qs, env)] for qs, env in zip(values, _LAYOUTS[layout])]
    tables = [attenuation([env], spec.kind) for env in envs]
    if not all((abs(t) <= 1.0).all() and (t[:, c[index[0, 0]]] == 1.0).all() for t, c in zip(tables, columns)):
        raise ValueError("noise attenuation is not a dephasing channel: |factor| > 1, or a diagonal factor is not 1")
    starts = range(0, len(specs), _ROWS)
    blocks = (functools.reduce(operator.mul, [t[k : k + _ROWS, c] for t, c in zip(tables, columns)]) for k in starts)
    return (factor for block in blocks for factor in block[:, index])


def build_error_model(spec: NoiseSpec) -> list[np.ndarray]:
    """Each environment's jump-operator diagonal l_mu = sum_k a_k z(w_k)
    over the parts of ``noise_layout(spec)``, for the noise strengths.

    Every amplitude comes from kappa0 and the ratio, never from a scale
    that may have lost bits.  A kappa0 part's is r0 = sqrt(kappa0 / 2); a
    collective part's r0 / sqrt(ratio) (incoherent, kappa_c = kappa0 /
    ratio) or r0 / ratio (Markovian, lambda_c = lambda0 / ratio**2).
    Markovian parts add their amplitudes, incoherent parts their spreads
    at the first part's scale, so case "a"'s residual is then
    kappa0 / sqrt(2 kappa_c) = r0 * sqrt(ratio).
    """
    root = math.sqrt(spec.kappa0) * math.sqrt(0.5)  # r0, without halving a subnormal kappa0
    incoherent = spec.kind == INCOHERENT_SINC
    diags = []
    with np.errstate(over="ignore", invalid="ignore"):
        for env in _LAYOUTS[spec.collective, spec.coupling_case]:
            diag = 0.0
            for k, (_, weights, scale) in enumerate(env):
                if scale == "collective":
                    amplitude = root / (math.sqrt(spec.ratio) if incoherent else spec.ratio)
                elif k and incoherent:  # a residual after the collective part
                    amplitude = root * math.sqrt(spec.ratio)
                else:
                    amplitude = root
                diag = diag + amplitude * _z_values(np.array(weights, dtype=float))
            diags.append(diag)
    return diags


def error_model_strengths(spec: NoiseSpec) -> tuple[float, list[float]]:
    """The overall noise strength lambda of ``build_error_model(spec)``
    and each environment's lambda_mu, in ``noise_layout(spec)``'s order:
    the formulas of ``noise_strength`` and ``partial_strengths``."""
    diags = build_error_model(spec)
    return _diagonal_strength(diags), _diagonal_partials(diags)
