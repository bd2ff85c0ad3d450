"""Dense operators and density matrices for few-qubit systems.

Conventions used everywhere in this package:

* qubits are numbered 1..n and the basis is big-endian, so qubit 1 is
  the most significant bit of a computational-basis index;
* ``sigma_z |0> = +|0>``;
* matrices are plain dense numpy arrays (nothing here is larger than
  16x16), copied on construction and marked read-only, so every value
  is immutable and safe to share between threads.

Every ``Operator`` is unitary (the gates are unitary pulse sequences;
construction checks ``U^dag U = I``).  Operators are immutable, so
``embed`` caches its results: the same gate on the same targets is built
and checked once, then shared by every circuit, sweep point and probe
that uses it.  Each operator keeps its adjoint, and ``conjugate`` is the
one place that computes ``U m U^dag``: for a permutation (X, CNOT,
Toffoli) by a gather of the entries of ``m``, which gives the products' bits.

``check_stack`` holds the state checks (Hermiticity, trace and, for
states, positivity) for a ``(k, d, d)`` stack of matrices.  A
``DensityMatrix`` runs it on a stack of one; a circuit run
(``codes.circuit_states``) runs it once over all of its intermediate
states, with the same tolerances, and raises before it yields any; a
sweep point (``experiments._data_outputs``) runs it once per kind over
its inputs' reduced outputs.

The reduction and the overlap work on stacks the same way:
``partial_trace_stack`` and ``hs_overlap_stack`` hold the only copies of
the two formulas, and ``partial_trace`` and ``hs_overlap`` are their
stack-of-one calls, so a stack and its rows give the same bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Operator",
    "DensityMatrix",
    "STATE",
    "DEVIATION",
    "SX",
    "SY",
    "SZ",
    "pauli",
    "maximally_mixed",
    "pauli_deviation",
    "check_stack",
    "embed",
    "conjugate",
    "apply_unitary",
    "partial_trace",
    "partial_trace_stack",
    "hs_overlap",
    "hs_overlap_stack",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
OVERLAP_IMAG_TOL = 1e-10
STATE_MIN_EIG = -1e-10
UNITARY_TOL = 1e-10

# distinct (gate, targets, n_qubits) keys kept by embed's cache; the
# scenario circuits use a few dozen
EMBED_CACHE_SIZE = 256

STATE = "state"
DEVIATION = "deviation"


def _frozen_square(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if n < 1 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    m.setflags(False)  # write=False; positional is cheaper per call
    return m


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense unitary on an n-qubit space, ``U^dag U = I`` within ``UNITARY_TOL``."""

    entries: np.ndarray
    # entries.conj().T, read-only, computed once (``conjugate`` reads it)
    adjoint: np.ndarray = field(init=False, repr=False)
    # for a permutation, U[i, p[i]] = 1, the read-only flat index
    # p[:, None] * d + p[None, :] of (U m U^dag)[i, j] = m[p[i], p[j]]; else None
    gather: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        m = _frozen_square(self.entries)
        adj = m.conj().T
        dev = np.max(np.abs(adj @ m - np.eye(m.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"operator is not unitary: U^dag U = I is violated by {dev:.2e}")
        adj.setflags(write=False)
        object.__setattr__(self, "adjoint", adj)
        if ((m == 0) | (m == 1)).all():
            p = m.nonzero()[1]  # one 1 per row, rows in order
            gather = p[:, None] * m.shape[0] + p[None, :]
            gather.setflags(write=False)
            object.__setattr__(self, "gather", gather)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian matrix describing a system state.

    ``kind="state"`` is a normalized density matrix (unit trace,
    positive semidefinite).  ``kind="deviation"`` is a traceless
    Hermitian deviation, the object actually observed in ensemble
    experiments where the identity background is invisible; no
    positivity is required for deviations.
    """

    entries: np.ndarray
    kind: str = STATE

    def __post_init__(self):
        m = _frozen_square(self.entries)
        check_stack(m[None], self.kind)
        object.__setattr__(self, "entries", m)

    @classmethod
    def _checked(cls, entries: np.ndarray, kind: str) -> "DensityMatrix":
        """Wrap a read-only matrix that ``check_stack`` has already
        passed as ``kind``, without checking it again."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", entries)
        object.__setattr__(rho, "kind", kind)
        return rho

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def check_stack(stack: np.ndarray, kind: str) -> None:
    """Check a ``(k, d, d)`` stack of matrices that all claim ``kind``.

    Each matrix must have finite entries, be Hermitian within
    ``HERMITICITY_TOL`` and have trace 1 (state) or 0 (deviation) within
    ``TRACE_TOL``; a state's lowest eigenvalue, from one batched
    ``eigvalsh``, must be at least ``STATE_MIN_EIG``.  The first failing
    matrix raises the message a ``DensityMatrix`` of it alone would.
    """
    if kind not in (STATE, DEVIATION):
        raise ValueError(f"unknown density-matrix kind {kind!r}")
    # a few batched numpy calls, then the per-matrix comparisons on
    # plain Python numbers.  The calls are the cheapest spellings on the
    # stacks of one that every DensityMatrix checks: the trace is
    # ndarray.trace's own diagonal sum (same bits), and conj(A) - A^T,
    # elementwise the conjugate of A - A^dag, is formed in place in a new
    # array (ndarray.conj() would return a real stack itself), which
    # holds one stack-sized temporary less.  A NaN or inf entry quietly
    # makes the Hermiticity error NaN or inf: that is the finiteness check.
    with np.errstate(invalid="ignore"):
        errs = np.conjugate(stack)
        errs -= stack.swapaxes(1, 2)
        herms = np.maximum.reduce(abs(errs), (1, 2)).tolist()
        traces = np.add.reduce(stack.diagonal(0, 1, 2), 1).tolist()
    if kind == STATE:
        target, lowests = 1, np.linalg.eigvalsh(stack)[:, 0].tolist()
    else:
        target, lowests = 0, [0.0] * len(herms)  # no positivity check
    for herm, tr, lowest in zip(herms, traces, lowests):
        if not math.isfinite(herm):
            raise ValueError("matrix has non-finite entries")
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian, max deviation {herm:.2e}")
        if abs(tr.real - target) > TRACE_TOL:
            raise ValueError(f"{kind} trace is {tr.real!r}, expected {target}")
        if lowest < STATE_MIN_EIG:
            raise ValueError(f"state has negative eigenvalue {lowest:.2e}")


SX = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
SY = Operator(np.array([[0.0, -1.0j], [1.0j, 0.0]]))
SZ = Operator(np.array([[1.0, 0.0], [0.0, -1.0]]))

_PAULIS = {"x": SX, "y": SY, "z": SZ}


def pauli(axis: str) -> Operator:
    """Return sigma_x, sigma_y or sigma_z."""
    try:
        return _PAULIS[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    return DensityMatrix(np.eye(dim) / dim, STATE)


_PAULI_DEVIATIONS = {axis: DensityMatrix(op.entries, DEVIATION) for axis, op in _PAULIS.items()}


def pauli_deviation(axis: str) -> DensityMatrix:
    """One-qubit traceless deviation equal to a Pauli matrix; the three
    are built once and shared, as every DensityMatrix is immutable."""
    try:
        return _PAULI_DEVIATIONS[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def embed(gate: Operator, targets: Sequence[int], n_qubits: int) -> Operator:
    """Extend ``gate`` to act on the listed qubits of an n-qubit system.

    ``targets`` maps the gate's own qubits, in order, onto system qubit
    labels; every other qubit is left alone.

    Results are cached by gate identity, targets and size, so a fixed
    gate network is embedded and checked once however often it runs.
    Sharing is safe because operators are read-only, and the cache
    holds its gates, so their ids cannot be reused.  Invalid calls are
    not cached and raise every time.
    """
    return _embed(gate, tuple(targets), n_qubits)


@functools.lru_cache(maxsize=EMBED_CACHE_SIZE)
def _embed(gate: Operator, targets: tuple[int, ...], n_qubits: int) -> Operator:
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubit in {targets}")
    if any(t < 1 or t > n_qubits for t in targets):
        raise ValueError(f"targets {targets} out of range 1..{n_qubits}")
    if gate.dim != 2 ** len(targets):
        raise ValueError(f"gate of dimension {gate.dim} does not fit {len(targets)} target(s)")
    rest = [q for q in range(1, n_qubits + 1) if q not in targets]
    order = targets + rest
    full = np.kron(gate.entries, np.eye(2 ** len(rest)))
    # full acts on qubits in `order`; permute tensor axes back to 1..n
    t = full.reshape((2,) * (2 * n_qubits))
    perm = [order.index(q) for q in range(1, n_qubits + 1)]
    t = t.transpose(perm + [p + n_qubits for p in perm])
    dim = 2**n_qubits
    return Operator(t.reshape(dim, dim))


def conjugate(u: Operator, m: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """``U m U^dag`` of a square array, into ``out`` if given."""
    if u.dim != m.shape[0]:
        raise ValueError(f"dimension mismatch: operator {u.dim} vs state {m.shape[0]}")
    if u.gather is not None:
        # in range by construction; "clip" lets take fill out unbuffered
        return m.take(u.gather, out=out, mode="clip")
    return np.matmul(u.entries @ m, u.adjoint, out=out)


def apply_unitary(rho: DensityMatrix, u: Operator) -> DensityMatrix:
    """Conjugate a state by a unitary, ``U rho U^dag``."""
    return DensityMatrix(conjugate(u, rho.entries), rho.kind)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the listed qubits, preserving their relative order."""
    return DensityMatrix(partial_trace_stack(rho.entries[None], keep)[0], rho.kind)


def partial_trace_stack(stack: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Reduce each matrix of a ``(k, d, d)`` stack to the listed qubits,
    preserving their relative order; the result is an unchecked
    ``(k, 2^m, 2^m)`` array, new unless ``keep`` names every qubit, when
    it is a view of ``stack``.  The other qubits are traced out one at a
    time in ascending order, whatever the stack's length."""
    kept = sorted(set(keep))
    k, dim = stack.shape[:2]
    n = dim.bit_length() - 1
    if not kept:
        raise ValueError("keep set must be nonempty")
    if any(q < 1 or q > n for q in kept):
        raise ValueError(f"keep set {kept} out of range 1..{n}")
    t = stack.reshape((k,) + (2,) * (2 * n))
    current = list(range(1, n + 1))
    for q in [q for q in current if q not in kept]:
        i = current.index(q)
        t = np.add.reduce(t.diagonal(0, 1 + i, 1 + i + len(current)), -1)
        current.pop(i)
    dim = 2 ** len(kept)
    return t.reshape(k, dim, dim)


def hs_overlap(a: DensityMatrix, b: DensityMatrix) -> float:
    """Hilbert-Schmidt overlap Re tr(a b) of two Hermitian matrices."""
    return float(hs_overlap_stack(a.entries[None], b.entries[None])[0])


def hs_overlap_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlaps Re tr(a_i b_i) of two stacks of Hermitian matrices whose
    leading axes broadcast, from one batched product.  An imaginary part
    above ``OVERLAP_IMAG_TOL`` raises, the first one in C order."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    # ndarray.trace's own diagonal sum, as in check_stack (same bits)
    vals = np.add.reduce((a @ b).diagonal(0, -2, -1), -1)
    for imag in vals.imag.ravel().tolist():
        if abs(imag) > OVERLAP_IMAG_TOL:
            raise ValueError(f"overlap has imaginary part {imag:.2e}; inputs must be Hermitian")
    return vals.real
