"""Dense operators and density matrices for few-qubit systems.

Conventions used everywhere in this package:

* qubits are numbered 1..n and the basis is big-endian, so qubit 1 is
  the most significant bit of a computational-basis index;
* ``sigma_z |0> = +|0>``;
* matrices are plain dense numpy arrays (nothing here is larger than
  16x16), copied on construction and marked read-only, so every value
  is immutable and safe to share between threads.

Every ``Operator`` is unitary (the gates are unitary pulse sequences;
construction checks ``U^dag U = I``) and keeps its adjoint and, if real,
its real part.  ``conjugate`` is the one place that computes ``U m U^dag``:
of one matrix by ``np.dot`` (``zgemm``), or of a stack, such as one step of
a sweep's circuit runs, by ``np.matmul``, a real ``dgemm`` per matrix on the
float view when ``U`` is real, with the same bits but, at times, an exact
zero's sign.  ``embed`` keeps no state between calls.

``check_stack`` holds the state checks (Hermiticity, trace and, for
states, positivity) for a ``(k, d, d)`` stack of matrices, and raises
for the first matrix that fails.  A ``DensityMatrix`` runs it on a
stack of one, ``codes.apply_circuit`` on the states of its run, and a
sweep (``codes.sweep_outputs``) on its reduced outputs.

The reduction and the overlap work on stacks the same way:
``partial_trace_stack`` and ``hs_overlap_stack`` hold the only copies of
the two formulas, and ``partial_trace`` is the reduction's stack-of-one
call, so a stack and its rows give the same bits.
"""
from __future__ import annotations

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
    "hs_overlap_stack",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
OVERLAP_IMAG_TOL = 1e-10
STATE_MIN_EIG = -1e-10
UNITARY_TOL = 1e-10

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
    # entries.real, read-only and C-contiguous, if every imaginary part is 0, else None
    real: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        m = _frozen_square(self.entries)
        adj = m.conj().T
        dev = np.max(np.abs(adj @ m - np.eye(m.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"operator is not unitary: U^dag U = I is violated by {dev:.2e}")
        real = m.real.copy()
        for a in (adj, real):
            a.setflags(write=False)
        object.__setattr__(self, "adjoint", adj)
        object.__setattr__(self, "real", None if m.imag.any() else real)
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

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def check_stack(stack: np.ndarray, kind: str) -> None:
    """Check a ``(k, d, d)`` stack of matrices that all claim ``kind``.

    Each matrix must have finite entries, be Hermitian within
    ``HERMITICITY_TOL`` and have trace 1 (state) or 0 (deviation) within
    ``TRACE_TOL``; a state's lowest eigenvalue must be at least
    ``STATE_MIN_EIG``.  The first failing matrix raises the message a
    ``DensityMatrix`` of it alone would.  Positivity is tested only on
    the matrices before the first one whose Hermiticity error is not
    finite (a non-finite matrix, or a finite one whose error overflows),
    by one batched ``eigvalsh`` over them.
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
    # So does an overflow in a finite matrix far from Hermitian, which is
    # told apart by testing that one matrix's entries.
    with np.errstate(invalid="ignore", over="ignore"):
        errs = np.conjugate(stack)
        errs -= stack.swapaxes(1, 2)
        herms = np.maximum.reduce(abs(errs), (1, 2)).tolist()
        traces = np.add.reduce(stack.diagonal(0, 1, 2), 1).tolist()
    if kind == STATE:
        # the first matrix with a non-finite Hermiticity error raises
        # before its NaN placeholder is read, and the ones after it are
        # never reached
        finite = next((i for i, herm in enumerate(herms) if not math.isfinite(herm)), len(herms))
        target = 1
        lowests = np.linalg.eigvalsh(stack[:finite])[:, 0].tolist() + [math.nan] * (len(herms) - finite)
    else:
        target, lowests = 0, [0.0] * len(herms)  # no positivity check
    for i, (herm, tr, lowest) in enumerate(zip(herms, traces, lowests)):
        if not math.isfinite(herm) and not np.isfinite(stack[i]).all():
            raise ValueError("matrix has non-finite entries")
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian, max deviation {herm:.2e}")
        if not abs(tr.real - target) <= TRACE_TOL:  # a NaN trace fails too
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


def pauli_deviation(axis: str) -> DensityMatrix:
    """One-qubit traceless deviation equal to a Pauli matrix, with the
    entries of ``pauli(axis)``."""
    return DensityMatrix(pauli(axis).entries, DEVIATION)


def embed(gate: Operator, targets: Sequence[int], n_qubits: int) -> Operator:
    """Extend ``gate`` to act on the listed qubits of an n-qubit system.

    ``targets`` maps the gate's own qubits, in order, onto system qubit
    labels; every other qubit is left alone.  A gate on the whole
    register with targets ``1..n`` in order is returned itself: the
    general path would only rebuild the same matrix.  Every other call
    checks the targets and builds and checks a new operator; an invalid
    one raises.
    """
    if gate.dim == 2**n_qubits and tuple(targets) == tuple(range(1, n_qubits + 1)):
        return gate
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
    """``U m U^dag`` of a square array by two ``np.dot`` calls (``@``'s
    ``zgemm`` bits, less dispatch), into ``out`` if given: a C-contiguous,
    writable complex ``(d, d)`` array, or ValueError.  A ``(..., d, d)`` stack
    has those bits per matrix, into any writable complex ``out`` its shape
    broadcasts to, such as ``states[:, :, i]``, or ValueError.  A real ``U``
    takes, at half ``zgemm``'s flops, a ``dgemm`` per matrix on the float
    view twice: ``y = U m``, then ``(U y^T)^T``, returned as that view; it
    skips ``zgemm``'s +-0 terms, which can flip the sign of an exact zero."""
    if u.dim != m.shape[-1]:
        raise ValueError(f"dimension mismatch: operator {u.dim} vs state {m.shape[-1]}")
    if m.ndim > 2 and out is not None and out.dtype != complex:
        raise ValueError(f"out must be complex128, got {out.dtype}")
    if m.ndim == 2 or u.real is None:
        mul = np.dot if m.ndim == 2 else np.matmul
        return mul(mul(u.entries, m), u.adjoint, out=out)
    y = np.matmul(u.real, np.ascontiguousarray(m, complex).view(np.float64)).view(complex)
    y = np.ascontiguousarray(y.swapaxes(-1, -2)).view(np.float64)  # (U m)^T; U m is freed
    z = np.matmul(u.real, y).view(complex).swapaxes(-1, -2)
    if out is None:
        return z
    np.copyto(out, z)  # ValueError if out is read-only or z does not broadcast to it
    return out


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


def hs_overlap_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlaps Re sum_jk conj(a_jk) b_jk of two stacks of matrices whose
    leading axes broadcast: Re tr(a b) for a Hermitian ``a``, and for a
    self-overlap a sum of squared moduli, never negative.  The first one in
    C order that is not finite or has an imaginary part above ``OVERLAP_IMAG_TOL`` raises."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (np.conj(a) * b).sum((-2, -1))
    ok = np.isfinite(vals) & (np.abs(vals.imag) <= OVERLAP_IMAG_TOL)
    if not ok.all():
        bad = vals.ravel()[np.argmin(ok)]
        if not np.isfinite(bad):
            raise ValueError(f"overlap is not finite, got {bad}; inputs must be finite")
        raise ValueError(f"overlap has imaginary part {bad.imag:.2e}; inputs must be Hermitian")
    return vals.real
