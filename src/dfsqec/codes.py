"""Gate library and circuit builders for the concatenated code.

The outer code is the standard three-qubit phase code: the data qubit
is copied onto two ancillae with CNOTs, all three carriers are rotated
into the +/- basis with Hadamards, and recovery inverts the encoding
and applies a Toffoli (both ancillae controlling the data qubit) that
coherently corrects any single full phase flip without a measurement.

The inner code stores one logical qubit in the pair of physical qubits
3 and 4 as ``|0_L> = |01>``, ``|1_L> = |10>``.  Collective z noise acts
identically on both basis states, so this subspace is exactly noise
free for it at any strength.  Logical operators: ``Z_L = sigma_z^3``,
``X_L = sigma_x^3 sigma_x^4``, and ``H_L`` is a Hadamard on the logical
block extended by the identity on ``span{|00>, |11>}``.

The phase code is declared once, by ``_phase_code``, with data qubit 2,
ancilla qubit 1, and a second ancilla given by its Hadamard and its
copy-CNOT: physical qubit 3 (``H``, ``CNOT``), or, in the concatenated
network, the logical pair (``H_L``, and the controlled-X_L
``CNOT_into_L``).  Either way the recovery Toffoli is controlled on
qubit 1 and on qubit 3, which is the Z_L carrier of the pair.

The four storage experiments are declared once, in the table
``_SCENARIOS``: qubit count, collective noise or not, and the gates
before and after the noise marker, built once at import.  It is the
only source of a scenario's qubit count and collectiveness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .channels import (
    INCOHERENT_SINC,
    NOISE_KINDS,
    DephasingGenerator,
    NoiseSpec,
    attenuation,
    build_error_model,
)
from .qstate import SX, DensityMatrix, Operator, check_stack, conjugate, embed

__all__ = [
    "Gate",
    "NoiseStep",
    "Circuit",
    "SCENARIOS",
    "scenario_layout",
    "hadamard",
    "pauli_x",
    "cnot",
    "toffoli",
    "dfs_encode",
    "dfs_decode",
    "build_scenario_circuit",
    "apply_circuit",
    "circuit_states",
]

_H = Operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), unitary=True)

_CNOT = np.eye(4)
_CNOT[[2, 3]] = _CNOT[[3, 2]]
_CNOT = Operator(_CNOT, unitary=True)

_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]
_TOFFOLI = Operator(_TOFFOLI, unitary=True)

# logical gates on the qubit-(3,4) pair, basis order |00>,|01>,|10>,|11>
_H_L = np.eye(4, dtype=complex)
_H_L[1:3, 1:3] = _H.entries
_H_L = Operator(_H_L, unitary=True)

# controlled-X_L, X_L = sigma_x^3 sigma_x^4
_CNOT_INTO_L = np.eye(8, dtype=complex)
_CNOT_INTO_L[4:, 4:] = np.kron(SX.entries, SX.entries)
_CNOT_INTO_L = Operator(_CNOT_INTO_L, unitary=True)


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary applied to specific qubits (in listed order)."""

    name: str
    matrix: Operator
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.matrix.unitary:
            raise ValueError(f"gate {self.name!r} must carry a unitary matrix")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate {self.name!r} has duplicate targets {self.targets}")
        if self.matrix.dim != 2 ** len(self.targets):
            raise ValueError(
                f"gate {self.name!r}: matrix dimension {self.matrix.dim} does not fit "
                f"{len(self.targets)} target(s)"
            )


@dataclass(frozen=True, eq=False)
class NoiseStep:
    """Marker for the storage interval: the engineered noise acts here.

    Its elementwise attenuation ``factor`` is computed once per marker,
    read-only, and shared by every state run through it.
    """

    generators: tuple[DephasingGenerator, ...]
    kind: str = INCOHERENT_SINC
    label: str = "noise"

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @functools.cached_property
    def factor(self) -> np.ndarray:
        factor = np.asarray(attenuation(self.generators, self.kind))
        factor.setflags(write=False)
        return factor


Step = Union[Gate, NoiseStep]


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if isinstance(step, Gate):
                bad = [q for q in step.targets if q < 1 or q > self.n_qubits]
                if bad:
                    raise ValueError(f"gate {step.name!r} targets {bad} outside 1..{self.n_qubits}")
            elif isinstance(step, NoiseStep):
                for gen in step.generators:
                    if gen.n_qubits != self.n_qubits:
                        raise ValueError(
                            f"noise generator {gen.label!r} is on {gen.n_qubits} qubit(s), "
                            f"circuit has {self.n_qubits}"
                        )
            else:
                raise ValueError(f"unknown step type {type(step).__name__}")


def hadamard(qubit: int) -> Gate:
    return Gate("H", _H, (qubit,))


def pauli_x(qubit: int) -> Gate:
    return Gate("X", SX, (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", _CNOT, (control, target))


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate("TOFFOLI", _TOFFOLI, (control_a, control_b, target))


def dfs_encode() -> list[Gate]:
    """Map (a|0> + b|1>)_3 |0>_4 onto a|01> + b|10>."""
    return [pauli_x(4), cnot(3, 4)]


def dfs_decode() -> list[Gate]:
    """Inverse of dfs_encode; returns qubit 4 to |0>."""
    return [cnot(3, 4), pauli_x(4)]


def _phase_code(h_b: Gate, copy_b: Gate) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """(encode, recover) gates of the phase code with data qubit 2,
    ancilla qubit 1, and a second ancilla with Hadamard ``h_b`` and
    copy-CNOT ``copy_b`` from the data qubit.

    Encoding copies the data onto both ancillae, then rotates all
    carriers into the +/- basis; recovery inverts it and applies the
    correction Toffoli, controlled on qubit 1 and qubit 3 (the second
    ancilla, or the Z_L carrier of the logical pair).
    """
    encode = (cnot(2, 1), copy_b, hadamard(2), hadamard(1), h_b)
    recover = (hadamard(2), hadamard(1), h_b, copy_b, cnot(2, 1), toffoli(1, 3, 2))
    return encode, recover


# name -> (qubit count, collective noise?, gates before the noise
# marker, gates after it); the gates do not depend on the noise strength
_QEC3 = _phase_code(hadamard(3), cnot(2, 3))
_LOGICAL_ENCODE, _LOGICAL_RECOVER = _phase_code(
    Gate("H_L", _H_L, (3, 4)), Gate("CNOT_into_L", _CNOT_INTO_L, (2, 3, 4))
)
_SCENARIOS = {
    "qec_independent": (3, False, *_QEC3),
    "qec_hybrid": (4, True, *_QEC3),
    "no_qec": (3, False, (), ()),
    "dfs_qec": (4, True, tuple(dfs_encode()) + _LOGICAL_ENCODE, _LOGICAL_RECOVER + tuple(dfs_decode())),
}
SCENARIOS = tuple(_SCENARIOS)


def scenario_layout(scenario: str) -> tuple[int, bool]:
    """(qubit count, collective noise?) of a scenario."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _SCENARIOS[scenario][:2]


def build_scenario_circuit(scenario: str, spec: NoiseSpec) -> Circuit:
    """Assemble one of the four storage experiments around a new noise
    marker for ``spec``; the gates are the table's, built once.

    * ``qec_independent``: three-qubit phase code (data qubit 2,
      ancillae 1 and 3) under independent noise.
    * ``qec_hybrid``: the same code, but the noise has the strong
      collective component on qubits 3 and 4; qubit 4 idles outside
      the code.
    * ``no_qec``: the data qubit idles through the noise interval.
    * ``dfs_qec``: the concatenated network, with the second outer
      ancilla encoded in the qubit-(3,4) pair, under collective noise.
    """
    n, collective = scenario_layout(scenario)
    if spec.collective != collective:
        want = "the collective noise component" if collective else "independent noise only"
        raise ValueError(f"{scenario} requires {want}")
    _, _, before, after = _SCENARIOS[scenario]
    noise = NoiseStep(tuple(build_error_model(spec, n)), kind=spec.kind)
    return Circuit(n, before + (noise,) + after)


def circuit_states(
    rho: DensityMatrix,
    circuit: Circuit,
    *,
    noise_override: Callable[[DensityMatrix], DensityMatrix] | None = None,
) -> Iterator[tuple[Step, DensityMatrix]]:
    """Yield (step, state after the step) along a circuit run.

    The run steps on raw arrays: each step's result goes into one
    ``(steps, d, d)`` buffer, which ``check_stack`` then checks as one
    stack, with the tolerances of every ``DensityMatrix``.  So every
    intermediate state is checked, and an invalid run raises before its
    first yield.  The yielded states are read-only views of the buffer.

    Markovian noise markers carry lambda*t folded into their generator
    strengths.  ``noise_override`` replaces the noise marker by an
    arbitrary map, which is how deterministic error insertions are
    tested; the states up to it are checked before it receives one,
    and each state is checked exactly once.
    """
    if rho.dim != 2**circuit.n_qubits:
        raise ValueError(f"state dimension {rho.dim} does not match {circuit.n_qubits}-qubit circuit")
    states = np.empty((len(circuit.steps), rho.dim, rho.dim), dtype=complex)
    checked = 0  # states[:checked] have passed check_stack
    m = rho.entries
    for i, step in enumerate(circuit.steps):
        if isinstance(step, Gate):
            states[i] = conjugate(embed(step.matrix, step.targets, circuit.n_qubits), m)
        elif noise_override is not None:
            check_stack(states[checked:i], rho.kind)
            checked = i
            m = m.view()
            m.setflags(write=False)
            states[i] = noise_override(DensityMatrix._checked(m, rho.kind)).entries
        else:
            states[i] = m * step.factor
        m = states[i]
    check_stack(states[checked:], rho.kind)
    states.setflags(write=False)
    for step, m in zip(circuit.steps, states):
        yield step, DensityMatrix._checked(m, rho.kind)


def apply_circuit(
    rho: DensityMatrix,
    circuit: Circuit,
    *,
    noise_override: Callable[[DensityMatrix], DensityMatrix] | None = None,
) -> DensityMatrix:
    """Run a circuit on a state and return the final state (see
    circuit_states)."""
    for _, rho in circuit_states(rho, circuit, noise_override=noise_override):
        pass
    return rho
