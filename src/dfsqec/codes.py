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

In the concatenated network the logical pair replaces the second
ancilla of the outer code: Hadamards on that carrier become H_L, the
CNOT into it becomes a controlled-X_L, and the recovery Toffoli is
controlled on qubit 1 and on qubit 3 (the Z_L carrier of the pair).
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
from .qstate import SX, SZ, DensityMatrix, Operator, apply_unitary, embed

__all__ = [
    "Gate",
    "GateStep",
    "NoiseStep",
    "Circuit",
    "SCENARIOS",
    "hadamard",
    "pauli_x",
    "pauli_z",
    "cnot",
    "toffoli",
    "logical_gate",
    "qec3_encode",
    "qec3_recover",
    "dfs_encode",
    "dfs_decode",
    "build_scenario_circuit",
    "apply_circuit",
    "circuit_states",
]

SCENARIOS = ("qec_independent", "qec_hybrid", "no_qec", "dfs_qec")

_H = Operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), unitary=True)

_CNOT = np.eye(4)
_CNOT[[2, 3]] = _CNOT[[3, 2]]
_CNOT = Operator(_CNOT, unitary=True)

_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]
_TOFFOLI = Operator(_TOFFOLI, unitary=True)

# logical gates on the qubit-(3,4) pair, basis order |00>,|01>,|10>,|11>
_X_L = Operator(np.kron(SX.entries, SX.entries), unitary=True)
_Z_L = Operator(np.kron(SZ.entries, np.eye(2)), unitary=True)

_H_L = np.eye(4, dtype=complex)
_H_L[1:3, 1:3] = _H.entries
_H_L = Operator(_H_L, unitary=True)

_CNOT_INTO_L = np.eye(8, dtype=complex)
_CNOT_INTO_L[4:, 4:] = _X_L.entries
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
class GateStep:
    gate: Gate


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


Step = Union[GateStep, NoiseStep]


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if isinstance(step, GateStep):
                bad = [q for q in step.gate.targets if q < 1 or q > self.n_qubits]
                if bad:
                    raise ValueError(f"gate {step.gate.name!r} targets {bad} outside 1..{self.n_qubits}")
            elif isinstance(step, NoiseStep):
                for gen in step.generators:
                    if gen.n_qubits != self.n_qubits:
                        raise ValueError(
                            f"noise generator {gen.label!r} is on {gen.n_qubits} qubit(s), "
                            f"circuit has {self.n_qubits}"
                        )
            else:
                raise ValueError(f"unknown step type {type(step).__name__}")

    def noise_marker_count(self) -> int:
        return sum(isinstance(s, NoiseStep) for s in self.steps)

    def pretty(self) -> str:
        """One step per line: ``GATE targets`` or ``NOISE label κ=...``."""
        lines = []
        for step in self.steps:
            if isinstance(step, GateStep):
                lines.append(" ".join([step.gate.name, *map(str, step.gate.targets)]))
            else:
                parts = ", ".join(f"{g.label} κ={g.strength:g}" for g in step.generators)
                lines.append(f"NOISE {parts}")
        return "\n".join(lines)


def hadamard(qubit: int) -> Gate:
    return Gate("H", _H, (qubit,))


def pauli_x(qubit: int) -> Gate:
    return Gate("X", SX, (qubit,))


def pauli_z(qubit: int) -> Gate:
    return Gate("Z", SZ, (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", _CNOT, (control, target))


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate("TOFFOLI", _TOFFOLI, (control_a, control_b, target))


def logical_gate(name: str, partner: int = 2) -> Gate:
    """Logical operation on the encoded pair (qubits 3, 4).

    ``CNOT_into_L`` is a controlled-X_L with physical control
    ``partner``; ``CNOT_from_L`` is a CNOT from qubit 3 (the Z_L
    carrier) onto ``partner``.  All gates preserve the block split
    span{|01>,|10>} + span{|00>,|11>}.
    """
    if name == "X_L":
        return Gate("X_L", _X_L, (3, 4))
    if name == "Z_L":
        return Gate("Z_L", _Z_L, (3, 4))
    if name == "H_L":
        return Gate("H_L", _H_L, (3, 4))
    if name == "CNOT_into_L":
        return Gate("CNOT_into_L", _CNOT_INTO_L, (partner, 3, 4))
    if name == "CNOT_from_L":
        return Gate("CNOT_from_L", _CNOT, (3, partner))
    raise ValueError(f"unknown logical gate {name!r}")


def qec3_encode(data: int, ancilla_a: int, ancilla_b: int) -> list[Gate]:
    """Phase-code encoding: copy the data onto both ancillae, then
    rotate all carriers into the +/- basis."""
    _check_distinct(data, ancilla_a, ancilla_b)
    return [
        cnot(data, ancilla_a),
        cnot(data, ancilla_b),
        hadamard(data),
        hadamard(ancilla_a),
        hadamard(ancilla_b),
    ]


def qec3_recover(data: int, ancilla_a: int, ancilla_b: int) -> list[Gate]:
    """Inverse encoding followed by the coherent correction Toffoli."""
    _check_distinct(data, ancilla_a, ancilla_b)
    return [
        hadamard(data),
        hadamard(ancilla_a),
        hadamard(ancilla_b),
        cnot(data, ancilla_b),
        cnot(data, ancilla_a),
        toffoli(ancilla_a, ancilla_b, data),
    ]


def dfs_encode() -> list[Gate]:
    """Map (a|0> + b|1>)_3 |0>_4 onto a|01> + b|10>."""
    return [pauli_x(4), cnot(3, 4)]


def dfs_decode() -> list[Gate]:
    """Inverse of dfs_encode; returns qubit 4 to |0>."""
    return [cnot(3, 4), pauli_x(4)]


def _check_distinct(*qubits: int) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")


def _logical_qec3_encode() -> list[Gate]:
    # outer encode with carrier order (data=2, ancilla=1, ancilla=logical pair)
    return [
        cnot(2, 1),
        logical_gate("CNOT_into_L", 2),
        hadamard(2),
        hadamard(1),
        logical_gate("H_L"),
    ]


def _logical_qec3_recover() -> list[Gate]:
    return [
        hadamard(2),
        hadamard(1),
        logical_gate("H_L"),
        logical_gate("CNOT_into_L", 2),
        cnot(2, 1),
        toffoli(1, 3, 2),  # qubit 3 is the Z_L sector of the logical ancilla
    ]


def build_scenario_circuit(scenario: str, spec: NoiseSpec) -> Circuit:
    """Assemble one of the four storage experiments.

    * ``qec_independent``: three-qubit phase code (data qubit 2,
      ancillae 1 and 3) under independent noise.
    * ``qec_hybrid``: the same code, but the noise has the strong
      collective component on qubits 3 and 4; qubit 4 idles outside
      the code.
    * ``no_qec``: the data qubit idles through the noise interval.
    * ``dfs_qec``: the concatenated network, with the second outer
      ancilla encoded in the qubit-(3,4) pair.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario in ("qec_independent", "no_qec") and spec.collective:
        raise ValueError(f"{scenario} expects independent noise only")
    if scenario == "qec_hybrid" and not spec.collective:
        raise ValueError("qec_hybrid requires the collective noise component")

    if scenario == "qec_independent":
        n = 3
        gates_before = qec3_encode(2, 1, 3)
        gates_after = qec3_recover(2, 1, 3)
    elif scenario == "qec_hybrid":
        n = 4
        gates_before = qec3_encode(2, 1, 3)
        gates_after = qec3_recover(2, 1, 3)
    elif scenario == "no_qec":
        n = 3
        gates_before = []
        gates_after = []
    else:
        n = 4
        gates_before = dfs_encode() + _logical_qec3_encode()
        gates_after = _logical_qec3_recover() + dfs_decode()

    noise = NoiseStep(tuple(build_error_model(spec, n)), kind=spec.kind)
    steps: list[Step] = [GateStep(g) for g in gates_before]
    steps.append(noise)
    steps.extend(GateStep(g) for g in gates_after)
    circuit = Circuit(n, tuple(steps))
    assert circuit.noise_marker_count() == 1
    return circuit


def circuit_states(
    rho: DensityMatrix,
    circuit: Circuit,
    *,
    noise_override: Callable[[DensityMatrix], DensityMatrix] | None = None,
) -> Iterator[tuple[Step, DensityMatrix]]:
    """Yield (step, state after the step) along a circuit run.

    Markovian noise markers carry lambda*t folded into their generator
    strengths.  ``noise_override`` replaces the noise marker by an
    arbitrary map, which is how deterministic error insertions are
    tested.
    """
    if rho.dim != 2**circuit.n_qubits:
        raise ValueError(f"state dimension {rho.dim} does not match {circuit.n_qubits}-qubit circuit")
    for step in circuit.steps:
        if isinstance(step, GateStep):
            rho = apply_unitary(rho, embed(step.gate.matrix, step.gate.targets, circuit.n_qubits))
        elif noise_override is not None:
            rho = noise_override(rho)
        else:
            rho = DensityMatrix(rho.entries * step.factor, rho.kind)
        yield step, rho


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
