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
before and after the noise marker, multiplied at import into the one
``encode`` and one ``recover`` gate that a circuit runs.  It is the only
source of a scenario's qubit count, collectiveness and gates, and
``check_noise`` the one rule that pairs a scenario with its noise.

Each validity fact is checked once, where it is used: gate targets by
``embed`` when a gate runs (in a block, once per run), a noise marker's
attenuation when it is computed (a sweep's, all at once, and certified
a channel, by ``channels.sweep_attenuation``), step types and noise
factor shapes when a ``Circuit`` is built, and a sweep's inputs and
reduced outputs by ``sweep_outputs``.  The gates are exact (``_compile``)
and the factors channels, so a block's states are not checked.

A sweep of K points is K + 1 runs, its kappa0 = 0 reference first, run
``_BLOCK`` = 8 at a time, each block from its inputs' kappa0-independent
encode, run once per input, and one ``check_stack`` call on its outputs:
with the two on the inputs that ``experiments`` builds, 3 at any K.  Of
these only the input state's check tests positivity.  A transfer-matrix
probe runs each of its four inputs through ``apply_circuit``'s one-state
loop, which checks every state, one call per run, and checks its
data-qubit outputs with two more; three of its calls test positivity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Sequence, Union

import numpy as np

from .channels import NoiseSpec, attenuation, noise_layout, sweep_attenuation
from .qstate import SX, DensityMatrix, Operator, check_stack, conjugate, embed, partial_trace_stack

__all__ = [
    "Gate",
    "NoiseStep",
    "Circuit",
    "SCENARIOS",
    "DATA_QUBIT",
    "scenario_layout",
    "check_noise",
    "hadamard",
    "pauli_x",
    "cnot",
    "toffoli",
    "dfs_encode",
    "dfs_decode",
    "build_scenario_circuit",
    "sweep_outputs",
    "apply_circuit",
]

_H = Operator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

_CNOT = np.eye(4)
_CNOT[[2, 3]] = _CNOT[[3, 2]]
_CNOT = Operator(_CNOT)

_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]
_TOFFOLI = Operator(_TOFFOLI)

# logical gates on the qubit-(3,4) pair, basis order |00>,|01>,|10>,|11>
_H_L = np.eye(4, dtype=complex)
_H_L[1:3, 1:3] = _H.entries
_H_L = Operator(_H_L)

# controlled-X_L, X_L = sigma_x^3 sigma_x^4
_CNOT_INTO_L = np.eye(8, dtype=complex)
_CNOT_INTO_L[4:, 4:] = np.kron(SX.entries, SX.entries)
_CNOT_INTO_L = Operator(_CNOT_INTO_L)


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary applied to specific qubits (in listed order);
    ``embed`` checks the targets against the matrix when the gate runs."""

    name: str
    matrix: Operator
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True, eq=False)
class NoiseStep:
    """Marker for the storage interval: the noise of ``spec`` acts here.

    Its elementwise ``factor`` is ``attenuation(noise_layout(spec),
    spec.kind)``: computed when ``NoiseStep(spec)`` is built, or, in a
    sweep, the factor ``channels.sweep_attenuation`` gathered for the
    spec.  It is read-only and shared by every state run through the
    marker.
    """

    spec: NoiseSpec
    factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        factor = attenuation(noise_layout(self.spec), self.spec.kind) if self.factor is None else self.factor
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)


Step = Union[Gate, NoiseStep]


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates and noise markers on ``n_qubits``; building it checks the
    step types and noise factor shapes, running it the gate targets."""

    n_qubits: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, (Gate, NoiseStep)):
                raise ValueError(f"unknown step type {type(step).__name__}")
            if isinstance(step, NoiseStep) and step.factor.shape != (2**self.n_qubits,) * 2:
                raise ValueError(f"noise factor of shape {step.factor.shape} does not fit {self.n_qubits}-qubit circuit")


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
DATA_QUBIT = 2  # the phase code's data qubit
_BLOCK = 8  # circuits per _run_block call: a dfs_qec block's (8, 3, 16, 16) stack of states is 98 KB

# up to sign, the entries of any product of the table's gates: 0, 1/2 and sqrt(2)/4, the last two
# as h^2 and h^3 of its Hadamard's h = fl(1/sqrt 2); the nearest doubles are larger: Fe(0) > 1
_h = _H.entries[0, 0].real
_EXACT_ENTRIES = np.array([0.0, _h * _h, _h * _h * _h])


def _compile(name: str, gates: tuple[Gate, ...], n: int) -> tuple[Gate, ...]:
    """The ordered product of ``gates`` as one n-qubit gate, rounded onto ``+-_EXACT_ENTRIES``."""
    if not gates:
        return ()
    u = functools.reduce(lambda acc, g: embed(g.matrix, g.targets, n).entries @ acc, gates, np.eye(2**n))
    exact = np.copysign(_EXACT_ENTRIES[abs(abs(u.real)[..., None] - _EXACT_ENTRIES).argmin(-1)], u.real)
    assert (abs(u - exact) <= 2 * np.spacing(abs(exact))).all(), f"{name} entries are not exact"
    return (Gate(name, Operator(exact), tuple(range(1, n + 1))),)


_COMPILED = {s: (_compile("encode", b, n), _compile("recover", a, n)) for s, (n, _, b, a) in _SCENARIOS.items()}


def scenario_layout(scenario: str) -> tuple[int, bool]:
    """(qubit count, collective noise?) of a scenario."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _SCENARIOS[scenario][:2]


def check_noise(scenario: str, collective: bool) -> int:
    """The qubit count of a scenario, after its one noise rule: ``qec_hybrid`` and
    ``dfs_qec`` face the collective component, ``qec_independent`` and ``no_qec``
    no collective noise.  Circuits and closed forms both reject the other pairs."""
    n, needs_collective = scenario_layout(scenario)
    if collective != needs_collective:
        need = "the collective noise component" if needs_collective else "independent noise only"
        raise ValueError(f"{scenario} requires {need}")
    return n


def build_scenario_circuit(scenario: str, spec: NoiseSpec | NoiseStep) -> Circuit:
    """Assemble one of the four storage experiments around the noise
    marker ``spec``, or a new one for it, between its compiled
    ``encode`` and ``recover``.

    * ``qec_independent``: three-qubit phase code (data qubit 2,
      ancillae 1 and 3) under independent noise.
    * ``qec_hybrid``: the same code, but the noise has the strong
      collective component on qubits 3 and 4; qubit 4 idles outside
      the code.
    * ``no_qec``: the data qubit idles through the noise interval.
    * ``dfs_qec``: the concatenated network, with the second outer
      ancilla encoded in the qubit-(3,4) pair, under collective noise.
    """
    ready = isinstance(spec, NoiseStep)
    n = check_noise(scenario, (spec.spec if ready else spec).collective)
    encode, recover = _COMPILED[scenario]
    return Circuit(n, encode + (spec if ready else NoiseStep(spec),) + recover)


def sweep_outputs(scenario: str, specs: Sequence[NoiseSpec], inputs: Sequence[DensityMatrix]) -> np.ndarray:
    """The read-only ``(K, k, 2, 2)`` ``DATA_QUBIT`` outputs of the scenario at each
    of a sweep's K specs, on each of k inputs of one kind.  All factors are evaluated
    and certified first, then ``_BLOCK`` circuits at a time are built, run and reduced, and one
    ``check_stack`` call on the whole stack raises the first bad (spec, input) output."""
    if not (specs and inputs):
        raise ValueError("need at least one spec and one input")
    n, kind = scenario_layout(scenario)[0], inputs[0].kind
    for rho in inputs:
        if rho.kind != kind:
            raise ValueError("inputs of one sweep must all be of one kind")
        if rho.dim != 2**n:
            raise ValueError(f"state dimension {rho.dim} does not match {n}-qubit circuit")
    circuits = (build_scenario_circuit(scenario, NoiseStep(s, f)) for s, f in zip(specs, sweep_attenuation(specs)))
    blocks = iter(lambda: list(islice(circuits, _BLOCK)), [])
    outs = np.concatenate([partial_trace_stack(_run_block(inputs, b).reshape(-1, 2**n, 2**n), {DATA_QUBIT}) for b in blocks])
    check_stack(outs, kind)
    outs.setflags(write=False)
    return outs.reshape(-1, len(inputs), 2, 2)


def _run_block(inputs: Sequence[DensityMatrix], circuits: Sequence[Circuit]) -> np.ndarray:
    """The read-only ``(B, k, d, d)`` final states of every input through every
    circuit of a block, which hold one ``Gate`` object or only noise markers at
    each step.  A gate is one ``conjugate`` of the whole stack, a marker one
    ``np.multiply`` by the stacked factors: the stack is the k inputs up to
    the first marker, so the shared gates run once per input, and B k after it."""
    n, k = circuits[0].n_qubits, len(inputs)
    m = np.array([rho.entries for rho in inputs])
    for column in zip(*(c.steps for c in circuits)):
        step = column[0]
        if isinstance(step, Gate):
            for _ in range(len(circuits) * k):  # each run checks its gate's targets
                u = embed(step.matrix, step.targets, n)
            m = conjugate(u, m)
        else:
            m = m * np.array([s.factor for s in column])[:, None]
    return np.broadcast_to(m, (len(circuits), k, 2**n, 2**n))


def apply_circuit(
    rho: DensityMatrix,
    circuit: Circuit,
    *,
    noise_override: Callable[[DensityMatrix], DensityMatrix] | None = None,
) -> DensityMatrix:
    """Run a circuit on one state, a step at a time, with the bits of
    ``_run_block``, and return the final state; an empty circuit
    returns ``rho`` itself.  The state after the first i + 1 steps is
    the final state of the prefix circuit ``Circuit(n, steps[:i + 1])``.

    Markovian noise markers carry lambda*t folded into their spec's
    ``kappa0``.  ``noise_override`` replaces the noise marker by an
    arbitrary map, which is how deterministic error insertions are
    tested; the states up to it are checked by one ``check_stack`` call
    before it receives one, and each state is checked exactly once.
    """
    if rho.dim != 2**circuit.n_qubits:
        raise ValueError(f"state dimension {rho.dim} does not match {circuit.n_qubits}-qubit circuit")
    states = np.empty((len(circuit.steps), rho.dim, rho.dim), dtype=complex)
    checked = 0  # states[:checked] have passed check_stack
    m = rho.entries
    for i, (step, out) in enumerate(zip(circuit.steps, states)):
        if isinstance(step, Gate):
            conjugate(embed(step.matrix, step.targets, circuit.n_qubits), m, out=out)
        elif noise_override is None:
            np.multiply(m, step.factor, out=out)
        else:
            check_stack(states[checked:i], rho.kind)
            checked = i
            m = m.view()
            m.setflags(write=False)
            out[...] = noise_override(DensityMatrix._checked(m, rho.kind)).entries
        m = out
    check_stack(states[checked:], rho.kind)
    states.setflags(write=False)
    return DensityMatrix._checked(states[-1], rho.kind) if len(states) else rho
