"""Dense statevector simulator with an explicit gate IR.

Conventions:
    * Qubit 0 is the least significant bit of a basis-state index, so basis
      index ``i`` assigns qubit ``q`` the bit ``(i >> q) & 1``.
    * Gates act on views of the amplitudes reshaped to the ``(2,) * n``
      tensor, in which qubit ``q`` is axis ``n - 1 - q``.
    * Register outcomes are indexed the same way: ``qubits[i]`` is bit ``i``
      of an outcome index in ``marginal_probabilities`` and ``sample``.

``Circuit.multiplexed_ry`` builds a uniformly controlled RY as one RY gate
per control pattern. ``apply_circuit`` applies each run of consecutive RY
gates on one target and one ordered control tuple, firing on distinct
patterns, as one gather, stacked 2x2 product and scatter; every other gate is
applied on its own. ``circuit_matrix`` stays gate by gate as the reference.

States are immutable and every operation returns a new value. Circuits are
mutable builders, but simulation never modifies them. RNG state is always a
per-call seed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InvalidCircuitError, InvalidGateError, ZeroProbabilityError

UNITARY_ATOL = 1e-10
MAX_QUBITS = 20  # qubit budget of the states that preprocessing and solver runs build

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def check_capacity(num_qubits: int) -> None:
    """Raise ``CapacityError`` when a ``num_qubits`` state would exceed ``MAX_QUBITS``."""
    if num_qubits > MAX_QUBITS:
        raise CapacityError(f"{num_qubits} qubits exceed the simulator budget of {MAX_QUBITS}")


class GateKind(Enum):
    HADAMARD = "h"
    PAULI_X = "x"
    PAULI_Y = "y"
    PAULI_Z = "z"
    RY = "ry"
    SWAP = "swap"
    UNITARY = "unitary"


_FIXED_MATRICES = {
    GateKind.HADAMARD: np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
    GateKind.PAULI_X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.PAULI_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.PAULI_Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_SINGLE_TARGET = {
    GateKind.HADAMARD,
    GateKind.PAULI_X,
    GateKind.PAULI_Y,
    GateKind.PAULI_Z,
    GateKind.RY,
}


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit operation: a unitary on ``targets`` plus optional controls.

    ``controls`` holds ``(qubit, polarity)`` pairs. Polarity 1 fires when the
    control qubit is |1> (filled dot), polarity 0 when it is |0> (open dot).
    For ``UNITARY`` gates the matrix acts on the targets with ``targets[0]``
    as the least significant bit of the block index.
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        targets = tuple(int(t) for t in self.targets)
        controls = tuple((int(q), int(p)) for q, p in self.controls)
        qubits = targets + tuple(q for q, _ in controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "_qubits", qubits)
        # one set test covers all three overlap checks; name the fault only on failure
        if not targets or len(set(qubits)) != len(qubits):
            if not targets or len(set(targets)) != len(targets):
                raise InvalidGateError(f"targets must be non-empty and unique, got {targets}")
            control_qubits = qubits[len(targets) :]
            if len(set(control_qubits)) != len(control_qubits):
                raise InvalidGateError("duplicate control qubits")
            raise InvalidGateError("targets and controls must be disjoint")
        if any(p not in (0, 1) for _, p in controls):
            raise InvalidGateError("control polarity must be 0 or 1")
        if min(qubits) < 0:
            raise InvalidGateError("negative qubit index")
        if self.kind in _SINGLE_TARGET and len(targets) != 1:
            raise InvalidGateError(f"{self.kind.value} takes exactly one target")
        if self.kind is GateKind.SWAP and len(targets) != 2:
            raise InvalidGateError("swap takes exactly two targets")
        if self.kind is GateKind.RY:
            if self.angle is None or not math.isfinite(float(self.angle)):
                raise InvalidGateError("ry needs a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        if self.kind is GateKind.UNITARY:
            if self.matrix is None:
                raise InvalidGateError("unitary gate needs a matrix")
            m = np.array(self.matrix, dtype=complex)
            dim = 2 ** len(targets)
            if m.shape != (dim, dim):
                raise InvalidGateError(
                    f"matrix shape {m.shape} does not act on {len(targets)} qubit(s)"
                )
            if not np.isfinite(m).all():
                raise InvalidGateError("matrix entries must be finite")
            if abs(m.conj().T @ m - np.eye(dim)).max() > UNITARY_ATOL:
                raise InvalidGateError("matrix is not unitary within 1e-10")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    def qubits(self) -> tuple[int, ...]:
        """Targets, then control qubits in order; derived once at construction."""
        return self._qubits

    def resolved_matrix(self) -> np.ndarray:
        if self.kind is GateKind.UNITARY:
            return self.matrix
        if self.kind is GateKind.RY:
            half = 0.5 * self.angle
            c, s = math.cos(half), math.sin(half)
            return np.array([[c, -s], [s, c]], dtype=complex)
        return _FIXED_MATRICES[self.kind]

    def dagger(self) -> "Gate":
        if self.kind is GateKind.RY:
            return Gate(GateKind.RY, self.targets, self.controls, angle=-self.angle)
        if self.kind is GateKind.UNITARY:
            # the adjoint of a validated unitary is unitary: skip re-validation
            adjoint = self.matrix.conj().T
            adjoint.setflags(write=False)
            return Gate._unchecked(
                kind=GateKind.UNITARY,
                targets=self.targets,
                controls=self.controls,
                angle=None,
                matrix=adjoint,
                _qubits=self._qubits,
            )
        return self

    @classmethod
    def _unchecked(cls, **fields) -> "Gate":
        """Set every field as given, without ``__post_init__``.

        Only for values already in canonical form and derived from a
        validated gate; public ``Gate(...)`` keeps every check. ``fields``
        includes ``_qubits``, the tuple ``qubits`` returns.
        """
        gate = object.__new__(cls)
        gate.__dict__.update(fields)
        return gate


class StateVector:
    """Unit-norm complex amplitudes over ``2**num_qubits`` basis states.

    ``validate=False`` trusts the amplitudes and takes a complex array as
    given, without a copy: the state then owns it and makes it read-only, so
    the caller must hand over an array that nothing else writes. Validated
    construction normalizes into a new array and leaves the argument alone.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes, *, validate: bool = True):
        arr = np.asarray(amplitudes, dtype=complex)
        if arr.shape != (2**num_qubits,):
            raise ValueError(
                f"expected {2**num_qubits} amplitudes for {num_qubits} qubit(s), got {arr.shape}"
            )
        if validate:
            if not np.all(np.isfinite(arr)):
                raise ValueError("amplitudes must be finite")
            norm = float(np.linalg.norm(arr))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"amplitudes must have unit norm, got {norm}")
            arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "num_qubits", int(num_qubits))
        object.__setattr__(self, "amplitudes", arr)

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("StateVector is immutable")

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps, validate=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class Circuit:
    """Ordered gate list over ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise InvalidCircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.gates: list[Gate] = []

    def add(self, gate: Gate) -> "Circuit":
        if max(gate.qubits()) >= self.num_qubits:
            raise InvalidCircuitError(
                f"gate on qubits {gate.qubits()} does not fit in {self.num_qubits} qubit(s)"
            )
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.add(gate)
        return self

    def h(self, qubit: int, controls=()) -> "Circuit":
        return self.add(Gate(GateKind.HADAMARD, (qubit,), tuple(controls)))

    def swap(self, a: int, b: int, controls=()) -> "Circuit":
        return self.add(Gate(GateKind.SWAP, (a, b), tuple(controls)))

    def unitary(self, matrix, targets: Sequence[int], controls=()) -> "Circuit":
        return self.add(
            Gate(GateKind.UNITARY, tuple(targets), tuple(controls), matrix=matrix)
        )

    def multiplexed_ry(
        self, target: int, controls: Sequence[int], rotations: Iterable[tuple[int, float]]
    ) -> "Circuit":
        """Uniformly controlled RY: one RY on ``target`` per ``(pattern, angle)``.

        Bit ``r`` of a pattern is the polarity of ``controls[r]``. The shared
        qubit structure is validated once, on the first rotation; every angle
        must be finite and every pattern fit the controls and appear once.
        Nothing is added when any rotation is rejected.
        """
        controls = tuple(int(q) for q in controls)
        choices = [((q, 0), (q, 1)) for q in controls]  # control r's pair for bit r
        gates: list[Gate] = []
        seen: set[int] = set()
        for pattern, angle in rotations:
            pattern = operator.index(pattern)
            if not 0 <= pattern < 1 << len(controls):
                raise InvalidGateError(
                    f"pattern {pattern} does not fit {len(controls)} control(s)"
                )
            if pattern in seen:
                raise InvalidGateError(f"pattern {pattern} repeats")
            seen.add(pattern)
            polarities = tuple([pair[(pattern >> r) & 1] for r, pair in enumerate(choices)])
            if not gates:
                first = Gate(GateKind.RY, (target,), polarities, angle=angle)
                gates.append(first)
                continue
            angle = float(angle)
            if not math.isfinite(angle):
                raise InvalidGateError("ry needs a finite angle")
            gates.append(
                Gate._unchecked(
                    kind=GateKind.RY,
                    targets=first.targets,
                    controls=polarities,
                    angle=angle,
                    matrix=None,
                    _qubits=first.qubits(),
                )
            )
        if gates:
            self.add(gates[0])  # the shared qubits must fit the circuit
            self.gates.extend(gates[1:])
        return self

    def __len__(self) -> int:
        return len(self.gates)


def inverted_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Gate-reversed adjoint of a gate list."""
    return [g.dagger() for g in reversed(gates)]


def _apply_gate(vec: np.ndarray, gate: Gate) -> None:
    """Apply one gate in place to ``vec`` (amplitudes on axis 0, any trailing axes)."""
    n = vec.shape[0].bit_length() - 1
    index: list = [slice(None)] * n
    for q, pol in gate.controls:
        index[n - 1 - q] = pol
    # integer-indexing the control axes is basic indexing, so ``sub`` is a view
    sub = vec.reshape((2,) * n + vec.shape[1:])[tuple(index)]
    # targets[-1] leads so that targets[0] is the block-index LSB; each control
    # axis above a target was indexed away and shifts that target's axis down
    axes = [n - 1 - t - sum(q > t for q, _ in gate.controls) for t in reversed(gate.targets)]
    block = sub.transpose(axes + [ax for ax in range(sub.ndim) if ax not in axes])
    span = 1 << len(gate.targets)
    block[...] = (gate.resolved_matrix() @ block.reshape(span, -1)).reshape(block.shape)


def _ry_run_end(gates: Sequence[Gate], start: int) -> int:
    """End of the longest run from ``start`` that one ``_apply_ry_run`` call may apply.

    A run is consecutive RY gates on the same target and the same ordered
    control qubits that fire on distinct patterns. They touch disjoint
    amplitudes, so they commute. A gate that starts no run ends at ``start + 1``.
    """
    first = gates[start]
    end = start + 1
    if first.kind is not GateKind.RY:
        return end
    qubits = first.qubits()
    seen = {first.controls}
    while end < len(gates):
        gate = gates[end]
        if gate.kind is not GateKind.RY or gate.qubits() != qubits or gate.controls in seen:
            break
        seen.add(gate.controls)
        end += 1
    return end


def _apply_ry_run(vec: np.ndarray, run: Sequence[Gate]) -> None:
    """Apply a run from ``_ry_run_end`` in place as one gather, product and scatter.

    Like ``_apply_gate``, amplitudes lie on axis 0 with any trailing axes.
    Each gate's 2x2 matrix is the one ``resolved_matrix`` builds.
    """
    n = vec.shape[0].bit_length() - 1
    target = run[0].targets[0]
    involved = set(run[0].qubits())
    # basis-index offsets of every assignment of the qubits no gate touches
    free = np.zeros(1, dtype=np.intp)
    for q in range(n):
        if q not in involved:
            free = np.concatenate((free, free + (1 << q)))
    fired = np.array([sum(1 << q for q, p in g.controls if p) for g in run], dtype=np.intp)
    index = fired[:, None, None] + np.array([[0], [1 << target]], dtype=np.intp) + free
    halves = [0.5 * g.angle for g in run]
    cos = np.array([math.cos(h) for h in halves])
    sin = np.array([math.sin(h) for h in halves])
    matrices = np.empty((len(run), 2, 2), dtype=complex)
    matrices[:, 0, 0] = cos
    matrices[:, 0, 1] = -sin
    matrices[:, 1, 0] = sin
    matrices[:, 1, 1] = cos
    block = vec[index].reshape(len(run), 2, -1)
    vec[index] = (matrices @ block).reshape(index.shape + vec.shape[1:])


def _apply_gates(vec: np.ndarray, gates: Sequence[Gate]) -> None:
    """Apply ``gates`` in order, in place; each RY run is one kernel call."""
    start = 0
    while start < len(gates):
        end = _ry_run_end(gates, start)
        if end - start > 1:
            _apply_ry_run(vec, gates[start:end])
        else:
            _apply_gate(vec, gates[start])
        start = end


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the circuit's gates in order; returns the exact output state."""
    if state.num_qubits != circuit.num_qubits:
        raise InvalidCircuitError(
            f"state has {state.num_qubits} qubit(s) but circuit expects {circuit.num_qubits}"
        )
    vec = np.array(state.amplitudes, dtype=complex)
    _apply_gates(vec, circuit.gates)
    return StateVector(circuit.num_qubits, vec, validate=False)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of the circuit; intended for small test circuits."""
    dim = 2**circuit.num_qubits
    mat = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        _apply_gate(mat, gate)
    return mat


def postselect(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Project one qubit onto ``outcome`` and renormalize.

    Returns the conditional state (full dimension, qubit collapsed) and the
    probability of the outcome.
    """
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    # axis 1 of this view is the qubit; axes 0 and 2 are the bits above and below it
    split = (2 ** (state.num_qubits - 1 - qubit), 2, 2**qubit)
    kept = state.amplitudes.reshape(split)[:, outcome, :]
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < 1e-15:
        raise ZeroProbabilityError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    new = np.zeros(split, dtype=complex)
    new[:, outcome, :] = kept / math.sqrt(prob)
    return StateVector(state.num_qubits, new.reshape(-1), validate=False), prob


def register_matrix(values: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Per-basis-state values reshaped to (register outcomes, everything else).

    ``values`` holds one entry per basis state, such as amplitudes or
    probabilities. ``qubits[i]`` contributes bit ``i`` of the row index,
    matching the global least-significant-first convention.
    """
    n = values.shape[0].bit_length() - 1
    qubits = tuple(int(q) for q in qubits)
    if not qubits:
        raise ValueError("at least one qubit is required")
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be unique")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    # axis (n - 1 - q) holds qubit q; order kept axes most-significant-first
    front = [n - 1 - q for q in reversed(qubits)]
    rest = [ax for ax in range(n) if ax not in front]
    return np.transpose(values.reshape([2] * n), front + rest).reshape(2 ** len(qubits), -1)


def marginal_probabilities(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for a subset of qubits, indexed as in ``register_matrix``."""
    return register_matrix(np.abs(state.amplitudes) ** 2, qubits).sum(axis=1)


def sample(
    state: StateVector, qubits: Sequence[int], shots: int, seed: int | None = None
) -> np.ndarray:
    """Seeded shot counts per outcome of ``qubits``, indexed as in ``marginal_probabilities``."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = marginal_probabilities(state, qubits)
    probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def state_preparation_matrix(vector) -> np.ndarray:
    """A unitary whose first column is the given unit vector.

    Used to prepare an arbitrary register state from |0...0>.
    """
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    dim = vec.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise ValueError("vector length must be a power of two")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise ValueError("cannot prepare the zero vector")
    vec = vec / norm
    basis = np.eye(dim, dtype=complex)
    basis[:, 0] = vec
    q, r = np.linalg.qr(basis)
    # align the first column with vec exactly (QR fixes phase arbitrarily)
    phase = np.vdot(q[:, 0], vec)
    q[:, 0] *= phase / abs(phase)
    return q


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic Pauli insertion after each gate; one trajectory per seed."""

    per_gate_pauli_probability: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        p = float(self.per_gate_pauli_probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, not {self.rng_seed}")
        object.__setattr__(self, "per_gate_pauli_probability", p)


_PAULI_KINDS = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)


def inject_noise(circuit: Circuit, spec: NoiseSpec) -> Circuit:
    """Insert a uniformly chosen Pauli on one involved qubit after each gate."""
    rng = np.random.default_rng(spec.rng_seed)
    noisy = Circuit(circuit.num_qubits)
    # every gate, and so every qubit a Pauli lands on, already fits this width
    gates = noisy.gates
    for gate in circuit.gates:
        gates.append(gate)
        if rng.random() < spec.per_gate_pauli_probability:
            qubits = gate.qubits()
            qubit = int(qubits[int(rng.integers(len(qubits)))])
            kind = _PAULI_KINDS[int(rng.integers(3))]
            gates.append(Gate(kind, (qubit,)))
    return noisy


@dataclass(frozen=True)
class GateReport:
    gate_count: int
    two_qubit_count: int
    depth: int


def gate_report(circuit: Circuit) -> GateReport:
    """Logical-IR counts; depth by greedy layering of disjoint supports."""
    frontier = [0] * circuit.num_qubits
    depth = 0
    two_qubit = 0
    for gate in circuit.gates:
        qubits = gate.qubits()
        layer = 1 + max(map(frontier.__getitem__, qubits))
        for q in qubits:
            frontier[q] = layer
        depth = max(depth, layer)
        if len(qubits) == 2:
            two_qubit += 1
    return GateReport(len(circuit.gates), two_qubit, depth)
