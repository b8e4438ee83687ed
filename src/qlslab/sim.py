"""Dense statevector simulator with an explicit gate IR.

Conventions:
    * Qubit 0 is the least significant bit of a basis-state index, so basis
      index ``i`` assigns qubit ``q`` the bit ``(i >> q) & 1``.
    * Register outcomes are indexed the same way: ``qubits[i]`` is bit ``i``
      of a row of ``register_matrix`` and an outcome of
      ``marginal_probabilities``; ``sample`` counts are indexed like the
      probabilities it draws from.

``_gate_plan`` alone maps qubits to array axes: one cached view plan per
qubit structure (width, targets, controls) splits the amplitudes only at
those qubits, fixes the controls and brings the targets to the front.
Gates, ``register_matrix`` and ``postselect`` all work on such views.
``apply_circuit`` applies one gate at a time, and so is the gate-by-gate
reference for every closed form (``preprocess.Stage``): a single-target
diagonal gate, such as the QFT's controlled phases and Pauli Z, scales each
half of its view in place and skips a half whose entry is 1; any other gate
is one transpose, product and assignment.

A state is a 1-D complex array of its ``2**n`` amplitudes. Each function
returns a new array and leaves its argument alone. Circuits are mutable
builders, but simulation never modifies them. RNG state is always a per-call
seed.
"""
from __future__ import annotations

import functools
import math
import numbers
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


def check_count(name: str, value, least: int) -> None:
    """Reject ``value`` for the field ``name`` unless it is an int of at least ``least``.

    Python and numpy ints pass; bools, floats and None do not, whatever their value.
    """
    if type(value) is int and value >= least:  # the common case, decided first
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound} and an int, not {value!r}")


def check_real(name: str, value) -> None:
    """Reject ``value`` for the field ``name`` unless it is a real number.

    Python and numpy reals pass, whatever their value; bools, strings and None do not.
    """
    if type(value) is float:  # the common case, decided first
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")


def check_positive(name: str, value) -> None:
    """Reject ``value`` for the field ``name`` unless it is a finite positive real.

    ``check_real`` first; the comparison is false for NaN, so NaN fails too.
    """
    check_real(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, not {value}")


@functools.lru_cache(maxsize=8)
def _identity(dim: int) -> np.ndarray:
    """The read-only ``dim`` x ``dim`` identity that unitarity checks compare to."""
    identity = np.eye(dim)
    identity.setflags(write=False)
    return identity


def _check_unitary(matrices: np.ndarray) -> None:
    """Raise ``InvalidGateError`` unless ``matrices``, one square matrix or a
    stack of them, are finite and unitary within ``UNITARY_ATOL``."""
    if not np.isfinite(matrices).all():
        raise InvalidGateError("matrix entries must be finite")
    products = matrices.conj().swapaxes(-1, -2) @ matrices
    if products.size and abs(products - _identity(matrices.shape[-1])).max() > UNITARY_ATOL:
        raise InvalidGateError("matrix is not unitary within 1e-10")


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
            try:
                check_real("ry angle", self.angle)
            except ValueError as exc:
                raise InvalidGateError(str(exc)) from None
            if not math.isfinite(self.angle):
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
            _check_unitary(m)
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
            return self._like(angle=-self.angle)
        if self.kind is GateKind.UNITARY:
            # the adjoint of a validated unitary is unitary: skip re-validation
            adjoint = self.matrix.conj().T
            adjoint.setflags(write=False)
            return self._like(matrix=adjoint)
        return self

    def _like(self, **changes) -> "Gate":
        """This gate with ``changes`` to its fields, without ``__post_init__``.

        The caller checks every value it changes and gives it in canonical
        form, with ``_qubits``, the tuple ``qubits`` returns, when the
        control qubits change; public ``Gate(...)`` keeps every check.
        """
        gate = object.__new__(Gate)
        gate.__dict__.update(self.__dict__, **changes)
        return gate


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

    def unitary(self, matrix, targets: Sequence[int], controls=()) -> "Circuit":
        return self.add(
            Gate(GateKind.UNITARY, tuple(targets), tuple(controls), matrix=matrix)
        )

    def __len__(self) -> int:
        return len(self.gates)


def controlled_unitaries(matrices, targets: Sequence[int], controls: Sequence[int]) -> list[Gate]:
    """One ``UNITARY`` gate per matrix of the stack ``matrices``: gate r applies
    ``matrices[r]`` to ``targets`` when ``controls[r]`` is |1>.

    The first gate is a checked ``Gate``. The rest of the stack is checked
    once, finite and unitary within ``UNITARY_ATOL``, and each other control
    against the first gate's targets; those gates are then built from the
    first by ``Gate._like``, over read-only views of one copy of the stack.
    """
    stack = np.array(matrices, dtype=complex)
    controls = tuple(int(q) for q in controls)
    if len(stack) != len(controls):
        raise ValueError(f"{len(stack)} matrices for {len(controls)} controls")
    if not controls:
        return []
    first = Gate(GateKind.UNITARY, tuple(targets), ((controls[0], 1),), matrix=stack[0])
    _check_unitary(stack[1:])
    if any(q < 0 or q in first.targets for q in controls[1:]):
        raise InvalidGateError("controls must be non-negative and disjoint from the targets")
    stack.setflags(write=False)
    return [first] + [
        first._like(controls=((control, 1),), matrix=matrix, _qubits=first.targets + (control,))
        for control, matrix in zip(controls[1:], stack[1:])
    ]


def inverted_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Gate-reversed adjoint of a gate list."""
    return [g.dagger() for g in reversed(gates)]


@functools.lru_cache(maxsize=512)
def _gate_plan(
    n: int, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...]
) -> tuple[tuple, tuple, tuple, tuple]:
    """View plan of one qubit structure on ``n`` qubits.

    Returns ``(shape, index, order, halves)``. ``shape`` splits the amplitude
    axis only at the structure's qubits: one axis of 2 per qubit, and one axis for
    each run of untouched qubits above, between and below them, most
    significant first.
    ``index`` fixes each control axis at its polarity, which is basic
    indexing and so leaves a view; ``order`` then brings ``targets[-1]``
    first, so that ``targets[0]`` is the block-index LSB, and keeps every
    other axis in place. For a single target,
    ``halves`` holds the two indices that also fix the target at 0 and 1;
    otherwise it is empty.
    """
    polarity = dict(controls)
    qubits = sorted(targets + tuple(polarity), reverse=True)
    shape: list[int] = []
    index: list = []
    top = n
    for q in qubits:
        shape += [1 << (top - 1 - q), 2]
        index += [slice(None), polarity.get(q, slice(None))]
        top = q
    shape.append(1 << top)
    index.append(slice(None))
    # qubit q sits at index slot 2 * qubits.index(q) + 1; each control above a
    # target was indexed away and shifts that target's view axis down
    slots = [2 * qubits.index(t) + 1 for t in targets]
    front = [slot - sum(q > t for q in polarity) for slot, t in zip(slots[::-1], targets[::-1])]
    order = front + [ax for ax in range(len(index) - len(polarity)) if ax not in front]
    halves = ()
    if len(targets) == 1:
        (slot,) = slots
        halves = tuple(tuple(index[:slot]) + (bit,) + tuple(index[slot + 1 :]) for bit in (0, 1))
    return tuple(shape), tuple(index), tuple(order), halves


def _apply_gate(vec: np.ndarray, gate: Gate) -> None:
    """Apply one gate in place to the amplitude vector ``vec``."""
    n = vec.shape[0].bit_length() - 1
    shape, index, order, halves = _gate_plan(n, gate.targets, gate.controls)
    tensor = vec.reshape(shape)
    matrix = gate.resolved_matrix()
    if halves and matrix[0, 1] == 0 and matrix[1, 0] == 0:
        # a diagonal 2x2 scales each half where it lies; an entry of 1 leaves it alone
        for half, entry in zip(halves, matrix.diagonal()):
            if entry != 1:
                view = tensor[half]
                view *= entry
        return
    block = tensor[index].transpose(order)
    span = matrix.shape[0]
    block[...] = (matrix @ block.reshape(span, -1)).reshape(block.shape)


def _width(values: np.ndarray) -> int:
    """The qubit count of ``values``, one entry per basis state; ``ValueError``
    unless they are a 1-D array whose length is a power of two."""
    if values.ndim != 1 or not values.size or values.size & (values.size - 1):
        raise ValueError(f"expected a 1-D array of 2**n entries, got shape {values.shape}")
    return values.size.bit_length() - 1


def apply_circuit(amplitudes: np.ndarray, circuit: Circuit) -> np.ndarray:
    """The circuit's gates applied in order to a copy of ``amplitudes``: the
    exact output amplitudes."""
    vec, n = np.array(amplitudes, dtype=complex), circuit.num_qubits
    if vec.shape != (1 << n,):
        raise InvalidCircuitError(f"a {n}-qubit circuit cannot act on shape {vec.shape}")
    for gate in circuit.gates:
        _apply_gate(vec, gate)
    return vec


def postselect(amplitudes: np.ndarray, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project one qubit onto ``outcome`` and renormalize.

    Returns the conditional amplitudes (full dimension, qubit collapsed) and
    the probability of the outcome.
    """
    n = _width(amplitudes)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    shape, _, _, halves = _gate_plan(n, (qubit,), ())
    kept = amplitudes.reshape(shape)[halves[outcome]]
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < 1e-15:
        raise ZeroProbabilityError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    new = np.zeros(shape, dtype=complex)
    new[halves[outcome]] = kept / math.sqrt(prob)
    return new.reshape(-1), prob


def register_matrix(values: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Per-basis-state values reshaped to (register outcomes, everything else).

    ``values`` holds one entry per basis state, such as amplitudes or
    probabilities. ``qubits[i]`` is bit ``i`` of the row index; the other
    qubits index the columns in ascending order, the highest varying slowest.
    """
    n = _width(values)
    qubits = tuple(int(q) for q in qubits)
    if not qubits:
        raise ValueError("at least one qubit is required")
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be unique")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    shape, _, order, _ = _gate_plan(n, qubits, ())
    return values.reshape(shape).transpose(order).reshape(2 ** len(qubits), -1)


def marginal_probabilities(amplitudes: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for a subset of qubits, indexed as in ``register_matrix``."""
    return register_matrix(np.abs(amplitudes) ** 2, qubits).sum(axis=1)


def sample(probabilities, shots: int, seed: int | None = None) -> np.ndarray:
    """Seeded shot counts per outcome, indexed like ``probabilities``.

    The probabilities are snapped to 12 decimals and renormalised before the
    draw, so outcomes that tie in exact arithmetic draw the same counts at
    one seed whichever last bits the arithmetic left them.
    """
    check_count("shots", shots, 1)
    probs = np.asarray(probabilities, dtype=float).reshape(-1)
    if probs.size == 0:
        raise ValueError("no outcome probabilities to sample")
    if not np.isfinite(probs).all():
        raise ValueError("outcome probabilities must be finite")
    if (probs < 0).any():
        raise ValueError("outcome probabilities must be non-negative")
    probs = np.round(probs, 12)
    total = probs.sum()
    if total == 0:
        raise ValueError("outcome probabilities sum to zero")
    return np.random.default_rng(seed).multinomial(shots, probs / total)


def state_preparation_matrix(vector) -> np.ndarray:
    """A unitary whose first column is the given vector, normalised.

    Used to prepare an arbitrary register state from |0...0>. With v the
    unit vector and phi = v_0 / |v_0| (1 when v_0 = 0), the Householder
    reflection I - 2 w w^dagger / |w|^2 on w = e_0 - conj(phi) v swaps e_0
    and conj(phi) v, so U = phi (I - 2 w w^dagger / |w|^2) has first column
    v; U = phi I when v = phi e_0. A NaN or infinite entry raises
    ``ValueError``.
    """
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    dim = vec.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise ValueError("vector length must be a power of two")
    if not np.isfinite(vec).all():
        raise ValueError("vector must be finite")
    norm = math.sqrt(np.vdot(vec, vec).real)
    if norm < 1e-12:
        raise ValueError("cannot prepare the zero vector")
    vec = vec / norm
    head = abs(vec[0])
    phase = vec[0] / head if head else 1.0
    rest = np.vdot(vec[1:], vec[1:]).real  # 1 - |v_0|^2
    identity = np.eye(dim, dtype=complex)
    if rest < 1e-32:  # |w| below 1e-16: v is phi e_0 to roundoff
        return phase * identity
    w = -np.conj(phase) * vec
    w[0] = rest / (1.0 + head)  # 1 - |v_0|, free of its cancellation near |v_0| = 1
    w /= math.sqrt(np.vdot(w, w).real)
    return phase * (identity - 2.0 * np.outer(w, w.conj()))


@dataclass(frozen=True)
class NoiseSpec:
    """Pauli noise: a Pauli after each gate with probability p (``inject_noise``);
    one trajectory per seed."""

    per_gate_pauli_probability: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_real("per_gate_pauli_probability", self.per_gate_pauli_probability)
        p = float(self.per_gate_pauli_probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], not {p}")
        check_count("rng_seed", self.rng_seed, 0)
        object.__setattr__(self, "per_gate_pauli_probability", p)


_PAULI_KINDS = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)


def inject_noise(circuit: Circuit, spec: NoiseSpec) -> dict[int, Gate]:
    """The Paulis of one noise trajectory, as ``{i: the Pauli after gate i}``.

    With probability p = ``spec.per_gate_pauli_probability``, X, Y or Z on
    one of gate i's qubits, both chosen uniformly, follows gate i.
    One seeded stream draws every choice in gate order, so a seed fixes the
    trajectory: a uniform per gate, and after a hit the qubit and the kind.
    The uniforms up to the next hit are drawn as one block; at a hit the
    stream is reset to the block's start and drawn again up to the hit, so
    every draw is the one a per-gate loop makes.
    """
    rng = np.random.default_rng(spec.rng_seed)
    p, gates = spec.per_gate_pauli_probability, circuit.gates
    follows, start = {}, 0
    while start < len(gates):
        state = rng.bit_generator.state
        hits = (rng.random(len(gates) - start) < p).nonzero()[0]
        if not hits.size:
            break
        rng.bit_generator.state = state
        i = start + int(hits[0])
        rng.random(i + 1 - start)
        qubits = gates[i].qubits()
        qubit = int(qubits[int(rng.integers(len(qubits)))])
        follows[i] = Gate(_PAULI_KINDS[int(rng.integers(3))], (qubit,))
        start = i + 1
    return follows


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
