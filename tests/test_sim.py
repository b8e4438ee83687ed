"""Statevector simulator tests: gates, measurement, noise, reports."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlslab import sim
from qlslab.errors import InvalidCircuitError, InvalidGateError, ZeroProbabilityError
from qlslab.sim import (
    Circuit,
    Gate,
    GateKind,
    NoiseSpec,
    StateVector,
    apply_circuit,
    gate_report,
    inject_noise,
    inverted_gates,
    marginal_probabilities,
    postselect,
    register_matrix,
    sample,
    state_preparation_matrix,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """The unitary of a small ``circuit``, simulated gate by gate.

    ``apply_circuit`` runs the circuit on the low half of a state twice its
    width, which pairs each basis state i of the circuit's qubits with a copy
    of i on the high half, so that copy i ends up holding column i.
    """
    n, dim = circuit.num_qubits, 2**circuit.num_qubits
    pairs = StateVector(2 * n, np.eye(dim, dtype=complex).reshape(-1), validate=False)
    wide = Circuit(2 * n).extend(circuit.gates)
    return apply_circuit(pairs, wide).amplitudes.reshape(dim, dim).T


def noisy_circuit(circuit: Circuit, follows: dict) -> Circuit:
    """``circuit`` with each Pauli of ``follows``, an ``inject_noise`` result,
    spliced in after its gate: the noisy circuit to simulate gate by gate."""
    noisy = Circuit(circuit.num_qubits)
    for i, gate in enumerate(circuit.gates):
        noisy.add(gate)
        if i in follows:
            noisy.add(follows[i])
    return noisy


def _ry(qubit, angle, controls=()):
    return Gate(GateKind.RY, (qubit,), controls, angle=angle)


def _x(qubit, controls=()):
    return Gate(GateKind.PAULI_X, (qubit,), controls)


def _h(qubit):
    return Gate(GateKind.HADAMARD, (qubit,))


def _swap(a, b):
    return Gate(GateKind.SWAP, (a, b))


def test_hadamard_on_zero():
    state = apply_circuit(StateVector.zero(1), Circuit(1).add(_h(0)))
    assert np.allclose(state.amplitudes, [SQRT1_2, SQRT1_2])


def test_swap_moves_bit():
    """|10> -> |01> (qubit 0 is the least significant bit)."""
    start = StateVector(2, [0, 0, 1, 0])
    state = apply_circuit(start, Circuit(2).add(_swap(0, 1)))
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_controlled_ry_pi():
    """RY(pi)|0> = |1> when the control qubit is set."""
    start = StateVector(2, [0, 0, 1, 0])  # qubit1 = 1, qubit0 = 0
    state = apply_circuit(start, Circuit(2).add(_ry(0, math.pi, controls=((1, 1),))))
    assert np.allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)


def test_controlled_ry_blocked():
    state = apply_circuit(StateVector.zero(2), Circuit(2).add(_ry(0, math.pi, controls=((1, 1),))))
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_open_control_fires_on_zero():
    state = apply_circuit(StateVector.zero(2), Circuit(2).add(_x(0, controls=((1, 0),))))
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_postselect_bell():
    bell = apply_circuit(StateVector.zero(2), Circuit(2).add(_h(0)).add(_x(1, controls=((0, 1),))))
    conditional, prob = postselect(bell, 0, 1)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(conditional.amplitudes, [0, 0, 0, 1])


def test_postselect_identity_case():
    state, prob = postselect(StateVector.zero(1), 0, 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.amplitudes, [1, 0])


def test_postselect_born_rule():
    c = 0.3
    state = StateVector(1, [math.sqrt(1 - c * c), c])
    conditional, prob = postselect(state, 0, 1)
    assert prob == pytest.approx(0.09, abs=1e-12)
    assert np.allclose(conditional.amplitudes, [0, 1])


def test_postselect_zero_probability():
    with pytest.raises(ZeroProbabilityError):
        postselect(StateVector.zero(1), 0, 1)


def test_postselect_outcomes_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        total = sum(postselect(state, 1, outcome)[1] for outcome in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic_state():
    counts = sample([0.0, 1.0], 100, seed=0)
    assert counts.tolist() == [0, 100]


def test_sample_binomial_band():
    counts = sample([0.5, 0.5], 4096, seed=3)
    assert abs(counts[0] - 2048) <= 3 * 32


def test_sample_seed_determinism():
    state = apply_circuit(StateVector.zero(3), Circuit(3).add(_h(0)).add(_h(1)).add(_h(2)))
    probabilities = marginal_probabilities(state, [0, 1, 2])
    first = sample(probabilities, 500, seed=9)
    assert np.array_equal(first, sample(probabilities, 500, seed=9))


def test_sample_matches_born_probabilities():
    """Frequencies track |amplitude|^2 within 4 sigma at 1e4 shots."""
    rng = np.random.default_rng(11)
    for trial in range(5):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        probs = np.abs(amps / np.linalg.norm(amps)) ** 2
        shots = 10_000
        counts = sample(probs, shots, seed=100 + trial)
        assert counts.shape == (8,) and counts.sum() == shots
        for observed, p in zip(counts, probs):
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(observed - shots * p) <= 4 * sigma + 1


def test_sample_index_order():
    """Counts are indexed like the probabilities: qubits[i] of a marginal is bit i."""
    state = StateVector(2, [0, 1, 0, 0])  # qubit0 = 1, qubit1 = 0
    assert sample(marginal_probabilities(state, [0, 1]), 10, seed=1).tolist() == [0, 10, 0, 0]
    assert sample(marginal_probabilities(state, [1, 0]), 10, seed=1).tolist() == [0, 0, 10, 0]


def test_sample_requires_qubits_and_shots():
    """A float or bool count of shots is rejected, not truncated or read as 0 or 1."""
    with pytest.raises(ValueError, match="no outcome"):
        sample([], 10)
    for shots in (0, 2.5, True, None):
        with pytest.raises(ValueError, match="shots must be at least 1 and an int"):
            sample([0.5, 0.5], shots, 0)


@pytest.mark.parametrize(
    "probabilities, message",
    [
        ([0.5, math.nan], "finite"),
        ([0.5, math.inf], "finite"),
        ([1.0, -1e-3], "non-negative"),
        ([0.0, 0.0], "sum to zero"),
        ([4e-13, 0.0], "sum to zero"),  # zero once snapped to 12 decimals
    ],
    ids=["nan", "inf", "negative", "zero", "zero-after-snap"],
)
def test_sample_rejects_invalid_probabilities(probabilities, message):
    with pytest.raises(ValueError, match=message):
        sample(probabilities, 10, seed=0)


def test_sample_ties_survive_roundoff():
    """An exact tie and the tie off by one ulp draw the same counts at one seed."""
    tie = np.array([0.5, 0.25, 0.25])
    ulp = np.spacing(0.25)
    perturbed = np.array([0.5, 0.25 + ulp, 0.25 - ulp])
    for seed in range(5):
        assert np.array_equal(sample(tie, 1000, seed), sample(perturbed, 1000, seed))


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(21)
    for trial in range(10):
        circuit = _random_circuit(rng, num_qubits=4, depth=20)
        state = apply_circuit(StateVector.zero(4), circuit)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(33)
    for trial in range(8):
        circuit = _random_circuit(rng, num_qubits=3, depth=15)
        state = apply_circuit(StateVector.zero(3), circuit)
        inverse = Circuit(3).extend(inverted_gates(circuit.gates))
        back = apply_circuit(state, inverse)
        assert np.max(np.abs(back.amplitudes - StateVector.zero(3).amplitudes)) < 1e-10


def _random_circuit(rng, num_qubits, depth):
    circuit = Circuit(num_qubits)
    for _ in range(depth):
        kind = rng.integers(5)
        qubits = rng.permutation(num_qubits)
        if kind == 0:
            circuit.add(_h(int(qubits[0])))
        elif kind == 1:
            circuit.add(_ry(int(qubits[0]), float(rng.uniform(-3, 3))))
        elif kind == 2:
            circuit.add(_swap(int(qubits[0]), int(qubits[1])))
        elif kind == 3:
            circuit.add(_x(int(qubits[0]), controls=((int(qubits[1]), int(rng.integers(2))),)))
        else:
            block = _random_unitary(rng, 2)
            circuit.unitary(block, [int(qubits[0])], controls=((int(qubits[1]), 1),))
    return circuit


def _random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reference_matrix(gate, num_qubits):
    """Full matrix of one gate, built column by column from basis indices."""
    block = gate.resolved_matrix()
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if any((col >> q) & 1 != pol for q, pol in gate.controls):
            full[col, col] = 1.0
            continue
        j = sum(((col >> t) & 1) << p for p, t in enumerate(gate.targets))
        for i in range(block.shape[0]):
            row = col
            for p, t in enumerate(gate.targets):
                row = (row & ~(1 << t)) | (((i >> p) & 1) << t)
            full[row, col] = block[i, j]
    return full


@st.composite
def _gate_on_register(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    if kind is GateKind.SWAP:
        arity = 2
    elif kind is GateKind.UNITARY:
        arity = draw(st.integers(1, 3))
    else:
        arity = 1
    n = draw(st.integers(arity, 8))
    qubits = draw(st.permutations(range(n)))
    num_controls = draw(st.integers(0, min(3, n - arity)))
    controls = tuple(
        (q, draw(st.integers(0, 1))) for q in qubits[arity : arity + num_controls]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = draw(st.floats(-7.0, 7.0)) if kind is GateKind.RY else None
    if kind is not GateKind.UNITARY:
        matrix = None
    elif draw(st.booleans()):
        # diagonal: random phases, at times one entry exactly 1 like the QFT's controlled phases
        phases = rng.uniform(-math.pi, math.pi, 2**arity)
        if draw(st.booleans()):
            phases[draw(st.integers(0, 2**arity - 1))] = 0.0
        matrix = np.diag(np.exp(1j * phases))
    else:
        matrix = _random_unitary(rng, 2**arity)
    gate = Gate(kind, tuple(qubits[:arity]), controls, angle=angle, matrix=matrix)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return n, gate, StateVector(n, amps / np.linalg.norm(amps))


@settings(derandomize=True, deadline=None)
@given(_gate_on_register())
def test_gate_application_matches_basis_loop_reference(case):
    n, gate, state = case
    reference = _reference_matrix(gate, n)
    circuit = Circuit(n).add(gate)
    assert np.max(np.abs(circuit_matrix(circuit) - reference)) < 1e-12
    out = apply_circuit(state, circuit)
    assert np.max(np.abs(out.amplitudes - reference @ state.amplitudes)) < 1e-12


def test_gate_plan_follows_width():
    """One gate structure at two widths, on a state and, through ``circuit_matrix``,
    on a state of twice the width, against the reference."""
    rng = np.random.default_rng(11)
    gates = [
        Gate(GateKind.UNITARY, (1,), ((0, 1), (2, 0)), matrix=np.diag([1.0, np.exp(0.3j)])),
        Gate(GateKind.UNITARY, (2, 0), ((1, 1),), matrix=_random_unitary(rng, 4)),
    ]
    for gate in gates:
        for n in (3, 5, 3):
            reference = _reference_matrix(gate, n)
            circuit = Circuit(n).add(gate)
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            out = apply_circuit(state, circuit)
            assert np.max(np.abs(out.amplitudes - reference @ state.amplitudes)) < 1e-12
            assert np.max(np.abs(circuit_matrix(circuit) - reference)) < 1e-12


def test_unitary_dagger_is_trusted_adjoint():
    matrix = _random_unitary(np.random.default_rng(5), 4)
    gate = Gate(GateKind.UNITARY, (2, 0), ((1, 0),), matrix=matrix)
    adjoint = gate.dagger()
    assert adjoint.kind is GateKind.UNITARY
    assert (adjoint.targets, adjoint.controls) == ((2, 0), ((1, 0),))
    assert np.array_equal(adjoint.matrix, matrix.conj().T)
    assert not adjoint.matrix.flags.writeable
    with pytest.raises(ValueError):
        adjoint.matrix[0, 0] = 0.0
    assert np.array_equal(adjoint.dagger().matrix, gate.matrix)
    with pytest.raises(InvalidGateError):
        Gate(GateKind.UNITARY, (0, 1), matrix=2.0 * matrix)


def test_circuit_matrix_identity():
    circuit = Circuit(2).add(_h(0)).add(_h(0))
    assert np.allclose(circuit_matrix(circuit), np.eye(4), atol=1e-12)


def test_state_preparation_matrix():
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    mat = state_preparation_matrix(vec)
    assert np.allclose(mat @ np.eye(4)[:, 0], vec, atol=1e-12)
    assert np.allclose(mat.conj().T @ mat, np.eye(4), atol=1e-12)


def test_gate_validation():
    with pytest.raises(InvalidGateError):
        Gate(GateKind.SWAP, (1, 1))
    with pytest.raises(InvalidGateError):
        Gate(GateKind.PAULI_X, (0,), controls=((0, 1),))
    with pytest.raises(InvalidGateError):
        Gate(GateKind.RY, (0,), angle=float("inf"))
    with pytest.raises(InvalidGateError):
        Gate(GateKind.UNITARY, (0,), matrix=np.array([[1, 1], [0, 1]]))
    with pytest.raises(InvalidGateError):
        Gate(GateKind.PAULI_X, (0,), controls=((1, 2),))


def test_unitary_check_compares_to_a_shared_read_only_identity():
    swap = np.eye(4)[[0, 2, 1, 3]]
    for _ in range(2):  # the second check reads the cached identity
        assert Gate(GateKind.UNITARY, (0, 1), matrix=swap).matrix.shape == (4, 4)
        with pytest.raises(InvalidGateError, match="not unitary"):
            Gate(GateKind.UNITARY, (0, 1), matrix=1.001 * swap)
    assert not sim._identity(4).flags.writeable


@pytest.mark.parametrize(
    "matrix",
    [[[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[1, 0], [0, -np.inf]], [[1, np.nan], [0, 1]]],
)
def test_unitary_gate_rejects_non_finite_matrix(matrix):
    with pytest.raises(InvalidGateError, match="finite"):
        Gate(GateKind.UNITARY, (0,), matrix=matrix)


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(InvalidCircuitError):
        Circuit(1).add(_h(1))


def test_apply_circuit_dimension_mismatch():
    with pytest.raises(InvalidCircuitError):
        apply_circuit(StateVector.zero(1), Circuit(2).add(_h(0)))


def test_statevector_immutable_and_validated():
    state = StateVector.zero(2)
    with pytest.raises(AttributeError):
        state.num_qubits = 3
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # not unit norm


def test_unvalidated_statevector_takes_the_array_it_is_handed():
    amplitudes = np.array([0.0, 1.0], dtype=complex)
    state = StateVector(1, amplitudes, validate=False)
    assert np.shares_memory(state.amplitudes, amplitudes)
    assert not amplitudes.flags.writeable


def test_validated_statevector_leaves_its_argument_alone():
    amplitudes = np.array([0.0, 1.0], dtype=complex)
    state = StateVector(1, amplitudes)
    assert not np.shares_memory(state.amplitudes, amplitudes)
    assert amplitudes.flags.writeable
    assert not state.amplitudes.flags.writeable


@pytest.mark.parametrize(
    "amplitudes",
    [[math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0], [complex(0.0, -math.inf), 0.0]],
)
def test_statevector_rejects_non_finite(amplitudes):
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, amplitudes)


def test_inject_noise_probability_zero():
    circuit = Circuit(2).add(_h(0)).add(_x(1))
    assert inject_noise(circuit, NoiseSpec(0.0, rng_seed=4)) == {}


def test_inject_noise_forced():
    circuit = Circuit(2).add(_h(0))
    follows = inject_noise(circuit, NoiseSpec(1.0, rng_seed=4))
    assert list(follows) == [0]
    assert follows[0].kind in (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)
    assert follows[0].targets == (0,)


def test_inject_noise_deterministic():
    circuit = Circuit(3).add(_h(0)).add(_swap(1, 2)).add(_ry(0, 0.3))
    spec = NoiseSpec(0.5, rng_seed=77)
    first = inject_noise(circuit, spec)
    second = inject_noise(circuit, spec)
    assert {i: (g.kind, g.targets) for i, g in first.items()} == {
        i: (g.kind, g.targets) for i, g in second.items()
    }


def _per_gate_noise(circuit, spec):
    """The ``inject_noise`` loop that block draws replaced: one uniform per
    gate, then the qubit and the kind after each hit."""
    rng = np.random.default_rng(spec.rng_seed)
    follows = {}
    for i, gate in enumerate(circuit.gates):
        if rng.random() < spec.per_gate_pauli_probability:
            qubits = gate.qubits()
            qubit = int(qubits[int(rng.integers(len(qubits)))])
            kind = (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)[int(rng.integers(3))]
            follows[i] = Gate(kind, (qubit,))
    return follows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.integers(0, 250),
    st.sampled_from([0.0, 0.01, 0.2, 1.0]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_block_noise_draws_match_the_per_gate_loop(gates, p, circuit_seed, seed):
    """Over circuits of 0 to 250 gates, the block draws place the Paulis of
    the per-gate loop: same kinds on the same qubits, after the same gates."""
    circuit = _random_circuit(np.random.default_rng(circuit_seed), num_qubits=4, depth=gates)
    spec = NoiseSpec(p, seed)
    follows, reference = inject_noise(circuit, spec), _per_gate_noise(circuit, spec)
    assert list(follows) == list(reference)
    assert [(g.kind, g.qubits()) for g in follows.values()] == [
        (g.kind, g.qubits()) for g in reference.values()
    ]


@settings(derandomize=True, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 60),
    st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_inject_noise_places_one_pauli_on_a_qubit_of_its_gate(width, depth, p, circuit_seed, seed):
    """Every key indexes a gate of the circuit, and its Pauli is one X, Y or
    Z on one of that gate's qubits; at p = 1 every gate carries one."""
    circuit = _random_circuit(np.random.default_rng(circuit_seed), num_qubits=width, depth=depth)
    follows = inject_noise(circuit, NoiseSpec(p, seed))
    assert all(0 <= i < len(circuit) for i in follows)
    for i, pauli in follows.items():
        assert pauli.kind in (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)
        assert len(pauli.targets) == 1 and not pauli.controls
        assert pauli.targets[0] in circuit.gates[i].qubits()
    if p == 1.0:
        assert sorted(follows) == list(range(len(circuit)))


def test_noise_spec_validation():
    """A float seed would fail only when ``inject_noise`` seeds its stream,
    and a bool would run as seed 0 or 1."""
    with pytest.raises(ValueError):
        NoiseSpec(1.5)
    for p in (True, "0.1"):  # would run as p = 1.0 and p = 0.1
        with pytest.raises(ValueError, match="per_gate_pauli_probability must be a real number"):
            NoiseSpec(p, 0)
    for seed in (-1, 1.5, True, None):
        with pytest.raises(ValueError, match="rng_seed must be non-negative and an int"):
            NoiseSpec(0.1, seed)


@pytest.mark.parametrize("value", [0.5, 0, -3, np.float64(2.5), np.int64(7), math.inf, math.nan])
def test_check_real_accepts_python_and_numpy_reals(value):
    sim.check_real("x", value)  # whatever the value: range checks are the caller's


@pytest.mark.parametrize("value", [True, np.bool_(False), "2", None, 1j, [1.0]])
def test_check_real_rejects_anything_else(value):
    with pytest.raises(ValueError, match=re.escape(f"x must be a real number, not {value!r}")):
        sim.check_real("x", value)


def test_gate_report_empty():
    report = gate_report(Circuit(2))
    assert (report.gate_count, report.two_qubit_count, report.depth) == (0, 0, 0)


def test_gate_report_parallel_layer():
    report = gate_report(Circuit(2).add(_h(0)).add(_h(1)))
    assert (report.gate_count, report.depth) == (2, 1)


def test_gate_report_serial_dependency():
    circuit = Circuit(2).add(_h(0)).add(_x(1, controls=((0, 1),)))
    report = gate_report(circuit)
    assert (report.gate_count, report.two_qubit_count, report.depth) == (2, 1, 2)


def test_marginal_probabilities_subset():
    bell = apply_circuit(StateVector.zero(2), Circuit(2).add(_h(0)).add(_x(1, controls=((0, 1),))))
    probs = marginal_probabilities(bell, [1])
    assert np.allclose(probs, [0.5, 0.5])


@st.composite
def _register_case(draw):
    """(state, ordered qubit subset, postselected qubit) on 1 to 8 qubits."""
    n = draw(st.integers(1, 8))
    qubits = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps)), qubits, draw(st.integers(0, n - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_register_case())
def test_register_views_match_index_arithmetic(case):
    """``register_matrix``, ``marginal_probabilities`` and ``postselect`` agree
    with references that read every basis index bit by bit: ``qubits[r]`` is
    bit r of the row, and the other qubits, in ascending order, are the bits
    of the column, so the most significant of them varies slowest."""
    state, qubits, qubit = case
    n = state.num_qubits
    rest = [q for q in range(n) if q not in qubits]
    expected = np.zeros((2 ** len(qubits), 2 ** len(rest)), dtype=complex)
    for i, amp in enumerate(state.amplitudes):
        row = sum(((i >> q) & 1) << r for r, q in enumerate(qubits))
        column = sum(((i >> q) & 1) << c for c, q in enumerate(rest))
        expected[row, column] = amp
    assert np.array_equal(register_matrix(state.amplitudes, qubits), expected)
    marginal = marginal_probabilities(state, qubits)
    assert np.allclose(marginal, (np.abs(expected) ** 2).sum(axis=1), rtol=0, atol=1e-14)
    for outcome in (0, 1):
        kept = np.array([(i >> qubit) & 1 == outcome for i in range(2**n)])
        prob = float(np.sum(np.abs(state.amplitudes[kept]) ** 2))
        conditional, reported = postselect(state, qubit, outcome)
        assert reported == pytest.approx(prob, rel=1e-13)
        reference = np.where(kept, state.amplitudes, 0) / math.sqrt(prob)
        assert np.allclose(conditional.amplitudes, reference, rtol=0, atol=1e-14)


def test_gate_validation_names_the_fault():
    cases = [
        ((GateKind.SWAP, (1, 1)), "targets must be non-empty and unique"),
        ((GateKind.HADAMARD, ()), "targets must be non-empty and unique"),
        ((GateKind.PAULI_X, (0,), ((1, 1), (1, 0))), "duplicate control"),
        ((GateKind.PAULI_X, (0,), ((2, 1), (0, 1))), "disjoint"),
        ((GateKind.PAULI_X, (0,), ((1, 2),)), "polarity"),
        ((GateKind.PAULI_X, (-1,)), "negative"),
        ((GateKind.PAULI_X, (0,), ((-2, 1),)), "negative"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidGateError, match=message):
            Gate(*args)


def test_gate_qubits_are_targets_then_controls():
    matrix = _random_unitary(np.random.default_rng(3), 4)
    gate = Gate(GateKind.UNITARY, (2, 0), ((3, 0), (1, 1)), matrix=matrix)
    assert gate.qubits() == (2, 0, 3, 1)
    assert gate.dagger().qubits() == (2, 0, 3, 1)
    assert Gate(GateKind.HADAMARD, (4,)).qubits() == (4,)


def test_controlled_unitaries_are_the_checked_gates():
    rng = np.random.default_rng(5)
    stack = np.array([_random_unitary(rng, 4) for _ in range(5)])
    controls = (6, 2, 9, 4, 3)
    built = sim.controlled_unitaries(stack, (1, 0), controls)
    assert len(built) == 5
    for gate, matrix, control in zip(built, stack, controls):
        want = Gate(GateKind.UNITARY, (1, 0), ((control, 1),), matrix=matrix)
        assert (gate.kind, gate.targets, gate.controls, gate.angle) == (
            want.kind, want.targets, want.controls, want.angle
        )
        assert gate.qubits() == want.qubits() == (1, 0, control)
        assert np.array_equal(gate.matrix, matrix) and not gate.matrix.flags.writeable
    stack[:] = 0.0  # the gates hold their own copy
    assert all(np.abs(gate.matrix).max() > 0 for gate in built)
    assert sim.controlled_unitaries(np.zeros((0, 2, 2)), (0,), ()) == []


@pytest.mark.parametrize(
    "position, controls, message",
    [
        (0, (1, 2, 3), "not unitary"),
        (2, (1, 2, 3), "not unitary"),
        (None, (0, 2, 3), "disjoint"),
        (None, (1, 0, 3), "disjoint"),
        (None, (1, 2, -1), "non-negative"),
    ],
)
def test_controlled_unitaries_check_every_matrix_and_control(position, controls, message):
    """The first gate is checked as ``Gate`` checks it, the rest of the stack
    and each other control once for all."""
    stack = np.array([np.eye(2), _random_unitary(np.random.default_rng(1), 2), np.eye(2)])
    bad = stack.copy()
    if position is not None:
        bad[position, 0, 0] = 1.01
    with pytest.raises(InvalidGateError, match=message):
        sim.controlled_unitaries(bad, (0,), controls)
    stack[1, 1, 0] = math.nan
    with pytest.raises(InvalidGateError, match="finite"):
        sim.controlled_unitaries(stack, (0,), (1, 2, 3))


def _per_rotation_ry(num_qubits, target, controls, rotations):
    """One checked RY gate per ``(pattern, angle)``, bit r of a pattern the
    polarity of ``controls[r]``: the reference for ``build_inversion_circuit``."""
    circuit = Circuit(num_qubits)
    for pattern, angle in rotations:
        polarities = tuple((q, (pattern >> r) & 1) for r, q in enumerate(controls))
        circuit.add(_ry(target, angle, polarities))
    return circuit
