"""Statevector simulator tests: gates, measurement, noise, reports."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlslab.errors import InvalidCircuitError, InvalidGateError, ZeroProbabilityError
from qlslab.sim import (
    Circuit,
    Gate,
    GateKind,
    NoiseSpec,
    StateVector,
    _apply_gate,
    _apply_gates,
    _ry_run_end,
    apply_circuit,
    circuit_matrix,
    gate_report,
    inject_noise,
    inverted_gates,
    marginal_probabilities,
    postselect,
    sample,
    state_preparation_matrix,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def _ry(qubit, angle, controls=()):
    return Gate(GateKind.RY, (qubit,), controls, angle=angle)


def _x(qubit, controls=()):
    return Gate(GateKind.PAULI_X, (qubit,), controls)


def test_hadamard_on_zero():
    state = apply_circuit(StateVector.zero(1), Circuit(1).h(0))
    assert np.allclose(state.amplitudes, [SQRT1_2, SQRT1_2])


def test_swap_moves_bit():
    """|10> -> |01> (qubit 0 is the least significant bit)."""
    start = StateVector(2, [0, 0, 1, 0])
    state = apply_circuit(start, Circuit(2).swap(0, 1))
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
    bell = apply_circuit(StateVector.zero(2), Circuit(2).h(0).add(_x(1, controls=((0, 1),))))
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
    counts = sample(StateVector(1, [0, 1]), [0], 100, seed=0)
    assert counts.tolist() == [0, 100]


def test_sample_binomial_band():
    state = StateVector(1, [SQRT1_2, SQRT1_2])
    counts = sample(state, [0], 4096, seed=3)
    assert abs(counts[0] - 2048) <= 3 * 32


def test_sample_seed_determinism():
    state = apply_circuit(StateVector.zero(3), Circuit(3).h(0).h(1).h(2))
    first = sample(state, [0, 1, 2], 500, seed=9)
    assert np.array_equal(first, sample(state, [0, 1, 2], 500, seed=9))


def test_sample_matches_born_probabilities():
    """Frequencies track |amplitude|^2 within 4 sigma at 1e4 shots."""
    rng = np.random.default_rng(11)
    for trial in range(5):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        shots = 10_000
        counts = sample(state, [0, 1, 2], shots, seed=100 + trial)
        probs = np.abs(state.amplitudes) ** 2
        assert counts.shape == (8,) and counts.sum() == shots
        for observed, p in zip(counts, probs):
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(observed - shots * p) <= 4 * sigma + 1


def test_sample_index_order():
    """qubits[i] carries bit i of the outcome index, as in marginal_probabilities."""
    state = StateVector(2, [0, 1, 0, 0])  # qubit0 = 1, qubit1 = 0
    assert sample(state, [0, 1], 10, seed=1).tolist() == [0, 10, 0, 0]
    assert sample(state, [1, 0], 10, seed=1).tolist() == [0, 0, 10, 0]


def test_sample_requires_qubits_and_shots():
    state = StateVector.zero(1)
    with pytest.raises(ValueError):
        sample(state, [], 10)
    with pytest.raises(ValueError):
        sample(state, [0], 0)


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(21)
    for trial in range(10):
        circuit = _random_circuit(rng, num_qubits=4, depth=20)
        state = apply_circuit(StateVector.zero(4), circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


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
            circuit.h(int(qubits[0]))
        elif kind == 1:
            circuit.add(_ry(int(qubits[0]), float(rng.uniform(-3, 3))))
        elif kind == 2:
            circuit.swap(int(qubits[0]), int(qubits[1]))
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
    n = draw(st.integers(arity, 6))
    qubits = draw(st.permutations(range(n)))
    num_controls = draw(st.integers(0, min(3, n - arity)))
    controls = tuple(
        (q, draw(st.integers(0, 1))) for q in qubits[arity : arity + num_controls]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = draw(st.floats(-7.0, 7.0)) if kind is GateKind.RY else None
    matrix = _random_unitary(rng, 2**arity) if kind is GateKind.UNITARY else None
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
    circuit = Circuit(2).h(0).h(0)
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


@pytest.mark.parametrize(
    "matrix",
    [[[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[1, 0], [0, -np.inf]], [[1, np.nan], [0, 1]]],
)
def test_unitary_gate_rejects_non_finite_matrix(matrix):
    with pytest.raises(InvalidGateError, match="finite"):
        Gate(GateKind.UNITARY, (0,), matrix=matrix)


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(InvalidCircuitError):
        Circuit(1).h(1)


def test_apply_circuit_dimension_mismatch():
    with pytest.raises(InvalidCircuitError):
        apply_circuit(StateVector.zero(1), Circuit(2).h(0))


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
    circuit = Circuit(2).h(0).add(_x(1))
    noisy = inject_noise(circuit, NoiseSpec(0.0, rng_seed=4))
    assert len(noisy) == len(circuit)


def test_inject_noise_forced():
    circuit = Circuit(2).h(0)
    noisy = inject_noise(circuit, NoiseSpec(1.0, rng_seed=4))
    assert len(noisy) == 2
    assert noisy.gates[1].kind in (GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z)


def test_inject_noise_deterministic():
    circuit = Circuit(3).h(0).swap(1, 2).add(_ry(0, 0.3))
    spec = NoiseSpec(0.5, rng_seed=77)
    first = inject_noise(circuit, spec)
    second = inject_noise(circuit, spec)
    assert [(g.kind, g.targets) for g in first.gates] == [
        (g.kind, g.targets) for g in second.gates
    ]


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(1.5)
    with pytest.raises(ValueError, match="rng_seed"):
        NoiseSpec(0.01, rng_seed=-1)


def test_gate_report_empty():
    report = gate_report(Circuit(2))
    assert (report.gate_count, report.two_qubit_count, report.depth) == (0, 0, 0)


def test_gate_report_parallel_layer():
    report = gate_report(Circuit(2).h(0).h(1))
    assert (report.gate_count, report.depth) == (2, 1)


def test_gate_report_serial_dependency():
    circuit = Circuit(2).h(0).add(_x(1, controls=((0, 1),)))
    report = gate_report(circuit)
    assert (report.gate_count, report.two_qubit_count, report.depth) == (2, 1, 2)


def test_marginal_probabilities_subset():
    bell = apply_circuit(StateVector.zero(2), Circuit(2).h(0).add(_x(1, controls=((0, 1),))))
    probs = marginal_probabilities(bell, [1])
    assert np.allclose(probs, [0.5, 0.5])


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


def _per_rotation_ry(num_qubits, target, controls, rotations):
    """The builder that ``Circuit.multiplexed_ry`` replaced: one RY gate per rotation."""
    circuit = Circuit(num_qubits)
    for pattern, angle in rotations:
        polarities = tuple((q, (pattern >> r) & 1) for r, q in enumerate(controls))
        circuit.add(_ry(target, angle, polarities))
    return circuit


def test_multiplexed_ry_builds_the_per_rotation_gates():
    rng = np.random.default_rng(8)
    controls = (5, 2, 9, 0, 7, 3, 8)
    for patterns in (range(1, 128), (77,), (0, 127, 3, 64)):
        rotations = [(p, float(rng.uniform(-math.pi, math.pi))) for p in patterns]
        built = Circuit(10).multiplexed_ry(4, controls, rotations).gates
        expected = _per_rotation_ry(10, 4, controls, rotations).gates
        assert len(built) == len(expected) == len(rotations)
        for got, want in zip(built, expected):
            assert (got.kind, got.targets, got.controls) == (want.kind, want.targets, want.controls)
            assert got.angle == want.angle and got.matrix is None
            assert got.qubits() == want.qubits() == (4,) + controls


@pytest.mark.parametrize(
    "target, controls, rotations, message",
    [
        (0, (1, 2), [(1, 0.5), (2, float("nan"))], "finite"),
        (0, (1, 2), [(1, 0.5), (3, float("inf"))], "finite"),
        (0, (1, 2), [(1, 0.5), (2, 0.1), (1, 0.2)], "repeats"),
        (0, (1, 2), [(1, 0.5), (4, 0.1)], "does not fit"),
        (0, (1, 2), [(-1, 0.5)], "does not fit"),
        (1, (1, 2), [(1, 0.5)], "disjoint"),
        (0, (1, 1), [(1, 0.5)], "duplicate control"),
    ],
)
def test_multiplexed_ry_rejects_bad_rotations(target, controls, rotations, message):
    circuit = Circuit(3)
    with pytest.raises(InvalidGateError, match=message):
        circuit.multiplexed_ry(target, controls, rotations)
    assert circuit.gates == []


def test_multiplexed_ry_rejects_qubits_outside_the_circuit():
    circuit = Circuit(3)
    with pytest.raises(InvalidCircuitError):
        circuit.multiplexed_ry(0, (1, 3), [(1, 0.5)])
    assert circuit.gates == []


def _run_bounds(gates):
    bounds, start = [0], 0
    while start < len(gates):
        start = _ry_run_end(gates, start)
        bounds.append(start)
    return bounds


def test_ry_runs_end_at_a_repeat_a_reorder_or_another_gate():
    circuit = Circuit(4)
    circuit.multiplexed_ry(0, (1, 2), [(0, 0.1), (3, 0.2), (1, 0.3)])  # one run
    circuit.add(_ry(0, 0.4, ((1, 1), (2, 1))))  # repeats pattern 3
    circuit.add(_ry(0, 0.5, ((2, 0), (1, 0))))  # same controls in another order
    circuit.add(_ry(0, 0.6, ((2, 1), (1, 0))))  # fuses with the previous gate
    circuit.add(_ry(3, 0.7, ((1, 0), (2, 0))))  # another target
    circuit.add(_x(0))  # not an RY
    circuit.add(_ry(0, 0.8)).add(_ry(0, 0.9))  # uncontrolled RYs repeat the empty pattern
    circuit.add(_ry(0, 1.0, ((1, 1),))).add(_ry(0, 1.1, ((1, 0),)))  # one run
    assert _run_bounds(circuit.gates) == [0, 3, 4, 6, 7, 8, 9, 10, 12]


@st.composite
def _ry_run_circuit(draw):
    """Circuits of multi-controlled RY runs with interleaved other gates."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = Circuit(n)
    for _ in range(draw(st.integers(1, 4))):
        order = [int(q) for q in draw(st.permutations(range(n)))]
        target, rest = order[0], order[1:]
        segment = draw(st.sampled_from(["run", "run", "run", "other", "plain ry"]))
        if segment == "other":
            kind = draw(st.sampled_from([GateKind.HADAMARD, GateKind.PAULI_Y, GateKind.UNITARY]))
            matrix = _random_unitary(rng, 2) if kind is GateKind.UNITARY else None
            controls = tuple((q, draw(st.integers(0, 1))) for q in rest[: draw(st.integers(0, 2))])
            circuit.add(Gate(kind, (target,), controls, matrix=matrix))
            continue
        if segment == "plain ry":
            circuit.add(_ry(target, float(rng.uniform(-7, 7))))
            continue
        controls = rest[: draw(st.integers(0, len(rest)))]
        width = 2 ** len(controls)
        patterns = draw(
            st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)
        )
        if draw(st.booleans()):  # a repeated pattern must split the run
            patterns.insert(draw(st.integers(1, len(patterns))), draw(st.sampled_from(patterns)))
        if draw(st.booleans()):  # the same controls in another order must not fuse
            patterns += [-1] + draw(st.lists(st.integers(0, width - 1), max_size=3))
        order_now = list(controls)
        for pattern in patterns:
            if pattern == -1:
                order_now = [int(q) for q in draw(st.permutations(controls))]
                continue
            polarities = tuple((q, (pattern >> r) & 1) for r, q in enumerate(order_now))
            circuit.add(_ry(target, float(rng.uniform(-7, 7)), polarities))
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return circuit, StateVector(n, amps / np.linalg.norm(amps))


@settings(derandomize=True, deadline=None)
@given(_ry_run_circuit())
def test_fused_ry_runs_match_gate_by_gate(case):
    """Runs applied as one kernel call agree with ``_apply_gate`` gate by gate.

    The stacked product may round differently from the per-gate product, so
    the comparison is to 1e-12, not bitwise. The unitary comparison runs the
    kernel on a matrix, which covers its trailing axes.
    """
    circuit, state = case
    reference = np.array(state.amplitudes)
    for gate in circuit.gates:
        _apply_gate(reference, gate)
    out = apply_circuit(state, circuit)
    assert np.max(np.abs(out.amplitudes - reference)) < 1e-12
    fused = np.eye(2**circuit.num_qubits, dtype=complex)
    _apply_gates(fused, circuit.gates)
    assert np.max(np.abs(fused - circuit_matrix(circuit))) < 1e-12
