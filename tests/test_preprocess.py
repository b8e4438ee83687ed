"""Preprocessing tests: QPE circuits, estimate decoding, time-scale search."""
import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sim import circuit_matrix, zero_state

from qlslab import preprocess
from qlslab.errors import AliasingError, CapacityError, EmptyEstimateError, QlsLabError
from qlslab.inversion import InversionPlan, build_inversion_circuit, plan_hybrid, rotate_branches
from qlslab.preprocess import (
    build_qpe_circuit,
    decode_grid_int,
    estimates_from_probabilities,
    fixed_t0,
    grid_range,
    iterative_t0,
    ladder_phases,
    prepare_b,
    qft_gates,
    qpe_amplitudes,
    qpe_grid_probabilities,
    qpe_histogram,
    qpe_stages,
    run_preprocessing,
)
from qlslab.qlsp import QLSP, generate_n2, generate_n4, hermitian_dilation
from qlslab.sim import (
    MAX_QUBITS,
    Circuit,
    apply_circuit,
    inverted_gates,
    marginal_probabilities,
)

TWO_PI = 2.0 * math.pi


def test_qft_matches_dft_matrix():
    for n in (1, 2, 3, 4):
        circuit = Circuit(n)
        circuit.extend(qft_gates(range(n)))
        size = 2**n
        oracle = np.array(
            [[np.exp(2j * np.pi * j * m / size) / math.sqrt(size) for j in range(size)]
             for m in range(size)]
        )
        assert np.max(np.abs(circuit_matrix(circuit) - oracle)) < 1e-12


def test_inverse_qft_inverts():
    circuit = Circuit(3)
    circuit.extend(qft_gates(range(3)))
    circuit.extend(inverted_gates(qft_gates(range(3))))
    assert np.max(np.abs(circuit_matrix(circuit) - np.eye(8))) < 1e-12


def _qpe_oracle_distribution(eigenvalues, projections, bits, t0):
    """Independent finite-sum model of the clock distribution.

    Per eigenvalue branch, the amplitude on bin m is the normalized geometric
    sum (1/T) sum_x exp(2 pi i x (phi - m/T)); branches add as probabilities
    because the eigenvectors are orthogonal.
    """
    size = 2**bits
    probs = np.zeros(size)
    for lam, beta in zip(eigenvalues, projections):
        phi = lam * t0 / (TWO_PI * size)
        amps = np.array(
            [abs(sum(np.exp(2j * np.pi * x * (phi - m / size)) for x in range(size)) / size)
             for m in range(size)]
        )
        probs += abs(beta) ** 2 * amps**2
    return probs


def test_qpe_single_bit_matches_analytic_model():
    qlsp = QLSP(np.diag([0.3, 0.8]), [0.6, 0.8])
    t0 = 5.0
    simulated = qpe_grid_probabilities(qlsp, 1, t0)
    oracle = _qpe_oracle_distribution([0.3, 0.8], [0.6, 0.8], 1, t0)
    assert np.max(np.abs(simulated - oracle)) < 1e-10


def test_qpe_three_bit_matches_analytic_model():
    qlsp = QLSP(np.diag([0.21, 0.77]), [1 / math.sqrt(2), 1 / math.sqrt(2)])
    t0 = 13.0
    simulated = qpe_grid_probabilities(qlsp, 3, t0)
    oracle = _qpe_oracle_distribution([0.21, 0.77], [1 / math.sqrt(2)] * 2, 3, t0)
    assert np.max(np.abs(simulated - oracle)) < 1e-10


def test_qpe_on_grid_concentrates():
    """Both family eigenvalues on-grid: exactly two bins at weight 1/2."""
    probs = qpe_grid_probabilities(generate_n2(1 / 3), 3, 18 * math.pi)
    assert probs[3] == pytest.approx(0.5, abs=1e-10)
    assert probs[6] == pytest.approx(0.5, abs=1e-10)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_qpe_zero_time_all_zero_bitstring():
    probs = qpe_grid_probabilities(generate_n2(0.3), 3, 0.0)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    counts = qpe_histogram(generate_n2(0.3), 3, 0.0, shots=64, seed=1)
    assert counts.tolist() == [64, 0, 0, 0, 0, 0, 0, 0]


def _dense_qpe_state(qlsp, bits, t0):
    """The preprocessing circuit simulated gate by gate."""
    circuit = build_qpe_circuit(qlsp, bits, t0)
    return apply_circuit(zero_state(circuit.num_qubits), circuit)


@st.composite
def random_problem(draw, dims=(2, 4, 8)):
    """A random Hermitian system of a dimension in ``dims`` with a positive or
    a signed spectrum, or the Hermitian dilation of a random general system."""
    dim = draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(["positive", "signed", "dilation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dilation":
        half = dim // 2
        a = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        qlsp = hermitian_dilation(a, rng.standard_normal(half) + 1j * rng.standard_normal(half))
    else:
        eigs = rng.uniform(0.05, 1.0, dim)
        if kind == "signed":
            eigs[: dim // 2] *= -1.0
        z = rng.standard_normal((dim, dim + 1)) + 1j * rng.standard_normal((dim, dim + 1))
        basis, _ = np.linalg.qr(z[:, :dim])
        qlsp = QLSP(basis @ np.diag(eigs) @ basis.conj().T, z[:, dim])
    return qlsp


@st.composite
def _qpe_case(draw):
    """(problem, bits, t0) for a ``random_problem``."""
    qlsp = draw(random_problem())
    bits = draw(st.integers(1, 6))
    t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
    return qlsp, bits, t0


@settings(derandomize=True, deadline=None)
@given(_qpe_case())
def test_qpe_amplitudes_match_dense_simulation(case):
    """The kernel is the preprocessing circuit's output with b in A's
    eigenbasis, laid out [clock, eigenpair] in one contiguous array."""
    qlsp, bits, t0 = case
    closed = qpe_amplitudes(qlsp, bits, t0)
    dense = _dense_qpe_state(qlsp, bits, t0)
    assert dense.shape == (2 ** (qlsp.num_qubits + bits),)
    assert closed.shape == (2**bits, qlsp.dimension) and closed.flags.c_contiguous
    turned = closed @ qlsp.eigenvectors.T  # back to b's computational basis
    assert np.max(np.abs(turned.reshape(-1) - dense)) < 1e-12


@pytest.mark.parametrize("bits", range(1, preprocess._DENSE_BITS + 3))
def test_fourier_kernels_match_numpy_fft_on_both_sides_of_the_dense_width(bits):
    """Up to ``_DENSE_BITS`` clock bits the kernels multiply by the cached
    dense factor, above it they call ``np.fft``; either way ``qpe_amplitudes``
    (at one scale and at 13) and ``clock_qft``'s whole transform (both
    directions) equal an ``np.fft`` reference."""
    qlsp = generate_n4((-0.8, -0.3, 0.4, 0.9), (0, 2), 5)
    size = 2**bits
    scales = np.ldexp(math.pi / 2, np.arange(13)) / 3.0
    for t0 in (7.5, scales):
        rates = np.asarray(t0)[..., None] / size * qlsp.eigenvalues
        phases = np.exp(1j * rates[..., None] * np.arange(size))  # [..., j, x]
        clock = np.fft.fft(phases, norm="forward").swapaxes(-1, -2)  # [..., m, j]
        reference = clock * qlsp.projections
        assert np.max(np.abs(qpe_amplitudes(qlsp, bits, t0) - reference)) < 1e-12
    rng = np.random.default_rng(bits)
    blocks = rng.standard_normal((3, size, 4)) + 1j * rng.standard_normal((3, size, 4))
    whole = len(preprocess._fourier_layout(bits))
    for inverse, transform in ((False, np.fft.ifft), (True, np.fft.fft)):
        qft = preprocess.clock_qft(blocks, 0, whole, inverse=inverse)
        assert np.max(np.abs(qft - transform(blocks, axis=1, norm="ortho"))) < 1e-12


# stage name -> (block, position) of its record in ``qpe_stages``' (prefix,
# uncompute); the prefix's first record is the state preparation
RECORDS = {
    "hadamards": (0, 1),
    "powers": (0, 2),
    "inverse-qft": (0, 3),
    "qft": (1, 0),
    "powers-adjoint": (1, 1),
    "uncompute-hadamards": (1, 2),
}


def _gate_key(gate):
    """What a gate does, for comparing gates that are not the same object."""
    matrix = None if gate.matrix is None else gate.matrix.tobytes()
    return gate.kind, gate.targets, gate.controls, gate.angle, matrix


def _closed_form_error(qlsp, bits, record, start, stop):
    """Largest entry of the record's ``run`` of ``gates[start:stop]`` minus
    ``circuit_matrix`` of those gates, on ``bits`` clock bits. The record
    acts with the b register in A's eigenbasis, so it is fed each basis
    state turned into that basis and its image is turned back."""
    circuit = Circuit(qlsp.num_qubits + bits)
    circuit.extend(record.gates[start:stop])
    dim = 2**circuit.num_qubits
    # each basis state is one entry of the rest axis, so row r is the image of state r
    basis = np.eye(dim, dtype=complex).reshape(dim, 2**bits, qlsp.dimension)
    vectors = qlsp.eigenvectors
    rows = record.run(basis @ vectors.conj(), start, stop) @ vectors.T
    return np.max(np.abs(rows.reshape(dim, dim).T - circuit_matrix(circuit)))


@st.composite
def _stages_case(draw):
    """(problem, clock bits, t0): a ``random_problem`` and 1 to 8 clock bits
    on at most 9 qubits, so that each circuit matrix stays small."""
    bits = draw(st.integers(1, 8))
    qlsp = draw(random_problem([dim for dim in (2, 4, 8) if dim.bit_length() + bits <= 10]))
    return qlsp, bits, draw(st.floats(0.0, 60.0))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_stages_case())
def test_stage_records_match_their_gates(case):
    """The prefix records cut ``build_qpe_circuit``'s gates, the uncompute
    records hold ``inverted_gates`` of its QPE block, state preparation
    alone has no ``run``, and each other record's ``run`` of all its gates
    is their ``circuit_matrix``, with the b register in A's eigenbasis."""
    qlsp, bits, t0 = case
    prefix, uncompute = qpe_stages(qlsp, bits, t0)
    gates = build_qpe_circuit(qlsp, bits, t0).gates
    assert [_gate_key(g) for r in prefix for g in r.gates] == list(map(_gate_key, gates))
    undo = [_gate_key(g) for r in uncompute for g in r.gates]
    assert undo == list(map(_gate_key, inverted_gates(gates[1:])))
    assert prefix[0].run is None  # state preparation
    for record in prefix[1:] + uncompute:
        assert _closed_form_error(qlsp, bits, record, 0, len(record.gates)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("dimension", [2, 4, 8])
@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_every_record_runs_every_range_of_its_gates(bits, dimension, signed, seed):
    """For every record of ``qpe_stages`` but state preparation, and for the
    inversion record of a plan with a rotation on every clock pattern, and
    for every contiguous range [start, stop) of its gates, ``run`` on a
    random state laid out [ancilla, clock, b] is those gates simulated one
    by one, with the b register in A's eigenbasis, at a t0 drawn from
    [0, 60]."""
    rng = np.random.default_rng([bits, dimension, signed, seed])
    eigenvalues = rng.uniform(0.05, 1.0, dimension) * (-1.0) ** (signed * np.arange(dimension))
    basis, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    qlsp = QLSP(basis @ np.diag(eigenvalues) @ basis.T, rng.standard_normal(dimension))
    assert qlsp.has_negative_eigenvalues == signed
    nb = qlsp.num_qubits
    plan = InversionPlan(bits, tuple((m, rng.uniform(-3, 3)) for m in range(2**bits)), 1.0)
    inversion = preprocess.Stage(
        build_inversion_circuit(plan, range(nb, nb + bits), nb + bits).gates,
        functools.partial(rotate_branches, plan),
    )
    prefix, uncompute = qpe_stages(qlsp, bits, rng.uniform(0.0, 60.0))
    shape = (2, 2**bits, dimension)
    state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    width, vectors = nb + bits + 1, qlsp.eigenvectors
    eigen = state @ vectors.conj()
    for record in (*prefix[1:], inversion, *uncompute):
        size = len(record.gates)
        for start in range(size):
            simulated = state.reshape(-1)
            for stop in range(start + 1, size + 1):
                simulated = apply_circuit(simulated, Circuit(width).add(record.gates[stop - 1]))
                image = record.run(eigen, start, stop) @ vectors.T
                assert np.max(np.abs(image.reshape(-1) - simulated)) < 1e-12


def test_the_whole_adjoint_ladder_runs_its_records_table(monkeypatch):
    """``qpe_stages`` builds the adjoint ladder's whole phase table once, as
    read-only, and the record's run of all its gates multiplies by it and
    builds no other; a shorter run builds the table of its own range. So
    the records, held in ``pipeline``'s one-slot block cache, are all that
    keeps a table alive."""
    qlsp, bits, t0 = generate_n2(0.3), 3, 7.0
    whole = ladder_phases(qlsp, t0, 8, True, 0, bits)
    assert whole.shape == (8, 2) and not whole.flags.writeable
    with pytest.raises(ValueError):
        whole[0, 0] = 0.0
    record = qpe_stages(qlsp, bits, t0)[1][RECORDS["powers-adjoint"][1]]
    built = []

    def counted(*args):
        built.append(args[3:])
        return whole

    monkeypatch.setattr(preprocess, "ladder_phases", counted)
    blocks = np.ones((2, 8, 2), dtype=complex)
    for _ in range(2):
        assert np.array_equal(record.run(blocks, 0, bits), blocks * whole)
    assert built == []
    record.run(blocks, 0, 1)  # gate 0 of the adjoint ladder is on the top clock bit
    assert built == [(True, bits - 1, bits)]


# (clock bits, start, stop) short of a whole stage; 8 bits from gate 1 on cross a Walsh factor
GATE_RANGES = (
    (2, 0, 1), (2, 1, 2), (3, 1, 2), (5, 1, 4), (6, 0, 3), (6, 3, 6), (8, 1, 8), (8, 2, 7)
)
STAGE_NAMES = tuple(RECORDS)
PER_BIT_STAGES = ("hadamards", "powers", "powers-adjoint", "uncompute-hadamards")


@pytest.mark.parametrize(
    "stage, bits, start, stop",
    [
        pytest.param(s, bits, 0, None, id=f"{s}-{bits}")
        for s in STAGE_NAMES
        for bits in range(1, 9)
    ]
    + [
        pytest.param(s, bits, start, stop, id=f"{s}-{bits}-gates-{start}-{stop}")
        for s in PER_BIT_STAGES
        for bits, start, stop in GATE_RANGES
    ],
)
def test_stage_transforms_match_their_gates(stage, bits, start, stop):
    """A record's ``run`` on a signed 4x4 problem, of all its gates (``stop``
    None) or of gates ``start`` to ``stop - 1``, is the matrix of those
    gates; 7 and 8 clock bits take a Hadamard layer past one Walsh factor."""
    # past 6 clock bits a 2x2 problem keeps the circuit matrix small
    qlsp = generate_n4((-0.8, -0.3, 0.4, 0.9), (0, 2), 5) if bits <= 6 else generate_n2(0.3)
    block, position = RECORDS[stage]
    record = qpe_stages(qlsp, bits, 11.0)[block][position]
    stop = len(record.gates) if stop is None else stop
    assert _closed_form_error(qlsp, bits, record, start, stop) < 1e-12


@pytest.mark.parametrize(
    "stage, start, stop",
    [pytest.param(s, 0, None, id=s) for s in STAGE_NAMES]
    + [pytest.param(s, 3, 11, id=f"{s}-gates-3-11") for s in PER_BIT_STAGES],
)
def test_stage_transforms_build_no_clock_sized_operator(stage, start, stop):
    """At 12 clock bits a 2^12 x 2^12 operator takes 256 MB; each record's
    ``run``, of all its gates or of a range of them, its cached Walsh
    factors and the phase table it builds included, stays within a few
    copies of the 128 kB state, so its footprint tracks the state up to the
    qubit budget."""
    qlsp, bits = generate_n2(0.3), 12
    rng = np.random.default_rng(3)
    blocks = rng.standard_normal((1, 2**bits, 2)) + 1j * rng.standard_normal((1, 2**bits, 2))
    block, position = RECORDS[stage]
    record = qpe_stages(qlsp, bits, 7.0)[block][position]
    stop = len(record.gates) if stop is None else stop
    preprocess._walsh.cache_clear()  # a cached factor counts too
    tracemalloc.start()
    try:
        record.run(blocks, start, stop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * blocks.nbytes


def test_the_fourier_piece_cache_keeps_a_few_runs():
    """A walk splits a Fourier transform at the Paulis it draws, and
    independent draws rarely split it at the same gates: 40 distinct 7-gate
    runs of the inverse transform at 12 clock bits leave what a few cached
    runs hold, under 1.5 MB, not the 64 kB phase vectors of every run."""
    blocks = np.zeros((1, 2**12, 1), dtype=complex)
    preprocess._fourier_pieces.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for start in range(40):
            preprocess.clock_qft(blocks, start, start + 7, inverse=True)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        preprocess._fourier_pieces.cache_clear()
    assert kept < 1.5e6


@pytest.mark.parametrize("block", ["qpe_amplitudes", "qpe_grid_probabilities"])
def test_qpe_blocks_over_the_budget_raise_before_allocating(block):
    """A 2x2 problem with MAX_QUBITS clock bits is one qubit over the budget;
    unchecked, the block would allocate 2^21 amplitudes (32 MB)."""
    with pytest.raises(CapacityError, match=f"{MAX_QUBITS + 1} qubits"):
        getattr(preprocess, block)(generate_n2(0.3), MAX_QUBITS, 1.0)


@pytest.mark.parametrize("kernel", [qpe_amplitudes, qpe_grid_probabilities])
def test_qpe_kernel_rejects_empty_clock(kernel):
    with pytest.raises(ValueError, match="bit_width"):
        kernel(generate_n2(0.3), 0, 1.0)


@pytest.mark.parametrize("lam", [0.05, 0.06, 0.13, 0.14, 0.145, 0.15, 0.16])
def test_hybrid_tie_goes_to_the_smaller_grid_value(lam):
    """Grid values 2 and 7 carry equal weights here in exact arithmetic; both
    clock-distribution paths must rank 2 first, so the capped hybrid plan
    rotates patterns 1 and 2."""
    qlsp, t0 = generate_n2(lam), 18 * math.pi
    dense = marginal_probabilities(_dense_qpe_state(qlsp, 3, t0), (1, 2, 3))
    for probs in (dense, qpe_grid_probabilities(qlsp, 3, t0)):
        assert math.sqrt(probs[2]) == pytest.approx(math.sqrt(probs[7]), abs=1e-14)
        plan = plan_hybrid(estimates_from_probabilities(probs, 3, t0), max_rotations=2)
        assert [pattern for pattern, _ in plan.rotations] == [1, 2]


def test_state_preparation_is_built_and_simulated_once_per_problem():
    """Every QPE circuit of a problem starts with ``prepare_b``'s one gate,
    whose simulated output is b; another problem gets its own."""
    qlsp = generate_n4((-0.9, -0.2, 0.3, 0.8), (0, 2), 5)
    gate, amplitudes = prepare_b(qlsp)
    assert build_qpe_circuit(qlsp, 3, 10.0).gates[0] is gate
    assert build_qpe_circuit(qlsp, 5, 12.0).gates[0] is gate
    assert prepare_b(qlsp)[1] is amplitudes and not amplitudes.flags.writeable
    assert np.max(np.abs(amplitudes - qlsp.vector_b)) < 1e-14
    assert np.max(np.abs(gate.matrix[:, 0] - amplitudes)) == 0.0
    other = generate_n2(0.3)
    assert prepare_b(other)[0] is not gate
    assert build_qpe_circuit(other, 3, 10.0).gates[0] is prepare_b(other)[0]


def test_qpe_circuit_registers():
    circuit = build_qpe_circuit(generate_n2(0.3), 4, 10.0)
    assert circuit.num_qubits == 5
    assert circuit.gates[0].targets == (0,)  # b is prepared on qubit 0
    assert [gate.targets for gate in circuit.gates[1:5]] == [(1,), (2,), (3,), (4,)]  # clock
    powers = circuit.gates[5:9]  # controlled powers of U act on b, one per clock qubit
    assert [(gate.targets, gate.controls) for gate in powers] == [
        ((0,), ((q, 1),)) for q in (1, 2, 3, 4)
    ]


def _bins(bit_width, weights):
    """A clock distribution with probability ``weights[g]`` on grid value ``g``."""
    probabilities = np.zeros(2**bit_width)
    for g, weight in weights.items():
        probabilities[g] = weight
    return probabilities


def test_estimates_plain_decode():
    estimates = estimates_from_probabilities(_bins(3, {1: 0.5, 2: 0.5}), 3, 6 * math.pi)
    decoded = {(e.grid_int, round(e.lambda_tilde, 12), round(e.weight, 6)) for e in estimates.entries}
    assert decoded == {
        (1, round(1 / 3, 12), round(math.sqrt(0.5), 6)),
        (2, round(2 / 3, 12), round(math.sqrt(0.5), 6)),
    }


def test_estimates_signed_decode():
    t0 = 6 * math.pi
    estimates = estimates_from_probabilities(_bins(3, {7: 1.0}), 3, t0, signed_mode=True)
    entry = estimates.entries[0]
    assert entry.grid_int == 7
    assert entry.lambda_tilde == pytest.approx(TWO_PI * -1 / t0)


def test_decode_grid_int():
    assert decode_grid_int(7, 3, signed_mode=True) == -1
    assert decode_grid_int(4, 3, signed_mode=True) == -4
    assert decode_grid_int(3, 3, signed_mode=True) == 3
    assert decode_grid_int(7, 3, signed_mode=False) == 7


def test_grid_range():
    assert grid_range(3, False) == (0, 7)
    assert grid_range(3, True) == (-4, 3)
    assert grid_range(1, True) == (-1, 0)
    assert [decode_grid_int(g, 3, True) for g in range(8)] == [0, 1, 2, 3, -4, -3, -2, -1]


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: decode_grid_int(1.5, 2, False), "grid_int"),
        (lambda: decode_grid_int(True, 2, False), "grid_int"),
        (lambda: decode_grid_int(-1, 2, False), "grid_int"),
        (lambda: decode_grid_int(4, 2, True), "grid_int"),
        (lambda: decode_grid_int(1, 2.0, False), "bit_width"),
        (lambda: grid_range(0, False), "bit_width"),
        (lambda: fixed_t0(1.0, 2.5), "bit_width"),
        (lambda: fixed_t0(1.0, True), "bit_width"),
        (lambda: estimates_from_probabilities([0.5, 0.5], True, 1.0), "bit_width"),
        (lambda: estimates_from_probabilities([0.25] * 4, 2.0, 1.0), "bit_width"),
        (lambda: qpe_grid_probabilities(generate_n2(0.3), 2.0, 1.0), "bit_width"),
        (lambda: build_qpe_circuit(generate_n2(0.3), 2.0, 1.0), "bit_width"),
    ],
)
def test_grid_inputs_accept_only_ints(call, field):
    with pytest.raises(ValueError, match=field):
        call()


def test_threshold_removes_small_bins():
    shots = 4096
    bits = 3
    # amplitude threshold 2^-l corresponds to counts below shots * 2^(-2l)
    small = int(shots * 2.0 ** (-2 * bits)) - 1
    probabilities = _bins(bits, {1: (shots - small) / shots, 2: small / shots})
    estimates = estimates_from_probabilities(probabilities, bits, 6 * math.pi)
    assert [e.grid_int for e in estimates.entries] == [1]


def test_estimates_empty_cases():
    with pytest.raises(EmptyEstimateError):
        estimates_from_probabilities(_bins(3, {}), 3, 6 * math.pi)


def test_estimates_reject_a_zero_bit_width():
    with pytest.raises(ValueError, match="bit_width"):
        estimates_from_probabilities([1.0], 0, 1.0)


def test_estimates_reject_a_nan_bin():
    probabilities = [0.5, math.nan, 0.5, 0.0]
    with pytest.raises(ValueError, match="finite"):
        estimates_from_probabilities(probabilities, 2, 1.0)


@pytest.mark.parametrize("bad", [-1e-18, -0.25, -math.inf])
def test_estimates_reject_a_negative_probability(bad):
    """A negative bin is not clipped to zero; -0.0 is zero and stays accepted."""
    with pytest.raises(ValueError, match="non-negative" if math.isfinite(bad) else "finite"):
        estimates_from_probabilities([0.5, bad, 0.5, 0.0], 2, 1.0)
    estimates = estimates_from_probabilities([0.5, -0.0, 0.5, 0.0], 2, 1.0)
    assert [e.grid_int for e in estimates.entries] == [0, 2]


def _decode_by_loop(probabilities, bit_width, time_scale, signed_mode=False):
    """Reference decode: every bin visited in a Python loop, with the checks
    of ``estimates_from_probabilities``."""
    if bit_width < 1:
        raise ValueError("bit_width must be at least 1")
    if not (math.isfinite(time_scale) and time_scale > 0):
        raise ValueError(f"time_scale must be finite and positive, not {time_scale}")
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != (2**bit_width,):
        raise ValueError("probability vector does not match the bit width")
    if not np.isfinite(probabilities).all():
        raise ValueError("probabilities must be finite")
    if (probabilities < 0.0).any():
        raise ValueError("probabilities must be non-negative")
    entries = []
    for g, p in enumerate(probabilities):
        weight = math.sqrt(float(p))
        if weight < 2.0**-bit_width:
            continue
        decoded = decode_grid_int(g, bit_width, signed_mode)
        entries.append(preprocess.EigenEstimate(g, TWO_PI * decoded / time_scale, weight))
    if not entries:
        raise EmptyEstimateError("no estimate reached the relevance threshold")
    entries.sort(key=lambda e: (-round(e.weight, 12), e.grid_int))
    return preprocess.EigenEstimateSet(
        bit_width, float(time_scale), bool(signed_mode), tuple(entries)
    )


@st.composite
def _clock_distribution(draw):
    """(probabilities, bits, t0, signed) for 1 to 12 clock bits: a random
    distribution, shot frequencies (exact ties), or bins at the relevance
    threshold and one ulp either side of it, with weights that tie on 12
    decimals but differ in their last bits. Now and then one bin is made
    negative, -0.0 or non-finite."""
    bits = draw(st.integers(1, 12))
    size = 2**bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "shots", "edge"]))
    if kind == "random":
        probabilities = rng.dirichlet(np.full(size, draw(st.sampled_from([0.05, 0.5, 2.0]))))
    elif kind == "shots":
        shots = draw(st.sampled_from([1, 5, 64, 1000, 4096]))
        counts = rng.multinomial(shots, rng.dirichlet(np.full(size, 0.3)))
        probabilities = counts / shots
    else:
        edge = 4.0**-bits  # a bin is kept when its probability reaches this
        tie = draw(st.floats(0.01, 0.3))
        values = [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), tie]
        values += [np.nextafter(tie, 0.0), np.nextafter(tie, 1.0), tie * (1 + 1e-13)]
        probabilities = rng.choice(values, size)
    bad = draw(st.sampled_from([None] * 15 + [-1e-300, -0.5, -0.0, math.nan, math.inf]))
    if bad is not None:
        probabilities[draw(st.integers(0, size - 1))] = bad
    t0 = draw(st.floats(0.01, 1000.0))
    return probabilities, bits, t0, draw(st.booleans())


def _outcome(decode, case):
    """What ``decode`` gives on ``case``, exactly: the estimates' grid
    values, lambda and weight bits in rank order, or the exception raised."""
    try:
        estimates = decode(*case)
    except (ValueError, EmptyEstimateError) as exc:
        return type(exc), str(exc)
    entries = [(e.grid_int, e.lambda_tilde.hex(), e.weight.hex()) for e in estimates.entries]
    header = (estimates.bit_width, estimates.time_scale.hex(), estimates.signed_mode)
    return header, entries


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_clock_distribution())
def test_decode_matches_the_per_bin_loop(case):
    assert _outcome(estimates_from_probabilities, case) == _outcome(_decode_by_loop, case)


@pytest.mark.parametrize("time_scale", [math.nan, math.inf])
def test_estimates_reject_a_non_finite_time_scale(time_scale):
    probabilities = [0.5, 0.0, 0.5, 0.0]
    with pytest.raises(ValueError, match="time_scale"):
        estimates_from_probabilities(probabilities, 2, time_scale)
    with pytest.raises(ValueError, match="finite"):
        run_preprocessing(generate_n2(0.1), 3, time_scale)


def test_qpe_amplitudes_keep_one_read_only_slot_per_scale():
    """One scale's amplitudes come from a one-slot memo keyed on the problem by
    identity, the width and ``float(t0)``: equal to an uncached computation,
    read-only, and replaced by the next key."""
    preprocess._qpe_at.cache_clear()
    qlsp = generate_n2(0.3)
    first = qpe_amplitudes(qlsp, 3, 10.0)
    assert np.array_equal(first, preprocess._qpe_at.__wrapped__(qlsp, 3, 10.0))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[...] = 0
    assert qpe_amplitudes(qlsp, 3, 10.0) is first
    assert qpe_amplitudes(qlsp, np.int64(3), np.float64(10.0)) is first
    assert qpe_amplitudes(qlsp, 3, 10) is first  # an int scale is its float
    assert preprocess._qpe_at.cache_info().currsize == 1
    assert qpe_amplitudes(generate_n2(0.3), 3, 10.0) is not first  # another problem
    assert qpe_amplitudes(qlsp, 3, 10.0) is not first  # the slot held the other one
    for key in [(qlsp, 4, 10.0), (qlsp, 3, 10.5)]:
        assert qpe_amplitudes(*key) is qpe_amplitudes(*key)
        assert preprocess._qpe_at.cache_info().currsize == 1


def test_qpe_amplitudes_at_a_batch_of_scales_bypass_the_memo():
    preprocess._qpe_at.cache_clear()
    qlsp = generate_n2(0.3)
    slot = qpe_amplitudes(qlsp, 3, 10.0)
    before = preprocess._qpe_at.cache_info()
    table = qpe_amplitudes(qlsp, 3, [10.0, 11.0])
    assert preprocess._qpe_at.cache_info() == before
    assert table.flags.writeable
    assert np.array_equal(table[0], slot)
    assert qpe_amplitudes(qlsp, 3, 10.0) is slot


@pytest.mark.parametrize(
    "bit_width, t0, error",
    [
        (3, math.nan, "t0 must be finite"),
        (3, math.inf, "t0 must be finite"),
        (3, True, "t0 must be a real number"),
        (3, "10.0", "t0 must be a real number"),
        (0, 10.0, "bit_width"),
        (3.0, 10.0, "bit_width"),
    ],
)
def test_a_bad_scale_raises_on_a_warm_slot(bit_width, t0, error):
    """Every check runs before the memo is read."""
    qlsp = generate_n2(0.3)
    qpe_amplitudes(qlsp, 3, 10.0)
    with pytest.raises(ValueError, match=error):
        qpe_amplitudes(qlsp, bit_width, t0)
    with pytest.raises(CapacityError):
        qpe_amplitudes(qlsp, MAX_QUBITS, 10.0)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_qpe_kernel_rejects_a_non_finite_scale_in_a_batch(t0):
    with pytest.raises(ValueError, match="t0 must be finite"):
        qpe_amplitudes(generate_n2(0.1), 3, [1.0, t0])


@pytest.mark.parametrize("t0", ["1", True, None, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda q, t0: qpe_amplitudes(q, 3, t0),
        lambda q, t0: qpe_grid_probabilities(q, 3, t0),
        lambda q, t0: qpe_histogram(q, 3, t0, shots=16, seed=0),
        lambda q, t0: build_qpe_circuit(q, 3, t0),
    ],
    ids=["qpe_amplitudes", "qpe_grid_probabilities", "qpe_histogram", "build_qpe_circuit"],
)
def test_qpe_entry_points_reject_a_non_real_or_non_finite_t0(entry, t0):
    """A string, a bool or None is not taken as a time, nor is NaN or inf;
    the circuit's controlled powers (``evolution_unitary``) call it ``time``."""
    with pytest.raises(ValueError, match="t0|time"):
        entry(generate_n2(0.1), t0)


def test_estimates_sorted_and_deterministic():
    probabilities = _bins(3, {1: 100 / 1024, 2: 800 / 1024, 3: 124 / 1024})
    a = estimates_from_probabilities(probabilities, 3, 6 * math.pi)
    b = estimates_from_probabilities(probabilities, 3, 6 * math.pi)
    assert [e.grid_int for e in a.entries] == [2, 3, 1]
    assert a == b


def test_perfect_grid_recovery_with_sampling():
    """On-grid spectra recover exactly the populated bins at |beta| weight."""
    qlsp = generate_n2(1 / 3)
    shots = 8192
    counts = qpe_histogram(qlsp, 3, 18 * math.pi, shots=shots, seed=5)
    estimates = estimates_from_probabilities(counts / shots, 3, 18 * math.pi)
    assert {e.grid_int for e in estimates.entries} == {3, 6}
    sigma = math.sqrt(0.25 / shots)  # binomial sigma on the bin probability
    for entry in estimates.entries:
        assert abs(entry.weight**2 - 0.5) <= 3 * sigma


def test_concentration_property():
    """Top estimate lands within one grid step of a heavy eigenvalue."""
    rng = np.random.default_rng(23)
    for trial in range(10):
        lam = float(rng.uniform(0.15, 0.45))
        qlsp = generate_n2(lam)
        t0 = float(rng.uniform(10.0, 20.0))
        estimates = run_preprocessing(qlsp, 3, t0, shots=4096, seed=300 + trial)
        top = estimates.entries[0]
        spacing = TWO_PI / t0
        distances = [abs(top.lambda_tilde - e) for e in qlsp.eigenvalues]
        assert min(distances) <= spacing + 1e-12


def test_fixed_t0_values():
    assert fixed_t0(2 / 3, 3) == pytest.approx(21 * math.pi)
    assert fixed_t0(1.0, 3) == pytest.approx(14 * math.pi)
    assert fixed_t0(1.0, 1) == pytest.approx(2 * math.pi)
    assert fixed_t0(1.0, 3, signed=True) == pytest.approx(6 * math.pi)
    with pytest.raises(ValueError):
        fixed_t0(0.0, 3)
    with pytest.raises(ValueError):
        fixed_t0(1.0, 1, signed=True)


@pytest.mark.parametrize("lambda_max", [math.nan, math.inf])
def test_fixed_t0_rejects_a_non_finite_lambda_max(lambda_max):
    with pytest.raises(ValueError, match="lambda_max"):
        fixed_t0(lambda_max, 3)


@pytest.mark.parametrize("value", [True, "2", None])
@pytest.mark.parametrize(
    "name, call",
    [
        ("lambda_max", lambda value: fixed_t0(value, 3)),
        (
            "time_scale",
            lambda value: estimates_from_probabilities([0.5, 0.0, 0.5, 0.0], 2, time_scale=value),
        ),
    ],
    ids=["fixed_t0", "estimates_from_probabilities"],
)
def test_real_arguments_reject_bools_strings_and_none(name, call, value):
    """A bool would run as 1, and a string or None raised ``TypeError``."""
    with pytest.raises(ValueError, match=f"{name} must be a real number, not {value!r}"):
        call(value)


def _brute_force_top_scale(lam, bits):
    """Scan scales and report the largest whose top estimate is the top grid
    value; independent of the search implementation."""
    target = 2**bits - 1
    formula = TWO_PI * target / lam
    best = None
    for t in np.linspace(0.3 * formula, 1.3 * formula, 600):
        probs = qpe_grid_probabilities(QLSP(np.diag([lam, lam]), [1, 0]), bits, t)
        if int(np.argmax(probs)) == target:
            best = t
    return best


def test_iterative_t0_single_eigenvalue_against_scan():
    lam = 0.37
    qlsp = QLSP(np.diag([lam, lam]), [1.0, 0.0])
    found = iterative_t0(qlsp, 5)
    scan_max = _brute_force_top_scale(lam, 5)
    assert found <= scan_max * 1.01
    assert found >= scan_max / 2  # within one doubling step of the boundary
    # the returned scale pins the eigenvalue onto the top grid value
    assert lam * found / TWO_PI == pytest.approx(31.0, abs=0.05)


def test_iterative_t0_family_targets_top_value():
    qlsp = generate_n2(1 / 3)
    t0 = iterative_t0(qlsp, 3)
    coord = (2 / 3) * t0 / TWO_PI
    assert round(coord) == 7
    assert coord == pytest.approx(7.0, abs=0.05)


def test_iterative_t0_signed_problem():
    qlsp = generate_n4((-21 / 24, -20 / 24, 5 / 24, 6 / 24), (0, 2), seed=7)
    t0 = iterative_t0(qlsp, 3)
    coord = (21 / 24) * t0 / TWO_PI
    assert coord == pytest.approx(3.0, abs=0.05)


def test_iterative_t0_detects_aliased_start():
    """A spectrum too small to wrap within the doubling budget raises
    ``AliasingError``, unsigned or signed. The search starts at pi / 2, where
    every |lam| <= 1 sits at coordinate at most 0.25, so no start is aliased."""
    for eigenvalues in ((0.001, 0.0005), (-0.002, 0.001)):
        qlsp = QLSP(np.diag(eigenvalues), [1.0, 1.0])
        with pytest.raises(AliasingError, match="doubling budget"):
            iterative_t0(qlsp, 3)


@pytest.mark.parametrize(
    "lam, expected",
    # pinned scales: refactoring the search must not move a sampled result
    [(0.1, 48.876899075039155), (0.25, 58.64306286700947), (0.4, 73.30143670127775)],
)
def test_iterative_t0_sampled(lam, expected):
    qlsp = generate_n2(lam)
    t0 = iterative_t0(qlsp, 3, shots=4096, seed=5)
    assert (1 - lam) * t0 / TWO_PI == pytest.approx(7.0, abs=0.1)
    assert t0 == pytest.approx(expected, rel=1e-12)
    assert iterative_t0(qlsp, 3, shots=4096, seed=5) == t0


def test_run_preprocessing_reads_the_sign_mode_from_the_problem():
    signed = generate_n4((-21 / 24, -20 / 24, 5 / 24, 6 / 24), (0, 2), seed=7)
    estimates = run_preprocessing(signed, 5, 24 * math.pi)
    assert estimates.signed_mode is True
    assert any(e.lambda_tilde < 0 for e in estimates.entries)
    estimates = run_preprocessing(generate_n2(1 / 3), 5, 72 * math.pi)
    assert estimates.signed_mode is False
    assert all(e.lambda_tilde > 0 for e in estimates.entries)


def test_run_preprocessing_exact_matches_sampled_limit():
    qlsp = generate_n2(0.3)
    exact = run_preprocessing(qlsp, 3, 14 * math.pi)
    sampled = run_preprocessing(qlsp, 3, 14 * math.pi, shots=200_000, seed=4)
    exact_map = {e.grid_int: e.weight for e in exact.entries}
    for entry in sampled.entries:
        assert entry.weight == pytest.approx(exact_map[entry.grid_int], abs=0.02)


# The probe-by-probe search as it stood before its probes were batched: one
# full preprocessing pass, and one EigenEstimateSet, per probe. The batched
# search must return the same float, or raise the same error, on every problem.


def _reference_clock_probabilities(qlsp, bit_width, t0, shots, seed):
    if shots is None:
        return qpe_grid_probabilities(qlsp, bit_width, t0)
    return qpe_histogram(qlsp, bit_width, t0, shots, seed) / shots


def _reference_strong_coordinates(est):
    cutoff = 0.5 * est.entries[0].weight
    return [
        decode_grid_int(e.grid_int, est.bit_width, est.signed_mode)
        for e in est.entries
        if e.weight >= cutoff
    ]


def _reference_dominant_coordinate(qlsp, bit_width, t0, shots, seed):
    probs = _reference_clock_probabilities(qlsp, bit_width, t0, shots, seed)
    est = estimates_from_probabilities(probs, bit_width, t0, qlsp.has_negative_eigenvalues)
    weights = np.sqrt(probs)
    d_star = max(_reference_strong_coordinates(est), key=abs)
    size = 2**bit_width
    w_star = weights[d_star % size]
    w_up = weights[(d_star + 1) % size]
    w_down = weights[(d_star - 1) % size]
    if w_up >= w_down:
        coord = d_star + w_up / (w_up + w_star)
    else:
        coord = d_star - w_down / (w_down + w_star)
    return float(abs(coord))


def _reference_t0(qlsp, bit_width, *, shots=None, seed=None):
    signed = qlsp.has_negative_eigenvalues
    target = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    overflow_marker = 2 ** (bit_width - 1) if signed else None

    def peak(t):
        est = run_preprocessing(qlsp, bit_width, t, shots=shots, seed=seed)
        return max(abs(d) for d in _reference_strong_coordinates(est))

    t = math.pi / 2.0
    for _ in range(64):
        if peak(t) == 0:
            break
        t *= 0.5
    else:
        raise AliasingError("no starting scale with all-zero estimates was found")
    lo, lo_peak = t, 0
    for _ in range(12):
        cand = lo * 2.0
        m = peak(cand)
        wrapped = (lo_peak > 0 and m < 2 * lo_peak - 1.5) or (
            overflow_marker is not None and m >= overflow_marker
        )
        if wrapped:
            break
        lo, lo_peak = cand, m
    else:
        raise AliasingError("no overflow was observed within the doubling budget")
    if lo_peak == 0:
        raise AliasingError("the peak estimate wrapped before leaving zero")
    fine_bits = bit_width + 3
    coord_fine = _reference_dominant_coordinate(
        qlsp, fine_bits, lo * 2 ** (fine_bits - bit_width), shots, seed
    )
    lam_hat = TWO_PI * coord_fine / (lo * 2 ** (fine_bits - bit_width))
    result = TWO_PI * target / lam_hat
    if peak(result) < target - 1:
        result *= target / (target + 0.5)
    verify_t = 0.35 * result / target
    est = run_preprocessing(qlsp, bit_width, verify_t, shots=shots, seed=seed)
    if est.entries[0].grid_int != 0:
        raise AliasingError("verification run still decodes a nonzero estimate")
    return result


def _search_outcome(search, qlsp, bit_width, shots, seed):
    """The returned float's hex, or the raised error's type and message."""
    try:
        return float.hex(search(qlsp, bit_width, shots=shots, seed=seed))
    except (QlsLabError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _rotated(eigenvalues, angle):
    c, s = math.cos(angle), math.sin(angle)
    u = np.array([[c, -s], [s, c]])
    return u @ np.diag(eigenvalues) @ u.T


@st.composite
def _search_problems(draw):
    kind = draw(st.sampled_from(["n2", "unsigned", "signed", "dilation", "n4"]))
    angle = st.floats(0.0, math.pi)
    if kind == "n2":
        qlsp = generate_n2(draw(st.floats(0.005, 0.495)))
    elif kind == "n4":
        pair = draw(st.sampled_from([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        qlsp = generate_n4((-21 / 24, -20 / 24, 5 / 24, 6 / 24), pair, draw(st.integers(0, 999)))
    elif kind == "dilation":  # eigenvalues +-|m| with equal weights: exact ties
        magnitude, phase = draw(st.floats(0.05, 1.0)), draw(angle)
        qlsp = hermitian_dilation([[magnitude * complex(math.cos(phase), math.sin(phase))]], [1.0])
    else:
        first = st.floats(-1.0, -0.02) if kind == "signed" else st.floats(0.02, 1.0)
        eigenvalues = [draw(first), draw(st.floats(0.02, 1.0))]
        beta = draw(angle)
        qlsp = QLSP(_rotated(eigenvalues, draw(angle)), [math.cos(beta), math.sin(beta)])
    return qlsp


@settings(max_examples=150, deadline=None)
@given(
    qlsp=_search_problems(),
    bit_width=st.integers(2, 5),
    sampling=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_iterative_t0_matches_the_probe_by_probe_search(qlsp, bit_width, sampling):
    shots, seed = (None, None) if sampling is None else (4096, sampling)
    expected = _search_outcome(_reference_t0, qlsp, bit_width, shots, seed)
    assert _search_outcome(iterative_t0, qlsp, bit_width, shots, seed) == expected


@pytest.mark.parametrize("shots", [None, 4096])
def test_iterative_t0_matches_the_probe_by_probe_search_on_the_sweep(shots):
    """Every lambda of ``qlslab sweep --count 99``, at the sweep's k = 3."""
    for i in range(99):
        qlsp = generate_n2(0.005 + i * (0.495 - 0.005) / 98)
        expected = _search_outcome(_reference_t0, qlsp, 3, shots, i)
        assert _search_outcome(iterative_t0, qlsp, 3, shots, i) == expected


@pytest.mark.parametrize("dimension", [2, 4, 8])
@pytest.mark.parametrize("bits", range(1, 7))
def test_probe_table_rows_equal_the_single_probe_distributions(dimension, bits):
    rng = np.random.default_rng(10 * dimension + bits)
    m = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    qlsp = QLSP(m + m.conj().T, rng.normal(size=dimension))
    scales = [*np.ldexp(math.pi / 2, np.arange(13)).tolist(), *rng.uniform(0.1, 300.0, 4).tolist()]
    exact = preprocess._probe_table(qlsp, bits, scales, None, None)
    sampled = preprocess._probe_table(qlsp, bits, scales, 4096, 7)
    assert exact.shape == sampled.shape == (len(scales), 2**bits)
    for t, row, frequencies in zip(scales, exact, sampled):
        assert np.array_equal(row, qpe_grid_probabilities(qlsp, bits, t))
        assert np.array_equal(frequencies, qpe_histogram(qlsp, bits, t, 4096, 7) / 4096)


@pytest.mark.parametrize("dimension", [2, 4, 8])
@pytest.mark.parametrize("bits", range(1, 7))
def test_every_probe_row_keeps_its_heaviest_bin(dimension, bits):
    """Every row ``_probe_table`` returns, exact or sampled at 4096 shots,
    holds a bin of weight at least 2^(-bits/2), since its probabilities sum
    to one over 2^bits bins. That is above the relevance threshold 2^-bits,
    so ``_branch`` never raises inside ``iterative_t0``, and ranking only the
    rows the search reads changes no outcome. The 1e-12 slack covers the
    exact rows' roundoff."""
    rng = np.random.default_rng(100 * dimension + bits)
    ladder = np.ldexp(math.pi / 2, np.arange(16)).tolist()  # the ladder's scales, and 8 times them
    for seed in range(5):
        m = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        qlsp = QLSP(m + m.conj().T, rng.normal(size=dimension))
        scales = [*ladder, *rng.uniform(1e-3, 6e4, 8).tolist()]
        for shots in (None, 4096):
            table = preprocess._probe_table(qlsp, bits, scales, shots, seed)
            assert (np.sqrt(table.max(axis=1)) >= 2 ** (-bits / 2) * (1 - 1e-12)).all()
            for row in table:
                preprocess._branch(np.sqrt(row), bits, qlsp.has_negative_eigenvalues)


def test_probe_table_keeps_the_single_probe_checks():
    qlsp = generate_n2(0.3)
    with pytest.raises(ValueError, match="t0 must be finite, not inf"):
        preprocess._probe_table(qlsp, 3, [1.0, math.inf], None, None)
    with pytest.raises(ValueError, match="bit_width"):
        preprocess._probe_table(qlsp, 0, [1.0], None, None)
    with pytest.raises(CapacityError):
        preprocess._probe_table(qlsp, MAX_QUBITS, [1.0], None, None)


def _reference_branches(probabilities, bit_width, signed):
    """Top grid value, strong-branch peak and dominant coordinate of one
    distribution, read off ``estimates_from_probabilities``."""
    est = estimates_from_probabilities(probabilities, bit_width, 1.0, signed)
    strong = _reference_strong_coordinates(est)
    return est.entries[0].grid_int, max(abs(d) for d in strong), max(strong, key=abs)


def _branch_outcome(rule, row, bit_width, signed):
    try:
        return rule(row, bit_width, signed)
    except (ValueError, EmptyEstimateError) as exc:
        return type(exc).__name__, str(exc)


def _read_row(row, bit_width, signed):
    """One distribution read as ``iterative_t0`` reads a row: checked weights, then ``_branch``."""
    return preprocess._branch(preprocess._weights(row), bit_width, signed)


def _assert_branches_match(table, bit_width, signed):
    """Each row of ``table`` read alone by ``_branch`` as ``_reference_branches``
    reads it, failures included."""
    for row in np.asarray(table, dtype=float):
        expected = _branch_outcome(_reference_branches, row, bit_width, signed)
        assert _branch_outcome(_read_row, row, bit_width, signed) == expected


# weights that tie on 12 decimals but not in the last bits
_TIED = {
    "ranked top, not raw top, sets the cutoff": (3, {1: 0.5, 2: 0.5 + 1e-15, 5: 0.25}),
    "heavier last bits at the larger grid value": (3, {2: 0.5, 6: 0.5 + 1e-15}),
    "heavier last bits at the smaller grid value": (3, {2: 0.5 + 1e-15, 6: 0.5}),
    "three-way tie": (4, {3: 0.4 + 4e-16, 9: 0.4, 13: 0.4 + 8e-16, 1: 0.2}),
    "tie below half the top": (2, {0: 0.8, 1: 0.4, 3: 0.4 + 1e-15}),
}


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("case", _TIED.values(), ids=list(_TIED))
def test_branch_rule_ranks_ties_on_12_decimals(case, signed):
    bit_width, weights = case
    row = _bins(bit_width, {g: w**2 for g, w in weights.items()})
    _assert_branches_match([row], bit_width, signed)


_PALETTE = (0.0, 1e-3, 0.125, 0.25, 0.25 + 5e-17, 0.3, 0.5 - 1e-15, 0.5, 0.5 + 1e-15, 0.9)


@settings(max_examples=300, deadline=None)
@given(
    bit_width=st.integers(1, 4),
    signed=st.booleans(),
    data=st.data(),
)
def test_branch_rule_matches_the_estimate_ranking(bit_width, signed, data):
    """Every row of a table, read alone by ``_branch``, as
    ``estimates_from_probabilities`` ranks it; a row with no kept entry raises."""
    row = st.lists(st.sampled_from(_PALETTE), min_size=2**bit_width, max_size=2**bit_width)
    table = np.array(data.draw(st.lists(row, min_size=1, max_size=4))) ** 2
    _assert_branches_match(table, bit_width, signed)


@pytest.mark.parametrize(
    "bad, message", [(math.nan, "finite"), (math.inf, "finite"), (-1e-18, "non-negative")]
)
def test_branch_rule_keeps_the_decoding_checks(bad, message):
    table = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, bad, 0.5, 0.0]])
    _assert_branches_match(table, 2, False)
    with pytest.raises(ValueError, match=message):
        preprocess._weights(table)  # iterative_t0 checks a whole table before it reads a row
    with pytest.raises(ValueError, match=message):
        _read_row(table[1], 2, False)
    second_empty = np.full((2, 8), 1 / 8) * [[1], [0]]
    _assert_branches_match(second_empty, 3, False)
    with pytest.raises(EmptyEstimateError):
        _read_row(second_empty[1], 3, False)


@pytest.mark.xfail(
    strict=True,
    raises=AliasingError,
    reason="the doubling test reads only the peak branch, so the bracket ends a doubling late"
    " and verification decodes a nonzero estimate (ROADMAP item 2)",
)
def test_iterative_t0_places_a_close_pair():
    """Eigenvalues 0.465 and 0.535, |beta|^2 = 0.19 and 0.81: the search must
    yield a t0 that puts no eigenvalue more than half a step over the top."""
    qlsp = QLSP([[0.5129, 0.0326], [0.0326, 0.4871]], [0.9899, 0.1416])
    t0 = iterative_t0(qlsp, 3)
    assert max(qlsp.eigenvalues) * t0 / TWO_PI <= 7.5
