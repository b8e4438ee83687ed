"""Preprocessing tests: QPE circuits, estimate decoding, time-scale search."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlslab.errors import AliasingError, CapacityError, EmptyEstimateError
from qlslab.inversion import plan_hybrid
from qlslab.preprocess import (
    EigenEstimateSet,
    build_qpe_circuit,
    decode_grid_int,
    estimates_from_probabilities,
    fixed_t0,
    inverse_qft_gates,
    iterative_t0,
    qft_gates,
    qpe_grid_probabilities,
    qpe_gates,
    qpe_histogram,
    qpe_state,
    qpe_uncompute,
    run_preprocessing,
)
from qlslab.qlsp import QLSP, generate_n2, generate_n4, hermitian_dilation
from qlslab.sim import (
    MAX_QUBITS,
    Circuit,
    StateVector,
    apply_circuit,
    circuit_matrix,
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
    circuit.extend(inverse_qft_gates(range(3)))
    assert np.max(np.abs(circuit_matrix(circuit) - np.eye(8))) < 1e-12


def test_inverse_qft_gates_returns_a_fresh_list():
    first = inverse_qft_gates(range(3))
    expected = list(first)
    first.clear()
    assert inverse_qft_gates(range(3)) == expected
    assert inverse_qft_gates([0, 1, 2]) is not inverse_qft_gates([0, 1, 2])


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
    return apply_circuit(StateVector.zero(circuit.num_qubits), circuit)


@st.composite
def random_problem(draw):
    """A random Hermitian system of dimension 2, 4 or 8 with a positive or a
    signed spectrum, or the Hermitian dilation of a random general system."""
    dim = draw(st.sampled_from([2, 4, 8]))
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
def test_qpe_state_matches_dense_simulation(case):
    qlsp, bits, t0 = case
    closed = qpe_state(qlsp, bits, t0)
    dense = _dense_qpe_state(qlsp, bits, t0)
    assert closed.num_qubits == dense.num_qubits == qlsp.num_qubits + bits
    assert np.max(np.abs(closed.amplitudes - dense.amplitudes)) < 1e-12


@st.composite
def _uncompute_case(draw):
    """(problem, bits, t0, state): a random state on the problem's b and clock
    qubits, with or without one qubit above the clock."""
    qlsp = draw(random_problem())
    bits = draw(st.integers(1, 4))
    t0 = draw(st.floats(0.0, 60.0))
    width = qlsp.num_qubits + bits + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.standard_normal(2**width) + 1j * rng.standard_normal(2**width)
    return qlsp, bits, t0, StateVector(width, amplitudes / np.linalg.norm(amplitudes))


@settings(derandomize=True, deadline=None)
@given(_uncompute_case())
def test_qpe_uncompute_matches_the_inverted_gates(case):
    qlsp, bits, t0, state = case
    nb = qlsp.num_qubits
    circuit = Circuit(state.num_qubits)
    circuit.extend(inverted_gates(qpe_gates(qlsp, range(nb, nb + bits), range(nb), t0)))
    closed = qpe_uncompute(qlsp, bits, t0, state)
    assert closed.num_qubits == state.num_qubits
    assert np.max(np.abs(closed.amplitudes - circuit_matrix(circuit) @ state.amplitudes)) < 1e-12


def test_qpe_uncompute_rejects_a_state_without_room_for_the_clock():
    with pytest.raises(ValueError, match="clock"):
        qpe_uncompute(generate_n2(0.3), 3, 1.0, StateVector.zero(3))


@pytest.mark.parametrize("block", ["qpe_state", "qpe_uncompute"])
def test_qpe_blocks_over_the_budget_raise_before_allocating(block):
    """A 2x2 problem with MAX_QUBITS clock bits is one qubit over the budget;
    unchecked, the block would allocate 2^21 amplitudes (32 MB)."""
    qlsp = generate_n2(0.3)
    with pytest.raises(CapacityError, match=f"{MAX_QUBITS + 1} qubits"):
        if block == "qpe_state":
            qpe_state(qlsp, MAX_QUBITS, 1.0)
        else:
            qpe_uncompute(qlsp, MAX_QUBITS, 1.0, StateVector.zero(1))


def test_qpe_state_rejects_empty_clock():
    with pytest.raises(ValueError, match="bit_width"):
        qpe_state(generate_n2(0.3), 0, 1.0)


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
        estimates_from_probabilities(_bins(3, {1: 0.5, 2: 0.5}), 3, 6 * math.pi, threshold=0.99)


def test_estimates_reject_a_nan_bin():
    probabilities = [0.5, math.nan, 0.5, 0.0]
    with pytest.raises(ValueError, match="finite"):
        estimates_from_probabilities(probabilities, 2, 1.0)


@pytest.mark.parametrize("time_scale", [math.nan, math.inf])
def test_estimates_reject_a_non_finite_time_scale(time_scale):
    probabilities = [0.5, 0.0, 0.5, 0.0]
    with pytest.raises(ValueError, match="time scale"):
        estimates_from_probabilities(probabilities, 2, time_scale)
    with pytest.raises(ValueError, match="finite"):
        run_preprocessing(generate_n2(0.1), 3, time_scale)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_qpe_state_rejects_a_non_finite_t0(t0):
    with pytest.raises(ValueError, match="t0"):
        qpe_state(generate_n2(0.1), 3, t0)


def test_estimates_sorted_and_deterministic():
    probabilities = _bins(3, {1: 100 / 1024, 2: 800 / 1024, 3: 124 / 1024})
    a = estimates_from_probabilities(probabilities, 3, 6 * math.pi, threshold=0.05)
    b = estimates_from_probabilities(probabilities, 3, 6 * math.pi, threshold=0.05)
    assert [e.grid_int for e in a.entries] == [2, 3, 1]
    assert a == b


def test_estimate_set_json_round_trip():
    estimates = estimates_from_probabilities(_bins(3, {1: 0.5, 6: 0.5}), 3, 7.0, signed_mode=True)
    loaded = EigenEstimateSet.from_json(estimates.to_json())
    assert loaded == estimates


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
    found = iterative_t0(qlsp, 5, signed=False)
    scan_max = _brute_force_top_scale(lam, 5)
    assert found <= scan_max * 1.01
    assert found >= scan_max / 2  # within one doubling step of the boundary
    # the returned scale pins the eigenvalue onto the top grid value
    assert lam * found / TWO_PI == pytest.approx(31.0, abs=0.05)


def test_iterative_t0_family_targets_top_value():
    qlsp = generate_n2(1 / 3)
    t0 = iterative_t0(qlsp, 3, signed=False)
    coord = (2 / 3) * t0 / TWO_PI
    assert round(coord) == 7
    assert coord == pytest.approx(7.0, abs=0.05)


def test_iterative_t0_signed_problem():
    qlsp = generate_n4((-21 / 24, -20 / 24, 5 / 24, 6 / 24), (0, 2), seed=7)
    t0 = iterative_t0(qlsp, 3, signed=True)
    coord = (21 / 24) * t0 / TWO_PI
    assert coord == pytest.approx(3.0, abs=0.05)


def test_iterative_t0_detects_aliased_start():
    """A start where every eigenvalue wraps to zero must be rejected."""
    lam = 0.4
    qlsp = QLSP(np.diag([lam, lam]), [1.0, 0.0])
    aliased = TWO_PI * 8 / lam  # coordinate exactly 2^3, reads as zero
    with pytest.raises(AliasingError):
        iterative_t0(qlsp, 3, signed=False, initial_t0=aliased, max_doublings=3)


@pytest.mark.parametrize(
    "lam, expected",
    # pinned scales: refactoring the search must not move a sampled result
    [(0.1, 48.876899075039155), (0.25, 58.64306286700947), (0.4, 73.30143670127775)],
)
def test_iterative_t0_sampled(lam, expected):
    qlsp = generate_n2(lam)
    t0 = iterative_t0(qlsp, 3, signed=False, shots=4096, seed=5)
    assert (1 - lam) * t0 / TWO_PI == pytest.approx(7.0, abs=0.1)
    assert t0 == pytest.approx(expected, rel=1e-12)
    assert iterative_t0(qlsp, 3, signed=False, shots=4096, seed=5) == t0


def test_run_preprocessing_exact_matches_sampled_limit():
    qlsp = generate_n2(0.3)
    exact = run_preprocessing(qlsp, 3, 14 * math.pi)
    sampled = run_preprocessing(qlsp, 3, 14 * math.pi, shots=200_000, seed=4)
    exact_map = {e.grid_int: e.weight for e in exact.entries}
    for entry in sampled.entries:
        assert entry.weight == pytest.approx(exact_map[entry.grid_int], abs=0.02)
