"""Preprocessing tests: QPE circuits, estimate decoding, time-scale search."""
import math

import numpy as np
import pytest

from qlslab.errors import AliasingError, EmptyEstimateError
from qlslab.preprocess import (
    EigenEstimateSet,
    build_qpe_circuit,
    decode_grid_int,
    extract_estimates,
    fixed_t0,
    inverse_qft_gates,
    iterative_t0,
    qft_gates,
    qpe_grid_probabilities,
    qpe_histogram,
    run_preprocessing,
)
from qlslab.qlsp import QLSP, generate_n2, generate_n4
from qlslab.sim import Circuit, circuit_matrix

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
    histogram = qpe_histogram(generate_n2(0.3), 3, 0.0, shots=64, seed=1)
    assert histogram == {"000": 64}


def test_qpe_circuit_registers():
    circuit = build_qpe_circuit(generate_n2(0.3), 4, 10.0)
    assert circuit.num_qubits == 5
    assert circuit.register_map["b"] == (0,)
    assert circuit.register_map["c"] == (1, 2, 3, 4)


def test_extract_estimates_plain_decode():
    estimates = extract_estimates({"001": 512, "010": 512}, 3, 6 * math.pi)
    decoded = {(e.grid_int, round(e.lambda_tilde, 12), round(e.weight, 6)) for e in estimates.entries}
    assert decoded == {
        (1, round(1 / 3, 12), round(math.sqrt(0.5), 6)),
        (2, round(2 / 3, 12), round(math.sqrt(0.5), 6)),
    }


def test_extract_estimates_signed_decode():
    t0 = 6 * math.pi
    estimates = extract_estimates({"111": 1024}, 3, t0, signed_mode=True)
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
    histogram = {"001": shots - small, "010": small}
    estimates = extract_estimates(histogram, bits, 6 * math.pi)
    assert [e.grid_int for e in estimates.entries] == [1]


def test_extract_estimates_empty_cases():
    with pytest.raises(EmptyEstimateError):
        extract_estimates({}, 3, 6 * math.pi)
    with pytest.raises(EmptyEstimateError):
        extract_estimates({"001": 500, "010": 500}, 3, 6 * math.pi, threshold=0.99)


@pytest.mark.parametrize("key", ["0001", "1111", "01", "0b1", "0_1", "012"])
def test_extract_estimates_rejects_malformed_keys(key):
    with pytest.raises(ValueError, match="3-bit"):
        extract_estimates({key: 10}, 3, 1.0)


def test_extract_estimates_sorted_and_deterministic():
    histogram = {"001": 100, "010": 800, "011": 124}
    a = extract_estimates(histogram, 3, 6 * math.pi, threshold=0.05)
    b = extract_estimates(histogram, 3, 6 * math.pi, threshold=0.05)
    assert [e.grid_int for e in a.entries] == [2, 3, 1]
    assert a == b


def test_estimate_set_json_round_trip():
    estimates = extract_estimates({"001": 512, "110": 512}, 3, 7.0, signed_mode=True)
    loaded = EigenEstimateSet.from_json(estimates.to_json())
    assert loaded == estimates


def test_perfect_grid_recovery_with_sampling():
    """On-grid spectra recover exactly the populated bins at |beta| weight."""
    qlsp = generate_n2(1 / 3)
    shots = 8192
    histogram = qpe_histogram(qlsp, 3, 18 * math.pi, shots=shots, seed=5)
    estimates = extract_estimates(histogram, 3, 18 * math.pi)
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
