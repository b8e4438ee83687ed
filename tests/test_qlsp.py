"""Problem model tests: generators, spectra, solutions, dilation, evolution."""
import json
import math

import numpy as np
import pytest

from qlslab.errors import InvalidProblemError, SingularProblemError
from qlslab.qlsp import (
    QLSP,
    classical_solution,
    evolution_unitary,
    generate_n2,
    generate_n4,
    hermitian_dilation,
)

PAPER_N4_EIGENVALUES = (-21 / 24, -20 / 24, 5 / 24, 6 / 24)
NAN, INF = float("nan"), float("inf")
IDENTITY_DOC = {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "vector_b": [[1, 0], [0, 0]]}


def _random_orthonormal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def test_n2_family_eigenvalues():
    qlsp = generate_n2(1 / 3)
    assert np.allclose(sorted(qlsp.eigenvalues), [1 / 3, 2 / 3], atol=1e-12)


def test_n2_ill_conditioned_kappa():
    assert generate_n2(0.01).condition_number == pytest.approx(99.0, abs=1e-9)


def test_n2_matrix_entries():
    qlsp = generate_n2(0.25)
    assert np.allclose(qlsp.matrix_a, [[0.5, -0.25], [-0.25, 0.5]])
    assert np.allclose(sorted(qlsp.eigenvalues), [0.25, 0.75])


def test_n2_equal_projections():
    for lam in (0.1, 0.27, 0.44):
        qlsp = generate_n2(lam)
        weights = np.abs(qlsp.projections) ** 2
        assert np.allclose(weights, [0.5, 0.5], atol=1e-12)


def test_n2_range_validation():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            generate_n2(bad)


def test_identity_problem():
    qlsp = QLSP(np.eye(2), [1.0, 0.0])
    assert np.allclose(qlsp.eigenvalues, [1.0, 1.0])
    assert qlsp.condition_number == pytest.approx(1.0)


def test_classical_solution_n2_third():
    # Hand inverse of [[0.5, -1/6], [-1/6, 0.5]]: det = 2/9, A^-1 b = (2.25, 0.75),
    # which normalizes to (3, 1)/sqrt(10).
    solution = classical_solution(generate_n2(1 / 3))
    expected = np.array([3.0, 1.0]) / math.sqrt(10.0)
    assert np.allclose(solution.state_x, expected, atol=1e-12)


def test_classical_solution_identity():
    qlsp = QLSP(np.eye(2), [0.6, 0.8])
    assert np.allclose(classical_solution(qlsp).state_x, [0.6, 0.8], atol=1e-12)


def test_classical_solution_diagonal():
    qlsp = QLSP(np.diag([0.5, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2))
    expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
    assert np.allclose(classical_solution(qlsp).state_x, expected, atol=1e-12)


def test_classical_solution_solves_system():
    """A (raw_norm x) = b on random well-conditioned instances."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.choice([2, 4]))
        basis = _random_orthonormal(rng, dim)
        eigs = rng.uniform(0.3, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        matrix = basis @ np.diag(eigs) @ basis.T
        b = rng.standard_normal(dim)
        qlsp = QLSP(matrix, b / np.linalg.norm(b))
        sol = classical_solution(qlsp)
        assert np.max(np.abs(qlsp.matrix_a @ (sol.raw_norm * sol.state_x) - qlsp.vector_b)) < 1e-8


def test_dilation_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    qlsp = hermitian_dilation(a, [1.0, 0.0])
    scale = qlsp.scale
    assert np.allclose(qlsp.matrix_a[:2, 2:] * scale, a, atol=1e-9)
    assert np.allclose(qlsp.matrix_a[2:, :2] * scale, a.conj().T, atol=1e-9)
    assert np.allclose(qlsp.matrix_a[:2, :2], 0)
    assert np.allclose(qlsp.vector_b, [1, 0, 0, 0])


def test_dilation_spectrum_symmetric():
    """Dilated eigenvalues come in +/- pairs; checked against a dense solve."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        qlsp = hermitian_dilation(a, b)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, 2:] = a
        block[2:, :2] = a.conj().T
        oracle = np.sort(np.linalg.eigvalsh(block)) / (qlsp.scale)
        assert np.allclose(np.sort(qlsp.eigenvalues), oracle, atol=1e-10)
        assert np.allclose(np.sort(qlsp.eigenvalues), -np.sort(-np.array(qlsp.eigenvalues))[::-1], atol=1e-10)


def test_dilation_identity():
    qlsp = hermitian_dilation(np.eye(2), [1.0, 0.0])
    assert np.allclose(sorted(qlsp.eigenvalues), [-1, -1, 1, 1], atol=1e-12)


def test_dilation_rejects_zero_rhs():
    with pytest.raises(InvalidProblemError):
        hermitian_dilation(np.eye(2), [0.0, 0.0])


@pytest.mark.parametrize(
    "a, b",
    [
        ([[NAN, 0.0], [0.0, 1.0]], [1.0, 0.0]),
        ([[1.0, INF], [0.0, 1.0]], [1.0, 0.0]),
        (np.eye(2), [NAN, 1.0]),
        (np.eye(2), [-INF, 0.0]),
    ],
)
def test_dilation_rejects_non_finite(a, b):
    with pytest.raises(InvalidProblemError, match="finite"):
        hermitian_dilation(a, b)


def test_spectral_scaling_recorded():
    qlsp = QLSP(np.diag([2.0, 1.0]), [1.0, 0.0])
    assert qlsp.scale == pytest.approx(2.0)
    assert np.allclose(sorted(qlsp.eigenvalues), [0.5, 1.0])


def test_evolution_unitary_zero_time():
    qlsp = generate_n2(0.3)
    assert np.allclose(evolution_unitary(qlsp, 0.0, 1, 8), np.eye(2), atol=1e-12)


def test_evolution_unitary_diagonal_phases():
    qlsp = QLSP(np.diag([0.25, 0.75]), [0.6, 0.8])
    t0, big_t = 4.0, 8
    u = evolution_unitary(qlsp, t0, power=2, big_t=big_t)
    expected = np.diag(np.exp(1j * np.array([0.25, 0.75]) * t0 * 2 / big_t))
    assert np.allclose(u, expected, atol=1e-12)


def test_evolution_unitary_power_oracle():
    """U^(2^r) equals the base unitary multiplied out 2^r times."""
    qlsp = generate_n2(0.21)
    base = evolution_unitary(qlsp, 11.0, power=1, big_t=8)
    repeated = np.eye(2, dtype=complex)
    for _ in range(4):
        repeated = repeated @ base
    assert np.allclose(evolution_unitary(qlsp, 11.0, power=4, big_t=8), repeated, atol=1e-9)


def test_evolution_unitary_properties():
    qlsp = generate_n2(0.37)
    u = evolution_unitary(qlsp, 7.0, power=2, big_t=8)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9
    assert np.max(np.abs(u @ qlsp.matrix_a - qlsp.matrix_a @ u)) < 1e-9


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"power": 2.5}, "power"),
        ({"power": True}, "power"),
        ({"power": -1}, "power"),
        ({"big_t": 0}, "big_t"),
        ({"big_t": 8.0}, "big_t"),
    ],
)
def test_evolution_unitary_accepts_only_int_powers(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be .* an int"):
        evolution_unitary(generate_n2(0.3), 1.0, **kwargs)


@pytest.mark.parametrize("big_t", [1, 8, 128])
@pytest.mark.parametrize("dimension", [2, 4, 8])
def test_evolution_unitary_over_powers_stacks_the_scalar_calls(dimension, big_t):
    rng = np.random.default_rng(dimension + big_t)
    z = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal((dimension, dimension))
    qlsp = QLSP(z + z.conj().T, rng.standard_normal(dimension))
    powers = [1 << r for r in range(8)] + [0, 3]
    for sequence in (powers, np.array(powers), tuple(powers)):
        stack = evolution_unitary(qlsp, 11.5, power=sequence, big_t=big_t)
        assert stack.shape == (len(powers), dimension, dimension)
        for matrix, power in zip(stack, powers):
            scalar = evolution_unitary(qlsp, 11.5, power=power, big_t=big_t)
            assert np.max(np.abs(matrix - scalar)) < 1e-14
    assert evolution_unitary(qlsp, 1.0, power=[]).shape == (0, dimension, dimension)


@pytest.mark.parametrize(
    "powers", [[1, -1], [1, True], [2.5], np.array([1, -2]), np.array([True, False]), [[1, 2]]]
)
def test_evolution_unitary_rejects_a_power_in_a_sequence_as_a_scalar(powers):
    with pytest.raises(ValueError, match="power must be non-negative and an int"):
        evolution_unitary(generate_n2(0.3), 1.0, power=powers)


@pytest.mark.parametrize("time", ["1", True, None, NAN, INF, -INF])
def test_evolution_unitary_rejects_a_non_real_or_non_finite_time(time):
    """A string or a bool would be taken as 1, and NaN or inf would give a NaN matrix."""
    with pytest.raises(ValueError, match="time must be"):
        evolution_unitary(generate_n2(0.3), time)


def test_generate_n4_spectrum_and_projections():
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 2), seed=7)
    assert np.allclose(sorted(qlsp.eigenvalues), sorted(PAPER_N4_EIGENVALUES), atol=1e-10)
    weights = sorted(np.abs(qlsp.projections))
    assert np.allclose(weights[:2], [0, 0], atol=1e-10)
    assert np.allclose(weights[2:], [1 / math.sqrt(2)] * 2, atol=1e-10)


def test_generate_n4_deterministic():
    a = generate_n4(PAPER_N4_EIGENVALUES, (1, 3), seed=42)
    b = generate_n4(PAPER_N4_EIGENVALUES, (1, 3), seed=42)
    assert np.allclose(a.matrix_a, b.matrix_a)
    assert np.allclose(a.vector_b, b.vector_b)


def test_generate_n4_validation():
    with pytest.raises(ValueError):
        generate_n4(PAPER_N4_EIGENVALUES, (2, 2), seed=1)
    with pytest.raises(ValueError):
        generate_n4((0.1, 0.2, 0.3, 1.5), (0, 1), seed=1)
    with pytest.raises(ValueError):
        generate_n4((0.1, 0.1, 0.3, 0.4), (0, 1), seed=1)
    with pytest.raises(ValueError):
        generate_n4((0.0, 0.2, 0.3, 0.4), (0, 1), seed=1)


@pytest.mark.parametrize(
    "pair, seed, field",
    [
        ((0, 1), None, "seed"),
        ((0, 1), 1.0, "seed"),
        ((0, 1), -1, "seed"),
        ((0.5, 1), 1, "pair index"),
        ((0, True), 1, "pair index"),
        ((-1, 1), 1, "pair index"),
    ],
)
def test_generate_n4_accepts_only_int_seeds_and_pairs(pair, seed, field):
    with pytest.raises(ValueError, match=f"{field} must be .* an int"):
        generate_n4(PAPER_N4_EIGENVALUES, pair, seed)


def test_n2_eigendecomposition_consistency():
    for lam in (0.05, 0.2, 0.41):
        qlsp = generate_n2(lam)
        assert np.allclose(sorted(qlsp.eigenvalues), [lam, 1 - lam], atol=1e-12)


def test_spectrum_reconstructs_matrix():
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), seed=3)
    vectors = qlsp.eigenvectors
    rebuilt = (vectors * qlsp.eigenvalues) @ vectors.conj().T
    assert np.max(np.abs(rebuilt - qlsp.matrix_a)) < 1e-9


def test_eigenvectors_orthonormal():
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), seed=3)
    vectors = qlsp.eigenvectors
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-10


def test_spectrum_arrays_are_stacked_once_and_read_only():
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 2), seed=7)
    for j, lam in enumerate(qlsp.eigenvalues):  # pair j: eigenvalue j, column j, projection j
        u = np.ascontiguousarray(qlsp.eigenvectors[:, j])
        assert np.max(np.abs(qlsp.matrix_a @ u - lam * u)) < 1e-12
        assert qlsp.projections[j] == np.vdot(u, qlsp.vector_b)
    for array in (qlsp.eigenvalues, qlsp.eigenvectors, qlsp.projections):
        assert not array.flags.writeable
    assert qlsp.eigenvalues is qlsp.eigenvalues  # stored, not rebuilt per access


def test_json_round_trip():
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 2), seed=7)
    loaded = QLSP.from_json(qlsp.to_json())
    assert np.allclose(loaded.matrix_a, qlsp.matrix_a)
    assert np.allclose(loaded.vector_b, qlsp.vector_b)
    assert loaded.scale == pytest.approx(qlsp.scale)
    doc = json.loads(qlsp.to_json())
    assert set(doc) == {"matrix", "vector_b", "scale"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        ({"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "lacks 'vector_b'"),
        ({"matrix": [[1, 0], [0, 1]], "vector_b": [[1, 0], [0, 0]]}, r"\[re, im\] number pairs"),
        ({"matrix": [[["1", 0]]], "vector_b": [[1, 0]]}, r"\[re, im\] number pairs"),
        ({"matrix": [[[1, 0]]], "vector_b": [[1, 0]], "scale": None}, "scale a number"),
        ({**IDENTITY_DOC, "scale": math.nan}, "scale must be finite and positive"),
        ({**IDENTITY_DOC, "scale": -3}, "scale must be finite and positive"),
        ({**IDENTITY_DOC, "scale": INF}, "scale must be finite and positive"),
        ({**IDENTITY_DOC, "scale": True}, "scale a number"),
        ({**IDENTITY_DOC, "scale": "2"}, "scale a number"),
    ],
    ids=[
        "not-an-object", "no-vector", "not-pairs", "string-entry", "null-scale",
        "nan-scale", "negative-scale", "infinite-scale", "bool-scale", "string-scale",
    ],
)
def test_from_json_rejects_malformed_documents(doc, message):
    with pytest.raises(InvalidProblemError, match=message):
        QLSP.from_json(json.dumps(doc))


def test_rejects_invalid_problems():
    with pytest.raises(InvalidProblemError):
        QLSP(np.array([[0.5, 0.2], [0.3, 0.5]]), [1, 0])  # not Hermitian
    with pytest.raises(InvalidProblemError):
        QLSP(np.eye(3), [1, 0, 0])  # not a power of two
    with pytest.raises(InvalidProblemError):
        QLSP(np.eye(2), [0, 0])  # zero right-hand side
    with pytest.raises(SingularProblemError):
        QLSP(np.diag([1.0, 0.0]), [1, 0])
    for scale in (NAN, INF, -3.0, 0.0):
        with pytest.raises(InvalidProblemError, match="scale must be finite and positive"):
            QLSP(np.eye(2), [1, 0], scale=scale)
    for scale in (True, "2"):  # would read 1.0 and 2.0
        with pytest.raises(InvalidProblemError, match="scale must be a real number"):
            QLSP(np.eye(2), [1, 0], scale=scale)


def test_has_negative_eigenvalues_flag():
    assert not generate_n2(0.3).has_negative_eigenvalues
    assert generate_n4(PAPER_N4_EIGENVALUES, (0, 1), seed=7).has_negative_eigenvalues


def test_spectrum_surface():
    qlsp = generate_n2(1 / 3)
    assert qlsp.condition_number == pytest.approx(2.0)
    assert sorted(qlsp.eigenvalues) == pytest.approx([1 / 3, 2 / 3])


@pytest.mark.parametrize(
    "a, b",
    [
        ([[NAN, 0.0], [0.0, 1.0]], [1.0, 0.0]),
        (np.diag([1.0, INF]), [1.0, 0.0]),
        (np.diag([1.0, 0.5]), [INF, 0.0]),
        (np.diag([1.0, 0.5]), [1.0, NAN]),
    ],
)
def test_rejects_non_finite_input(a, b):
    with pytest.raises(InvalidProblemError, match="finite"):
        QLSP(a, b)


def test_problem_is_immutable():
    qlsp = generate_n2(0.2)
    with pytest.raises(AttributeError, match="immutable"):
        qlsp.scale = 2.0
    with pytest.raises(AttributeError, match="immutable"):
        qlsp.eigenvalues = np.array([0.2, 0.8])
    with pytest.raises(AttributeError, match="immutable"):
        qlsp.label = "new attribute"
    assert qlsp.scale == 1.0
    assert np.allclose(sorted(qlsp.eigenvalues), [0.2, 0.8])
