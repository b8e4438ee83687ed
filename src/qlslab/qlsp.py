"""Quantum linear system problems: model, generators, exact solutions.

A problem holds a Hermitian matrix with spectral norm at most 1 (inputs with
larger spectra are scaled down and the factor recorded), a unit right-hand
side, and a cached eigendecomposition. Problems are immutable after
construction.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError, SingularProblemError
from .sim import check_count, check_real

HERMITIAN_ATOL = 1e-10
SINGULAR_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClassicalSolution:
    state_x: np.ndarray
    raw_norm: float


def _system_arrays(matrix_a, vector_b) -> tuple[np.ndarray, np.ndarray]:
    """Complex copies of a square, finite system with a nonzero right-hand side."""
    a = np.array(matrix_a, dtype=complex)
    b = np.array(vector_b, dtype=complex).reshape(-1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidProblemError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise InvalidProblemError("right-hand side length does not match the matrix")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidProblemError("matrix and right-hand side must be finite")
    if float(np.linalg.norm(b)) < 1e-12:
        raise InvalidProblemError("right-hand side is the zero vector")
    return a, b


class QLSP:
    """Hermitian system A x = b with cached spectrum and condition number.

    Eigenpair j: ``eigenvalues[j]``, ``eigenvectors[:, j]``, ``projections[j]`` = <u_j|b>.
    """

    def __init__(self, matrix_a, vector_b, scale: float = 1.0):
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
            raise InvalidProblemError(f"scale must be a real number, not {scale!r}")
        if not 0 < float(scale) < math.inf:
            raise InvalidProblemError(f"scale must be finite and positive, not {scale}")
        a, b = _system_arrays(matrix_a, vector_b)
        n = a.shape[0]
        if n < 2 or n & (n - 1):
            raise InvalidProblemError(f"dimension must be a power of two >= 2, got {n}")
        if np.max(np.abs(a - a.conj().T)) > HERMITIAN_ATOL:
            raise InvalidProblemError("matrix is not Hermitian within 1e-10")
        b = b / float(np.linalg.norm(b))

        eigenvalues, vectors = np.linalg.eigh(a)
        largest = float(np.max(np.abs(eigenvalues)))
        if largest < SINGULAR_ATOL:
            raise SingularProblemError("matrix is numerically zero")
        if largest > 1.0 + 1e-12:
            a = a / largest
            eigenvalues = eigenvalues / largest
            scale = float(scale) * largest
        if float(np.min(np.abs(eigenvalues))) < SINGULAR_ATOL:
            raise SingularProblemError("matrix is numerically singular")

        # one vdot per eigenvector, each read from a contiguous copy of its column
        projections = np.array([np.vdot(u, b) for u in np.ascontiguousarray(vectors.T)])
        vectors = np.ascontiguousarray(vectors)

        for array in (a, b, eigenvalues, vectors, projections):
            array.setflags(write=False)
        abs_eigs = np.abs(eigenvalues)
        self.__dict__.update(  # past __setattr__, which refuses every assignment
            matrix_a=a,
            vector_b=b,
            scale=float(scale),
            eigenvalues=eigenvalues,
            eigenvectors=vectors,
            projections=projections,
            condition_number=float(np.max(abs_eigs) / np.min(abs_eigs)),
            # read on every preprocessing pass, so computed once here
            has_negative_eigenvalues=bool(np.any(eigenvalues < 0)),
        )

    def __setattr__(self, name, value):  # immutable: callers key caches on identity
        raise AttributeError("QLSP is immutable")

    @property
    def dimension(self) -> int:
        return self.matrix_a.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def to_json(self) -> str:
        def pairs(z):
            return [[float(v.real), float(v.imag)] for v in z]

        return json.dumps(
            {
                "matrix": [pairs(row) for row in self.matrix_a],
                "vector_b": pairs(self.vector_b),
                "scale": self.scale,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QLSP":
        """Read ``to_json`` output; a document of another shape raises ``InvalidProblemError``."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise InvalidProblemError("a problem document must be a JSON object")
        try:
            matrix = [[_json_entry(*pair) for pair in row] for row in doc["matrix"]]
            vector = [_json_entry(*pair) for pair in doc["vector_b"]]
            scale = doc.get("scale", 1.0)
            if isinstance(scale, bool) or not isinstance(scale, (int, float)):
                raise TypeError(f"scale is {scale!r}")  # a JSON number loads as int or float
        except KeyError as exc:
            raise InvalidProblemError(f"problem document lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidProblemError(
                f"matrix and vector_b must hold [re, im] number pairs, and scale a number: {exc}"
            ) from exc
        return cls(matrix, vector, scale=scale)


def _json_entry(re, im) -> complex:
    """One ``[re, im]`` pair of a problem document as a complex number.

    JSON ``true`` loads as a bool, which ``complex`` would take as 1;
    ``check_real`` rejects it, and a string or null, with ``ValueError``.
    """
    check_real("an entry's real part", re)
    check_real("an entry's imaginary part", im)
    return complex(re, im)


def hermitian_dilation(a, b) -> QLSP:
    """Embed a general square system into a Hermitian one of twice the size.

    Builds [[0, A], [A^H, 0]] with right-hand side (b, 0); the dilated
    spectrum is symmetric about zero.
    """
    a, b = _system_arrays(a, b)
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, n:] = a
    block[n:, :n] = a.conj().T
    rhs = np.concatenate([b, np.zeros(n, dtype=complex)])
    return QLSP(block, rhs)


def classical_solution(qlsp: QLSP) -> ClassicalSolution:
    """Exact normalized solution built from the cached spectrum.

    The problem is immutable, so the solution is computed on the first call
    and kept on the problem, as its spectrum is; later calls return it."""
    solution = qlsp.__dict__.get("_solution")
    if solution is None:
        raw = qlsp.eigenvectors @ (qlsp.projections / qlsp.eigenvalues)
        raw_norm = math.sqrt(np.vdot(raw, raw).real)
        state = raw / raw_norm
        state.setflags(write=False)
        solution = qlsp.__dict__["_solution"] = ClassicalSolution(state, raw_norm)
    return solution


def generate_n2(lambda_param: float) -> QLSP:
    """Two-dimensional test family with eigenvalues ``lam`` and ``1 - lam``.

    The right-hand side projects equally onto both eigenvectors.
    """
    lam = float(lambda_param)
    if not 0.0 < lam < 0.5:
        raise ValueError(f"lambda must lie in (0, 0.5), got {lam}")
    a = np.array([[0.5, lam - 0.5], [lam - 0.5, 0.5]])
    return QLSP(a, np.array([1.0, 0.0]))


def generate_n4(eigenvalues, pair, seed: int) -> QLSP:
    """Four-dimensional problem with a seeded random orthonormal eigenbasis.

    ``pair`` selects the two eigenvectors whose equal superposition becomes
    the right-hand side. The same seed always yields the same basis.
    """
    eigs = tuple(float(v) for v in eigenvalues)
    if len(eigs) != 4:
        raise ValueError("exactly four eigenvalues are required")
    if len(set(eigs)) != 4:
        raise ValueError("eigenvalues must be distinct")
    if any(abs(v) < SINGULAR_ATOL for v in eigs):
        raise ValueError("eigenvalues must be nonzero")
    if any(abs(v) > 1.0 + 1e-12 for v in eigs):
        raise ValueError("eigenvalues must have magnitude at most 1")
    check_count("seed", seed, 0)
    i, j = pair
    check_count("pair index", i, 0)
    check_count("pair index", j, 0)
    if i == j:
        raise ValueError("pair indices must be distinct")
    if not (i < 4 and j < 4):
        raise ValueError("pair indices must select one of the four eigenvalues")

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))  # pin column signs so the basis is reproducible
    a = q @ np.diag(eigs) @ q.T
    b = (q[:, i] + q[:, j]) / math.sqrt(2.0)
    return QLSP(a, b)


def evolution_unitary(qlsp: QLSP, time: float, power=1, big_t: int = 1) -> np.ndarray:
    """exp(i A t power / big_t) built from the cached eigendecomposition; for a
    sequence of powers, the stack of one such matrix per power."""
    check_real("time", time)
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, not {time}")
    for entry in power if np.ndim(power) else (power,):
        check_count("power", entry, 0)
    check_count("big_t", big_t, 1)
    powers = np.asarray(power)[..., None]  # one row of phases per power
    phases = np.exp(1j * qlsp.eigenvalues * float(time) * powers / big_t)
    vectors = qlsp.eigenvectors
    return (vectors * phases[..., None, :]) @ vectors.conj().T
