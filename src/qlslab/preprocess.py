"""Eigenvalue preprocessing: QPE circuits, estimate decoding, time-scale search.

Preprocessing is noiseless, so its clock distributions are computed in A's
eigenbasis (``qpe_state``) rather than by simulating the circuit that
``build_qpe_circuit`` returns. The solver circuit reuses that circuit's
gates; a noiseless solver run takes the block's output state and its
uncompute (``qpe_uncompute``) in closed form too, and a noisy one simulates
the gates (``pipeline``).

The time scale ``t0`` maps an eigenvalue ``lam`` to the clock-grid coordinate
``lam * t0 / (2 pi)``; adjacent grid points are one coordinate unit (a phase
distance of 2 pi) apart, and an ``l``-bit register resolves integers in
``[0, 2**l)``. Signed problems decode the upper half of the grid as two's
complement.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, EmptyEstimateError
from .qlsp import QLSP, evolution_unitary
from .sim import (
    Circuit,
    Gate,
    GateKind,
    StateVector,
    check_capacity,
    inverted_gates,
    marginal_probabilities,
    sample,
    state_preparation_matrix,
)

TWO_PI = 2.0 * math.pi
_BUTTERFLY = np.array([[1, 1], [1, -1]], dtype=complex)  # sqrt(2) H


@dataclass(frozen=True)
class EigenEstimate:
    grid_int: int  # raw register value in [0, 2**l)
    lambda_tilde: float  # signed decode, 2 pi g / t0
    weight: float  # amplitude, sqrt of the bin probability


@dataclass(frozen=True)
class EigenEstimateSet:
    bit_width: int
    time_scale: float
    signed_mode: bool
    entries: tuple[EigenEstimate, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "l": self.bit_width,
                "t0": self.time_scale,
                "signed": self.signed_mode,
                "entries": [[e.grid_int, e.lambda_tilde, e.weight] for e in self.entries],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EigenEstimateSet":
        doc = json.loads(text)
        entries = tuple(
            EigenEstimate(int(g), float(lam), float(w)) for g, lam, w in doc["entries"]
        )
        return cls(int(doc["l"]), float(doc["t0"]), bool(doc["signed"]), entries)


def decode_grid_int(grid_int: int, bit_width: int, signed_mode: bool) -> int:
    """Two's-complement decode when signed, identity otherwise."""
    g = int(grid_int)
    if not 0 <= g < 2**bit_width:
        raise ValueError(f"grid value {g} does not fit in {bit_width} bit(s)")
    if signed_mode and g >= 2 ** (bit_width - 1):
        return g - 2**bit_width
    return g


def qft_gates(qubits) -> list[Gate]:
    """Fourier transform on the integer encoded with ``qubits[0]`` as the LSB.

    Maps |j> to (1/sqrt(T)) sum_m exp(2 pi i j m / T) |m>.
    """
    qubits = tuple(int(q) for q in qubits)
    n = len(qubits)
    gates: list[Gate] = []
    for i in range(n - 1, -1, -1):
        gates.append(Gate(GateKind.HADAMARD, (qubits[i],)))
        for m in range(i - 1, -1, -1):
            phase = np.array(
                [[1.0, 0.0], [0.0, np.exp(1j * math.pi / 2 ** (i - m))]], dtype=complex
            )
            gates.append(
                Gate(GateKind.UNITARY, (qubits[i],), ((qubits[m], 1),), matrix=phase)
            )
    for i in range(n // 2):
        gates.append(Gate(GateKind.SWAP, (qubits[i], qubits[n - 1 - i])))
    return gates


def inverse_qft_gates(qubits) -> list[Gate]:
    """Adjoint of ``qft_gates(qubits)``; a fresh list over shared immutable gates."""
    return list(_inverse_qft_tuple(tuple(int(q) for q in qubits)))


@functools.lru_cache(maxsize=64)
def _inverse_qft_tuple(qubits: tuple[int, ...]) -> tuple[Gate, ...]:
    return tuple(inverted_gates(qft_gates(qubits)))


def qpe_gates(qlsp: QLSP, clock, breg, t0: float) -> list[Gate]:
    """Phase-estimation block: clock Hadamards, controlled powers, inverse QFT."""
    clock = tuple(int(q) for q in clock)
    breg = tuple(int(q) for q in breg)
    big_t = 2 ** len(clock)
    gates: list[Gate] = [Gate(GateKind.HADAMARD, (q,)) for q in clock]
    for r, control in enumerate(clock):
        u = evolution_unitary(qlsp, t0, power=2**r, big_t=big_t)
        gates.append(Gate(GateKind.UNITARY, breg, ((control, 1),), matrix=u))
    gates.extend(inverse_qft_gates(clock))
    return gates


def build_qpe_circuit(qlsp: QLSP, bit_width: int, t0: float) -> Circuit:
    """Standalone preprocessing circuit: prepare b, then run QPE on the clock."""
    if bit_width < 1:
        raise ValueError("bit_width must be at least 1")
    nb = qlsp.num_qubits
    breg = tuple(range(nb))
    clock = tuple(range(nb, nb + bit_width))
    circuit = Circuit(nb + bit_width)
    circuit.unitary(state_preparation_matrix(qlsp.vector_b), breg)
    circuit.extend(qpe_gates(qlsp, clock, breg, t0))
    return circuit


def _check_block(qlsp: QLSP, bit_width: int, t0: float) -> None:
    """Arguments of a closed-form QPE block; raises before anything is allocated."""
    if bit_width < 1:
        raise ValueError("bit_width must be at least 1")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, not {t0}")
    check_capacity(qlsp.num_qubits + bit_width)


def qpe_state(qlsp: QLSP, bit_width: int, t0: float) -> StateVector:
    """Output state of ``build_qpe_circuit(qlsp, bit_width, t0)`` in closed form.

    Eigenpair (lam, u, beta) leaves the clock in F^dagger D H |0>, whose
    amplitude on bin m is c[m] = (1/T) sum_x exp(i x (lam t0 - 2 pi m) / T);
    the state is sum_j beta_j c_j (x) u_j, with b on the low qubits as in the
    circuit. One FFT over x gives every c_j.
    """
    _check_block(qlsp, bit_width, t0)
    big_t = 2**bit_width
    phases = np.exp(1j * np.outer(qlsp.eigenvalues * (float(t0) / big_t), np.arange(big_t)))
    clock = np.fft.fft(phases, axis=1) / big_t  # clock[j, m] = c_j[m]
    amplitudes = (clock.T * qlsp.projections) @ qlsp.eigenvectors.T  # [m, i]
    return StateVector(qlsp.num_qubits + bit_width, amplitudes.reshape(-1), validate=False)


def qpe_uncompute(qlsp: QLSP, bit_width: int, t0: float, state: StateVector) -> StateVector:
    """``state`` after the adjoint of the ``qpe_gates`` block, in closed form.

    The block acts as in ``build_qpe_circuit``: b on the low qubits, the
    clock above it; qubits above the clock are left alone, so the amplitudes
    are laid out as [rest, clock m, b i]. In A's eigenbasis the adjoint is
    (H^k (x) I) sum_x |x><x| (x) U^-x (QFT (x) I) with U = exp(i A t0 / T):
    one change of basis, one FFT along the clock with the sign of
    ``qft_gates``, one phase exp(-i lam_j t0 x / T) per (x, j), the change
    back, and k Walsh-Hadamard butterflies. No operator on the whole register
    is built.
    """
    _check_block(qlsp, bit_width, t0)
    nb = qlsp.num_qubits
    if state.num_qubits < nb + bit_width:
        raise ValueError(
            f"a {state.num_qubits}-qubit state cannot hold {nb} b and {bit_width} clock qubit(s)"
        )
    big_t = 2**bit_width
    vectors = qlsp.eigenvectors
    # numpy's inverse FFT has the sign of qft_gates; its 1/T scale is the
    # QFT's 1/sqrt(T) times the butterflies', which skip their 1/sqrt(2)
    coefficients = np.fft.ifft(
        state.amplitudes.reshape(-1, big_t, qlsp.dimension) @ vectors.conj(), axis=1
    )
    coefficients *= np.exp(np.outer(np.arange(big_t), qlsp.eigenvalues * (-1j * t0 / big_t)))
    amplitudes = coefficients @ vectors.T
    for r in range(bit_width):  # clock bit r pairs the indices 2^r apart
        amplitudes = _BUTTERFLY @ amplitudes.reshape(
            -1, big_t >> (r + 1), 2, (1 << r) * qlsp.dimension
        )
    return StateVector(state.num_qubits, amplitudes.reshape(-1), validate=False)


def qpe_grid_probabilities(qlsp: QLSP, bit_width: int, t0: float) -> np.ndarray:
    """Exact Born distribution over clock-register integers."""
    state = qpe_state(qlsp, bit_width, t0)
    return marginal_probabilities(state, range(qlsp.num_qubits, state.num_qubits))


def qpe_histogram(
    qlsp: QLSP, bit_width: int, t0: float, shots: int, seed: int | None = None
) -> np.ndarray:
    """Shot counts over clock-register integers."""
    state = qpe_state(qlsp, bit_width, t0)
    return sample(state, range(qlsp.num_qubits, state.num_qubits), shots, seed)


def estimates_from_probabilities(
    probabilities,
    bit_width: int,
    time_scale: float,
    threshold: float | None = None,
    signed_mode: bool = False,
) -> EigenEstimateSet:
    """Decode a clock distribution into weighted eigenvalue estimates.

    Weights are amplitudes, the square roots of the bin probabilities, and
    the threshold (default ``2**-bit_width``) applies to the amplitude.
    """
    if not (math.isfinite(time_scale) and time_scale > 0):
        raise ValueError(f"time scale must be finite and positive, not {time_scale}")
    if threshold is None:
        threshold = 2.0**-bit_width
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != (2**bit_width,):
        raise ValueError("probability vector does not match the bit width")
    if not np.isfinite(probabilities).all():
        raise ValueError("probabilities must be finite")
    entries = []
    for g, p in enumerate(probabilities):
        weight = math.sqrt(max(float(p), 0.0))
        if weight < threshold:
            continue
        decoded = decode_grid_int(g, bit_width, signed_mode)
        entries.append(EigenEstimate(g, TWO_PI * decoded / time_scale, weight))
    if not entries:
        raise EmptyEstimateError("no estimate reached the relevance threshold")
    # weights equal in exact arithmetic can differ in the last bits: rank on
    # 12 decimals so that such ties go to the smaller grid value
    entries.sort(key=lambda e: (-round(e.weight, 12), e.grid_int))
    return EigenEstimateSet(bit_width, float(time_scale), bool(signed_mode), tuple(entries))


def _clock_probabilities(
    qlsp: QLSP, bit_width: int, t0: float, shots: int | None, seed: int | None
) -> np.ndarray:
    """Clock distribution: exact Born weights with ``shots=None``, else shot frequencies."""
    if shots is None:
        return qpe_grid_probabilities(qlsp, bit_width, t0)
    return qpe_histogram(qlsp, bit_width, t0, shots, seed) / shots


def run_preprocessing(
    qlsp: QLSP,
    bit_width: int,
    t0: float,
    *,
    shots: int | None = None,
    seed: int | None = None,
    threshold: float | None = None,
    signed_mode: bool = False,
) -> EigenEstimateSet:
    """One preprocessing pass: QPE, then estimate extraction.

    With ``shots=None`` the exact Born weights are used, which is the
    shot-noise-free setting for reproducing ideal-simulator results.
    """
    probs = _clock_probabilities(qlsp, bit_width, t0, shots, seed)
    return estimates_from_probabilities(probs, bit_width, t0, threshold, signed_mode)


def fixed_t0(lambda_max: float, bit_width: int, signed: bool = False) -> float:
    """Closed-form time scale mapping ``lambda_max`` to the top grid value.

    Unsigned grids use 2 pi (2**k - 1) / lambda_max; signed grids target the
    largest positive two's-complement value 2**(k-1) - 1 instead.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, not {lambda_max}")
    top = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    if top < 1:
        raise ValueError("bit width leaves no nonzero grid value")
    return TWO_PI * top / float(lambda_max)


def _strong_coordinates(est: EigenEstimateSet) -> list[int]:
    """Decoded grid values of the entries within half the top weight.

    Weaker entries are ignored so that kernel tails never drag the tracked
    coordinate away from the strongest eigenvalue branches.
    """
    cutoff = 0.5 * est.entries[0].weight
    return [
        decode_grid_int(e.grid_int, est.bit_width, est.signed_mode)
        for e in est.entries
        if e.weight >= cutoff
    ]


def _dominant_coordinate(
    qlsp: QLSP,
    bit_width: int,
    t0: float,
    signed: bool,
    shots: int | None,
    seed: int | None,
) -> float:
    """Sub-grid coordinate magnitude of the largest strong eigenvalue branch.

    Interpolates between the branch's bin and its heavier neighbor using the
    kernel's weight ratio, which is accurate to a few percent of a grid step.
    """
    probs = _clock_probabilities(qlsp, bit_width, t0, shots, seed)
    est = estimates_from_probabilities(probs, bit_width, t0, signed_mode=signed)
    d_star = max(_strong_coordinates(est), key=abs)
    size = 2**bit_width
    weights = np.sqrt(np.clip(probs, 0.0, None))
    w_star = weights[d_star % size]
    w_up = weights[(d_star + 1) % size]
    w_down = weights[(d_star - 1) % size]
    if w_up >= w_down:
        coord = d_star + w_up / (w_up + w_star)
    else:
        coord = d_star - w_down / (w_down + w_star)
    return float(abs(coord))


def iterative_t0(
    qlsp: QLSP,
    bit_width: int,
    signed: bool = False,
    *,
    shots: int | None = None,
    seed: int | None = None,
    initial_t0: float | None = None,
    max_doublings: int = 12,
) -> float:
    """Search for the time scale that pins the largest eigenvalue to the top
    grid value without overflowing.

    Starts from a scale where every estimate decodes to zero, doubles until
    the peak estimate wraps (bracketing the overflow boundary), then places
    the dominant eigenvalue onto the top grid value by interpolating its
    sub-grid coordinate. A final verification pass at a strongly reduced
    scale confirms the spectrum was not aliased by a whole grid period;
    failure raises ``AliasingError`` so the caller can restart with a
    smaller initial scale.
    """
    target = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    overflow_marker = 2 ** (bit_width - 1) if signed else None

    def peak(t: float) -> int:
        """Largest |grid value| among the strong estimates at scale ``t``."""
        est = run_preprocessing(qlsp, bit_width, t, shots=shots, seed=seed, signed_mode=signed)
        return max(abs(d) for d in _strong_coordinates(est))

    t = float(initial_t0) if initial_t0 is not None else math.pi / 2.0
    for _ in range(64):
        if peak(t) == 0:
            break
        t *= 0.5
    else:
        raise AliasingError("no starting scale with all-zero estimates was found")

    # Doubling phase: grow until the peak estimate stops tracking linear
    # growth, which brackets the wrap boundary. An honest doubling doubles
    # the peak coordinate up to rounding, so a shortfall means a wrap even
    # when another eigenvalue branch aliases onto a nonzero value.
    lo, lo_peak = t, 0
    bracketed = False
    for _ in range(max(1, max_doublings)):
        cand = lo * 2.0
        m = peak(cand)
        wrapped = (lo_peak > 0 and m < 2 * lo_peak - 1.5) or (
            overflow_marker is not None and m >= overflow_marker
        )
        if wrapped:
            bracketed = True
            break
        lo, lo_peak = cand, m
    if not bracketed:
        raise AliasingError("no overflow was observed within the doubling budget")
    if lo_peak == 0:
        raise AliasingError("the peak estimate wrapped before leaving zero")

    # Refinement: re-measure the dominant eigenvalue on a grid three bits
    # finer at the same base evolution scale. Kernel tails of other branches
    # sit many fine bins away there, so the interpolated coordinate is clean
    # enough to place the eigenvalue onto the coarse grid value exactly.
    fine_bits = bit_width + 3
    coord_fine = _dominant_coordinate(
        qlsp, fine_bits, lo * 2 ** (fine_bits - bit_width), signed, shots, seed
    )
    lam_hat = TWO_PI * coord_fine / (lo * 2 ** (fine_bits - bit_width))
    result = TWO_PI * target / lam_hat
    if peak(result) < target - 1:
        # A biased interpolation can push past the wrap; back off half a step.
        result *= target / (target + 0.5)

    # Confirm there was no aliasing: at a scale where the believed largest
    # eigenvalue sits at coordinate 0.35, the dominant estimate rounds to
    # zero, while a spectrum aliased by a grid period lands at 0.7 or above.
    verify_t = 0.35 * result / target
    est = run_preprocessing(qlsp, bit_width, verify_t, shots=shots, seed=seed, signed_mode=signed)
    if est.entries[0].grid_int != 0:
        raise AliasingError("verification run still decodes a nonzero estimate")
    return result
