"""Eigenvalue preprocessing: QPE circuits, estimate decoding, time-scale search.

``qpe_amplitudes`` is the one closed form of the noiseless circuit that
``build_qpe_circuit`` returns (prepare b, then QPE), with b left in A's
eigenbasis: preprocessing's clock distributions sum it over b, and the
solver's noiseless prefix is it. ``qpe_stages`` cuts that circuit, and its
QPE block's uncompute, into ``Stage`` records that carry each stage's closed
form on amplitudes laid out as [rest, clock, eigenpair j], with the b
register in A's eigenbasis (``clock_hadamards``, ``clock_powers``,
``clock_qft``); a Hadamard layer or ladder also acts on a range of clock
bits, and a Fourier transform on any run of its gates. In that basis the
ladder is one phase per clock value and eigenpair, and the other stages
act on the clock axis alone. ``pipeline`` walks the records of a run that
noise lands in, applying every stage, or run of a stage's gates, that no
noise interrupts by its closed form, from the state ``prepare_b``
simulates once per problem; its gate opens every ``build_qpe_circuit`` of
the problem. ``qpe_gates`` builds the ladder from one stack of
controlled powers (``evolution_unitary`` over an array of powers),
checked once.

The time scale ``t0`` maps an eigenvalue ``lam`` to the clock-grid coordinate
``lam * t0 / (2 pi)``; adjacent grid points are one coordinate unit (a phase
distance of 2 pi) apart, and an ``l``-bit register resolves integers in
``[0, 2**l)``. Signed problems decode the upper half of the grid as two's
complement. One owner states each rule of the grid: ``grid_range`` its
decoded range, ``decode_grid_int`` the decode, and ``_ranked`` the ranking of
a distribution's kept bins, which ``estimates_from_probabilities`` wraps in
estimates.

The time-scale search ``iterative_t0`` computes its probes in three batched
passes of the same closed form (the doubling ladder, the fine-grid probe,
and the placement and verification probes), each a table of clock
distributions; ``_branch`` reads each row the search needs through
``_ranked``, and no other row is ranked.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, EmptyEstimateError
from .qlsp import QLSP, evolution_unitary
from .sim import (
    Circuit,
    Gate,
    GateKind,
    StateVector,
    apply_circuit,
    check_capacity,
    check_count,
    check_real,
    controlled_unitaries,
    inverted_gates,
    marginal_probabilities,
    sample,
    state_preparation_matrix,
)

TWO_PI = 2.0 * math.pi
_BUTTERFLY = np.array([[1, 1], [1, -1]], dtype=complex)  # sqrt(2) H
_WALSH_BITS = 6  # clock bits per Walsh factor, so a factor is at most 2^6 x 2^6


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


def grid_range(bit_width: int, signed_mode: bool) -> tuple[int, int]:
    """Lowest and highest decoded value of a ``bit_width``-bit clock grid:
    0 and 2**k - 1, or -2**(k-1) and 2**(k-1) - 1 in two's complement."""
    check_count("bit_width", bit_width, 1)
    size = 2**bit_width
    return (-(size // 2), size // 2 - 1) if signed_mode else (0, size - 1)


def decode_grid_int(grid_int: int, bit_width: int, signed_mode: bool) -> int:
    """Two's-complement decode when signed, identity otherwise: a raw grid
    value above the grid's highest decoded value stands for itself minus the
    grid size."""
    lowest, highest = grid_range(bit_width, signed_mode)
    check_count("grid_int", grid_int, 0)
    if grid_int > highest - lowest:
        raise ValueError(f"grid_int {grid_int} does not fit in {bit_width} bit(s)")
    return grid_int - (highest - lowest + 1) if grid_int > highest else grid_int


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


@functools.lru_cache(maxsize=64)
def _qft_tuple(qubits: tuple[int, ...]) -> tuple[Gate, ...]:
    """The uncompute's Fourier transform, the adjoint of the inverse QFT."""
    return tuple(qft_gates(qubits))


@functools.lru_cache(maxsize=64)
def _hadamard_layer(qubits: tuple[int, ...]) -> tuple[Gate, ...]:
    return tuple(Gate(GateKind.HADAMARD, (q,)) for q in qubits)


def qpe_gates(qlsp: QLSP, clock, breg, t0: float) -> list[Gate]:
    """Phase-estimation block: clock Hadamards, controlled powers, inverse QFT.

    The powers U^(2^r) come from one ``evolution_unitary`` call over an array
    of powers, and ``controlled_unitaries`` checks that stack once."""
    clock = tuple(int(q) for q in clock)
    breg = tuple(int(q) for q in breg)
    powers = [1 << r for r in range(len(clock))]
    ladder = evolution_unitary(qlsp, t0, power=powers, big_t=2 ** len(clock))
    gates: list[Gate] = list(_hadamard_layer(clock))
    gates.extend(controlled_unitaries(ladder, breg, clock))
    gates.extend(inverse_qft_gates(clock))
    return gates


@functools.lru_cache(maxsize=1)
def prepare_b(qlsp: QLSP) -> tuple[Gate, np.ndarray]:
    """The gate that prepares b on the b register (the problem's low
    ``num_qubits`` qubits) and the register's read-only amplitudes after it,
    simulated from |0>.

    Both depend on the problem alone. One slot, keyed on the problem by
    identity (``QLSP`` is immutable), serves every circuit and run on one
    problem in turn, so a batch prepares each problem once.
    """
    nb = qlsp.num_qubits
    circuit = Circuit(nb).unitary(state_preparation_matrix(qlsp.vector_b), range(nb))
    return circuit.gates[0], apply_circuit(StateVector.zero(nb), circuit).amplitudes


def build_qpe_circuit(qlsp: QLSP, bit_width: int, t0: float) -> Circuit:
    """Standalone preprocessing circuit: prepare b (``prepare_b``'s gate),
    then run QPE on the clock."""
    check_count("bit_width", bit_width, 1)
    nb = qlsp.num_qubits
    breg = tuple(range(nb))
    clock = tuple(range(nb, nb + bit_width))
    circuit = Circuit(nb + bit_width)
    circuit.add(prepare_b(qlsp)[0])
    circuit.extend(qpe_gates(qlsp, clock, breg, t0))
    return circuit


def qpe_amplitudes(qlsp: QLSP, bit_width: int, t0) -> np.ndarray:
    """Output of ``build_qpe_circuit(qlsp, bit_width, t0)`` in closed form, with
    b in A's eigenbasis, laid out [..., clock m, eigenpair j], at a scale
    ``t0`` or at each scale of an array of them.

    Eigenpair (lam, u, beta) leaves the clock in F^dagger D H |0>, whose
    amplitude on bin m is c[m] = (1/T) sum_x exp(i x (lam t0 - 2 pi m) / T);
    entry [m, j] is beta_j c_j[m]. One FFT over x gives every c_j.
    """
    check_count("bit_width", bit_width, 1)
    if np.ndim(t0) == 0:
        check_real("t0", t0)
    scales = np.asarray(t0, dtype=float)[..., None]  # [..., 1]
    for scale in scales.ravel().tolist():
        if not math.isfinite(scale):
            raise ValueError(f"t0 must be finite, not {scale}")
    check_capacity(qlsp.num_qubits + bit_width)  # before anything is allocated
    big_t = 2**bit_width
    rates = scales / big_t * qlsp.eigenvalues
    phases = np.exp(1j * (rates[..., None] * np.arange(big_t)))
    clock = np.fft.fft(phases) / big_t  # clock[..., j, m] = c_j[m]
    # one contiguous copy, so that every row of a batch sums over b as one scale does
    return np.ascontiguousarray(clock.swapaxes(-1, -2)) * qlsp.projections


def clock_hadamards(blocks: np.ndarray, low: int = 0, high: int | None = None) -> np.ndarray:
    """A Hadamard on each clock bit ``low`` to ``high - 1`` (default: every
    clock bit) of ``blocks``, laid out [rest, clock, b].

    Applies them as one cached Walsh factor per chunk of at most
    ``_WALSH_BITS`` clock bits, so no 2^k x 2^k operator is built.
    """
    rest, size, dimension = blocks.shape
    high = size.bit_length() - 1 if high is None else high
    while low < high:
        chunk = min(_WALSH_BITS, high - low)
        # axis 1 holds clock bits low .. low + chunk - 1
        blocks = _walsh(chunk) @ blocks.reshape(-1, 1 << chunk, dimension << low)
        low += chunk
    return blocks.reshape(rest, size, dimension)


@functools.lru_cache(maxsize=_WALSH_BITS)
def _walsh(bits: int) -> np.ndarray:
    """H^(x bits) as a read-only 2^bits x 2^bits matrix."""
    signs = functools.reduce(np.kron, [_BUTTERFLY] * bits)
    factor = signs * 2.0 ** (-bits / 2)
    factor.setflags(write=False)
    return factor


def clock_powers(
    qlsp: QLSP,
    t0: float,
    blocks: np.ndarray,
    adjoint: bool = False,
    low: int = 0,
    high: int | None = None,
) -> np.ndarray:
    """The controlled powers of ``qpe_gates`` whose controls are clock bits
    ``low`` to ``high - 1`` (default: the whole ladder) on ``blocks``, laid
    out [rest, clock x, eigenpair j] with the b register in A's eigenbasis.

    The whole ladder applies U^x to b with U = exp(i A t0 / T), and the
    bits' part of it U^y, where y keeps the bits of x in the range: one
    phase multiply of eigenpair j by exp(i lam_j t0 y / T), or by the
    conjugate phase for the ``adjoint``.
    """
    return blocks * ladder_phases(qlsp, t0, blocks.shape[1], adjoint, low, high)


def ladder_phases(
    qlsp: QLSP, t0: float, size: int, adjoint: bool = False, low: int = 0, high: int | None = None
) -> np.ndarray:
    """The phase table [clock x, eigenpair j] that ``clock_powers`` multiplies
    a clock of ``size`` values by."""
    high = size.bit_length() - 1 if high is None else high
    rate = (-1j if adjoint else 1j) * float(t0) / size
    powers = np.arange(size) & ((1 << high) - (1 << low))
    return np.exp(np.outer(powers, qlsp.eigenvalues * rate))


def clock_qft(
    blocks: np.ndarray, inverse: bool = False, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """``qft_gates`` on the clock of ``blocks``, laid out [rest, clock, b]; with
    ``inverse``, ``inverse_qft_gates``; with a ``stop``, gates ``start`` to
    ``stop - 1`` of that list.

    numpy's unitary inverse FFT has the sign of ``qft_gates``. A run of the
    gates is the product of its pieces (``_fourier_pieces``): a Hadamard on
    one clock bit, one phase vector over the clock axis for a run of
    controlled phases on one target bit, and one permutation of the clock
    axis for a run of swaps.
    """
    if stop is None:
        transform = np.fft.fft if inverse else np.fft.ifft
        return transform(blocks, axis=1, norm="ortho")
    for kind, value in _fourier_pieces(blocks.shape[1].bit_length() - 1, inverse, start, stop):
        if kind == "h":
            blocks = clock_hadamards(blocks, value, value + 1)
        elif kind == "phase":
            blocks = blocks * value
        else:
            blocks = blocks[:, value]
    return blocks


@functools.lru_cache(maxsize=128)
def _fourier_pieces(bits: int, inverse: bool, start: int, stop: int) -> tuple:
    """Gates ``start`` to ``stop - 1`` of ``qft_gates`` (``inverse_qft_gates``
    for ``inverse``) on ``bits`` clock bits as pieces, one per run of gates
    of one kind and target: ("h", bit) for a Hadamard, ("phase", vector) for
    controlled phases, the read-only vector shaped (2^bits, 1), and ("perm",
    index) for swaps, the read-only index taking the clock axis. No two
    Hadamards are adjacent, so a Hadamard is a run of its own."""
    layout = []  # (kind, target, bit) per gate of qft_gates, in order
    for i in range(bits - 1, -1, -1):
        layout.append(("h", i, i))
        layout += [("phase", i, m) for m in range(i - 1, -1, -1)]  # on bits i and m
    layout += [("perm", None, i) for i in range(bits // 2)]  # swaps bits i and bits - 1 - i
    clock = np.arange(1 << bits)
    pieces = []
    for (kind, target), run in itertools.groupby(
        (layout[::-1] if inverse else layout)[start:stop], key=lambda gate: gate[:2]
    ):
        others = [bit for _, _, bit in run]
        if kind == "h":
            pieces.append((kind, target))
            continue
        if kind == "phase":
            # the phase on bits i and m turns |x> by pi 2^m / 2^i when both are set
            angles = (clock >> target & 1) * (clock & sum(1 << m for m in others))
            value = np.exp((-1j if inverse else 1j) * math.pi / (1 << target) * angles)[:, None]
        else:  # the swaps are disjoint, so their order does not matter
            value = clock
            for i in others:
                differ = (value >> i ^ value >> (bits - 1 - i)) & 1
                value = value ^ (differ << i | differ << (bits - 1 - i))
        value.setflags(write=False)
        pieces.append((kind, value))
    return tuple(pieces)


@dataclass(frozen=True)
class Stage:
    """One stage of the solver circuit: its ``gates``, their ``closed`` form on
    amplitudes laid out [rest, clock, eigenpair j], with the b register in A's
    eigenbasis (None for state preparation, which has none) and, for a
    product of commuting factors, each gate's factor (its clock bit in a
    Hadamard layer or ladder, its rotation's index in the inversion block);
    ``closed`` then takes factors ``low`` to ``high - 1`` as well, and
    otherwise (a Fourier transform) gates ``start`` to ``stop - 1``."""

    gates: Sequence[Gate]
    closed: Callable[..., np.ndarray] | None = None
    factors: tuple[int, ...] | None = None

    def closed_form(self, start: int, stop: int) -> Callable[..., np.ndarray] | None:
        """The closed form of ``gates[start:stop]``; None only for state preparation."""
        if self.closed is None or (start, stop) == (0, len(self.gates)):
            return self.closed
        if self.factors is None:
            return functools.partial(self.closed, start=start, stop=stop)
        span = self.factors[start:stop]  # a run of gates covers a run of factors
        return functools.partial(self.closed, low=min(span), high=max(span) + 1)


def qpe_stages(qlsp: QLSP, bit_width: int, t0: float) -> tuple[tuple[Stage, ...], ...]:
    """``build_qpe_circuit(qlsp, bit_width, t0)`` cut into state preparation,
    Hadamard layer, controlled-power ladder and inverse QFT, and its QPE
    block's uncompute, ``inverted_gates`` of the block, cut into QFT, adjoint
    ladder and Hadamard layer. Only state preparation and the ladder depend
    on the problem; the other gates are shared by every problem on the
    same clock qubits."""
    k, partial = bit_width, functools.partial
    gates = tuple(build_qpe_circuit(qlsp, k, t0).gates)
    hadamards, ladder = gates[1 : 1 + k], gates[1 + k : 1 + 2 * k]
    clock = tuple(range(qlsp.num_qubits, qlsp.num_qubits + k))
    up, down = tuple(range(k)), tuple(range(k - 1, -1, -1))
    return (
        Stage(gates[:1]),
        Stage(hadamards, clock_hadamards, up),
        Stage(ladder, partial(clock_powers, qlsp, t0), up),
        Stage(gates[1 + 2 * k :], partial(clock_qft, inverse=True)),
    ), (
        Stage(_qft_tuple(clock), clock_qft),
        Stage(tuple(inverted_gates(ladder)), partial(clock_powers, qlsp, t0, adjoint=True), down),
        Stage(hadamards[::-1], clock_hadamards, down),  # a Hadamard is its own adjoint
    )


def qpe_grid_probabilities(qlsp: QLSP, bit_width: int, t0: float) -> np.ndarray:
    """Exact Born distribution over clock-register integers, from ``qpe_amplitudes``."""
    amplitudes = qpe_amplitudes(qlsp, bit_width, t0).reshape(-1)
    state = StateVector(amplitudes.size.bit_length() - 1, amplitudes, validate=False)
    return marginal_probabilities(state, range(qlsp.num_qubits, state.num_qubits))


def qpe_histogram(
    qlsp: QLSP, bit_width: int, t0: float, shots: int, seed: int | None = None
) -> np.ndarray:
    """Shot counts over clock-register integers, drawn from ``qpe_grid_probabilities``."""
    return sample(qpe_grid_probabilities(qlsp, bit_width, t0), shots, seed)


def _weights(probabilities: np.ndarray) -> np.ndarray:
    """Amplitude weights, the square roots of ``probabilities``; a NaN,
    infinite or negative probability raises ``ValueError``."""
    lowest, highest = probabilities.min(), probabilities.max()  # a NaN propagates to both
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise ValueError("probabilities must be finite")
    if lowest < 0.0:
        raise ValueError("probabilities must be non-negative")
    return np.sqrt(probabilities)


def _ranked(weights: np.ndarray, bit_width: int) -> list[tuple[int, float]]:
    """The kept ``(grid value, weight)`` entries of one distribution's amplitude
    ``weights``, heaviest first. A bin is kept when its weight reaches the
    fixed relevance threshold ``2**-bit_width``; no kept bin raises
    ``EmptyEstimateError``."""
    kept = (weights >= 2.0**-bit_width).nonzero()[0]
    if not kept.size:
        raise EmptyEstimateError("no estimate reached the relevance threshold")
    # weights equal in exact arithmetic can differ in the last bits: rank on
    # 12 decimals, and the stable sort sends such ties to the smaller grid value
    entries = list(zip(kept.tolist(), weights[kept].tolist()))
    entries.sort(key=lambda entry: -round(entry[1], 12))
    return entries


def estimates_from_probabilities(
    probabilities, bit_width: int, time_scale: float, signed_mode: bool = False
) -> EigenEstimateSet:
    """Decode a clock distribution into weighted eigenvalue estimates.

    Weights are amplitudes, the square roots of the bin probabilities; the
    kept bins, ranked by ``_ranked``, become the estimates, and bins below
    its threshold are dropped before any per-bin work. A negative
    probability raises ``ValueError``.
    """
    check_count("bit_width", bit_width, 1)
    check_real("time_scale", time_scale)
    if not (math.isfinite(time_scale) and time_scale > 0):
        raise ValueError(f"time scale must be finite and positive, not {time_scale}")
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != (2**bit_width,):
        raise ValueError("probability vector does not match the bit width")
    scale = float(time_scale)
    entries = tuple(
        EigenEstimate(g, TWO_PI * decode_grid_int(g, bit_width, signed_mode) / scale, w)
        for g, w in _ranked(_weights(probabilities), bit_width)
    )
    return EigenEstimateSet(bit_width, scale, bool(signed_mode), entries)


def run_preprocessing(
    qlsp: QLSP, bit_width: int, t0: float, *, shots: int | None = None, seed: int | None = None
) -> EigenEstimateSet:
    """One preprocessing pass: QPE, then estimate extraction.

    With ``shots=None`` the exact Born weights are used, which is the
    shot-noise-free setting for reproducing ideal-simulator results. The grid
    decodes as two's complement when the problem has a negative eigenvalue.
    """
    if shots is None:
        probs = qpe_grid_probabilities(qlsp, bit_width, t0)
    else:
        probs = qpe_histogram(qlsp, bit_width, t0, shots, seed) / shots
    return estimates_from_probabilities(probs, bit_width, t0, qlsp.has_negative_eigenvalues)


def fixed_t0(lambda_max: float, bit_width: int, signed: bool = False) -> float:
    """Closed-form time scale mapping ``lambda_max`` to the top grid value.

    Unsigned grids use 2 pi (2**k - 1) / lambda_max; signed grids target the
    largest positive two's-complement value 2**(k-1) - 1 instead.
    """
    check_real("lambda_max", lambda_max)
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, not {lambda_max}")
    _, top = grid_range(bit_width, signed)
    if top < 1:
        raise ValueError("bit width leaves no nonzero grid value")
    return TWO_PI * top / float(lambda_max)


def _probe_table(
    qlsp: QLSP, bit_width: int, scales, shots: int | None, seed: int | None
) -> np.ndarray:
    """The clock distribution at each of ``scales``, one row each: exact Born
    weights, equal to ``qpe_grid_probabilities``, with ``shots=None``, else
    shot frequencies drawn row by row as ``qpe_histogram`` draws them."""
    probabilities = (np.abs(qpe_amplitudes(qlsp, bit_width, scales)) ** 2).sum(axis=-1)
    if shots is None:
        return probabilities
    return np.array([sample(row, shots, seed) for row in probabilities]) / shots


def _branch(weights: np.ndarray, bit_width: int, signed: bool) -> tuple[int, int, int]:
    """The top entry's grid value, the strong-branch peak and the dominant
    decoded value of one distribution's amplitude ``weights``, ranked by
    ``_ranked``.

    The strong entries are the kept ones within half the top entry's weight,
    so that kernel tails never drag the tracked coordinate away from the
    strongest eigenvalue branches. The peak is their largest |decoded grid
    value|, and the dominant value the first strong entry, in rank order,
    whose magnitude is the peak.
    """
    entries = _ranked(weights, bit_width)
    top, heaviest = entries[0]
    strong = [decode_grid_int(g, bit_width, signed) for g, w in entries if w >= 0.5 * heaviest]
    peak = max(abs(d) for d in strong)
    return top, peak, next(d for d in strong if abs(d) == peak)


def _dominant_coordinate(weights: np.ndarray, dominant: int) -> float:
    """Sub-grid coordinate magnitude of the eigenvalue branch at decoded grid
    value ``dominant``, given a distribution's ``weights``.

    Interpolates between the branch's bin and its heavier neighbor using the
    kernel's weight ratio, which is accurate to a few percent of a grid step.
    """
    size = weights.shape[0]
    w_star = weights[dominant % size]
    w_up = weights[(dominant + 1) % size]
    w_down = weights[(dominant - 1) % size]
    if w_up >= w_down:
        coord = dominant + w_up / (w_up + w_star)
    else:
        coord = dominant - w_down / (w_down + w_star)
    return float(abs(coord))


def iterative_t0(
    qlsp: QLSP, bit_width: int, *, shots: int | None = None, seed: int | None = None
) -> float:
    """Search for the time scale that pins the largest eigenvalue to the top
    grid value without overflowing.

    The search reads its probes in three passes, each one table of clock
    distributions of which it ranks only the rows it reads (``_branch``):

    1. The doubling ladder: pi / 2 and its 12 doublings. At pi / 2 every
       |lam| <= 1 sits at coordinate at most 0.25 and so decodes to zero;
       while sampled estimates say otherwise the start halves, up to 64
       starts, and the ladder is taken again. The last doubling before the
       peak estimate wraps brackets the overflow boundary.
    2. The fine-grid probe, three bits finer at that doubling's scale, which
       places the dominant eigenvalue onto the top grid value by
       interpolating its sub-grid coordinate.
    3. The placement check at that scale, and a verification probe at a
       strongly reduced scale for it and for the half-step back-off that a
       failed check takes; the one used confirms the spectrum was not
       aliased by a whole grid period.

    Each failure, a spectrum too small to wrap within the doublings among
    them, raises ``AliasingError``. Problems with a negative eigenvalue
    search on the signed grid.
    """
    signed = qlsp.has_negative_eigenvalues
    _, target = grid_range(bit_width, signed)

    def probes(bits: int, scales) -> np.ndarray:
        return _weights(_probe_table(qlsp, bits, scales, shots, seed))

    t = math.pi / 2.0
    for _ in range(64):
        scales = np.ldexp(t, np.arange(13))  # t 2^i for i = 0 .. 12, exactly
        ladder = probes(bit_width, scales)
        if _branch(ladder[0], bit_width, signed)[1] == 0:
            break
        t *= 0.5
    else:
        raise AliasingError("no starting scale with all-zero estimates was found")

    # Doubling phase: grow until the peak estimate stops tracking linear
    # growth, which brackets the wrap boundary. An honest doubling doubles
    # the peak coordinate up to rounding, so a shortfall means a wrap even
    # when another eigenvalue branch aliases onto a nonzero value. A peak
    # past the top grid value is the signed grid's lowest value, which only
    # a wrap reaches.
    lo, lo_peak = t, 0
    for cand, row in zip(scales[1:].tolist(), ladder[1:]):
        _, m, _ = _branch(row, bit_width, signed)
        if (lo_peak > 0 and m < 2 * lo_peak - 1.5) or m > target:
            break
        lo, lo_peak = cand, m
    else:
        raise AliasingError("no overflow was observed within the doubling budget")
    if lo_peak == 0:
        raise AliasingError("the peak estimate wrapped before leaving zero")

    # Refinement: re-measure the dominant eigenvalue on a grid three bits
    # finer at the same base evolution scale. Kernel tails of other branches
    # sit many fine bins away there, so the interpolated coordinate is clean
    # enough to place the eigenvalue onto the coarse grid value exactly.
    fine_bits = bit_width + 3
    fine_t = lo * 2 ** (fine_bits - bit_width)
    (weights,) = probes(fine_bits, [fine_t])
    _, _, dominant = _branch(weights, fine_bits, signed)
    lam_hat = TWO_PI * _dominant_coordinate(weights, dominant) / fine_t
    result = TWO_PI * target / lam_hat

    # A biased interpolation can push past the wrap; the placement check then
    # backs off half a step. Verification confirms there was no aliasing: at
    # a scale where the believed largest eigenvalue sits at coordinate 0.35,
    # the dominant estimate rounds to zero, while a spectrum aliased by a
    # grid period lands at 0.7 or above.
    backed_off = result * (target / (target + 0.5))
    checks = probes(bit_width, [result, 0.35 * result / target, 0.35 * backed_off / target])
    placed = _branch(checks[0], bit_width, signed)[1] >= target - 1
    if not placed:
        result = backed_off
    if _branch(checks[1 if placed else 2], bit_width, signed)[0] != 0:
        raise AliasingError("verification run still decodes a nonzero estimate")
    return result
