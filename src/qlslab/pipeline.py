"""End-to-end solver runs in three steps: plan, execute, read out.

``run`` is ``plan_run``, then ``execute``, then one readout. ``plan_run`` is
the classical step in which the variants differ: it checks the qubit budget,
resolves the time scale t0, preprocesses at t0 2^(l - k) (hybrid, enhanced)
and calls the variant's planner. ``execute`` assembles the solver circuit
(prepare b, phase estimation onto the clock register, the inversion plan,
phase estimation undone), inserts any Pauli noise and simulates it from |0>.
Register layout (least significant first): solution register ``b``, clock
``c``, ancilla ``a``, so the 2^(nb + k + 1) amplitudes, shaped (2, 2^k, N)
and indexed [ancilla, clock, b], are the two ancilla branches M_0 and M_1,
each a [clock, b] matrix. ``execute`` returns this array, and every readout
reads it and the target x alone: the exact readout M_1 of the state
post-selected on the ancilla, the swap and direct readouts both branches of
the unnormalised state. So the solver circuit is simulated once for every
readout mode; the swap-test readout samples outcome probabilities taken from
the branches in closed form and simulates no test register.

Inside ``execute`` the amplitudes hold the b register in A's eigenbasis,
laid out [ancilla, clock, eigenpair j], from state preparation to readout.
There the noiseless run is block-diagonal per eigenpair: the ladder and
its adjoint are one phase per clock value and eigenpair, and every other
stage acts on the clock and the ancilla alone. Three places change the
basis: ``_prepared`` turns ``preprocess.prepare_b``'s simulated b state
into the eigenbasis for a walked prefix, ``_simulate`` turns to the
computational basis and back only around a run of Paulis that touches a b
qubit, and ``execute`` turns back once at the end.

``execute`` splits every run at the last gate of its prefix (prepare b and
phase estimation) and gives each half one rule. The prefix is the cached
``preprocess.qpe_amplitudes`` (``_qpe_blocks``) unless ``inject_noise``
lands a Pauli before its last gate. The rest (the inversion block and the
uncompute) runs as ``_tail`` unless a Pauli lands after that gate. A half
with a Pauli is walked (``_walk``) through the stage records of
``preprocess.qpe_stages`` (Hadamard layer, controlled-power ladder, Fourier
transform, and their adjoints in the uncompute) and of the inversion block
(``inversion.rotate_branches``), each run of a stage's gates that no Pauli
interrupts going to the stage's closed form: a Pauli inside any stage
splits it into closed forms either side, a Fourier transform into runs of
its own Hadamards, phases and swaps (``preprocess.clock_qft``), so a walk
simulates the Paulis alone. Every walk of a prefix starts after
state preparation (each Pauli follows a gate, so none precedes it). A run
with no Pauli (no noise, or noise whose draws insert none) simulates no
gate.
Every run reports the gate counts of the whole noiseless circuit, added up
block by block: the cached counts of the prefix and the uncompute and the
inversion block's in closed form, r gates and depth r for r rotations,
each spanning the clock and the ancilla, so that depths add too.
Consecutive runs on one problem share its prepared state, stage records,
prefix state, block counts and iterative t0 search through one-slot memos
(``prepare_b``, ``_qpe_blocks``, ``_searched_t0``), and canonical runs at
one t0 share one plan (``plan_canonical``) with its inversion gates.

Fidelity semantics: each readout returns the value a run reports as its
fidelity, and the run derives its error through ``error_from_fidelity``
alone, so every mode satisfies error = sqrt(2 (1 - fidelity)). The exact
readout returns the expectation of the projector onto the classical
solution over the surviving register state, i.e. the squared overlap; the
swap-test readout returns its shot estimate of that squared overlap, so the
two agree up to shot noise. The direct readout compares measured
probabilities and returns the unsquared, sign-blind overlap
sum_i sqrt(f_i) |x_i|, so its error reads lower.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateRunError,
    InsufficientShotsError,
    ZeroProbabilityError,
)
from .inversion import (
    ALPHA_MODELS,
    ANGLE_POLICIES,
    InversionPlan,
    build_inversion_circuit,
    plan_canonical,
    plan_enhanced,
    plan_hybrid,
    rotate_branches,
)
from .preprocess import (
    EigenEstimateSet,
    Stage,
    fixed_t0,
    iterative_t0,
    ladder_phases,
    prepare_b,
    qpe_amplitudes,
    qpe_stages,
    run_preprocessing,
)
from .qlsp import QLSP, classical_solution
from .sim import (
    MAX_QUBITS,
    Circuit,
    Gate,
    GateReport,
    NoiseSpec,
    StateVector,
    apply_circuit,
    check_capacity,
    check_count,
    check_real,
    gate_report,
    inject_noise,
    postselect,
    sample,
)

VARIANTS = ("canonical", "hybrid", "enhanced")
READOUTS = ("exact", "swap", "direct")


@dataclass(frozen=True)
class RunConfig:
    variant: str = "canonical"
    clock_bits: int = 3
    preprocess_bits: int | None = None  # None: clock_bits, or max(clock_bits + 2, 5) for enhanced
    t0_mode: str = "fixed"  # fixed | iterative | explicit
    t0_value: float | None = None
    preprocess_shots: int | None = None  # None runs on exact Born weights
    preprocess_seed: int = 0
    angle_policy: str = "least-squares"
    alpha_model: str = "linear"
    readout: str = "exact"
    shots: int = 4096
    seed: int = 11
    noise: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.readout not in READOUTS:
            raise ValueError(f"unknown readout {self.readout!r}")
        # checked for every variant, so a bad name fails before any row runs
        if self.angle_policy not in ANGLE_POLICIES:
            raise ValueError(f"unknown angle policy {self.angle_policy!r}")
        if self.alpha_model not in ALPHA_MODELS:
            raise ValueError(f"unknown alpha model {self.alpha_model!r}")
        optional = ("preprocess_bits", "preprocess_shots")  # None picks the default
        for name in ("clock_bits", *optional, "shots", "seed", "preprocess_seed"):
            value = getattr(self, name)
            if value is not None or name not in optional:
                check_count(name, value, 0 if name.endswith("seed") else 1)
        if self.t0_mode not in ("fixed", "iterative", "explicit"):
            raise ValueError(f"unknown t0 mode {self.t0_mode!r}")
        value = self.t0_value
        if value is not None:
            check_real("t0_value", value)
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"noise must be a NoiseSpec or None, not {self.noise!r}")
        if self.t0_mode == "explicit" and not 0 < (value or 0) < math.inf:
            raise ValueError(f"explicit t0 mode needs a finite positive t0_value, not {value}")
        if value is not None and self.t0_mode != "explicit":
            raise ValueError(f"t0_value is only used with t0_mode 'explicit', not {self.t0_mode!r}")
        if self.t0_mode == "iterative" and self.variant == "canonical":
            raise ValueError("the canonical variant has no preprocessing to guide an iterative t0")
        if self.preprocess_bits is None:
            l = max(self.clock_bits + 2, 5) if self.variant == "enhanced" else self.clock_bits
            object.__setattr__(self, "preprocess_bits", l)  # clock_bits >= 1 is checked
        if self.variant != "enhanced" and self.preprocess_bits != self.clock_bits:
            # canonical runs report l = k, and hybrid runs preprocess at it
            raise ValueError(f"the {self.variant} variant needs preprocess_bits = clock_bits")
        if self.variant == "enhanced" and self.preprocess_bits <= self.clock_bits:
            raise ValueError("the enhanced variant needs preprocess_bits > clock_bits")
        for name, width in _widths(self, 1):
            if width > MAX_QUBITS:
                raise ValueError(
                    f"{name} = {getattr(self, name)} needs {width} qubits even on a 2x2"
                    f" problem, over the simulator budget of {MAX_QUBITS}"
                )


def _widths(config: RunConfig, nb: int) -> list[tuple[str, int]]:
    """(field, qubits) for each state a run of ``config`` builds with ``nb`` b qubits.

    The field is the config value that sets the width. Every readout reads
    the solver's state, so the readout mode adds no width.
    """
    k = config.clock_bits
    widths = [("clock_bits", nb + k + 1)]  # the solver circuit
    if config.t0_mode == "iterative":
        widths.append(("clock_bits", nb + k + 3))  # the t0 search's fine grid
    if config.variant != "canonical":
        widths.append(("preprocess_bits", nb + config.preprocess_bits))
    return widths


@dataclass(frozen=True, eq=False)
class RunResult:
    variant: str
    fidelity: float
    error: float
    success_probability: float
    gate_count: int
    two_qubit_count: int
    depth: int
    t0: float
    clock_bits: int
    preprocess_bits: int
    plan: InversionPlan
    estimates: EigenEstimateSet | None


def error_from_fidelity(fidelity: float) -> float:
    """sqrt(2 (1 - f)); tiny negative radicands from roundoff clamp to zero."""
    if fidelity > 1.0 + 1e-9:
        raise ValueError(f"fidelity {fidelity} exceeds 1")
    return math.sqrt(max(0.0, 2.0 * (1.0 - fidelity)))


class _Blocks(NamedTuple):
    """What one problem's runs at one clock width and t0 share (``_qpe_blocks``)."""

    prefix: tuple[Stage, ...]  # the stage records of prepare b + QPE
    uncompute: tuple[Stage, ...]  # the stage records of the QPE block undone
    prepared: np.ndarray  # the amplitudes after the prefix, [ancilla, clock, eigenpair j]
    phases: np.ndarray  # the adjoint ladder's phase table, [clock, eigenpair j]
    reports: tuple[GateReport, GateReport]  # gate_report of the prefix, of the uncompute


@functools.lru_cache(maxsize=1)
def _qpe_blocks(qlsp: QLSP, clock_bits: int, t0: float) -> _Blocks:
    """``qpe_stages`` of the solver's prefix (prepare b + QPE) and uncompute,
    their gate counts, the solver's amplitudes after the Pauli-free prefix
    (``qpe_amplitudes`` at (k, t0) on the ancilla-0 branch) and the adjoint
    ladder's phase table, which ``_tail`` applies.

    A batch runs a problem's variants back to back and they share the block
    whenever they share t0, so one slot holds every reuse there is. The key
    holds the problem by identity, which is safe because ``QLSP`` is immutable.
    """
    prefix, uncompute = qpe_stages(qlsp, clock_bits, t0)
    prepared = np.zeros((2, 2**clock_bits, qlsp.dimension), dtype=complex)
    prepared[0] = qpe_amplitudes(qlsp, clock_bits, t0)
    phases = ladder_phases(qlsp, t0, 2**clock_bits, adjoint=True)
    for array in (prepared, phases):
        array.setflags(write=False)
    width = qlsp.num_qubits + clock_bits + 1
    head, tail = (
        gate_report(_circuit(width, [gate for stage in stages for gate in stage.gates]))
        for stages in (prefix, uncompute)
    )
    return _Blocks(prefix, uncompute, prepared, phases, (head, tail))


def assemble_hhl(qlsp: QLSP, clock_bits: int, t0: float, plan: InversionPlan) -> Circuit:
    """Full solver circuit: prepare b, QPE, inversion, exact inverse QPE."""
    if plan.bit_width != clock_bits:
        raise ValueError("plan bit width does not match the clock register")
    nb = qlsp.num_qubits
    circuit = Circuit(nb + clock_bits + 1)
    check_capacity(circuit.num_qubits)
    blocks = _qpe_blocks(qlsp, clock_bits, t0)
    inversion = build_inversion_circuit(plan, range(nb, nb + clock_bits), nb + clock_bits)
    # each block was built in a circuit no wider than this one, whose add
    # already checked that every gate fits
    for stage in (*blocks.prefix, inversion, *blocks.uncompute):
        circuit.gates.extend(stage.gates)
    return circuit


def execute(
    qlsp: QLSP, t0: float, plan: InversionPlan, noise: NoiseSpec | None = None
) -> tuple[np.ndarray, GateReport]:
    """The solver's output on |0> as its ancilla branches, shape (2, 2^k, N),
    and the gate counts of its noiseless circuit, with k = ``plan.bit_width``.

    Assembles ``assemble_hhl(qlsp, k, t0, plan)``, inserts the Paulis of
    ``noise`` through ``inject_noise`` and splits the run at the prefix's
    last gate, with one rule for each half. The prefix is the cached output
    of ``_qpe_blocks`` unless a Pauli lands before its last gate, and is then
    ``_walk``ed from the problem's state after preparation. The rest (the
    inversion block and the uncompute) runs as ``_tail`` unless a Pauli
    lands after the prefix's last gate, and is then ``_walk``ed through the
    inversion block (``rotate_branches``) and the uncompute's stage records.
    A walk runs every stage in closed form, split at any Pauli, and
    simulates the Paulis alone. ``inject_noise`` keeps the circuit's own
    gate objects, so walking both gate lists in lockstep finds the Paulis
    by identity. Both halves hold the b register in A's eigenbasis, and the
    result turns back to the computational basis once, at the end.

    The counts add up block by block: the cached reports of the prefix and
    the uncompute, and the inversion block's in closed form. Every one of
    its r rotations spans all k clock qubits and the ancilla, so they run
    one after another: r gates, r two-qubit gates when k = 1 and none
    otherwise, and depth r. So the block is a barrier and depths add. An
    empty plan leaves none, but the uncompute mirrors the QPE block gate for
    gate, so the prefix's longest chain of gates goes on through its mirror
    image and the depths still add.
    """
    k, rotations = plan.bit_width, len(plan.rotations)
    circuit = assemble_hhl(qlsp, k, t0, plan)
    blocks = _qpe_blocks(qlsp, k, t0)
    head, tail = blocks.reports
    opening = head.gate_count
    report = GateReport(
        head.gate_count + rotations + tail.gate_count,
        head.two_qubit_count + (rotations if k == 1 else 0) + tail.two_qubit_count,
        head.depth + rotations + tail.depth,
    )
    follows: dict[int, list[Gate]] = {}  # index in circuit.gates -> the Paulis inserted after it
    if noise:
        gates, i = circuit.gates, 0  # the next of the circuit's own gates
        for gate in inject_noise(circuit, noise).gates:
            if i < len(gates) and gate is gates[i]:
                i += 1
            else:
                follows.setdefault(i - 1, []).append(gate)
    rest = {i - opening: paulis for i, paulis in follows.items() if i >= opening - 1}
    prepared = blocks.prepared
    if len(rest) < len(follows):  # a Pauli before the prefix's last gate
        # each Pauli follows a gate, so the walk starts after state preparation
        after = {i - 1: paulis for i, paulis in follows.items() if i < opening - 1}
        prepared = _walk(qlsp, _prepared(qlsp, prepared.shape[1]), blocks.prefix[1:], after)
    if rest:
        inversion = circuit.gates[opening : opening + rotations]  # gate i is rotation i
        stage = Stage(inversion, functools.partial(rotate_branches, plan), tuple(range(rotations)))
        branches = _walk(qlsp, prepared, (stage, *blocks.uncompute), rest)
    else:
        branches = _tail(plan, prepared, blocks)
    return branches @ qlsp.eigenvectors.T, report


def _prepared(qlsp: QLSP, size: int) -> np.ndarray:
    """The solver's amplitudes after state preparation on a clock of ``size``
    values, laid out [ancilla, clock, eigenpair j]: ``prepare_b``'s b register
    state in A's eigenbasis, with the clock and the ancilla at 0."""
    blocks = np.zeros((2, size, qlsp.dimension), dtype=complex)
    blocks[0, 0] = prepare_b(qlsp)[1] @ qlsp.eigenvectors.conj()
    return blocks


def _tail(plan: InversionPlan, prepared: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """The inversion block and the uncompute records of ``blocks``, with no
    Pauli, on ``prepared``, a prefix output laid out [ancilla, clock,
    eigenpair j]; the result keeps that layout.

    The inversion scales each pattern's row of the ancilla-0 branch, the
    only one a prefix output fills, by the cosine and sine of its
    half-angle. The uncompute's Fourier transform and Hadamard layer then
    apply their closed forms, and the adjoint ladder between them is the
    cached phase table.
    """
    scales = np.zeros((2, prepared.shape[1], 1))
    scales[0] = 1.0
    scales[0, plan.patterns, 0], scales[1, plan.patterns, 0] = plan.cosines, plan.sines
    qft, _, hadamards = blocks.uncompute
    return hadamards.closed(qft.closed(scales * prepared[0]) * blocks.phases)


def _walk(qlsp: QLSP, blocks: np.ndarray, stages, follows: dict[int, list[Gate]]) -> np.ndarray:
    """``stages`` applied to the amplitudes ``blocks`` of a run on ``qlsp``,
    laid out [ancilla, clock, eigenpair j], with ``follows[i]``, the Paulis
    inserted after gate i of the stages' joint gate list (i = -1: before the
    first). Each run of a stage's gates that no Pauli interrupts goes to the
    stage's closed form, and only the Paulis are simulated (``_simulate``),
    those between two closed forms in one ``apply_circuit`` call."""
    pending, end = follows.get(-1, []), 0  # the Paulis to simulate before the next closed form
    for stage in (stage for stage in stages if stage.gates):
        offset, end = end, end + len(stage.gates)
        # the stage's runs [start, stop) that no Pauli interrupts
        stops = sorted({i + 1 for i in follows if offset <= i < end - 1}) + [end]
        for start, stop in zip([offset] + stops, stops):
            closed = stage.closed_form(start - offset, stop - offset)
            blocks, pending = closed(_simulate(qlsp, blocks, pending)), follows.get(stop - 1, [])
    return _simulate(qlsp, blocks, pending)


def _simulate(qlsp: QLSP, blocks: np.ndarray, paulis: list[Gate]) -> np.ndarray:
    """The Pauli gates ``paulis`` applied to the amplitudes ``blocks`` of a run
    on ``qlsp``, laid out [ancilla, clock, eigenpair j]; no call for no gates.
    A Pauli on the clock or the ancilla acts on any basis of the b register,
    so only a Pauli on a b qubit is simulated in the computational basis."""
    if not paulis:
        return blocks
    nb = qlsp.num_qubits
    on_b = any(q < nb for gate in paulis for q in gate.qubits())
    amplitudes = blocks @ qlsp.eigenvectors.T if on_b else blocks
    part = _circuit(blocks.size.bit_length() - 1, paulis)
    state = StateVector(part.num_qubits, amplitudes.reshape(-1), validate=False)
    amplitudes = apply_circuit(state, part).amplitudes.reshape(blocks.shape)
    return amplitudes @ qlsp.eigenvectors.conj() if on_b else amplitudes


def _circuit(num_qubits: int, gates: list[Gate]) -> Circuit:
    """A circuit of ``gates``, each already checked to fit ``num_qubits`` qubits."""
    circuit = Circuit(num_qubits)
    circuit.gates = gates
    return circuit


def _target(x, branches: np.ndarray) -> np.ndarray:
    """``x`` as a complex vector, checked against the b axis of ``branches``."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape[0] != branches.shape[-1]:
        raise ValueError("x length does not match the b register")
    return x


def projection_fidelity(branches: np.ndarray, x) -> float:
    """Expectation of the projector onto ``x`` over the b register of the
    ancilla-1 branch M_1 of a post-selected state: ||M_1 x^*||^2.

    ``branches`` are that state's ancilla branches, shape (2, 2^k, N). The
    value equals |<x|b>|^2 for a pure b register state, and extends to states
    with residual entanglement as the probability that the register is found
    in ``x``.
    """
    overlap = branches[1] @ _target(x, branches).conj()
    return float(np.vdot(overlap, overlap).real)


def _swap_test_probabilities(branches: np.ndarray, x) -> np.ndarray:
    """Outcome probabilities of a swap test of the b register against ``x``.

    Bit 0 of an outcome is the ancilla, bit 1 the swap-test control. From
    the unnormalised branches M_a, shape (2, 2^k, N), the test reads
    P(a, c) = (P(a) +- <x|rho_a|x>) / 2, with P(a) = ||M_a||^2 and
    <x|rho_a|x> = ||M_a x^*||^2, so no test register is simulated.
    """
    x = _target(x, branches)
    weights = np.sum(np.abs(branches) ** 2, axis=(1, 2))
    overlaps = np.sum(np.abs(branches @ x.conj()) ** 2, axis=1)
    # rows are the control's value, columns the ancilla's
    probabilities = np.stack((weights + overlaps, weights - overlaps)) / 2
    return np.clip(probabilities, 0.0, None).reshape(-1)


def swap_test_fidelity(branches: np.ndarray, x, shots: int, seed: int | None = None) -> float:
    """Estimate |<x~|x>|^2 from swap-test statistics on the b register of the
    unnormalised ancilla branches ``branches``, shape (2, 2^k, N).

    Shots are conditioned on the ancilla reading 1; the estimator inverts
    P(1) = (1 - |<x~|x>|^2) / 2 on the conditioned shots.
    """
    # bit 0 of an outcome is the ancilla, bit 1 the swap-test control
    counts = sample(_swap_test_probabilities(branches, x), shots, seed)
    total = int(counts[1] + counts[3])
    if total == 0:
        raise InsufficientShotsError("no shot survived ancilla conditioning")
    return max(0.0, 1.0 - 2.0 * int(counts[3]) / total)


def direct_fidelity(branches: np.ndarray, x, shots: int, seed: int | None = None) -> float:
    """Overlap sum_i sqrt(f_i) |x_i| from measuring the ancilla and the b
    register of the unnormalised ancilla branches ``branches``, shape (2, 2^k, N).

    Shots are conditioned on the ancilla reading 1, and f_i is the frequency
    of basis state i among them. Amplitude magnitudes are the square roots
    of those frequencies and their signs are borrowed from ``x``, so the
    overlap is unsquared and blind to sign errors.
    """
    x = _target(x, branches)
    # outcome a + 2 i: the ancilla is bit 0, as when both are measured as one register
    probabilities = np.sum(np.abs(branches) ** 2, axis=1).T
    counts = sample(probabilities, shots, seed)[1::2]
    total = int(counts.sum())
    if total == 0:
        raise InsufficientShotsError("no shot survived ancilla conditioning")
    return float(sum(math.sqrt(c / total) * abs(a) for c, a in zip(counts.tolist(), x)))


@functools.lru_cache(maxsize=1)
def _searched_t0(qlsp: QLSP, clock_bits: int, shots: int | None, seed: int) -> float:
    """``iterative_t0`` for one problem and search setting.

    The hybrid and enhanced variants of a problem run back to back with the
    same search, so one slot serves the second from the first. A search that
    raises leaves nothing cached, and the next variant searches again.
    """
    return iterative_t0(qlsp, clock_bits, shots=shots, seed=seed)


def plan_run(qlsp: QLSP, config: RunConfig) -> tuple[float, EigenEstimateSet | None, InversionPlan]:
    """The classical step of a run: its time scale t0, its eigenvalue estimates
    (None for the canonical variant) and its inversion plan. Checks the qubit
    budget before any work, resolves t0 by the config's mode, preprocesses at
    t0 2^(l - k) and calls the variant's planner."""
    k, l = config.clock_bits, config.preprocess_bits
    for _, width in _widths(config, qlsp.num_qubits):
        check_capacity(width)
    signed = qlsp.has_negative_eigenvalues
    if config.t0_mode == "explicit":
        t0 = float(config.t0_value)
    elif config.t0_mode == "iterative":
        t0 = _searched_t0(qlsp, k, config.preprocess_shots, config.preprocess_seed)
    else:  # 1.0 is the norm bound that QLSP's rescaling guarantees
        t0 = fixed_t0(1.0, k, signed)
    if config.variant == "canonical":
        return t0, None, plan_canonical(k, t0, signed_mode=signed)
    estimates = run_preprocessing(
        qlsp, l, t0 * 2 ** (l - k), shots=config.preprocess_shots, seed=config.preprocess_seed
    )
    if config.variant == "hybrid":
        # at most one rotation per eigenvalue can carry solution weight
        return t0, estimates, plan_hybrid(estimates, max_rotations=qlsp.dimension)
    return t0, estimates, plan_enhanced(estimates, k, config.angle_policy, config.alpha_model)


def run(qlsp: QLSP, config: RunConfig) -> RunResult:
    """Execute one solver variant on one problem; deterministic per seeds."""
    t0, estimates, plan = plan_run(qlsp, config)
    branches, report = execute(qlsp, t0, plan, config.noise)
    state = StateVector(branches.size.bit_length() - 1, branches.reshape(-1), validate=False)
    try:
        post, success = postselect(state, state.num_qubits - 1, 1)  # the ancilla, axis 0
    except ZeroProbabilityError as exc:
        raise DegenerateRunError("the inversion ancilla never reads 1") from exc

    x = classical_solution(qlsp).state_x
    if config.readout == "exact":
        fidelity = projection_fidelity(post.amplitudes.reshape(branches.shape), x)
    else:
        readout = swap_test_fidelity if config.readout == "swap" else direct_fidelity
        fidelity = readout(branches, x, config.shots, config.seed)

    return RunResult(
        variant=config.variant,
        fidelity=fidelity,
        error=error_from_fidelity(fidelity),
        success_probability=success,
        gate_count=report.gate_count,
        two_qubit_count=report.two_qubit_count,
        depth=report.depth,
        t0=t0,
        clock_bits=config.clock_bits,
        preprocess_bits=config.preprocess_bits,
        plan=plan,
        estimates=estimates,
    )
