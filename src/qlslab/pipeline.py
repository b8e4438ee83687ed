"""End-to-end solver runs: assembly, execution, and readout modes.

A run prepares the right-hand side, performs phase estimation onto the clock
register, applies the inversion plan, undoes phase estimation, post-selects
the ancilla on |1>, and scores the surviving register state against the exact
classical solution. Register layout (least significant first): solution
register ``b``, clock ``c``, ancilla ``a``. The swap-test readout appends its
test register and control qubit above these to the simulated state at readout
time, so the solver circuit is simulated once for every readout mode.

Noiseless runs take the prepare + QPE block and its uncompute in closed form
from A's eigenbasis (``qpe_state``, ``qpe_uncompute``) and simulate only the
inversion block gate by gate; noisy runs simulate the whole circuit gate by
gate, since noise lands between individual gates. Both report the gate
counts of the whole circuit. Consecutive runs on one problem share its
prepare + QPE block and its iterative t0 search through one-slot memos
(``_qpe_blocks``, ``_searched_t0``).

Fidelity semantics: the exact readout reports the expectation of the
projector onto the classical solution over the surviving register state,
i.e. the squared overlap; the swap-test readout reports the square of its
overlap estimate, so the two agree up to shot noise. The direct readout
compares measured probabilities and reports the resulting distribution
overlap. Every mode satisfies error = sqrt(2 (1 - fidelity)).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRunError,
    InsufficientShotsError,
    ZeroProbabilityError,
)
from .inversion import (
    InversionPlan,
    build_inversion_circuit,
    plan_canonical,
    plan_enhanced,
    plan_hybrid,
)
from .preprocess import (
    EigenEstimateSet,
    build_qpe_circuit,
    fixed_t0,
    iterative_t0,
    qpe_state,
    qpe_uncompute,
    run_preprocessing,
)
from .qlsp import QLSP, classical_solution
from .sim import (
    MAX_QUBITS,
    Circuit,
    Gate,
    NoiseSpec,
    StateVector,
    apply_circuit,
    check_capacity,
    gate_report,
    inject_noise,
    inverted_gates,
    postselect,
    register_matrix,
    sample,
    state_preparation_matrix,
)

VARIANTS = ("canonical", "hybrid", "enhanced")
READOUTS = ("exact", "swap", "direct")


def _finite_positive(value: float | None) -> bool:
    return value is not None and math.isfinite(value) and value > 0


@dataclass
class RunConfig:
    variant: str = "canonical"
    clock_bits: int = 3
    preprocess_bits: int | None = None  # None: clock_bits, or max(clock_bits + 2, 5) for enhanced
    t0_mode: str = "fixed"  # fixed | iterative | explicit
    t0_value: float | None = None
    t0_lambda_max: float | None = None  # fixed mode; None uses the norm bound 1.0
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
        if self.clock_bits < 1:
            raise ValueError("clock_bits must be at least 1")
        if self.t0_mode not in ("fixed", "iterative", "explicit"):
            raise ValueError(f"unknown t0 mode {self.t0_mode!r}")
        if self.t0_mode == "explicit" and not _finite_positive(self.t0_value):
            raise ValueError(
                f"explicit t0 mode needs a finite positive t0_value, not {self.t0_value}"
            )
        if self.t0_value is not None and self.t0_mode != "explicit":
            raise ValueError(
                f"t0_value is only used with t0_mode 'explicit', not {self.t0_mode!r}"
            )
        if self.t0_lambda_max is not None:
            if self.t0_mode != "fixed":
                raise ValueError(
                    f"t0_lambda_max is only used with t0_mode 'fixed', not {self.t0_mode!r}"
                )
            if not _finite_positive(self.t0_lambda_max):
                raise ValueError(
                    f"t0_lambda_max must be finite and positive, not {self.t0_lambda_max}"
                )
        if self.t0_mode == "iterative" and self.variant == "canonical":
            raise ValueError("the canonical variant has no preprocessing to guide an iterative t0")
        if self.preprocess_bits is None:
            default_l = self.clock_bits + 2 if self.variant == "enhanced" else self.clock_bits
            self.preprocess_bits = max(default_l, 5 if self.variant == "enhanced" else 1)
        if self.preprocess_bits < 1:
            raise ValueError(f"preprocess_bits must be at least 1, not {self.preprocess_bits}")
        if self.variant == "hybrid" and self.preprocess_bits != self.clock_bits:
            raise ValueError("the hybrid variant preprocesses at the clock bit width")
        if self.variant == "enhanced" and self.preprocess_bits <= self.clock_bits:
            raise ValueError("the enhanced variant needs preprocess_bits > clock_bits")
        for name, width in _widths(self, 1):
            if width > MAX_QUBITS:
                raise ValueError(
                    f"{name} = {getattr(self, name)} needs {width} qubits even on a 2x2"
                    f" problem, over the simulator budget of {MAX_QUBITS}"
                )
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.preprocess_shots is not None and self.preprocess_shots < 1:
            raise ValueError(
                f"preprocess_shots must be at least 1, not {self.preprocess_shots}"
            )
        for name in ("seed", "preprocess_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, not {value}")


def _widths(config: RunConfig, nb: int) -> list[tuple[str, int]]:
    """(field, qubits) for each state a run of ``config`` builds with ``nb`` b qubits.

    The field is the config value that sets the width.
    """
    k = config.clock_bits
    widths = [("clock_bits", nb + k + 1)]  # the solver circuit
    if config.readout == "swap":
        widths.append(("clock_bits", 2 * nb + k + 2))  # plus the test register and control
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


@functools.lru_cache(maxsize=1)
def _qpe_blocks(
    qlsp: QLSP, clock_bits: int, t0: float
) -> tuple[tuple[Gate, ...], tuple[Gate, ...], StateVector]:
    """Prepare b + QPE gates, the QPE's uncompute, and the solver state after the gates.

    The state is ``qpe_state`` with the ancilla, the solver's top qubit, at
    |0>. A batch runs a problem's variants back to back and they share the
    block whenever they share t0, so one slot holds every reuse there is. The
    key holds the problem by identity, which is safe because ``QLSP`` is
    immutable.
    """
    prefix = tuple(build_qpe_circuit(qlsp, clock_bits, t0).gates)
    prepared = qpe_state(qlsp, clock_bits, t0)
    start = np.concatenate((prepared.amplitudes, np.zeros_like(prepared.amplitudes)))
    state = StateVector(prepared.num_qubits + 1, start, validate=False)
    return prefix, tuple(inverted_gates(prefix[1:])), state


def assemble_hhl(qlsp: QLSP, clock_bits: int, t0: float, plan: InversionPlan) -> Circuit:
    """Full solver circuit: prepare b, QPE, inversion, exact inverse QPE."""
    if plan.bit_width != clock_bits:
        raise ValueError("plan bit width does not match the clock register")
    nb = qlsp.num_qubits
    total = nb + clock_bits + 1
    check_capacity(total)
    clock = tuple(range(nb, nb + clock_bits))
    ancilla = nb + clock_bits
    circuit = Circuit(total)
    prefix, uncompute, _ = _qpe_blocks(qlsp, clock_bits, t0)
    # each block was built in a circuit no wider than this one, whose add
    # already checked that every gate fits
    circuit.gates.extend(prefix)
    circuit.gates.extend(build_inversion_circuit(plan, clock, ancilla).gates)
    circuit.gates.extend(uncompute)
    return circuit


def _noiseless_state(qlsp: QLSP, clock_bits: int, t0: float, circuit: Circuit) -> StateVector:
    """Output of ``assemble_hhl``'s ``circuit`` on |0>, without noise.

    The prepare + QPE block and its uncompute come in closed form; only the
    inversion block between them is simulated gate by gate.
    """
    prefix, uncompute, prepared = _qpe_blocks(qlsp, clock_bits, t0)
    inversion = Circuit(circuit.num_qubits)
    inversion.gates = circuit.gates[len(prefix) : len(circuit.gates) - len(uncompute)]
    return qpe_uncompute(qlsp, clock_bits, t0, apply_circuit(prepared, inversion))


def projection_fidelity(state: StateVector, qubits, target) -> float:
    """sqrt of the probability that the register matches ``target``.

    Equals |<target|x>| for a pure register state and extends to states with
    residual entanglement as the square root of the projector expectation.
    """
    target = np.asarray(target, dtype=complex).reshape(-1)
    matrix = register_matrix(state.amplitudes, qubits)
    if matrix.shape[0] != target.shape[0]:
        raise ValueError("target length does not match the register")
    overlap = target.conj() @ matrix
    return float(np.linalg.norm(overlap))


def _swap_test_state(state: StateVector, register, x) -> StateVector:
    """Swap-test ``register`` of ``state`` against ``x``; returns the final state.

    The test register and its control qubit are appended in |0> above the
    state's qubits, so the control is the most significant qubit.
    """
    start = state.num_qubits
    total = start + len(register) + 1
    check_capacity(total)
    st = tuple(range(start, total - 1))
    st_a = total - 1
    circuit = Circuit(total)
    circuit.unitary(state_preparation_matrix(x), st)
    circuit.h(st_a)
    for qb, qs in zip(register, st):
        circuit.swap(qb, qs, controls=((st_a, 1),))
    circuit.h(st_a)
    amplitudes = np.zeros(2**total, dtype=complex)
    amplitudes[: 2**start] = state.amplitudes
    return apply_circuit(StateVector(total, amplitudes, validate=False), circuit)


def swap_test_fidelity(
    state: StateVector, register, ancilla: int, x, shots: int, seed: int | None = None
) -> float:
    """Estimate |<x~|x>| from swap-test statistics on ``register`` of ``state``.

    Shots are conditioned on ``ancilla`` reading 1; the estimator inverts
    P(1) = (1 - overlap^2) / 2 on the conditioned shots.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    tested = _swap_test_state(state, register, x)
    # bit 0 of an outcome is the ancilla, bit 1 the swap-test control
    counts = sample(tested, (ancilla, tested.num_qubits - 1), shots, seed)
    total = int(counts[1] + counts[3])
    if total == 0:
        raise InsufficientShotsError("no shot survived ancilla conditioning")
    return math.sqrt(max(0.0, 1.0 - 2.0 * int(counts[3]) / total))


def direct_distribution_error(counts, x) -> float:
    """Error from direct register measurement, with signs borrowed from ``x``.

    ``counts[i]`` shots read basis state ``i``. Amplitude magnitudes are the square
    roots of observed frequencies, so the recovered overlap is sum_i sqrt(f_i) |x_i|.
    """
    counts = np.asarray(counts)
    x = np.asarray(x, dtype=complex).reshape(-1)
    if counts.shape != x.shape:
        raise ValueError(f"counts of shape {counts.shape} do not match a register of {x.shape[0]}")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("the counts hold no shots")
    overlap = 0.0
    for count, amplitude in zip(counts.tolist(), x):
        overlap += math.sqrt(count / total) * abs(amplitude)
    return error_from_fidelity(overlap)


def _resolve_t0(qlsp: QLSP, config: RunConfig, signed: bool) -> float:
    if config.t0_mode == "explicit":
        return float(config.t0_value)
    if config.t0_mode == "iterative":
        return _searched_t0(
            qlsp, config.clock_bits, signed, config.preprocess_shots, config.preprocess_seed
        )
    lambda_max = config.t0_lambda_max if config.t0_lambda_max is not None else 1.0
    return fixed_t0(lambda_max, config.clock_bits, signed)


@functools.lru_cache(maxsize=1)
def _searched_t0(
    qlsp: QLSP, clock_bits: int, signed: bool, shots: int | None, seed: int
) -> float:
    """``iterative_t0`` for one problem and search setting.

    The hybrid and enhanced variants of a problem run back to back with the
    same search, so one slot serves the second from the first. A search that
    raises leaves nothing cached, and the next variant searches again.
    """
    return iterative_t0(qlsp, clock_bits, signed, shots=shots, seed=seed)


def run(qlsp: QLSP, config: RunConfig) -> RunResult:
    """Execute one solver variant on one problem; deterministic per seeds."""
    k = config.clock_bits
    l = config.preprocess_bits
    for _, width in _widths(config, qlsp.num_qubits):
        check_capacity(width)
    signed = qlsp.has_negative_eigenvalues
    t0 = _resolve_t0(qlsp, config, signed)

    estimates = None
    if config.variant == "canonical":
        plan = plan_canonical(k, t0, signed_mode=signed)
    else:
        t0_fine = t0 * 2 ** (l - k)
        estimates = run_preprocessing(
            qlsp,
            l,
            t0_fine,
            shots=config.preprocess_shots,
            seed=config.preprocess_seed,
            signed_mode=signed,
        )
        if config.variant == "hybrid":
            # at most one rotation per eigenvalue can carry solution weight
            plan = plan_hybrid(estimates, max_rotations=qlsp.dimension)
        else:
            plan = plan_enhanced(
                estimates, k, angle_policy=config.angle_policy, alpha_model=config.alpha_model
            )

    circuit = assemble_hhl(qlsp, k, t0, plan)
    report = gate_report(circuit)
    if config.noise:
        executed = inject_noise(circuit, config.noise)
        state = apply_circuit(StateVector.zero(executed.num_qubits), executed)
    else:
        state = _noiseless_state(qlsp, k, t0, circuit)

    breg = tuple(range(qlsp.num_qubits))
    ancilla = qlsp.num_qubits + k
    try:
        post, success = postselect(state, ancilla, 1)
    except ZeroProbabilityError as exc:
        raise DegenerateRunError("the inversion ancilla never reads 1") from exc

    solution = classical_solution(qlsp)
    if config.readout == "exact":
        fidelity = projection_fidelity(post, breg, solution.state_x) ** 2
    elif config.readout == "swap":
        overlap = swap_test_fidelity(
            state, breg, ancilla, solution.state_x, config.shots, config.seed
        )
        fidelity = overlap**2
    else:
        counts = sample(state, (ancilla,) + breg, config.shots, config.seed)
        kept = counts[1::2]  # the ancilla is bit 0 of an outcome
        if not kept.any():
            raise InsufficientShotsError("no shot survived ancilla conditioning")
        return_error = direct_distribution_error(kept, solution.state_x)
        fidelity = 1.0 - 0.5 * return_error**2

    return RunResult(
        variant=config.variant,
        fidelity=fidelity,
        error=error_from_fidelity(fidelity),
        success_probability=success,
        gate_count=report.gate_count,
        two_qubit_count=report.two_qubit_count,
        depth=report.depth,
        t0=t0,
        clock_bits=k,
        preprocess_bits=l,
        plan=plan,
        estimates=estimates,
    )
