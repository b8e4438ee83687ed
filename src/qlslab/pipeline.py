"""End-to-end solver runs: assembly, execution, and readout modes.

A run prepares the right-hand side, performs phase estimation onto the clock
register, applies the inversion plan, undoes phase estimation, post-selects
the ancilla on |1>, and scores the surviving register state against the exact
classical solution. Register layout (least significant first): solution
register ``b``, clock ``c``, ancilla ``a``. The swap-test readout appends its
test register and control qubit above these to the simulated state at readout
time, so the solver circuit is simulated once for every readout mode.

Fidelity semantics: the exact readout reports the expectation of the
projector onto the classical solution over the surviving register state,
i.e. the squared overlap; the swap-test readout reports the square of its
overlap estimate, so the two agree up to shot noise. The direct readout
compares measured probabilities and reports the resulting distribution
overlap. Every mode satisfies error = sqrt(2 (1 - fidelity)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
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
    fixed_t0,
    iterative_t0,
    qpe_gates,
    run_preprocessing,
)
from .qlsp import QLSP, classical_solution
from .sim import (
    Circuit,
    NoiseSpec,
    StateVector,
    apply_circuit,
    gate_report,
    inject_noise,
    inverted_gates,
    postselect,
    register_matrix,
    sample,
    state_preparation_matrix,
)

MAX_QUBITS = 20

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
        if self.t0_lambda_max is not None and not _finite_positive(self.t0_lambda_max):
            raise ValueError(f"t0_lambda_max must be finite and positive, not {self.t0_lambda_max}")
        if self.t0_mode == "iterative" and self.variant == "canonical":
            raise ValueError("the canonical variant has no preprocessing to guide an iterative t0")
        if self.preprocess_bits is None:
            default_l = self.clock_bits + 2 if self.variant == "enhanced" else self.clock_bits
            self.preprocess_bits = max(default_l, 5 if self.variant == "enhanced" else 1)
        if self.variant == "hybrid" and self.preprocess_bits != self.clock_bits:
            raise ValueError("the hybrid variant preprocesses at the clock bit width")
        if self.variant == "enhanced" and self.preprocess_bits <= self.clock_bits:
            raise ValueError("the enhanced variant needs preprocess_bits > clock_bits")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")


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


def assemble_hhl(qlsp: QLSP, clock_bits: int, t0: float, plan: InversionPlan) -> Circuit:
    """Full solver circuit: prepare b, QPE, inversion, exact inverse QPE."""
    if plan.bit_width != clock_bits:
        raise ValueError("plan bit width does not match the clock register")
    nb = qlsp.num_qubits
    total = nb + clock_bits + 1
    if total > MAX_QUBITS:
        raise CapacityError(f"{total} qubits exceed the simulator budget of {MAX_QUBITS}")
    breg = tuple(range(nb))
    clock = tuple(range(nb, nb + clock_bits))
    ancilla = nb + clock_bits
    circuit = Circuit(total, registers={"b": breg, "c": clock, "a": (ancilla,)})
    circuit.unitary(state_preparation_matrix(qlsp.vector_b), breg)
    qpe = qpe_gates(qlsp, clock, breg, t0)
    circuit.extend(qpe)
    circuit.extend(build_inversion_circuit(plan, clock, ancilla).gates)
    circuit.extend(inverted_gates(qpe))
    return circuit


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
    if total > MAX_QUBITS:
        raise CapacityError(f"{total} qubits exceed the simulator budget of {MAX_QUBITS}")
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
    counts = sample(tested, (ancilla, tested.num_qubits - 1), shots, seed)
    kept = {key: n for key, n in counts.items() if key[-1] == "1"}
    total = sum(kept.values())
    if total == 0:
        raise InsufficientShotsError("no shot survived ancilla conditioning")
    ones = sum(n for key, n in kept.items() if key[0] == "1")
    return math.sqrt(max(0.0, 1.0 - 2.0 * ones / total))


def direct_distribution_error(histogram: dict[str, int], x) -> float:
    """Error from direct register measurement, with signs borrowed from ``x``.

    Amplitude magnitudes are the square roots of observed frequencies, so the
    recovered overlap is sum_i sqrt(f_i) |x_i|.
    """
    if not histogram:
        raise ValueError("empty histogram")
    x = np.asarray(x, dtype=complex).reshape(-1)
    total = sum(histogram.values())
    overlap = 0.0
    for key, count in histogram.items():
        index = int(key, 2)
        if index >= x.shape[0]:
            raise ValueError(f"histogram key {key!r} is outside the register")
        overlap += math.sqrt(count / total) * abs(x[index])
    return error_from_fidelity(overlap)


def _resolve_t0(qlsp: QLSP, config: RunConfig, signed: bool) -> float:
    if config.t0_mode == "explicit":
        return float(config.t0_value)
    if config.t0_mode == "iterative":
        return iterative_t0(
            qlsp,
            config.clock_bits,
            signed,
            shots=config.preprocess_shots,
            seed=config.preprocess_seed,
        )
    lambda_max = config.t0_lambda_max if config.t0_lambda_max is not None else 1.0
    return fixed_t0(lambda_max, config.clock_bits, signed)


def run(qlsp: QLSP, config: RunConfig) -> RunResult:
    """Execute one solver variant on one problem; deterministic per seeds."""
    k = config.clock_bits
    l = config.preprocess_bits
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
    executed = inject_noise(circuit, config.noise) if config.noise else circuit
    state = apply_circuit(StateVector.zero(executed.num_qubits), executed)

    ancilla = circuit.register_map["a"][0]
    breg = circuit.register_map["b"]
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
        counts = sample(state, (ancilla,) + tuple(breg), config.shots, config.seed)
        kept: dict[str, int] = {}
        for key, count in counts.items():
            if key[-1] == "1":  # ancilla is the least significant sampled bit
                kept[key[:-1]] = kept.get(key[:-1], 0) + count
        if not kept:
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
