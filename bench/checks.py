"""Output checks for single ops, independent of qlslab's own code paths.

Noiseless exact-readout ops are recomputed in closed form in A's eigenbasis.
Without noise the solver circuit is block-diagonal there: for an eigenpair
(lam, u) with projection beta, the clock register evolves under the
phase-estimation unitary V = F^dagger D H (H the Hadamard layer, D the
controlled-power phases exp(2 pi i phi x) with phi = lam t0 / (2 pi T), F
the Fourier transform), each clock pattern m rotates the ancilla by the
plan's angle theta_m, and V^dagger uncomputes. The ancilla-1 branch of
eigenpair j is therefore beta_j u_j (x) V^dagger (V e_0 * sin(theta / 2)).
"""
from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-9
MEAN_TOLERANCE = 5e-4


def _clock_matrices(k: int) -> tuple[np.ndarray, np.ndarray]:
    size = 2**k
    x = np.arange(size)
    parity = np.array([[bin(a & b).count("1") & 1 for b in x] for a in x])
    hadamard = (1.0 - 2.0 * parity) / math.sqrt(size)
    fourier = np.exp(2j * np.pi * np.outer(x, x) / size) / math.sqrt(size)
    return hadamard, fourier


def closed_form(matrix_a, vector_b, k: int, t0: float, rotations) -> tuple[float, float]:
    """(fidelity, success probability) of a noiseless exact-readout run."""
    hadamard, fourier = _clock_matrices(k)
    size = 2**k
    sines = np.zeros(size)
    for pattern, theta in rotations:
        sines[pattern] = math.sin(0.5 * theta)
    a = np.asarray(matrix_a, dtype=complex)
    b = np.asarray(vector_b, dtype=complex)
    solution = np.linalg.solve(a, b)
    solution /= np.linalg.norm(solution)
    eigenvalues, vectors = np.linalg.eigh(a)
    phases = np.exp(1j * np.outer(eigenvalues * t0 / size, np.arange(size)))
    branch = np.zeros(size, dtype=complex)  # <x| of the solution register, per clock value
    success = 0.0
    for j in range(len(eigenvalues)):
        beta = np.vdot(vectors[:, j], b)
        qpe = fourier.conj().T @ (phases[j][:, None] * hadamard)
        rotated = qpe[:, 0] * sines
        success += abs(beta) ** 2 * float(np.vdot(rotated, rotated).real)
        branch += beta * np.vdot(solution, vectors[:, j]) * (qpe.conj().T @ rotated)
    return float(np.vdot(branch, branch).real / success), float(success)


def check_noiseless(qlsp, result) -> str | None:
    """None when the op's result matches the closed form, else a reason."""
    fidelity, success = closed_form(
        qlsp.matrix_a, qlsp.vector_b, result.clock_bits, result.t0, result.plan.rotations
    )
    if abs(result.fidelity - fidelity) > TOLERANCE:
        return f"fidelity {result.fidelity!r} != closed form {fidelity!r}"
    if abs(result.success_probability - success) > TOLERANCE:
        return f"success {result.success_probability!r} != closed form {success!r}"
    return _check_error(result)


def check_noisy(result) -> str | None:
    """Invariants that hold for any single noisy trajectory."""
    if not 0.0 <= result.fidelity <= 1.0:
        return f"fidelity {result.fidelity!r} outside [0, 1]"
    if not 0.0 < result.success_probability <= 1.0 + TOLERANCE:
        return f"success probability {result.success_probability!r} outside (0, 1]"
    return _check_error(result)


def _check_error(result) -> str | None:
    expected = math.sqrt(max(0.0, 2.0 * (1.0 - result.fidelity)))
    if abs(result.error - expected) > TOLERANCE:
        return f"error {result.error!r} != sqrt(2 (1 - f)) = {expected!r}"
    return None


def fingerprint(outcome) -> tuple:
    """What must repeat exactly when the same op runs again."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return (
        outcome.fidelity,
        outcome.error,
        outcome.success_probability,
        outcome.t0,
        outcome.plan.rotations,
        outcome.gate_count,
        outcome.depth,
    )


def mean_errors(workload, outcomes) -> dict:
    """Mean error per variant over the ops that completed."""
    errors: dict[str, list[float]] = {}
    for (_, config), outcome in zip(workload.ops, outcomes):
        if not isinstance(outcome, Exception):
            errors.setdefault(config.variant, []).append(outcome.error)
    return {variant: sum(v) / len(v) for variant, v in errors.items()}


def check_batch(workload, problems, outcomes) -> tuple[list, list[str]]:
    """Per-op check reasons (None when fine) and batch-level problems."""
    reasons = []
    for (p, _), outcome in zip(workload.ops, outcomes):
        if isinstance(outcome, Exception):
            reasons.append(None)  # counted as a failure, not as a wrong answer
        elif workload.noiseless:
            reasons.append(check_noiseless(problems[p], outcome))
        else:
            reasons.append(check_noisy(outcome))
    faults = []
    means = mean_errors(workload, outcomes)
    for variant, documented in workload.documented_means.items():
        got = means.get(variant)
        if got is None or abs(got - documented) > MEAN_TOLERANCE:
            faults.append(f"{variant} mean error {got!r} != documented {documented}")
    return reasons, faults
