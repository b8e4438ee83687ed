"""Eigenvalue-inversion plans for the three solver variants.

A plan is a list of ``(clock pattern, rotation angle)`` pairs. The canonical
plan rotates every nonzero pattern, the hybrid plan only the patterns that
preprocessing found relevant, and the enhanced plan redistributes
higher-precision estimates onto the coarse grid before choosing angles.

Angle policies for the enhanced plan:

* ``least-squares`` (default): for each touched pattern, take the weighted
  average of the inverse estimates with the squared overlap-amplitude weights
  ``(alpha * beta)**2``, scale by a constant that pins the largest rotation
  to a half turn, and set theta = 2 arcsin(C * xbar). This is the minimizer
  of the per-pattern residual and degenerates exactly to the hybrid plan
  when every estimate sits on the coarse grid.
* ``paper``: theta = arcsin((2 / r) * sum(alpha * beta / lambda)) with ``r``
  the number of contributing estimates, argument clamped to [-1, 1]. Clamping
  events are counted on the returned plan; this policy does not reproduce the
  hybrid plan in the degenerate case and is kept for comparison only.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import EmptyPlanError
from .preprocess import EigenEstimateSet, decode_grid_int
from .sim import Circuit

TWO_PI = 2.0 * math.pi

ANGLE_POLICIES = ("least-squares", "paper")
ALPHA_MODELS = ("linear", "exact")


@dataclass(frozen=True)
class InversionPlan:
    bit_width: int
    rotations: tuple[tuple[int, float], ...]  # (pattern, angle) sorted by pattern
    constant_c: float
    clamp_events: int = 0

    def __post_init__(self) -> None:
        patterns = [p for p, _ in self.rotations]
        if len(set(patterns)) != len(patterns):
            raise ValueError("control patterns must be unique")
        if any(not 0 <= p < 2**self.bit_width for p in patterns):
            raise ValueError("control pattern does not fit the clock register")
        if any(abs(angle) > math.pi + 1e-12 for _, angle in self.rotations):
            raise ValueError("rotation angles must satisfy |theta| <= pi")

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.bit_width,
                "C": self.constant_c,
                "rotations": [[p, theta] for p, theta in self.rotations],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "InversionPlan":
        doc = json.loads(text)
        rotations = tuple((int(p), float(t)) for p, t in doc["rotations"])
        return cls(int(doc["k"]), rotations, float(doc["C"]))


def inversion_amplitude(lambda_tilde: float, c: float) -> float:
    """Target |1>-amplitude c / lambda, zero strictly below the cutoff."""
    if c <= 0:
        raise ValueError("the rotation constant must be positive")
    if abs(lambda_tilde) < c:
        return 0.0
    return c / lambda_tilde


def alpha_overlap(delta: float, model: str = "linear", big_t: int | None = None) -> float:
    """Overlap amplitude between a true phase and a grid point ``delta`` away.

    ``delta`` is the phase distance in radians; adjacent grid points are
    2 pi apart. The linear model is 1 - delta / 2 pi, floored at zero. The
    exact model follows the closed-form kernel for a register of ``big_t``
    states, normalized so that alpha(0) = 1; its removable singularity at
    delta = pi is evaluated by the analytic limit.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if model == "linear":
        return max(0.0, 1.0 - delta / TWO_PI)
    if model != "exact":
        raise ValueError(f"unknown alpha model {model!r}")
    if big_t is None or big_t < 2:
        raise ValueError("exact mode needs the register size big_t")
    t = float(big_t)
    half = math.sin(math.pi / (2.0 * t))
    # Printed kernel with arguments read as x / (2T); scaled by its delta=0
    # value so the on-grid overlap is exactly 1.
    if abs(delta - math.pi) < 1e-9:
        return 0.5 * t * half
    num = abs(math.cos(delta / (2.0 * t)) * math.cos(delta / 2.0))
    den = abs(math.sin((delta + math.pi) / (2.0 * t)) * math.sin((delta - math.pi) / (2.0 * t)))
    return half * half * num / den


def _clamp(value: float) -> tuple[float, bool]:
    if value > 1.0:
        return 1.0, True
    if value < -1.0:
        return -1.0, True
    return value, False


def plan_canonical(bit_width: int, t0: float, signed_mode: bool = False) -> InversionPlan:
    """Uniformly controlled rotation over all 2**k - 1 nonzero patterns.

    The constant is the smallest nonzero grid value 2 pi / t0, so the
    smallest positive pattern rotates by a full half turn.
    """
    if bit_width < 1:
        raise ValueError("bit_width must be at least 1")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    c = TWO_PI / t0
    rotations = []
    for pattern in range(1, 2**bit_width):
        decoded = decode_grid_int(pattern, bit_width, signed_mode)
        lam = TWO_PI * decoded / t0
        theta = 2.0 * math.asin(inversion_amplitude(lam, c))
        rotations.append((pattern, theta))
    return InversionPlan(bit_width, tuple(rotations), float(c))


def plan_hybrid(estimates: EigenEstimateSet, max_rotations: int | None = None) -> InversionPlan:
    """Rotations only at the grid patterns preprocessing found relevant.

    The constant is the smallest kept estimate magnitude, so that estimate
    rotates by a full half turn. ``max_rotations`` caps the plan at the most
    relevant estimates; the solver passes the problem dimension here, since
    at most that many eigenvalues carry solution weight.
    """
    entries = [e for e in estimates.entries if e.grid_int != 0]
    if max_rotations is not None:
        entries = entries[: max(1, int(max_rotations))]
    if not entries:
        raise EmptyPlanError("no relevant nonzero estimate to invert")
    c = min(abs(e.lambda_tilde) for e in entries)
    rotations = []
    for e in entries:
        theta = 2.0 * math.asin(inversion_amplitude(e.lambda_tilde, c))
        rotations.append((e.grid_int, theta))
    rotations.sort()
    return InversionPlan(estimates.bit_width, tuple(rotations), float(c))


def plan_enhanced(
    estimates: EigenEstimateSet,
    bit_width: int,
    filter_threshold: float | None = None,
    angle_policy: str = "least-squares",
    alpha_model: str = "linear",
) -> InversionPlan:
    """Project fine-grid estimates onto the coarse clock grid and pick angles.

    Each relevant estimate spreads over its two adjacent coarse grid values
    with overlap amplitudes from ``alpha_model``; each touched pattern then
    receives one rotation under ``angle_policy``. Patterns whose accumulated
    relevance falls below ``filter_threshold`` (default 2**-k) are dropped.
    """
    if angle_policy not in ANGLE_POLICIES:
        raise ValueError(f"unknown angle policy {angle_policy!r}")
    if alpha_model not in ALPHA_MODELS:
        raise ValueError(f"unknown alpha model {alpha_model!r}")
    k = int(bit_width)
    l = estimates.bit_width
    if l < k:
        raise ValueError("estimates must carry at least as many bits as the plan")
    if filter_threshold is None:
        filter_threshold = 2.0**-k
    signed = estimates.signed_mode
    stride = 2 ** (l - k)
    big_t = 2**k
    lo_bound = -(2 ** (k - 1)) if signed else 0
    hi_bound = 2 ** (k - 1) - 1 if signed else 2**k - 1

    entries = [e for e in estimates.entries if e.grid_int != 0]
    if not entries:
        raise EmptyPlanError("no relevant nonzero estimate to enhance")

    # terms[pattern] collects (alpha, weight, lambda) contributions
    terms: dict[int, list[tuple[float, float, float]]] = {}
    for e in entries:
        coord = decode_grid_int(e.grid_int, l, signed) / stride
        k_lo = math.floor(coord)
        for g in (k_lo, k_lo + 1):
            if g == 0 or g < lo_bound or g > hi_bound:
                continue
            delta = TWO_PI * abs(coord - g)
            alpha = alpha_overlap(delta, alpha_model, big_t)
            if alpha <= 0.0:
                continue
            terms.setdefault(g, []).append((alpha, e.weight, e.lambda_tilde))

    if not terms:
        raise EmptyPlanError("every candidate rotation fell outside the clock grid")

    lambda_ref = min(abs(e.lambda_tilde) for e in entries)
    xbar: dict[int, float] = {}
    relevance: dict[int, float] = {}
    paper_arg: dict[int, float] = {}
    for g, contribs in terms.items():
        weight_sq = sum((a * w) ** 2 for a, w, _ in contribs)
        xbar[g] = sum((a * w) ** 2 / lam for a, w, lam in contribs) / weight_sq
        r_theta = sum(w * a / lam for a, w, lam in contribs)
        relevance[g] = abs(r_theta)
        paper_arg[g] = 2.0 * r_theta / len(contribs)

    kept = [g for g in terms if relevance[g] >= filter_threshold]
    if not kept:
        raise EmptyPlanError("every rotation fell below the relevance filter")

    clamp_events = 0
    rotations = []
    if angle_policy == "least-squares":
        largest = max(abs(xbar[g]) for g in kept)
        constant = 1.0 / largest
        for g in sorted(kept):
            h, clamped = _clamp(xbar[g] / largest)
            clamp_events += clamped
            rotations.append((g % 2**k, 2.0 * math.asin(h)))
    else:
        constant = lambda_ref
        for g in sorted(kept):
            z, clamped = _clamp(paper_arg[g])
            clamp_events += clamped
            rotations.append((g % 2**k, math.asin(z)))

    rotations.sort()
    return InversionPlan(k, tuple(rotations), float(constant), clamp_events)


def build_inversion_circuit(plan: InversionPlan, clock, ancilla: int) -> Circuit:
    """One multi-controlled RY per rotation; polarities follow pattern bits."""
    clock = tuple(int(q) for q in clock)
    if len(clock) != plan.bit_width:
        raise ValueError("clock register size does not match the plan")
    num_qubits = max(clock + (int(ancilla),)) + 1
    circuit = Circuit(num_qubits)
    for pattern, theta in plan.rotations:
        controls = tuple((clock[r], (pattern >> r) & 1) for r in range(plan.bit_width))
        circuit.ry(int(ancilla), theta, controls)
    return circuit
