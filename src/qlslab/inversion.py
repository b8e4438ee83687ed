"""Eigenvalue-inversion plans for the three solver variants.

A plan is a list of ``(clock pattern, rotation angle)`` pairs. The variants
differ only in the inverse-eigenvalue estimate x each pattern gets, and one
rule turns those estimates into angles: theta = 2 arcsin(x / max|x|), with
the constant C = 1 / max|x| that sends the largest |x| to a half turn. The
canonical plan gives every nonzero pattern its grid value's inverse, the
hybrid plan only the patterns that preprocessing found relevant, and the
enhanced plan a weighted mean of the finer estimates that spread onto each
coarse pattern.

Angle policies for the enhanced plan:

* ``least-squares`` (default): for each touched pattern, x is the weighted
  average of the inverse estimates with the squared overlap-amplitude
  weights ``(alpha * beta)**2``, and the shared rule sets the angle. This is
  the minimizer of the per-pattern residual and degenerates exactly to the
  hybrid plan when every estimate sits on the coarse grid.
* ``paper``: theta = arcsin((2 / r) * sum(alpha * beta / lambda)) with ``r``
  the number of contributing estimates, argument clamped to [-1, 1]. Clamping
  events are counted on the returned plan; this policy does not reproduce the
  hybrid plan in the degenerate case and is kept for comparison only.

``InversionPlan`` is the one checker of a plan's rotations: every pattern
fits the clock register and appears once, and every angle is a real number
with |theta| <= pi. ``build_inversion_circuit`` checks only the layout,
once, on one gate that every rotation copies.

A plan is immutable, so what is derived from it is derived on first use
and kept on it: read-only arrays of its patterns and half-angle cosines and
sines, which ``rotate_branches`` and the solver's tail read, and its gates
per (clock, ancilla) layout, which ``build_inversion_circuit`` hands out as
a new list each call. The block acts on the ancilla and the clock alone, so
its closed form is the same in any basis of the b register; the solver
applies it in A's eigenbasis. The canonical plan depends only on (k, t0,
signed mode), so ``plan_canonical`` returns one shared plan per argument
set and every canonical row of a recipe at one t0 reuses its arrays and
gates.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPlanError
from .preprocess import EigenEstimateSet, decode_grid_int, grid_range
from .sim import Circuit, Gate, GateKind, check_count, check_positive, check_real

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
        check_count("bit_width", self.bit_width, 1)
        size = 2**self.bit_width
        for pattern, angle in self.rotations:
            check_count("rotation pattern", pattern, 0)
            if pattern >= size:
                raise ValueError("control pattern does not fit the clock register")
            check_real("rotation angle", angle)
        if len({p for p, _ in self.rotations}) != len(self.rotations):
            raise ValueError("control patterns must be unique")
        # written so that NaN fails: every comparison with NaN is false
        if not all(abs(angle) <= math.pi + 1e-12 for _, angle in self.rotations):
            raise ValueError("rotation angles must be finite with |theta| <= pi")
        check_positive("constant_c", self.constant_c)
        check_count("clamp_events", self.clamp_events, 0)

    @functools.cached_property
    def patterns(self) -> np.ndarray:
        """The rotations' clock patterns, in plan order."""
        return _read_only(np.array([m for m, _ in self.rotations], dtype=np.intp))

    @functools.cached_property
    def cosines(self) -> np.ndarray:
        """cos(theta / 2) of each rotation, by ``np.cos``."""
        return _read_only(np.cos(self._halves))

    @functools.cached_property
    def sines(self) -> np.ndarray:
        """sin(theta / 2) of each rotation, by ``np.sin``."""
        return _read_only(np.sin(self._halves))

    @functools.cached_property
    def _halves(self) -> np.ndarray:
        return 0.5 * np.array([theta for _, theta in self.rotations])

    @functools.cached_property
    def _layouts(self) -> dict[tuple[tuple[int, ...], int], tuple[Gate, ...]]:
        """(clock, ancilla) -> the plan's gates on that layout (``build_inversion_circuit``)."""
        return {}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _plan(bit_width: int, inverses: dict[int, float]) -> InversionPlan:
    """Rotate each pattern by 2 arcsin(x / max|x|) for its inverse estimate x.

    The constant is C = 1 / max|x|; every ratio lies in [-1, 1] after
    rounding, so no angle needs a clamp.
    """
    largest = max(abs(x) for x in inverses.values())
    rotations = sorted((p, 2.0 * math.asin(x / largest)) for p, x in inverses.items())
    return InversionPlan(bit_width, tuple(rotations), 1.0 / largest)


def alpha_overlap(delta: float, model: str = "linear", big_t: int | None = None) -> float:
    """Overlap amplitude between a true phase and a grid point ``delta`` away.

    ``delta`` is the phase distance in radians; adjacent grid points are
    2 pi apart. The linear model is 1 - delta / 2 pi, floored at zero. The
    exact model follows the closed-form kernel for a register of ``big_t``
    states, normalized so that alpha(0) = 1; its removable singularity at
    delta = pi is evaluated by the analytic limit.
    """
    check_real("delta", delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, not {delta}")
    if model == "linear":
        return max(0.0, 1.0 - delta / TWO_PI)
    if model != "exact":
        raise ValueError(f"unknown alpha model {model!r}")
    if big_t is None:
        raise ValueError("exact mode needs the register size big_t")
    check_count("big_t", big_t, 2)
    t = float(big_t)
    half = math.sin(math.pi / (2.0 * t))
    # Printed kernel with arguments read as x / (2T); scaled by its delta=0
    # value so the on-grid overlap is exactly 1.
    if abs(delta - math.pi) < 1e-9:
        return 0.5 * t * half
    num = abs(math.cos(delta / (2.0 * t)) * math.cos(delta / 2.0))
    den = abs(math.sin((delta + math.pi) / (2.0 * t)) * math.sin((delta - math.pi) / (2.0 * t)))
    return half * half * num / den


def plan_canonical(bit_width: int, t0: float, signed_mode: bool = False) -> InversionPlan:
    """Uniformly controlled rotation over all 2**k - 1 nonzero patterns.

    Each pattern's x is the inverse of its grid value 2 pi g / t0, so the
    constant is the smallest nonzero grid value 2 pi / t0 and the smallest
    positive pattern rotates by a full half turn. The plan depends on
    (k, t0, signed mode) alone, so equal arguments return one shared plan,
    and with it the arrays and gates derived on it.
    """
    grid_range(bit_width, signed_mode)  # checks bit_width
    check_positive("t0", t0)
    return _canonical_plan(int(bit_width), float(t0), bool(signed_mode))


@functools.lru_cache(maxsize=16)
def _canonical_plan(bit_width: int, t0: float, signed_mode: bool) -> InversionPlan:
    lowest, highest = grid_range(bit_width, signed_mode)
    # patterns 1 .. 2**k - 1 decode to 1 .. highest, then wrap to lowest .. -1
    decoded = [*range(1, highest + 1), *range(lowest, 0)]
    inverses = {pattern: 1.0 / (TWO_PI * g / t0) for pattern, g in enumerate(decoded, 1)}
    return _plan(bit_width, inverses)


def plan_hybrid(estimates: EigenEstimateSet, max_rotations: int | None = None) -> InversionPlan:
    """Rotations only at the grid patterns preprocessing found relevant.

    Each kept pattern's x is the inverse of its estimate, so the constant is
    the smallest kept estimate magnitude and that estimate rotates by a full
    half turn. ``max_rotations``, an integer of at least 1, caps the plan at
    the most relevant estimates; the solver passes the problem dimension
    here, since at most that many eigenvalues carry solution weight.
    """
    entries = [e for e in estimates.entries if e.grid_int != 0]
    if max_rotations is not None:
        check_count("max_rotations", max_rotations, 1)
        entries = entries[:max_rotations]
    if not entries:
        raise EmptyPlanError("no relevant nonzero estimate to invert")
    return _plan(estimates.bit_width, {e.grid_int: 1.0 / e.lambda_tilde for e in entries})


def plan_enhanced(
    estimates: EigenEstimateSet,
    bit_width: int,
    angle_policy: str = "least-squares",
    alpha_model: str = "linear",
) -> InversionPlan:
    """Project fine-grid estimates onto the coarse clock grid and pick angles.

    Each relevant estimate spreads over its two adjacent coarse grid values
    with overlap amplitudes from ``alpha_model``. A touched pattern is kept
    when its relevance |sum alpha beta / lambda| reaches the fixed filter
    threshold 2**-k, and then receives one rotation under ``angle_policy``:
    the least-squares x is the mean of the contributions' inverse estimates
    weighted by (alpha beta)**2, turned into an angle by the shared rule.
    """
    if angle_policy not in ANGLE_POLICIES:
        raise ValueError(f"unknown angle policy {angle_policy!r}")
    if alpha_model not in ALPHA_MODELS:
        raise ValueError(f"unknown alpha model {alpha_model!r}")
    signed = estimates.signed_mode
    lo_bound, hi_bound = grid_range(bit_width, signed)  # checks bit_width
    k, l = int(bit_width), estimates.bit_width
    if l < k:
        raise ValueError("estimates must carry at least as many bits as the plan")
    stride = 2 ** (l - k)
    big_t = 2**k

    entries = [e for e in estimates.entries if e.grid_int != 0]
    if not entries:
        raise EmptyPlanError("no relevant nonzero estimate to enhance")

    # terms[pattern] collects (alpha * beta, lambda) contributions
    terms: dict[int, list[tuple[float, float]]] = {}
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
            terms.setdefault(g, []).append((alpha * e.weight, e.lambda_tilde))

    if not terms:
        raise EmptyPlanError("every candidate rotation fell outside the clock grid")

    sums = {g: sum(ab / lam for ab, lam in contribs) for g, contribs in terms.items()}
    kept = [g for g in terms if abs(sums[g]) >= 2.0**-k]
    if not kept:
        raise EmptyPlanError("every rotation fell below the relevance filter")

    if angle_policy == "least-squares":
        xbar = {
            g % 2**k: sum(ab**2 / lam for ab, lam in terms[g]) / sum(ab**2 for ab, _ in terms[g])
            for g in kept
        }
        return _plan(k, xbar)

    arguments = {g % 2**k: 2.0 * sums[g] / len(terms[g]) for g in kept}
    # each argument clamped to [-1, 1], and each clamp counted
    rotations = sorted(
        (m, math.asin(math.copysign(min(abs(z), 1.0), z))) for m, z in arguments.items()
    )
    clamp_events = sum(abs(z) > 1.0 for z in arguments.values())
    constant = min(abs(e.lambda_tilde) for e in entries)
    return InversionPlan(k, tuple(rotations), float(constant), clamp_events)


def build_inversion_circuit(plan: InversionPlan, clock, ancilla: int) -> Circuit:
    """The plan as one uniformly controlled RY on the ancilla.

    One multi-controlled RY per rotation; bit r of a pattern is the polarity
    of ``clock[r]``. The plan is the one checker of its patterns and angles,
    so one checked ``Gate`` checks the layout's qubits, even for a plan with
    no rotations, and every rotation is a copy of it over the same qubits.
    The gates are built once per plan and layout; each call returns a new
    circuit whose gate list is its own.
    """
    clock, ancilla = tuple(int(q) for q in clock), int(ancilla)
    if len(clock) != plan.bit_width:
        raise ValueError("clock register size does not match the plan")
    circuit = Circuit(max(clock + (ancilla,)) + 1)
    gates = plan._layouts.get((clock, ancilla))
    if gates is None:
        choices = [((q, 0), (q, 1)) for q in clock]  # clock[r]'s pair for bit r
        # the one check of the layout, with or without rotations: valid qubits that fit
        layout = Gate(GateKind.RY, (ancilla,), tuple(c for c, _ in choices), angle=0.0)
        circuit.add(layout)
        gates = plan._layouts[clock, ancilla] = tuple(
            layout._like(
                controls=tuple([pair[(pattern >> r) & 1] for r, pair in enumerate(choices)]),
                angle=float(angle),
            )
            for pattern, angle in plan.rotations
        )
    circuit.gates = list(gates)
    return circuit


def rotate_branches(plan: InversionPlan, blocks: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Gates ``start`` to ``stop - 1`` of ``build_inversion_circuit``
    in closed form on ``blocks``, laid out [..., ancilla, clock, b] with
    ``clock[r]`` as bit r of the clock axis, in any basis of the b axis.
    Rotation (m, theta) is an RY(theta) on the ancilla that fires on clock
    value m, so it rotates the pair (blocks[..., 0, m, :], blocks[..., 1, m, :])
    by cos(theta / 2) and sin(theta / 2) and nothing else; the gates act on
    disjoint patterns, so a run of them is its own rotations, applied to
    both ancilla branches elementwise (``plan.cosines``, ``plan.sines``)."""
    patterns = plan.patterns[start:stop]
    cos, sin = plan.cosines[start:stop, None], plan.sines[start:stop, None]
    rotated = np.array(blocks, dtype=complex)
    zero, one = rotated[..., 0, patterns, :], rotated[..., 1, patterns, :]
    rotated[..., 0, patterns, :] = cos * zero - sin * one
    rotated[..., 1, patterns, :] = sin * zero + cos * one
    return rotated
