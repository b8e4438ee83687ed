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
with |theta| <= pi. The planners check the estimates they read once per
set: every lambda must be finite and nonzero, every weight finite and
non-negative. ``build_inversion_circuit`` checks only the layout: each
(clock, ancilla) layout is checked once, on one gate that every rotation
copies, and kept with the controls of each clock pattern in a small cache
(``_layout``) that every plan on that layout reads.

A plan is immutable, so what is derived from it is derived once: read-only
arrays of its patterns and half-angle cosines and sines, in one pass at
construction, which ``rotate_branches`` and the solver's tail read, and its
gates per layout, on the first build there, which ``build_inversion_circuit``
hands out as a new list each call. The block acts on the ancilla and the
clock alone, so its closed form is the same in any basis of the b register;
the solver applies it in A's eigenbasis. The canonical plan depends only on
(k, t0, signed mode), so ``plan_canonical`` returns one shared plan per
argument set and every canonical row of a recipe at one t0 reuses its arrays
and gates.

The enhanced planner works on arrays. How a raw fine-grid value spreads onto
its two coarse neighbours (their patterns and overlaps) depends on the grids
and the alpha model alone, so it is one cached table per (k, l, signed mode,
alpha model) (``_spread``); a plan reads the rows of its estimates and sums
each pattern's contributions with ``np.bincount``, one after another in
estimate order, as CPython 3.10 and 3.11's ``sum`` added the per-entry
loop's lists, so the plans are that loop's bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPlanError
from .preprocess import EigenEstimateSet, _decoded, grid_range
from .sim import Circuit, Gate, GateKind, check_count, check_positive, check_real

TWO_PI = 2.0 * math.pi

ANGLE_POLICIES = ("least-squares", "paper")
ALPHA_MODELS = ("linear", "exact")


@dataclass(frozen=True)
class InversionPlan:
    """Checked rotations of the inversion block, and what is derived from them
    once, at construction: the read-only arrays ``patterns`` (the clock
    patterns in plan order), ``cosines`` and ``sines`` (cos(theta / 2) and
    sin(theta / 2) of each rotation, by ``np.cos`` and ``np.sin``)."""

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
        patterns, angles = zip(*self.rotations) if self.rotations else ((), ())
        if len(set(patterns)) != len(patterns):
            raise ValueError("control patterns must be unique")
        # written so that NaN fails: every comparison with NaN is false
        if not all(abs(angle) <= math.pi + 1e-12 for angle in angles):
            raise ValueError("rotation angles must be finite with |theta| <= pi")
        check_positive("constant_c", self.constant_c)
        check_count("clamp_events", self.clamp_events, 0)
        halves = 0.5 * np.array(angles)
        self.__dict__.update(  # past the frozen __setattr__; none of these is a field
            patterns=_read_only(np.array(patterns, dtype=np.intp)),
            cosines=_read_only(np.cos(halves)),
            sines=_read_only(np.sin(halves)),
            _layouts={},  # (clock, ancilla) -> the plan's gates there (build_inversion_circuit)
        )


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


def alpha_overlap(delta, model: str = "linear", big_t: int | None = None):
    """Overlap amplitude between a true phase and a grid point ``delta`` away,
    elementwise over an array of distances.

    ``delta`` is the phase distance in radians; adjacent grid points are
    2 pi apart. The linear model is 1 - delta / 2 pi, floored at zero. The
    exact model follows the closed-form kernel for a register of ``big_t``
    states, normalized so that alpha(0) = 1; its removable singularity at
    delta = pi is evaluated by the analytic limit.
    """
    if np.ndim(delta) == 0:
        check_real("delta", delta)
    deltas = np.asarray(delta, dtype=float)
    # written so that NaN fails: every comparison with NaN is false
    if deltas.size and not (deltas.min() >= 0.0 and deltas.max() < math.inf):
        raise ValueError(f"delta must be finite and non-negative, not {delta}")
    if model == "linear":
        return np.maximum(0.0, 1.0 - deltas / TWO_PI)
    if model != "exact":
        raise ValueError(f"unknown alpha model {model!r}")
    if big_t is None:
        raise ValueError("exact mode needs the register size big_t")
    check_count("big_t", big_t, 2)
    t = float(big_t)
    half = math.sin(math.pi / (2.0 * t))
    # Printed kernel with arguments read as x / (2T); scaled by its delta=0
    # value so the on-grid overlap is exactly 1.
    num = np.abs(np.cos(deltas / (2.0 * t)) * np.cos(deltas / 2.0))
    den = np.abs(np.sin((deltas + math.pi) / (2.0 * t)) * np.sin((deltas - math.pi) / (2.0 * t)))
    with np.errstate(divide="ignore", invalid="ignore"):  # den is 0 at delta = pi
        values = half * half * num / den
    return np.where(np.abs(deltas - math.pi) < 1e-9, 0.5 * t * half, values)[()]


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


def _relevant(estimates: EigenEstimateSet) -> tuple[list, list, list]:
    """The grid values, ``lambda_tilde`` and weights of the estimates off grid
    value 0, in their order, checked once for the set: a zero or non-finite
    ``lambda_tilde``, or a negative or non-finite weight, raises
    ``ValueError``."""
    entries = [e for e in estimates.entries if e.grid_int != 0]
    lambdas = [e.lambda_tilde for e in entries]
    weights = [e.weight for e in entries]
    if not all(map(math.isfinite, lambdas)) or 0.0 in lambdas:
        raise ValueError("every estimate's lambda_tilde must be finite and nonzero")
    if not all(map(math.isfinite, weights)) or (weights and min(weights) < 0.0):
        raise ValueError("every estimate's weight must be finite and non-negative")
    return [e.grid_int for e in entries], lambdas, weights


def plan_hybrid(estimates: EigenEstimateSet, max_rotations: int | None = None) -> InversionPlan:
    """Rotations only at the grid patterns preprocessing found relevant.

    Each kept pattern's x is the inverse of its estimate, so the constant is
    the smallest kept estimate magnitude and that estimate rotates by a full
    half turn. ``max_rotations``, an integer of at least 1, caps the plan at
    the most relevant estimates; the solver passes the problem dimension
    here, since at most that many eigenvalues carry solution weight.
    """
    if max_rotations is not None:
        check_count("max_rotations", max_rotations, 1)
    grid, lambdas, _ = _relevant(estimates)
    if not grid:
        raise EmptyPlanError("no relevant nonzero estimate to invert")
    inverses = zip(grid[:max_rotations], lambdas[:max_rotations])
    return _plan(estimates.bit_width, {g: 1.0 / lam for g, lam in inverses})


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

    The contributions are arrays in estimate order, each estimate's lower
    neighbour first, read off ``_spread``, and each pattern's sums are
    ``np.bincount`` over them, which adds them one after another in that
    order.
    """
    if angle_policy not in ANGLE_POLICIES:
        raise ValueError(f"unknown angle policy {angle_policy!r}")
    if alpha_model not in ALPHA_MODELS:
        raise ValueError(f"unknown alpha model {alpha_model!r}")
    signed = estimates.signed_mode
    grid_range(bit_width, signed)  # checks bit_width
    k, l = int(bit_width), estimates.bit_width
    if l < k:
        raise ValueError("estimates must carry at least as many bits as the plan")

    grid, lambdas, weights = _relevant(estimates)
    if not grid:
        raise EmptyPlanError("no relevant nonzero estimate to enhance")
    for g in grid:
        check_count("grid_int", g, 0)
    if max(grid) >= 2**l:
        raise ValueError(f"every grid_int must fit in {l} bit(s)")

    raw = np.array(grid)
    patterns, alpha = (table[raw] for table in _spread(k, l, signed, alpha_model))
    if not alpha.any():
        raise EmptyPlanError("every candidate rotation fell outside the clock grid")
    # each pattern's sums add its contributions estimate by estimate, the
    # lower neighbour first; a zeroed one adds +-0, which moves no sum but 0
    patterns = patterns.ravel()
    ab, lam = alpha * np.array(weights)[:, None], np.array(lambdas)[:, None]
    sums = np.bincount(patterns, (ab / lam).ravel())
    kept = (np.abs(sums) >= 2.0**-k).nonzero()[0]  # an untouched pattern sums to 0
    if not kept.size:
        raise EmptyPlanError("every rotation fell below the relevance filter")

    if angle_policy == "least-squares":
        # the C library's pow, which Python's float ** calls: numpy's ab**2 is
        # ab * ab, which rounds about 1 square in 1000 apart from it
        squares = np.float_power(ab.ravel(), 2.0)
        numerators = np.bincount(patterns, squares / lam.repeat(2))
        xbar = numerators[kept] / np.bincount(patterns, squares)[kept]
        return _plan(k, dict(zip(kept.tolist(), xbar.tolist())))

    counts = np.bincount(patterns, (alpha > 0.0).ravel())[kept]
    arguments = dict(zip(kept.tolist(), (2.0 * sums[kept] / counts).tolist()))
    # each argument clamped to [-1, 1], and each clamp counted
    rotations = sorted(
        (m, math.asin(math.copysign(min(abs(z), 1.0), z))) for m, z in arguments.items()
    )
    clamp_events = sum(abs(z) > 1.0 for z in arguments.values())
    constant = min(map(abs, lambdas))
    return InversionPlan(k, tuple(rotations), float(constant), clamp_events)


@functools.lru_cache(maxsize=4)
def _spread(k: int, l: int, signed: bool, alpha_model: str) -> tuple[np.ndarray, np.ndarray]:
    """How each raw value of an ``l``-bit grid spreads onto its two adjacent
    values of the ``k``-bit grid, as read-only arrays indexed [raw value,
    lower/upper neighbour]: the neighbour's clock pattern and its overlap
    amplitude, which is 0 where the neighbour is grid value 0 or off the grid.

    A raw value's coordinate on the coarse grid is its decoded value over
    2^(l - k); each neighbour is a phase distance of 2 pi times the
    coordinate's distance from it away. Both depend on the raw value alone,
    so one table serves every enhanced plan of a recipe; it holds 2^(l + 1)
    entries of each kind.
    """
    lo_bound, hi_bound = grid_range(k, signed)
    coords = _decoded(np.arange(2**l), *grid_range(l, signed)) / 2 ** (l - k)
    neighbours = np.floor(coords)[:, None] + [0.0, 1.0]  # integral floats
    alpha = alpha_overlap(TWO_PI * np.abs(coords[:, None] - neighbours), alpha_model, 2**k)
    alpha *= (neighbours != 0) & (neighbours >= lo_bound) & (neighbours <= hi_bound)
    return _read_only((neighbours % 2**k).astype(np.intp)), _read_only(alpha)


def build_inversion_circuit(plan: InversionPlan, clock, ancilla: int) -> Circuit:
    """The plan as one uniformly controlled RY on the ancilla.

    One multi-controlled RY per rotation; bit r of a pattern is the polarity
    of ``clock[r]``. The plan is the one checker of its patterns and angles,
    and ``_layout`` of the layout's qubits, even for a plan with no
    rotations: every rotation is a copy of its checked gate over the same
    qubits. The gates are built once per plan and layout; each call returns
    a new circuit whose gate list is its own.
    """
    clock, ancilla = tuple(int(q) for q in clock), int(ancilla)
    if len(clock) != plan.bit_width:
        raise ValueError("clock register size does not match the plan")
    circuit = Circuit(max(clock + (ancilla,)) + 1)
    gates = plan._layouts.get((clock, ancilla))
    if gates is None:
        layout, low, high = _layout(clock, ancilla)
        gates = plan._layouts[clock, ancilla] = tuple(
            layout._like(controls=low[m % len(low)] + high[m // len(low)], angle=float(angle))
            for m, angle in plan.rotations
        )
    circuit.gates = list(gates)
    return circuit


# keyed on the qubit tuples: a recipe runs on one layout per clock width
@functools.lru_cache(maxsize=16)
def _layout(clock: tuple[int, ...], ancilla: int) -> tuple[Gate, tuple, tuple]:
    """The inversion block's layout on ``clock`` and ``ancilla``, checked once:
    one ``Gate`` (an RY on the ancilla with every clock qubit a control),
    which checks that the qubits are valid and distinct, and the controls of
    each value of the clock's low and high halves of bits, so that pattern m
    fires on ``low[m % len(low)] + high[m // len(low)]``. A layout that fails
    its check raises, and nothing is cached."""
    layout = Gate(GateKind.RY, (ancilla,), tuple((q, 0) for q in clock), angle=0.0)
    half = len(clock) // 2
    low, high = (
        tuple(tuple((q, v >> r & 1) for r, q in enumerate(part)) for v in range(1 << len(part)))
        for part in (clock[:half], clock[half:])
    )
    return layout, low, high


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
