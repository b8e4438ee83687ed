"""Inversion-plan tests: overlap models, plan builders, circuits."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_preprocess import random_problem
from test_sim import _per_rotation_ry

from qlslab import inversion
from qlslab.errors import EmptyPlanError, InvalidGateError
from qlslab.inversion import (
    InversionPlan,
    alpha_overlap,
    build_inversion_circuit,
    plan_canonical,
    plan_enhanced,
    plan_hybrid,
    rotate_branches,
)
from qlslab.preprocess import EigenEstimate, EigenEstimateSet, decode_grid_int, run_preprocessing
from qlslab.qlsp import generate_n2
from qlslab.sim import Circuit, Gate, GateKind, StateVector, apply_circuit

TWO_PI = 2.0 * math.pi


def _estimates(bits, t0, pairs, signed=False):
    entries = tuple(
        EigenEstimate(g, TWO_PI * (g - 2**bits if signed and g >= 2 ** (bits - 1) else g) / t0, w)
        for g, w in pairs
    )
    return EigenEstimateSet(bits, t0, signed, entries)


def test_alpha_linear_values():
    assert alpha_overlap(0.0) == pytest.approx(1.0)
    assert alpha_overlap(math.pi) == pytest.approx(0.5)
    assert alpha_overlap(TWO_PI) == pytest.approx(0.0)
    assert alpha_overlap(3 * TWO_PI) == 0.0
    with pytest.raises(ValueError):
        alpha_overlap(-0.1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_alpha_rejects_a_non_finite_delta(delta):
    for model in ("linear", "exact"):
        with pytest.raises(ValueError, match="delta must be finite"):
            alpha_overlap(delta, model, big_t=8)


@pytest.mark.parametrize("value", [True, "2", None])
@pytest.mark.parametrize(
    "name, call",
    [
        ("t0", lambda value: plan_canonical(3, value)),
        ("constant_c", lambda value: InversionPlan(3, (), value)),
        ("delta", lambda value: alpha_overlap(value)),
    ],
    ids=["plan_canonical", "InversionPlan", "alpha_overlap"],
)
def test_real_arguments_reject_bools_strings_and_none(name, call, value):
    """A bool would run as 1, and a string or None raised ``TypeError``."""
    with pytest.raises(ValueError, match=f"{name} must be a real number, not {value!r}"):
        call(value)


@pytest.mark.parametrize("big_t", [2.5, "8", 1, True])
def test_alpha_exact_needs_an_int_register_size(big_t):
    """A float register size gave a value (0.971 at 2.5) and a string raised ``TypeError``."""
    with pytest.raises(ValueError, match="big_t must be at least 2 and an int"):
        alpha_overlap(1.0, "exact", big_t)
    with pytest.raises(ValueError, match="register size big_t"):
        alpha_overlap(1.0, "exact")


def test_alpha_exact_normalized_and_bounded():
    assert alpha_overlap(0.0, "exact", big_t=8) == pytest.approx(1.0)
    # removable singularity at delta = pi evaluates to the analytic limit
    limit = 8 * math.sin(math.pi / 16) / 2
    assert alpha_overlap(math.pi, "exact", big_t=8) == pytest.approx(limit, rel=1e-9)
    near = alpha_overlap(math.pi + 1e-7, "exact", big_t=8)
    assert near == pytest.approx(limit, rel=1e-4)
    for delta in np.linspace(0.0, TWO_PI, 101):
        value = alpha_overlap(float(delta), "exact", big_t=8)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_alpha_models_deviation_reported():
    """Mean squared deviation between the two models is finite; value logged."""
    deltas = np.linspace(0.0, TWO_PI, 401)
    gaps = [
        (alpha_overlap(float(d)) - alpha_overlap(float(d), "exact", big_t=8)) ** 2
        for d in deltas
    ]
    msd = float(np.mean(gaps))
    print(f"linear-vs-exact overlap mean squared deviation: {msd:.4f}")
    assert math.isfinite(msd)
    assert msd < 1.0


def test_canonical_plan_angles_and_size():
    t0 = 14 * math.pi
    plan = plan_canonical(3, t0)
    assert len(plan.rotations) == 7
    angles = dict(plan.rotations)
    assert angles[1] == pytest.approx(math.pi)
    assert angles[2] == pytest.approx(2 * math.asin(0.5))  # pi / 3
    assert plan.constant_c == pytest.approx(TWO_PI / t0)


@pytest.mark.parametrize("t0", [math.inf, math.nan, 0.0, -1.0])
def test_canonical_rejects_a_scale_that_gives_no_grid(t0):
    with pytest.raises(ValueError, match="finite and positive"):
        plan_canonical(3, t0)


def test_canonical_angle_monotonicity():
    plan = plan_canonical(4, 10.0)
    angles = [theta for _, theta in plan.rotations]
    assert all(a > b for a, b in zip(angles, angles[1:]))


def test_canonical_signed_patterns():
    plan = plan_canonical(3, 6 * math.pi, signed_mode=True)
    angles = dict(plan.rotations)
    assert len(angles) == 7
    assert angles[1] == pytest.approx(math.pi)  # lambda = +c
    assert angles[7] == pytest.approx(-math.pi)  # two's complement -1
    assert angles[5] == pytest.approx(2 * math.asin(-1 / 3))  # decoded -3


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_canonical_plan_decodes_every_pattern_as_decode_grid_int(k, signed):
    """The canonical plan takes its grid values from ``grid_range`` in one
    pass; it equals, bit for bit, the plan built from each pattern's
    ``decode_grid_int``."""
    for t0 in (0.7, 6 * math.pi, 123.456):
        per_pattern = {
            p: 1.0 / (TWO_PI * decode_grid_int(p, k, signed) / t0) for p in range(1, 2**k)
        }
        largest = max(abs(x) for x in per_pattern.values())
        rotations = sorted((p, 2.0 * math.asin(x / largest)) for p, x in per_pattern.items())
        plan = plan_canonical(k, t0, signed_mode=signed)
        assert plan == InversionPlan(k, tuple(rotations), 1.0 / largest)


_CANONICAL_ARGUMENTS = st.tuples(
    st.integers(1, 8), st.sampled_from([0.7, 6 * math.pi, 123.456, 1e4]), st.booleans()
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(_CANONICAL_ARGUMENTS, min_size=1, max_size=12))
def test_cached_canonical_plans_equal_uncached_builds(calls):
    """Whatever order of arguments the cache has seen, ``plan_canonical``
    returns the plan an uncached build gives, field by field."""
    uncached = inversion._canonical_plan.__wrapped__
    for k, t0, signed in calls:
        plan, expected = plan_canonical(k, t0, signed_mode=signed), uncached(k, t0, signed)
        assert plan.bit_width == expected.bit_width == k
        assert plan.rotations == expected.rotations
        assert plan.constant_c == expected.constant_c
        assert plan.clamp_events == expected.clamp_events == 0


def test_equal_canonical_arguments_share_one_plan():
    plan = plan_canonical(3, 10.0)
    assert plan_canonical(3, 10.0, signed_mode=False) is plan
    assert plan_canonical(np.int64(3), np.float64(10.0), 0) is plan
    assert plan_canonical(3, 10.0, signed_mode=True) is not plan
    assert plan_canonical(3, 10.5) is not plan


def _plans():
    """A canonical plan, a hand-built one and an empty one."""
    return [
        plan_canonical(4, 10.0, signed_mode=True),
        InversionPlan(3, ((0, -0.4), (3, 1.0), (6, math.pi)), 0.1),
        InversionPlan(2, (), 1.0),
    ]


@pytest.mark.parametrize("plan", _plans())
def test_plan_arrays_are_read_only_and_match_the_rotations(plan):
    patterns = [m for m, _ in plan.rotations]
    halves = [0.5 * theta for _, theta in plan.rotations]
    assert plan.patterns.tolist() == patterns
    assert plan.cosines.tolist() == np.cos(halves).tolist()
    assert plan.sines.tolist() == np.sin(halves).tolist()
    for array in (plan.patterns, plan.cosines, plan.sines):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    assert plan.cosines is plan.cosines  # derived once


@pytest.mark.parametrize("plan", _plans())
def test_appending_to_an_inversion_circuit_leaves_the_next_one_alone(plan):
    k = plan.bit_width
    first = build_inversion_circuit(plan, range(1, k + 1), 0)
    gates = list(first.gates)
    first.gates.append(Gate(GateKind.PAULI_X, (0,)))
    first.add(Gate(GateKind.RY, (0,), ((1, 1),), angle=0.3))
    second = build_inversion_circuit(plan, range(1, k + 1), 0)
    assert second.gates == gates and second.gates is not first.gates
    assert second.num_qubits == k + 1


def _assert_per_rotation_gates(circuit, plan, clock, ancilla):
    """``circuit`` holds the gates that ``_per_rotation_ry`` builds for the
    plan on the layout, field by field."""
    reference = _per_rotation_ry(max(clock + (ancilla,)) + 1, ancilla, clock, plan.rotations)
    assert circuit.num_qubits == reference.num_qubits
    assert len(circuit) == len(reference) == len(plan.rotations)
    for gate, expected in zip(circuit.gates, reference.gates):
        assert (gate.kind, gate.targets, gate.controls, gate.angle) == (
            expected.kind,
            expected.targets,
            expected.controls,
            expected.angle,
        )
        assert type(gate.angle) is float and gate.matrix is None
        assert gate.qubits() == expected.qubits() == (ancilla,) + clock


@pytest.mark.parametrize("plan", _plans())
@pytest.mark.parametrize("layout", [((1, 2, 3, 4), 0), ((5, 3, 0, 2), 7), ((0, 1, 2, 3), 4)])
def test_cached_inversion_gates_equal_the_per_rotation_gates(plan, layout):
    clock, ancilla = layout
    clock = clock[: plan.bit_width]
    for _ in range(2):  # built, then taken from the plan
        circuit = build_inversion_circuit(plan, clock, ancilla)
        _assert_per_rotation_gates(circuit, plan, clock, ancilla)


@st.composite
def _plan_and_layout(draw):
    """A valid plan with k <= 7 on its own (clock, ancilla) layout: random
    patterns in any order and angles, clock qubits in any order, and an
    ancilla anywhere among up to three spare qubits."""
    k = draw(st.integers(1, 7))
    patterns = draw(st.lists(st.integers(0, 2**k - 1), unique=True, max_size=2**k))
    angles = st.floats(-math.pi, math.pi)
    rotations = tuple((pattern, draw(angles)) for pattern in patterns)
    qubits = draw(st.permutations(range(k + 1 + draw(st.integers(0, 3)))))
    return InversionPlan(k, rotations, 1.0), tuple(qubits[:k]), qubits[k]


@settings(derandomize=True, deadline=None)
@given(_plan_and_layout())
def test_inversion_gates_are_the_per_rotation_gates(case):
    """Whatever the plan and layout, the block is one checked RY per rotation,
    on the first call, which builds it, and on the cached call."""
    plan, clock, ancilla = case
    first = build_inversion_circuit(plan, clock, ancilla)
    _assert_per_rotation_gates(first, plan, clock, ancilla)
    cached = build_inversion_circuit(plan, clock, ancilla)
    _assert_per_rotation_gates(cached, plan, clock, ancilla)
    assert all(a is b for a, b in zip(cached.gates, first.gates))


@pytest.mark.parametrize(
    "clock, ancilla, message",
    [
        ((1, 0), 0, "disjoint"),
        ((1, 1), 0, "duplicate control"),
        ((1, -1), 0, "negative"),
        ((1, 2), -1, "negative"),
    ],
    ids=["ancilla-in-clock", "repeated-clock-qubit", "negative-clock-qubit", "negative-ancilla"],
)
@pytest.mark.parametrize("rotations", [((1, 0.5), (2, -0.1)), ()], ids=["two", "none"])
def test_a_bad_layout_raises_and_caches_nothing(rotations, clock, ancilla, message):
    """A plan with no rotations checks its layout as well."""
    plan = InversionPlan(2, rotations, 1.0)
    for _ in range(2):
        with pytest.raises(InvalidGateError, match=message):
            build_inversion_circuit(plan, clock, ancilla)
        assert plan._layouts == {}


def test_a_layout_costs_one_gate_check(monkeypatch):
    """The 127-rotation canonical block at k = 7 checks one ``Gate``, on its
    layout's qubits, when it is built and none when it is taken from the plan."""
    canonical = plan_canonical(7, 10.0)
    plan = InversionPlan(7, canonical.rotations, canonical.constant_c)  # no layout yet
    checks = []
    check = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda gate: checks.append(gate) or check(gate))
    first = build_inversion_circuit(plan, range(1, 8), 0)
    assert len(first) == 127 and len(checks) == 1
    assert all(gate.qubits() == checks[0].qubits() for gate in first.gates)
    second = build_inversion_circuit(plan, range(1, 8), 0)
    assert second.gates == first.gates and len(checks) == 1


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 5), st.floats(0.5, 500.0), st.booleans(), st.data())
def test_canonical_and_hybrid_plans_share_one_rule(k, t0, signed, data):
    """The canonical plan is the hybrid plan over every nonzero grid value,
    and a hybrid plan rotates each estimate by 2 arcsin(min|lambda| / lambda)."""
    every = [(g, 1.0) for g in range(1, 2**k)]
    canonical = plan_canonical(k, t0, signed_mode=signed)
    hybrid = plan_hybrid(_estimates(k, t0, every, signed))
    assert hybrid.rotations == canonical.rotations
    assert hybrid.constant_c == canonical.constant_c

    kept = data.draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    estimates = _estimates(k, t0, kept, signed)
    c = min(abs(e.lambda_tilde) for e in estimates.entries)
    expected = {e.grid_int: 2.0 * math.asin(c / e.lambda_tilde) for e in estimates.entries}
    plan = plan_hybrid(estimates)
    assert [p for p, _ in plan.rotations] == sorted(expected)
    for pattern, theta in plan.rotations:
        assert abs(theta - expected[pattern]) <= 1e-12


def test_hybrid_plan_basic():
    estimates = _estimates(3, 18 * math.pi, [(3, 0.7), (6, 0.7)])
    plan = plan_hybrid(estimates)
    assert len(plan.rotations) == 2
    angles = dict(plan.rotations)
    assert angles[3] == pytest.approx(math.pi)
    assert angles[6] == pytest.approx(2 * math.asin(0.5))


def test_hybrid_single_estimate():
    estimates = _estimates(3, 18 * math.pi, [(2, 0.9)])
    plan = plan_hybrid(estimates)
    assert plan.rotations == ((2, pytest.approx(math.pi)),)


def test_hybrid_support_is_subset_of_canonical():
    estimates = _estimates(3, 18 * math.pi, [(3, 0.7), (6, 0.7)])
    hybrid = plan_hybrid(estimates)
    canonical = plan_canonical(3, 18 * math.pi)
    hybrid_support = {p for p, _ in hybrid.rotations}
    canonical_support = {p for p, _ in canonical.rotations}
    assert hybrid_support < canonical_support
    assert canonical_support - hybrid_support == {1, 2, 4, 5, 7}


def test_hybrid_rotation_cap():
    estimates = _estimates(3, 18 * math.pi, [(3, 0.7), (6, 0.6), (2, 0.3), (5, 0.2)])
    plan = plan_hybrid(estimates, max_rotations=2)
    assert {p for p, _ in plan.rotations} == {3, 6}


@pytest.mark.parametrize("cap", [0, -5, 1.9, True, 2.0])
def test_hybrid_rejects_a_cap_it_cannot_honour(cap):
    estimates = _estimates(3, 18 * math.pi, [(3, 0.7), (6, 0.6)])
    with pytest.raises(ValueError, match="max_rotations"):
        plan_hybrid(estimates, max_rotations=cap)


def test_hybrid_empty_plan():
    with pytest.raises(EmptyPlanError):
        plan_hybrid(_estimates(3, 6.0, [(0, 0.9)]))


def test_enhanced_grid_aligned_matches_hybrid():
    """Degenerate case: every fine estimate sits on the coarse grid."""
    t0 = 18 * math.pi
    estimates = _estimates(5, 4 * t0, [(12, 1 / math.sqrt(2)), (24, 1 / math.sqrt(2))])
    enhanced = plan_enhanced(estimates, 3)
    hybrid = plan_hybrid(_estimates(3, t0, [(3, 1 / math.sqrt(2)), (6, 1 / math.sqrt(2))]))
    assert {p for p, _ in enhanced.rotations} == {p for p, _ in hybrid.rotations}
    for (p_e, theta_e), (p_h, theta_h) in zip(enhanced.rotations, hybrid.rotations):
        assert p_e == p_h
        assert theta_e == pytest.approx(theta_h, abs=1e-9)
    assert enhanced.clamp_events == 0


def test_enhanced_midpoint_split():
    """An estimate halfway between coarse values yields two equal rotations."""
    t0 = 18 * math.pi
    estimates = _estimates(5, 4 * t0, [(14, 1.0)])  # coarse coordinate 3.5
    plan = plan_enhanced(estimates, 3)
    assert {p for p, _ in plan.rotations} == {3, 4}
    thetas = [theta for _, theta in plan.rotations]
    assert thetas[0] == pytest.approx(thetas[1], abs=1e-12)


def test_enhanced_support_is_adjacent_and_bounded():
    qlsp = generate_n2(0.23)
    t0 = 18 * math.pi
    estimates = run_preprocessing(qlsp, 5, 4 * t0)
    plan = plan_enhanced(estimates, 3)
    assert len(plan.rotations) <= 2 * len(estimates.entries)
    allowed = set()
    for e in estimates.entries:
        if e.grid_int == 0:
            continue
        coord = e.grid_int / 4
        allowed.update({math.floor(coord), math.floor(coord) + 1})
    assert {p for p, _ in plan.rotations} <= allowed


def test_enhanced_second_filter_drops_weak_patterns():
    t0 = 18 * math.pi
    estimates = _estimates(5, 4 * t0, [(24, 0.9), (13, 0.05)])
    plan = plan_enhanced(estimates, 3)  # filter threshold 2^-3 = 0.125
    assert {p for p, _ in plan.rotations} == {6}
    with pytest.raises(EmptyPlanError):
        plan_enhanced(_estimates(5, 4 * t0, [(24, 0.001)]), 3)


def test_enhanced_skips_zero_and_overflow_neighbors():
    t0 = 18 * math.pi
    # coarse coordinates 0.25 and 7.25: neighbors 0 and 8 are unusable
    estimates = _estimates(5, 4 * t0, [(1, 0.7), (29, 0.7)])
    plan = plan_enhanced(estimates, 3)
    assert {p for p, _ in plan.rotations} == {1, 7}


def test_enhanced_signed_patterns():
    t0 = 6 * math.pi
    # fine signed grid: value -10.5 sits between coarse -3 and -2
    estimates = _estimates(5, 4 * t0, [(22, 0.7), (3, 0.7)], signed=True)
    plan = plan_enhanced(estimates, 3)
    patterns = {p for p, _ in plan.rotations}
    assert patterns == {5, 6, 1}  # two's complement -3, -2, and +1
    angles = dict(plan.rotations)
    assert angles[5] < 0 and angles[6] < 0 and angles[1] > 0


def test_enhanced_paper_policy_clamps_in_degenerate_case():
    t0 = 18 * math.pi
    estimates = _estimates(5, 4 * t0, [(12, 1 / math.sqrt(2)), (24, 1 / math.sqrt(2))])
    plan = plan_enhanced(estimates, 3, angle_policy="paper")
    assert plan.clamp_events > 0
    assert all(abs(theta) <= math.pi / 2 + 1e-12 for _, theta in plan.rotations)


def test_enhanced_least_squares_never_clamps_on_sweep():
    """Regression: default policy stays inside the arcsin domain on the sweep.

    Each angle is 2 arcsin(xbar / largest) with |xbar| <= largest, so the
    largest rotation is exactly a half turn and no argument needs clamping.
    """
    t0 = 18 * math.pi
    for lam in [round(0.02 * i, 3) for i in range(1, 25)]:
        estimates = run_preprocessing(generate_n2(lam), 5, 4 * t0)
        plan = plan_enhanced(estimates, 3)
        assert plan.clamp_events == 0
        assert max(abs(theta) for _, theta in plan.rotations) == math.pi


def test_build_inversion_circuit_counts():
    canonical = plan_canonical(3, 14 * math.pi)
    circuit = build_inversion_circuit(canonical, clock=(1, 2, 3), ancilla=0)
    assert len(circuit) == 7
    hybrid = InversionPlan(3, ((3, 1.0), (6, 0.5)), 0.1)
    assert len(build_inversion_circuit(hybrid, clock=(1, 2, 3), ancilla=0)) == 2


def test_inversion_circuit_control_polarities():
    """The rotation fires only on its own clock pattern."""
    plan = InversionPlan(2, ((2, math.pi),), 0.5)
    circuit = build_inversion_circuit(plan, clock=(0, 1), ancilla=2)
    # clock in pattern 2 (qubit1 = 1, qubit0 = 0): ancilla flips
    start = np.zeros(8, dtype=complex)
    start[2] = 1.0
    out = apply_circuit(StateVector(3, start), circuit)
    assert abs(out.amplitudes[2 + 4]) == pytest.approx(1.0, abs=1e-12)
    # clock in pattern 3: no rotation
    start = np.zeros(8, dtype=complex)
    start[3] = 1.0
    out = apply_circuit(StateVector(3, start), circuit)
    assert abs(out.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)


@st.composite
def _inversion_case(draw):
    """(plan, nb, states): a plan of any variant and angle policy, or an empty
    one, for a ``random_problem`` with a positive, signed or dilated spectrum
    on nb b qubits and k <= 5 clock bits, and two random states laid out
    [state, ancilla, clock, b]."""
    qlsp = draw(random_problem((2, 4)))
    k = draw(st.integers(1, 5))
    t0 = draw(st.floats(5.0, 80.0))
    signed = qlsp.has_negative_eigenvalues
    kind = draw(st.sampled_from(["canonical", "hybrid", "least-squares", "paper", "empty"]))
    try:
        if kind == "canonical":
            plan = plan_canonical(k, t0, signed_mode=signed)
        elif kind == "hybrid":
            plan = plan_hybrid(run_preprocessing(qlsp, k, t0))
        elif kind == "empty":
            plan = InversionPlan(k, (), 1.0)
        else:
            estimates = run_preprocessing(qlsp, k + 2, 4 * t0)
            plan = plan_enhanced(estimates, k, angle_policy=kind)
    except EmptyPlanError:
        reject()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, 2, 2**k, qlsp.dimension)
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = np.linalg.norm(states.reshape(2, -1), axis=1)
    return plan, qlsp.num_qubits, states / norms[:, None, None, None]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_inversion_case())
def test_rotate_branches_matches_every_run_of_its_gates(case):
    """``rotate_branches`` of rotations [start, stop) is the gate-by-gate
    simulation of ``build_inversion_circuit``'s gates [start, stop), for
    every run, all its gates among them."""
    plan, nb, states = case
    k = plan.bit_width
    gates = build_inversion_circuit(plan, range(nb, nb + k), nb + k).gates
    whole = rotate_branches(plan, states, 0, len(gates))
    assert np.max(np.abs(whole - _simulated(states, gates))) < 1e-12
    for start in range(len(gates)):
        reference = states
        for stop in range(start + 1, len(gates) + 1):
            reference = _simulated(reference, gates[stop - 1 : stop])
            closed = rotate_branches(plan, states, start, stop)
            assert np.max(np.abs(closed - reference)) < 1e-12


def _simulated(states, gates):
    """Each of ``states`` with ``gates`` applied by ``apply_circuit``."""
    width = states[0].size.bit_length() - 1
    circuit = Circuit(width)
    circuit.gates = list(gates)
    images = [apply_circuit(StateVector(width, s.reshape(-1)), circuit) for s in states]
    return np.stack([image.amplitudes.reshape(states.shape[1:]) for image in images])


@pytest.mark.parametrize(
    "fields, field",
    [
        ((0, (), 1.0), "bit_width"),
        ((2.0, (), 1.0), "bit_width"),
        ((True, (), 1.0), "bit_width"),
        ((1, ((True, 0.5),), 1.0), "rotation pattern"),
        ((2, ((1.0, 0.5),), 1.0), "rotation pattern"),
        ((2, ((-1, 0.5),), 1.0), "rotation pattern"),
        ((2, (), 1.0, -2.5), "clamp_events"),
        ((2, (), 1.0, True), "clamp_events"),
    ],
)
def test_plan_count_fields_accept_only_ints(fields, field):
    with pytest.raises(ValueError, match=f"{field} must be .* an int"):
        InversionPlan(*fields)


def test_planners_accept_only_int_bit_widths():
    estimates = _estimates(4, 36 * math.pi, [(6, 0.7), (12, 0.6)])
    with pytest.raises(ValueError, match="bit_width must be .* an int"):
        plan_enhanced(estimates, 2.5)
    with pytest.raises(ValueError, match="bit_width must be .* an int"):
        plan_canonical(3.0, 6 * math.pi)


def test_plan_validation():
    with pytest.raises(ValueError):
        InversionPlan(2, ((1, 1.0), (1, 0.5)), 0.1)
    with pytest.raises(ValueError):
        InversionPlan(2, ((4, 1.0),), 0.1)
    with pytest.raises(ValueError):
        InversionPlan(2, ((1, 4.0),), 0.1)
    with pytest.raises(ValueError, match="unique"):
        InversionPlan(2, ((1, 0.5), (2, 0.1), (1, 0.2)), 0.1)
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            InversionPlan(3, ((1, 0.5), (2, angle)), 1.0)
    # a bool or a complex number ran as its value, and a string or None raised TypeError
    for angle in (True, 1 + 0j, "0.5", None):
        message = f"rotation angle must be a real number, not {angle!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            InversionPlan(3, ((1, 0.5), (2, angle)), 1.0)
    for constant in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            InversionPlan(3, ((1, 0.5),), constant)
