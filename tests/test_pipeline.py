"""Solver pipeline tests: assembly, readout modes, run contracts."""
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_preprocess import RECORDS, random_problem
from test_sim import circuit_matrix, noisy_circuit

from qlslab import pipeline, preprocess
from qlslab.cli import PAPER_N4_EIGENVALUES, ExperimentSpec, _run_config, run_experiment
from qlslab.errors import (
    AliasingError,
    CapacityError,
    DegenerateRunError,
    EmptyPlanError,
    InsufficientShotsError,
)
from qlslab.inversion import (
    ALPHA_MODELS,
    ANGLE_POLICIES,
    InversionPlan,
    build_inversion_circuit,
    plan_canonical,
    rotate_branches,
)
from qlslab.pipeline import (
    RunConfig,
    _swap_test_probabilities,
    _widths,
    assemble_hhl,
    direct_fidelity,
    error_from_fidelity,
    execute,
    plan_run,
    projection_fidelity,
    run,
    swap_test_fidelity,
)
from qlslab.preprocess import fixed_t0, qpe_gates
from qlslab.qlsp import QLSP, classical_solution, generate_n2, generate_n4
from qlslab.sim import (
    Circuit,
    Gate,
    GateKind,
    NoiseSpec,
    StateVector,
    apply_circuit,
    gate_report,
    inject_noise,
    inverted_gates,
    marginal_probabilities,
    postselect,
    register_matrix,
    sample,
    state_preparation_matrix,
)

TWO_PI = 2.0 * math.pi
ON_GRID_T0 = 18 * math.pi  # puts the lambda = 1/3 family exactly on the 3-bit grid


def test_error_from_fidelity_values():
    assert error_from_fidelity(1.0) == 0.0
    assert error_from_fidelity(0.5) == pytest.approx(1.0)
    assert error_from_fidelity(0.51) == pytest.approx(0.98995, abs=1e-5)
    assert error_from_fidelity(1.0 + 1e-12) == 0.0
    with pytest.raises(ValueError):
        error_from_fidelity(1.1)


def test_assemble_register_arithmetic():
    qlsp = generate_n2(0.3)
    plan = plan_canonical(3, ON_GRID_T0)
    circuit = assemble_hhl(qlsp, 3, ON_GRID_T0, plan)
    assert circuit.num_qubits == 5  # 1 solution + 3 clock + 1 ancilla
    assert circuit.gates[0].targets == (0,)  # b is prepared on qubit 0
    assert [gate.targets for gate in circuit.gates[1:4]] == [(1,), (2,), (3,)]  # clock
    assert {gate.targets for gate in circuit.gates if gate.kind is GateKind.RY} == {(4,)}


def test_capacity_error():
    qlsp = generate_n2(0.3)
    plan = InversionPlan(19, ((1, math.pi),), 0.1)
    with pytest.raises(CapacityError):
        assemble_hhl(qlsp, 19, 10.0, plan)


def test_iqpe_is_exact_inverse_of_qpe():
    qlsp = generate_n2(0.27)
    circuit = Circuit(4)
    block = qpe_gates(qlsp, clock=(1, 2, 3), breg=(0,), t0=11.0)
    circuit.extend(block)
    circuit.extend(inverted_gates(block))
    assert np.max(np.abs(circuit_matrix(circuit) - np.eye(16))) < 1e-10


@st.composite
def _noiseless_case(draw):
    """(problem, config): a noiseless run of any variant at an explicit t0
    that puts one eigenvalue on the clock grid, or at an arbitrary t0."""
    qlsp = draw(random_problem())
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        lam = abs(qlsp.eigenvalues[draw(st.integers(0, qlsp.dimension - 1))])
        t0 = TWO_PI * draw(st.integers(1, 2**k - 1)) / lam
    else:
        t0 = draw(st.floats(5.0, 80.0))
    variant = draw(st.sampled_from(pipeline.VARIANTS))
    return qlsp, RunConfig(variant=variant, clock_bits=k, t0_mode="explicit", t0_value=t0)


@settings(derandomize=True, deadline=None)
@given(_noiseless_case())
def test_noiseless_runs_match_the_dense_simulation(case):
    """With no Paulis, the executor's simulated state preparation and
    closed-form QPE and inversion stages give the state, fidelity and
    success probability of the whole circuit simulated gate by gate."""
    qlsp, config = case
    try:
        result = run(qlsp, config)
    except (EmptyPlanError, DegenerateRunError):
        reject()
    k = config.clock_bits
    circuit = assemble_hhl(qlsp, k, result.t0, result.plan)
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), circuit)
    closed, report = execute(qlsp, result.t0, result.plan)
    assert np.max(np.abs(closed.reshape(-1) - dense.amplitudes)) < 1e-12
    assert report == gate_report(circuit)
    nb = qlsp.num_qubits
    post, success = postselect(dense, nb + k, 1)
    overlap = classical_solution(qlsp).state_x.conj() @ register_matrix(post.amplitudes, range(nb))
    fidelity = np.vdot(overlap, overlap).real
    assert abs(result.success_probability - success) < 1e-12
    assert abs(result.fidelity - fidelity) < 1e-12


@st.composite
def _grid_case(draw):
    """(problem, clock bits, t0): a ``random_problem`` with a signed or
    unsigned spectrum, 1 to 5 clock bits and an arbitrary t0."""
    return draw(random_problem()), draw(st.integers(1, 5)), draw(st.floats(5.0, 80.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_grid_case())
def test_the_tail_kernel_matches_the_staged_walk(case):
    """With no Pauli, the one-pass tail gives the state of the staged walk of
    the inversion block and the uncompute, both in A's eigenbasis, and, turned
    back to the computational basis, of the circuit simulated gate by gate,
    for every variant's plan, and p = 0 noise runs it bit for bit."""
    qlsp, k, t0 = case
    plans = []
    for variant in pipeline.VARIANTS:
        config = RunConfig(variant=variant, clock_bits=k, t0_mode="explicit", t0_value=t0)
        try:
            plans.append(plan_run(qlsp, config)[2])
        except EmptyPlanError:
            pass
    if not plans:
        reject()
    blocks = pipeline._qpe_blocks(qlsp, k, t0)
    nb = qlsp.num_qubits
    for plan in plans:
        circuit = assemble_hhl(qlsp, k, t0, plan)
        tail = pipeline._tail(plan, blocks.prepared, blocks)
        inversion = preprocess.Stage(
            build_inversion_circuit(plan, range(nb, nb + k), nb + k).gates,
            functools.partial(rotate_branches, plan),
        )
        staged = pipeline._walk(qlsp, blocks.prepared, (inversion, *blocks.uncompute), {})
        dense = apply_circuit(StateVector.zero(circuit.num_qubits), circuit).amplitudes
        turned = tail @ qlsp.eigenvectors.T  # back to the computational basis
        assert np.max(np.abs(tail - staged)) < 1e-12
        assert np.max(np.abs(turned.reshape(-1) - dense)) < 1e-12
        noiseless, _ = execute(qlsp, t0, plan)
        assert np.array_equal(noiseless, turned)
        assert np.array_equal(execute(qlsp, t0, plan, NoiseSpec(0.0, 3))[0], noiseless)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_grid_case())
def test_the_cached_prefix_is_the_walk_of_the_prefix_records(case):
    """The cached prefix output, the preprocessing kernel at (k, t0) on the
    ancilla-0 branch, is the walk of the prefix's stage records from the
    prepared state."""
    qlsp, k, t0 = case
    blocks = pipeline._qpe_blocks(qlsp, k, t0)
    walked = pipeline._walk(qlsp, pipeline._prepared(qlsp, 2**k), blocks.prefix[1:], {})
    assert blocks.prepared.shape == walked.shape == (2, 2**k, qlsp.dimension)
    assert np.max(np.abs(blocks.prepared - walked)) < 1e-12


@st.composite
def _plan_case(draw):
    """(problem, t0, plan): a ``_grid_case`` and a hand-built plan of 0 to
    2^k rotations on any patterns, pattern 0 included."""
    qlsp, k, t0 = draw(_grid_case())
    patterns = draw(st.lists(st.integers(0, 2**k - 1), max_size=2**k, unique=True))
    angles = st.floats(-math.pi, math.pi)
    rotations = tuple(sorted((p, draw(angles)) for p in patterns))
    return qlsp, t0, InversionPlan(k, rotations, 1.0)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_plan_case())
def test_counts_composed_per_block_match_the_whole_circuit(case):
    """The prefix's report, the inversion block's and the uncompute's add
    up to ``gate_report`` of the whole circuit, depth included, with or
    without rotations, and the tail gives the state for any plan."""
    qlsp, t0, plan = case
    circuit = assemble_hhl(qlsp, plan.bit_width, t0, plan)
    branches, report = execute(qlsp, t0, plan)
    assert report == gate_report(circuit)
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), circuit).amplitudes
    assert np.max(np.abs(branches.reshape(-1) - dense)) < 1e-12


@pytest.mark.parametrize("rotations", [(), ((0, 0.3),), ((1, -2.0),), ((0, 1.0), (1, 0.5))])
@pytest.mark.parametrize("problem", ["n2", "n4"])
def test_one_bit_clock_counts_compose(problem, rotations):
    """On a one-bit clock every rotation is a two-qubit gate, and with no
    rotation no barrier parts the prefix from the uncompute; the composed
    counts still equal the whole circuit's."""
    qlsp = generate_n2(0.3) if problem == "n2" else generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7)
    plan = InversionPlan(1, rotations, 1.0)
    circuit = assemble_hhl(qlsp, 1, 11.0, plan)
    _, report = execute(qlsp, 11.0, plan)
    assert report == gate_report(circuit)
    assert all(len(g.qubits()) == 2 for g in circuit.gates if g.kind is GateKind.RY)


@st.composite
def _noisy_case(draw):
    """(problem, config, noise): a ``_noiseless_case`` and Pauli noise at
    p = 0, p in (0, 0.3] or p = 1, with any seed."""
    qlsp, config = draw(_noiseless_case())
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3, exclude_min=True), st.just(1.0)))
    return qlsp, config, NoiseSpec(p, draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None)
@given(_noisy_case())
def test_the_executor_matches_the_noisy_circuit_simulated_gate_by_gate(case):
    qlsp, config, noise = case
    try:
        result = run(qlsp, config)
    except (EmptyPlanError, DegenerateRunError):
        reject()
    circuit = assemble_hhl(qlsp, config.clock_bits, result.t0, result.plan)
    executed = noisy_circuit(circuit, inject_noise(circuit, noise))
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), executed)
    branches, _ = execute(qlsp, result.t0, result.plan, noise)
    assert np.max(np.abs(branches.reshape(-1) - dense.amplitudes)) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_noiseless_case(), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
def test_paulis_in_the_prefix_alone_leave_the_rest_to_the_tail(case, p, seed):
    """Paulis drawn on every prefix gate but the last, and none after it:
    the walked prefix feeds the tail kernel, which runs once, and the run
    gives the state of the noisy circuit simulated gate by gate."""
    qlsp, config = case
    try:
        t0, _, plan = plan_run(qlsp, config)
    except EmptyPlanError:
        reject()
    opening = pipeline._qpe_blocks(qlsp, config.clock_bits, t0).reports[0].gate_count
    drawn, tails = {}, []

    def placed(solver, noise):  # the Paulis on the prefix's gates but its last
        head = Circuit(solver.num_qubits)
        head.gates = solver.gates[: opening - 1]
        drawn.update(inject_noise(head, noise))
        return drawn

    def counted_tail(*args, _original=pipeline._tail):
        tails.append(args)
        return _original(*args)

    with mock.patch.object(pipeline, "inject_noise", placed):
        with mock.patch.object(pipeline, "_tail", counted_tail):
            branches, _ = execute(qlsp, t0, plan, NoiseSpec(p, seed))
    if not drawn:
        reject()
    executed = noisy_circuit(assemble_hhl(qlsp, config.clock_bits, t0, plan), drawn)
    dense = apply_circuit(StateVector.zero(executed.num_qubits), executed)
    assert len(tails) == 1
    assert np.max(np.abs(branches.reshape(-1) - dense.amplitudes)) < 1e-12


@pytest.mark.parametrize(
    "stage, where",
    [(s, w) for s in (*RECORDS, "inversion") for w in ("inside", "after")] + [(None, None)],
)
def test_only_the_stage_a_pauli_lands_in_is_simulated(monkeypatch, stage, where):
    """One Pauli after the first gate of a stage lands inside it: the stage
    splits into two closed forms around the Pauli, a Fourier transform into
    two runs that apply one Hadamard per clock bit between them. One after
    the stage's last gate leaves the stage in closed form. Only the half the
    Pauli lands in is walked: a Pauli before the prefix's last gate walks
    the prefix from the problem's prepared state, simulating no state
    preparation, and the tail kernel runs the rest once, and one after it
    walks the rest from the cached prefix. Counters on the closed
    forms that the stages call, and on the simulated gates, see every other
    stage of the walked half run in closed form and the Pauli alone
    simulated. The cached prefix calls no stage's closed form. With no
    Pauli, the tail kernel alone runs after it, calling the closed forms of
    the uncompute's Fourier transform and Hadamard layer (the whole adjoint
    ladder multiplies by its record's table), and no gate is simulated."""
    calls, gates, tails = [], [], []
    for module, name in (
        (preprocess, "clock_hadamards"),
        (preprocess, "ladder_phases"),
        (preprocess, "clock_qft"),
        (pipeline, "rotate_branches"),
    ):

        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(_original)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def counted_apply(state, part):
        gates.extend(part.gates)
        return apply_circuit(state, part)

    def counted_tail(*args, _original=pipeline._tail):
        tails.append(args)
        return _original(*args)

    monkeypatch.setattr(pipeline, "apply_circuit", counted_apply)
    monkeypatch.setattr(preprocess, "apply_circuit", counted_apply)  # what prepare_b calls
    monkeypatch.setattr(pipeline, "_tail", counted_tail)
    pipeline._qpe_blocks.cache_clear()  # so that the records call the counters
    preprocess.prepare_b.cache_clear()
    qlsp, k, t0 = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7), 3, 11.0
    plan = plan_canonical(k, t0, signed_mode=True)
    circuit = assemble_hhl(qlsp, k, t0, plan)
    blocks = pipeline._qpe_blocks(qlsp, k, t0)
    prefix, uncompute = blocks.prefix, blocks.uncompute
    # the cached prefix: prepare b (once per problem), then the kernel, no stage's
    # closed form; the records' one call builds the whole adjoint ladder's table
    assert len(gates) == 1 and len(calls) == 1
    gates.clear()
    calls.clear()
    opening = sum(len(record.gates) for record in prefix)
    closing = len(circuit.gates) - sum(len(record.gates) for record in uncompute)
    follows = {}  # index in the circuit's gates -> the Pauli after it
    transforms = 2  # with no Pauli, the tail kernel calls two of the uncompute's closed forms
    walked_prefix = False
    if stage is not None:
        if stage == "inversion":
            start, end, split = opening, closing, True
        else:
            block, position = RECORDS[stage]
            record = (prefix, uncompute)[block][position]
            if block == 0:
                start = sum(len(r.gates) for r in prefix[:position])
            else:
                start = closing + sum(len(r.gates) for r in uncompute[:position])
            end, split = start + len(record.gates), stage not in ("inverse-qft", "qft")
        after = start if where == "inside" else end - 1
        follows[after] = Gate(GateKind.PAULI_X, (circuit.gates[after].qubits()[0],))
        walked_prefix = after < opening - 1
        # a walked prefix starts from the prepared state and has three closed
        # forms, and the tail kernel two more; a walked rest has the
        # inversion's and two of the uncompute's, and a split adjoint ladder
        # builds the phase table of each of its two runs
        transforms = 5 if walked_prefix else 3
        if where == "inside" and stage == "powers-adjoint":
            transforms += 2
        elif where == "inside" and split:
            transforms += 1
        elif where == "inside":  # a Fourier transform's two runs, and a Hadamard per clock bit
            transforms += 1 + k
    monkeypatch.setattr(pipeline, "inject_noise", lambda solver, noise: follows)
    branches, _ = execute(qlsp, t0, plan, NoiseSpec(0.0))
    pipeline._qpe_blocks.cache_clear()
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), noisy_circuit(circuit, follows))
    assert np.max(np.abs(branches.reshape(-1) - dense.amplitudes)) < 1e-12
    assert len(calls) == transforms
    assert gates == list(follows.values())  # the Pauli alone is simulated
    assert len(tails) == (stage is None or walked_prefix)


@pytest.mark.parametrize("kind", [GateKind.PAULI_X, GateKind.PAULI_Y, GateKind.PAULI_Z])
@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("stage", ["powers", "powers-adjoint"])
def test_a_pauli_on_a_b_qubit_matches_the_noisy_circuit(monkeypatch, stage, qubit, kind):
    """The executor holds the b register in A's eigenbasis, where a Pauli on a
    b qubit is not a one-qubit gate: each Pauli on each b qubit of an n4
    problem, after the first gate of the ladder (a walked prefix) or of the
    adjoint ladder (a walked rest), gives the state of the noisy circuit
    simulated gate by gate."""
    qlsp, k, t0 = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7), 3, 11.0
    plan = plan_canonical(k, t0, signed_mode=True)
    circuit = assemble_hhl(qlsp, k, t0, plan)
    prefix, uncompute = pipeline._qpe_blocks(qlsp, k, t0)[:2]
    block, position = RECORDS[stage]
    if block == 0:
        after = sum(len(r.gates) for r in prefix[:position])
    else:
        closing = len(circuit.gates) - sum(len(r.gates) for r in uncompute)
        after = closing + sum(len(r.gates) for r in uncompute[:position])
    assert qubit in circuit.gates[after].qubits()  # a controlled power acts on b

    follows = {after: Gate(kind, (qubit,))}
    monkeypatch.setattr(pipeline, "inject_noise", lambda solver, noise: follows)
    branches, _ = execute(qlsp, t0, plan, NoiseSpec(0.0))
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), noisy_circuit(circuit, follows))
    assert np.max(np.abs(branches.reshape(-1) - dense.amplitudes)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("variant", pipeline.VARIANTS)
def test_zero_probability_noise_runs_the_noiseless_circuit(variant, seed):
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (1, 2), seed)
    config = RunConfig(variant=variant, clock_bits=4, readout="exact")
    clean = run(qlsp, config)
    noisy = run(qlsp, dataclasses.replace(config, noise=NoiseSpec(0.0, seed)))
    assert noisy.fidelity == clean.fidelity
    assert noisy.success_probability == clean.success_probability


def test_grid_aligned_canonical_run_is_exact():
    qlsp = generate_n2(1 / 3)
    config = RunConfig(variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0)
    result = run(qlsp, config)
    assert result.error < 1e-6
    # analytic success probability: sum |beta_j C / lambda_j|^2
    c = TWO_PI / ON_GRID_T0
    expected = 0.5 * (c / (1 / 3)) ** 2 + 0.5 * (c / (2 / 3)) ** 2
    assert result.success_probability == pytest.approx(expected, abs=1e-9)


def test_run_result_error_fidelity_relation():
    for readout in ("exact", "swap", "direct"):
        result = run(
            generate_n2(0.29),
            RunConfig(
                variant="canonical",
                t0_mode="explicit",
                t0_value=ON_GRID_T0,
                readout=readout,
                shots=2048,
                seed=5,
            ),
        )
        assert result.error == pytest.approx(
            math.sqrt(max(0.0, 2 * (1 - result.fidelity))), abs=1e-12
        )


def _flagged(register_amplitudes, ancilla_bit=1):
    """Ancilla branches, shape (2, 1, N), of a register state that the ancilla
    flags with ``ancilla_bit``; no clock sits between them."""
    register = np.asarray(register_amplitudes, dtype=complex)
    return np.eye(2)[ancilla_bit][:, None, None] * register


def test_swap_test_identical_states():
    amplitudes = np.array([0.5, 0.5, 0.5, 0.5])
    estimate = swap_test_fidelity(_flagged(amplitudes), amplitudes, shots=4096, seed=1)
    assert estimate == pytest.approx(1.0, abs=1e-12)


def test_swap_test_orthogonal_states():
    estimate = swap_test_fidelity(_flagged([1.0, 0.0]), np.array([0.0, 1.0]), shots=8192, seed=2)
    assert estimate == pytest.approx(0.0, abs=0.08)


def test_swap_test_known_overlap():
    """Overlap 0.8 gives P(a = 1, st_a = 1) = 0.18 exactly."""
    b = np.array([0.8, 0.6])
    branches = _flagged([1.0, 0.0])
    probabilities = _swap_test_probabilities(branches, b)
    assert probabilities[3] == pytest.approx((1 - 0.8**2) / 2, abs=1e-12)
    estimate = swap_test_fidelity(branches, b, shots=4096, seed=3)
    sigma = math.sqrt(0.18 * 0.82 / 4096)
    assert abs(estimate - 0.64) <= 2 * 4 * sigma


def _swap_reference(start, gates, register, ancilla, x):
    """Outcome probabilities of (ancilla, control) from one gate-level circuit.

    ``gates`` act on ``start``; the swap test's register and control sit in
    |0> above its qubits, and the whole circuit is simulated at once.
    """
    first = start.num_qubits
    st = tuple(range(first, first + len(register)))
    st_a = first + len(register)
    reference = Circuit(st_a + 1)
    reference.extend(gates)
    reference.unitary(state_preparation_matrix(x), st)
    reference.add(Gate(GateKind.HADAMARD, (st_a,)))
    for qb, qs in zip(register, st):
        reference.add(Gate(GateKind.SWAP, (qb, qs), ((st_a, 1),)))
    reference.add(Gate(GateKind.HADAMARD, (st_a,)))
    amplitudes = np.zeros(2**reference.num_qubits, dtype=complex)
    amplitudes[: 2**first] = start.amplitudes
    wide = apply_circuit(StateVector(reference.num_qubits, amplitudes), reference)
    return marginal_probabilities(wide, (ancilla, st_a))


def test_swap_readout_matches_full_circuit_reference():
    """The closed-form swap-test probabilities equal simulating the noisy
    solver and the swap test as one wider circuit."""
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7)
    breg = tuple(range(qlsp.num_qubits))
    x = classical_solution(qlsp).state_x
    for k in (1, 3, 5):
        signed = k > 1  # a one-bit signed clock has no nonzero value to invert
        t0 = fixed_t0(1.0, k, signed=signed)
        circuit = assemble_hhl(qlsp, k, t0, plan_canonical(k, t0, signed_mode=signed))
        ancilla = qlsp.num_qubits + k
        for noise_seed in (1, 2, 3):
            follows = inject_noise(circuit, NoiseSpec(0.2, noise_seed))
            assert follows  # at least one Pauli error was drawn
            executed = noisy_circuit(circuit, follows)
            zero = StateVector.zero(executed.num_qubits)
            want = _swap_reference(zero, executed.gates, breg, ancilla, x)
            solved = apply_circuit(zero, executed).amplitudes
            got = _swap_test_probabilities(solved.reshape(2, 2**k, qlsp.dimension), x)
            assert np.max(np.abs(got - want)) < 1e-12

    # a flagged state whose ancilla-0 branch is empty
    x = np.array([0.8, 0.6j])
    branches = _flagged(np.array([1.0, 1.0]) / math.sqrt(2), ancilla_bit=1)
    got = _swap_test_probabilities(branches, x)
    assert got[0] == got[2] == 0.0
    want = _swap_reference(StateVector(2, branches.reshape(-1)), [], (0,), 1, x)
    assert np.max(np.abs(got - want)) < 1e-12


@st.composite
def _layout_case(draw):
    """(state, nb, k, x): a random normalised state on nb b qubits, k clock
    bits and the ancilla, whose ancilla-0 branch may be empty, and a random
    normalised target x."""
    nb, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2 ** (nb + k + 1)
    amplitudes = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if draw(st.booleans()):
        amplitudes[: size // 2] = 0.0  # the ancilla is the top qubit
    x = rng.standard_normal(2**nb) + 1j * rng.standard_normal(2**nb)
    state = StateVector(nb + k + 1, amplitudes / np.linalg.norm(amplitudes))
    return state, nb, k, x / np.linalg.norm(x)


@settings(derandomize=True, deadline=None)
@given(_layout_case())
def test_readouts_read_the_branches_as_the_qubit_index_oracle(case):
    """Every readout reads the branches of shape (2, 2^k, N), indexed
    [ancilla, clock, b], as the qubit-index helpers read the same state with b
    on the low qubits and the ancilla on the top one: the exact readout the
    post-selected register, the swap test the gate-level circuit, and the
    direct readout the (ancilla, b) outcomes in the order they are sampled."""
    state, nb, k, x = case
    breg, ancilla, shape = tuple(range(nb)), nb + k, (2, 2**k, 2**nb)
    post, _ = postselect(state, ancilla, 1)
    overlap = x.conj() @ register_matrix(post.amplitudes, breg)
    got = projection_fidelity(post.amplitudes.reshape(shape), x)
    assert abs(got - np.vdot(overlap, overlap).real) < 1e-12
    branches = state.amplitudes.reshape(shape)
    want = _swap_reference(state, [], breg, ancilla, x)
    assert np.max(np.abs(_swap_test_probabilities(branches, x) - want)) < 1e-12
    counts = sample(marginal_probabilities(state, (ancilla, *breg)), 4096, 5)[1::2]
    want = sum(math.sqrt(c / counts.sum()) * abs(a) for c, a in zip(counts, x))
    assert abs(direct_fidelity(branches, x, shots=4096, seed=5) - want) < 1e-12


WRONG_LENGTH = "x length does not match the b register"


def test_projection_fidelity_rejects_a_target_of_the_wrong_length():
    with pytest.raises(ValueError, match=WRONG_LENGTH):
        projection_fidelity(_flagged([1.0, 0.0]), np.ones(4) / 2)


def test_swap_test_rejects_a_target_of_the_wrong_length():
    with pytest.raises(ValueError, match=WRONG_LENGTH):
        swap_test_fidelity(_flagged([1.0, 0.0]), np.ones(4) / 2, shots=64, seed=0)


def test_direct_fidelity_rejects_a_target_of_the_wrong_length():
    with pytest.raises(ValueError, match=WRONG_LENGTH):
        direct_fidelity(_flagged([1.0, 0.0]), np.ones(4) / 2, shots=64, seed=0)


def test_swap_readout_simulates_solver_once(monkeypatch):
    """Only state preparation is simulated, once per problem: every other
    stage of the solver runs in closed form and the swap-test readout
    simulates nothing, so a second run on the problem simulates no gate at
    all."""
    simulated = []

    def counting_apply(state, circuit):
        simulated.extend(circuit.gates)
        return apply_circuit(state, circuit)

    monkeypatch.setattr(pipeline, "apply_circuit", counting_apply)
    monkeypatch.setattr(preprocess, "apply_circuit", counting_apply)  # what prepare_b calls
    pipeline._qpe_blocks.cache_clear()
    preprocess.prepare_b.cache_clear()
    qlsp = generate_n2(0.3)
    config = RunConfig(
        variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0, readout="swap"
    )
    run(qlsp, config)
    (preparation,) = simulated
    assert preparation is pipeline._qpe_blocks(qlsp, 3, ON_GRID_T0).prefix[0].gates[0]
    simulated.clear()
    run(qlsp, dataclasses.replace(config, variant="hybrid", seed=12))
    assert simulated == []


def test_swap_and_exact_readouts_agree():
    """The swap estimator tracks the exact projector expectation (4 sigma)."""
    shots = 8192
    for lam, seed in ((0.22, 11), (0.31, 12), (0.44, 13)):
        qlsp = generate_n2(lam)
        base = RunConfig(variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0)
        exact = run(qlsp, base)
        sampled = run(
            qlsp,
            RunConfig(
                variant="canonical",
                t0_mode="explicit",
                t0_value=ON_GRID_T0,
                readout="swap",
                shots=shots,
                seed=seed,
            ),
        )
        p = (1 - exact.fidelity) / 2
        conditioned = shots * exact.success_probability
        sigma = math.sqrt(max(p * (1 - p), 1.0 / conditioned) / conditioned)
        assert abs(sampled.fidelity - exact.fidelity) <= 4 * (2 * sigma)


def test_swap_test_insufficient_shots():
    # the ancilla stays |0>, so conditioning discards everything
    branches = _flagged(np.array([1.0, 1.0]) / math.sqrt(2), ancilla_bit=0)
    with pytest.raises(InsufficientShotsError):
        swap_test_fidelity(branches, np.array([1.0, 0.0]), shots=64, seed=0)


def test_direct_fidelity_is_sign_blind():
    """A register that always reads the solution's basis state scores 1,
    whatever sign or phase the solution carries there."""
    x = np.array([0.0, -1j])
    assert direct_fidelity(_flagged([0.0, 1.0]), x, shots=64, seed=0) == 1.0


def test_direct_fidelity_uniform_closed_form():
    """Every shot reads |0>, so the overlap is sqrt(1) * |x_0| = 1 / sqrt(2)."""
    x = np.array([1.0, 1.0]) / math.sqrt(2)
    estimate = direct_fidelity(_flagged([1.0, 0.0]), x, shots=64, seed=0)
    assert estimate == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_direct_fidelity_insufficient_shots():
    # the ancilla stays |0>, so conditioning discards everything
    branches = _flagged(np.array([1.0, 1.0]) / math.sqrt(2), ancilla_bit=0)
    with pytest.raises(InsufficientShotsError):
        direct_fidelity(branches, np.array([1.0, 0.0]), shots=64, seed=0)


def test_direct_mode_ranks_variants_like_exact_mode():
    """Cross-mode comparison: mean errors over a set rank variants alike."""
    lams = [n / 24 for n in range(3, 12)]
    exact_errors = {v: [] for v in ("canonical", "hybrid", "enhanced")}
    direct_errors = {v: [] for v in ("canonical", "hybrid", "enhanced")}
    for lam in lams:
        qlsp = generate_n2(lam)
        for variant in exact_errors:
            bits = 5 if variant == "enhanced" else 3
            base = dict(
                variant=variant,
                preprocess_bits=bits,
                t0_mode="explicit",
                t0_value=ON_GRID_T0,
            )
            exact_errors[variant].append(run(qlsp, RunConfig(**base)).error)
            direct_errors[variant].append(
                run(
                    qlsp,
                    RunConfig(**base, readout="direct", shots=200_000, seed=31),
                ).error
            )
    exact_means = {v: np.mean(errs) for v, errs in exact_errors.items()}
    direct_means = {v: np.mean(errs) for v, errs in direct_errors.items()}
    assert sorted(exact_means, key=exact_means.get) == sorted(
        direct_means, key=direct_means.get
    )


def test_degenerate_run_error():
    """A time scale that rounds every eigenvalue to zero leaves no amplitude
    on the ancilla's |1> branch."""
    qlsp = generate_n2(0.25)
    config = RunConfig(variant="canonical", t0_mode="explicit", t0_value=1e-7)
    with pytest.raises(DegenerateRunError):
        run(qlsp, config)


def test_projection_fidelity_pure_state():
    """A pure register state scores its squared overlap with the target."""
    branches = _flagged([0.6, 0.8])
    assert projection_fidelity(branches, np.array([0.6, 0.8])) == pytest.approx(1.0, abs=1e-12)
    assert projection_fidelity(branches, np.array([1.0, 0.0])) == pytest.approx(0.36, abs=1e-12)


def test_signed_grid_aligned_run_is_exact():
    """A signed spectrum sitting exactly on the two's-complement grid."""
    rng = np.random.default_rng(3)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    q = q * np.sign(np.diag(r))
    t0 = 6 * math.pi
    eigs = np.array([-1.0, 2 / 3])  # grid values -3 and 2 at t0 = 6 pi
    matrix = q @ np.diag(eigs) @ q.T
    b = (q[:, 0] * 0.8 + q[:, 1] * 0.6)
    qlsp = QLSP(matrix, b)
    result = run(qlsp, RunConfig(variant="canonical", t0_mode="explicit", t0_value=t0))
    assert result.error < 1e-6


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(variant="mystery")
    with pytest.raises(ValueError):
        RunConfig(variant="hybrid", clock_bits=3, preprocess_bits=5)
    with pytest.raises(ValueError):
        RunConfig(variant="enhanced", clock_bits=3, preprocess_bits=3)
    with pytest.raises(ValueError):
        RunConfig(t0_mode="explicit")
    with pytest.raises(ValueError):
        RunConfig(readout="telepathy")
    with pytest.raises(ValueError):
        RunConfig(variant="canonical", t0_mode="iterative")
    for bad in (math.nan, math.inf, -1.0, 0.0, True, "5"):
        with pytest.raises(ValueError, match="t0_value"):
            RunConfig(t0_mode="explicit", t0_value=bad)
    for bad in (0.1, "p=0.1"):
        with pytest.raises(ValueError, match="noise"):
            RunConfig(noise=bad)
    # every variant checks the enhanced planner's names, so none runs with a bad one
    for variant in ("canonical", "hybrid", "enhanced"):
        with pytest.raises(ValueError, match="unknown angle policy 'bogus'"):
            RunConfig(variant=variant, angle_policy="bogus")
        with pytest.raises(ValueError, match="unknown alpha model 'bogus'"):
            RunConfig(variant=variant, alpha_model="bogus")


@st.composite
def _spec_case(draw):
    """(spec, variant, config): an ``ExperimentSpec`` of one variant with
    random valid run settings, and the ``RunConfig`` they give, built by hand."""
    default = RunConfig()
    source = draw(st.sampled_from(["n2-sweep", "n2-set", "n4-set", "file"]))
    variant = draw(st.sampled_from(pipeline.VARIANTS))

    def optional(values):
        return draw(st.none() | values)

    clock_bits = optional(st.integers(1, 6))
    k = default.clock_bits if clock_bits is None else clock_bits
    # only enhanced rows read preprocess_bits, so the others take any value
    lowest = k + 1 if variant == "enhanced" else 1
    t0_mode = draw(st.sampled_from([None, "fixed", "iterative", "explicit"]))
    settings = dict(
        clock_bits=clock_bits,
        preprocess_bits=optional(st.integers(lowest, 12)),
        t0_mode=t0_mode,
        t0_value=draw(st.floats(1e-3, 1e3)) if t0_mode == "explicit" else None,
        angle_policy=optional(st.sampled_from(ANGLE_POLICIES)),
        alpha_model=optional(st.sampled_from(ALPHA_MODELS)),
        readout=optional(st.sampled_from(pipeline.READOUTS)),
        shots=optional(st.integers(1, 2**20)),
        seed=optional(st.integers(0, 2**31)),
    )
    noise = NoiseSpec(draw(st.just(0.0) | st.floats(0.0, 1.0)), draw(st.integers(0, 2**31)))
    spec = ExperimentSpec(
        source=source,
        path="problem.json" if source == "file" else None,
        variants=[variant],
        noise_p=noise.per_gate_pauli_probability,
        noise_seed=noise.rng_seed,
        **settings,
    )

    def given(name):  # None leaves RunConfig's default
        return getattr(default, name) if settings[name] is None else settings[name]

    t0_value = settings["t0_value"]
    if t0_mode is None or (t0_mode == "iterative" and variant == "canonical"):
        # the per-source baseline: 18 pi on the two-dimensional families
        t0_mode, t0_value = ("explicit", ON_GRID_T0) if source.startswith("n2") else ("fixed", None)
    config = RunConfig(
        variant=variant,
        clock_bits=k,
        preprocess_bits=settings["preprocess_bits"] if variant == "enhanced" else None,
        t0_mode=t0_mode,
        t0_value=t0_value,
        angle_policy=given("angle_policy"),
        alpha_model=given("alpha_model"),
        readout=given("readout"),
        shots=given("shots"),
        seed=given("seed"),
        noise=noise if noise.per_gate_pauli_probability > 0 else None,
    )
    return spec, variant, config


@settings(derandomize=True, deadline=None)
@given(_spec_case())
def test_a_spec_passes_every_run_setting_it_shares_with_run_config(case):
    spec, variant, config = case
    assert _run_config(spec, variant) == config


def test_run_config_is_frozen():
    """A field set after construction would skip every check; ``replace`` reruns them."""
    config = RunConfig(readout="swap")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.readout = "bogus"
    with pytest.raises(ValueError, match="unknown readout 'bogus'"):
        dataclasses.replace(config, readout="bogus")
    assert dataclasses.replace(config, variant="hybrid").preprocess_bits == config.clock_bits


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(t0_mode="fixed", t0_value=5.0), "t0_value"),
        (dict(variant="hybrid", t0_mode="iterative", t0_value=5.0), "t0_value"),
    ],
    ids=["value-fixed", "value-iterative"],
)
def test_run_config_rejects_a_time_scale_its_mode_ignores(fields, name):
    with pytest.raises(ValueError, match=f"{name} is only used with t0_mode"):
        RunConfig(**fields)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"variant": "canonical", "preprocess_bits": -3}, "preprocess_bits"),
        ({"variant": "canonical", "preprocess_bits": 0}, "preprocess_bits"),
        ({"variant": "hybrid", "preprocess_bits": 0}, "preprocess_bits"),
        ({"variant": "enhanced", "preprocess_bits": 0}, "preprocess_bits"),
        ({"variant": "hybrid", "clock_bits": 0}, "clock_bits"),
        # no 2x2 problem fits: 1 + 19 + 1 solver qubits
        ({"variant": "canonical", "clock_bits": 19}, "clock_bits"),
        ({"variant": "hybrid", "clock_bits": 21}, "clock_bits"),
        # 1 + 20 preprocessing qubits
        ({"variant": "enhanced", "preprocess_bits": 20}, "preprocess_bits"),
        # the t0 search's fine grid: 1 + 17 + 3 qubits
        ({"variant": "hybrid", "clock_bits": 17, "t0_mode": "iterative"}, "clock_bits"),
        # canonical rows report l = k, which the CSV's bound columns read
        ({"variant": "canonical", "preprocess_bits": 25}, "preprocess_bits = clock_bits"),
    ],
)
def test_run_config_rejects_bad_and_unfittable_widths(fields, name):
    with pytest.raises(ValueError, match=name):
        RunConfig(**fields)


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(variant="canonical", clock_bits=18),
        RunConfig(variant="enhanced", preprocess_bits=19),
        RunConfig(variant="hybrid", clock_bits=16, t0_mode="iterative"),
    ],
    ids=["solver", "preprocessing", "t0-search"],
)
def test_run_checks_the_qubit_budget_before_any_work(monkeypatch, config):
    """Each config fits a 2x2 problem but needs one qubit too many on a 4x4 one.
    Its swap-readout twin needs the same widths: that readout reads the
    solver state."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the qubit budget was checked")

    for name in ("_searched_t0", "fixed_t0", "plan_canonical", "run_preprocessing", "assemble_hhl"):
        monkeypatch.setattr(pipeline, name, forbidden)
    with pytest.raises(CapacityError, match=f"{pipeline.MAX_QUBITS + 1} qubits"):
        run(generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7), config)
    swap = dataclasses.replace(config, readout="swap")
    for nb in (1, 2, 3):
        assert _widths(swap, nb) == _widths(config, nb)


@pytest.mark.parametrize(
    "field, value",
    [
        ("preprocess_shots", 0),
        ("preprocess_shots", -3),
        ("seed", -1),
        ("preprocess_seed", -1),
        ("seed", None),
        ("preprocess_seed", None),
        ("shots", 2.5),
        ("shots", True),
        ("shots", None),
        ("preprocess_shots", 1.5),
        ("clock_bits", 2.5),
        ("clock_bits", True),
        ("seed", 1.5),
        ("seed", False),
        ("preprocess_seed", np.float64(2.0)),
    ],
)
def test_run_config_rejects_bad_shots_and_seeds(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(variant="hybrid", **{field: value})


def test_enhanced_defaults_resolve_bits():
    config = RunConfig(variant="enhanced")
    assert config.preprocess_bits == 5
    config = RunConfig(variant="hybrid")
    assert config.preprocess_bits == config.clock_bits


def test_sampled_preprocess_config():
    config = RunConfig(
        variant="enhanced",
        preprocess_bits=5,
        preprocess_shots=2048,
        preprocess_seed=9,
        t0_mode="explicit",
        t0_value=ON_GRID_T0,
    )
    result = run(generate_n2(1 / 3), config)
    counts = sorted(round(e.weight**2 * 2048) for e in result.estimates.entries)
    assert sum(counts) == 2048 and counts[0] < 1024  # shot frequencies, not exact halves
    assert result.error < 0.05  # sampled preprocessing on an on-grid instance


def test_noise_monotone_degradation_small():
    """Mean error over seeds does not drop when noise is injected."""
    lams = [n / 24 for n in (5, 8, 11)]
    clean = []
    noisy = []
    for lam in lams:
        qlsp = generate_n2(lam)
        clean.append(
            run(qlsp, RunConfig(variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0)).error
        )
        for seed in range(8):
            noisy.append(
                run(
                    qlsp,
                    RunConfig(
                        variant="canonical",
                        t0_mode="explicit",
                        t0_value=ON_GRID_T0,
                        noise=NoiseSpec(0.05, rng_seed=seed),
                    ),
                ).error
            )
    spread = np.std(noisy) / math.sqrt(len(noisy))
    assert np.mean(noisy) >= np.mean(clean) - 1.96 * spread


def test_gate_counts_reported_pre_noise():
    qlsp = generate_n2(0.3)
    base = run(qlsp, RunConfig(variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0))
    noisy = run(
        qlsp,
        RunConfig(
            variant="canonical",
            t0_mode="explicit",
            t0_value=ON_GRID_T0,
            noise=NoiseSpec(1.0, rng_seed=1),
        ),
    )
    assert noisy.gate_count == base.gate_count


def _clear_memos():
    pipeline._qpe_blocks.cache_clear()
    pipeline._searched_t0.cache_clear()
    preprocess.prepare_b.cache_clear()


def _outputs(result):
    return (
        result.fidelity,
        result.success_probability,
        result.t0,
        result.plan,
        result.estimates,
        result.gate_count,
        result.two_qubit_count,
        result.depth,
    )


def _variant_configs():
    return {
        "canonical": RunConfig(variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0),
        "hybrid": RunConfig(variant="hybrid", t0_mode="iterative"),
        "enhanced": RunConfig(variant="enhanced", t0_mode="iterative"),
    }


def test_interleaved_problems_give_the_results_of_lone_ops():
    configs = _variant_configs()
    problems = {"A": generate_n2(0.13), "B": generate_n2(0.31)}
    order = [
        ("A", "canonical"),
        ("B", "hybrid"),
        ("A", "enhanced"),
        ("B", "canonical"),
        ("A", "hybrid"),
        ("B", "enhanced"),
        ("A", "canonical"),
        ("A", "enhanced"),
    ]
    alone = {}
    for name, variant in set(order):
        _clear_memos()
        alone[name, variant] = _outputs(run(problems[name], configs[variant]))
    _clear_memos()
    for name, variant in order:
        assert _outputs(run(problems[name], configs[variant])) == alone[name, variant]


def test_hybrid_and_enhanced_share_one_search_per_problem(monkeypatch):
    calls = []
    search = pipeline.iterative_t0

    def counted(qlsp, *args, **kwargs):
        calls.append(qlsp)
        return search(qlsp, *args, **kwargs)

    monkeypatch.setattr(pipeline, "iterative_t0", counted)
    _clear_memos()
    configs = _variant_configs()
    first, second = generate_n2(0.2), generate_n2(0.4)
    for qlsp in (first, second):
        hybrid = run(qlsp, configs["hybrid"])
        enhanced = run(qlsp, configs["enhanced"])
        assert hybrid.t0 == enhanced.t0
    assert calls == [first, second]


def test_a_failed_search_is_not_cached(monkeypatch):
    calls = []

    def aliasing(qlsp, *args, **kwargs):
        calls.append(qlsp)
        raise AliasingError("verification run still decodes a nonzero estimate")

    monkeypatch.setattr(pipeline, "iterative_t0", aliasing)
    _clear_memos()
    qlsp = generate_n2(0.2)
    configs = _variant_configs()
    with pytest.raises(AliasingError):
        run(qlsp, configs["hybrid"])
    with pytest.raises(AliasingError):
        run(qlsp, configs["enhanced"])
    assert calls == [qlsp, qlsp]


@pytest.mark.parametrize("t0_mode, scales", [(None, 1), ("iterative", 2)])
def test_run_experiment_builds_each_qpe_prefix_once(monkeypatch, tmp_path, t0_mode, scales):
    built = []
    build = preprocess.build_qpe_circuit

    def counted(qlsp, bit_width, t0):
        built.append((id(qlsp), bit_width, t0))
        return build(qlsp, bit_width, t0)

    monkeypatch.setattr(preprocess, "build_qpe_circuit", counted)  # what qpe_stages calls
    _clear_memos()
    spec = ExperimentSpec(
        source="n2-set", lambdas=[0.2, 0.4], t0_mode=t0_mode, out=str(tmp_path / "x.csv")
    )
    summary = run_experiment(spec)
    assert summary["rows"] == 6
    assert len(built) == len(set(built)) == 2 * scales
