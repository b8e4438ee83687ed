"""Solver pipeline tests: assembly, readout modes, run contracts."""
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_preprocess import random_problem

from qlslab import pipeline
from qlslab.cli import PAPER_N4_EIGENVALUES, ExperimentSpec, run_experiment
from qlslab.errors import (
    AliasingError,
    CapacityError,
    DegenerateRunError,
    EmptyPlanError,
    InsufficientShotsError,
)
from qlslab.inversion import InversionPlan, plan_canonical
from qlslab.pipeline import (
    RunConfig,
    _swap_test_state,
    assemble_hhl,
    direct_distribution_error,
    error_from_fidelity,
    projection_fidelity,
    run,
    swap_test_fidelity,
)
from qlslab.preprocess import fixed_t0, qpe_gates
from qlslab.qlsp import QLSP, classical_solution, generate_n2, generate_n4
from qlslab.sim import (
    Circuit,
    GateKind,
    NoiseSpec,
    StateVector,
    apply_circuit,
    circuit_matrix,
    inject_noise,
    inverted_gates,
    marginal_probabilities,
    postselect,
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
    """The closed-form QPE block and uncompute around the simulated inversion
    give the state, fidelity and success probability of the whole circuit
    simulated gate by gate."""
    qlsp, config = case
    try:
        result = run(qlsp, config)
    except (EmptyPlanError, DegenerateRunError):
        reject()
    k = config.clock_bits
    circuit = assemble_hhl(qlsp, k, result.t0, result.plan)
    dense = apply_circuit(StateVector.zero(circuit.num_qubits), circuit)
    closed = pipeline._noiseless_state(qlsp, k, result.t0, circuit)
    assert np.max(np.abs(closed.amplitudes - dense.amplitudes)) < 1e-12
    nb = qlsp.num_qubits
    post, success = postselect(dense, nb + k, 1)
    x = classical_solution(qlsp).state_x
    fidelity = projection_fidelity(post, range(nb), x) ** 2
    assert abs(result.success_probability - success) < 1e-12
    assert abs(result.fidelity - fidelity) < 1e-12


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
    """Register state on the low qubits with the conditioning ancilla above it."""
    register = np.asarray(register_amplitudes, dtype=complex)
    n = register.shape[0].bit_length() - 1
    state = StateVector(n + 1, np.kron(np.eye(2)[ancilla_bit], register))
    return state, tuple(range(n)), n


def test_swap_test_identical_states():
    amplitudes = np.array([0.5, 0.5, 0.5, 0.5])
    state, register, ancilla = _flagged(amplitudes)
    estimate = swap_test_fidelity(state, register, ancilla, amplitudes, shots=4096, seed=1)
    assert estimate == pytest.approx(1.0, abs=1e-12)


def test_swap_test_orthogonal_states():
    state, register, ancilla = _flagged([1.0, 0.0])
    estimate = swap_test_fidelity(
        state, register, ancilla, np.array([0.0, 1.0]), shots=8192, seed=2
    )
    assert estimate == pytest.approx(0.0, abs=0.08)


def test_swap_test_known_overlap():
    """Overlap 0.8 gives P(st_a = 1) = 0.18 exactly."""
    b = np.array([0.8, 0.6])
    state, register, ancilla = _flagged([1.0, 0.0])
    out = _swap_test_state(state, register, b)
    assert out.num_qubits == state.num_qubits + len(register) + 1
    p_one = marginal_probabilities(out, (out.num_qubits - 1,))[1]
    assert p_one == pytest.approx((1 - 0.8**2) / 2, abs=1e-12)
    estimate = swap_test_fidelity(state, register, ancilla, b, shots=4096, seed=3)
    sigma = math.sqrt(0.18 * 0.82 / 4096)
    assert abs(estimate**2 - 0.64) <= 2 * 4 * sigma


def test_swap_readout_matches_full_circuit_reference():
    """Appending the test register to the simulated state equals simulating
    the noisy solver and the swap test as one wider circuit."""
    qlsp = generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7)
    t0 = fixed_t0(1.0, 3, signed=True)
    circuit = assemble_hhl(qlsp, 3, t0, plan_canonical(3, t0, signed_mode=True))
    executed = inject_noise(circuit, NoiseSpec(0.05, 3))
    assert len(executed) > len(circuit)  # at least one Pauli error was drawn
    breg = tuple(range(qlsp.num_qubits))
    ancilla = qlsp.num_qubits + 3
    x = classical_solution(qlsp).state_x

    start = executed.num_qubits
    st = tuple(range(start, start + len(breg)))
    st_a = start + len(breg)
    reference = Circuit(st_a + 1)
    reference.extend(executed.gates)
    reference.unitary(state_preparation_matrix(x), st)
    reference.h(st_a)
    for qb, qs in zip(breg, st):
        reference.swap(qb, qs, controls=((st_a, 1),))
    reference.h(st_a)
    want = marginal_probabilities(
        apply_circuit(StateVector.zero(reference.num_qubits), reference), (ancilla, st_a)
    )

    state = apply_circuit(StateVector.zero(executed.num_qubits), executed)
    tested = _swap_test_state(state, breg, x)
    got = marginal_probabilities(tested, (ancilla, tested.num_qubits - 1))
    assert np.max(np.abs(got - want)) < 1e-12


def test_swap_readout_simulates_solver_once(monkeypatch):
    """The solver's simulation carries only the inversion rotations (its QPE
    block and uncompute are closed-form), and the readout's only the
    swap-test gates."""
    gate_counts = []

    def counting_apply(state, circuit):
        gate_counts.append(len(circuit))
        return apply_circuit(state, circuit)

    monkeypatch.setattr(pipeline, "apply_circuit", counting_apply)
    qlsp = generate_n2(0.3)
    config = RunConfig(
        variant="canonical", t0_mode="explicit", t0_value=ON_GRID_T0, readout="swap"
    )
    result = run(qlsp, config)
    assert gate_counts == [len(result.plan.rotations), qlsp.num_qubits + 3]


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
    state, register, ancilla = _flagged(np.array([1.0, 1.0]) / math.sqrt(2), ancilla_bit=0)
    with pytest.raises(InsufficientShotsError):
        swap_test_fidelity(state, register, ancilla, np.array([1.0, 0.0]), shots=64, seed=0)


def test_direct_distribution_error_exact_distribution():
    # sqrt(2 (1 - f)) amplifies float roundoff in f to ~1e-8; that is zero here
    x = np.array([3.0, 1.0]) / math.sqrt(10.0)
    counts = np.array([9000, 1000])
    assert direct_distribution_error(counts, x) == pytest.approx(0.0, abs=1e-6)


def test_direct_distribution_error_uniform_closed_form():
    x = np.array([1.0, 0.0])
    counts = np.array([500, 500])
    expected = math.sqrt(2 * (1 - 1 / math.sqrt(2)))
    assert direct_distribution_error(counts, x) == pytest.approx(expected, abs=1e-12)


def test_direct_distribution_error_validation():
    # no counts, and a count for basis state 2 of a one-qubit register
    with pytest.raises(ValueError, match="do not match"):
        direct_distribution_error([], np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="do not match"):
        direct_distribution_error([0, 0, 4], np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "counts, message",
    [([0, 0], "no shots"), ([-5, 10], "non-negative")],
    ids=["all-zero", "negative"],
)
def test_direct_distribution_error_rejects_zero_and_negative_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        direct_distribution_error(np.array(counts), np.array([1.0, 0.0]))


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
    state = StateVector(2, np.array([0.6, 0.8, 0.0, 0.0]))
    target = np.array([0.6, 0.8])
    assert projection_fidelity(state, (0,), target) == pytest.approx(
        abs(0.6 * 0.6 + 0.8 * 0.8), abs=1e-12
    )


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
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="t0_value"):
            RunConfig(t0_mode="explicit", t0_value=bad)
        with pytest.raises(ValueError, match="t0_lambda_max"):
            RunConfig(t0_lambda_max=bad)


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(t0_mode="fixed", t0_value=5.0), "t0_value"),
        (dict(variant="hybrid", t0_mode="iterative", t0_value=5.0), "t0_value"),
        (dict(variant="hybrid", t0_mode="iterative", t0_lambda_max=0.5), "t0_lambda_max"),
        (dict(t0_mode="explicit", t0_value=5.0, t0_lambda_max=0.5), "t0_lambda_max"),
    ],
    ids=["value-fixed", "value-iterative", "lambda-max-iterative", "lambda-max-explicit"],
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
        # the swap test's register and control: 1 + 17 + 1 + 1 + 1 qubits
        ({"variant": "canonical", "clock_bits": 17, "readout": "swap"}, "clock_bits"),
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
        RunConfig(variant="canonical", clock_bits=15, readout="swap"),
    ],
    ids=["solver", "preprocessing", "t0-search", "swap-test"],
)
def test_run_checks_the_qubit_budget_before_any_work(monkeypatch, config):
    """Each config fits a 2x2 problem but needs one qubit too many on a 4x4 one."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the qubit budget was checked")

    for name in ("_resolve_t0", "plan_canonical", "run_preprocessing", "assemble_hhl"):
        monkeypatch.setattr(pipeline, name, forbidden)
    with pytest.raises(CapacityError, match=f"{pipeline.MAX_QUBITS + 1} qubits"):
        run(generate_n4(PAPER_N4_EIGENVALUES, (0, 1), 7), config)


@pytest.mark.parametrize(
    "field, value",
    [("preprocess_shots", 0), ("preprocess_shots", -3), ("seed", -1), ("preprocess_seed", -1)],
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
    build = pipeline.build_qpe_circuit

    def counted(qlsp, bit_width, t0):
        built.append((id(qlsp), bit_width, t0))
        return build(qlsp, bit_width, t0)

    monkeypatch.setattr(pipeline, "build_qpe_circuit", counted)
    _clear_memos()
    spec = ExperimentSpec(
        source="n2-set", lambdas=[0.2, 0.4], t0_mode=t0_mode, out=str(tmp_path / "x.csv")
    )
    summary = run_experiment(spec)
    assert summary["rows"] == 6
    assert len(built) == len(set(built)) == 2 * scales
