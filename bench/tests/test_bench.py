"""Tests of the benchmark itself: exact counts, wrapper coverage, checks.

    python3 -m pytest bench/tests -q
"""
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

q = run.import_qlslab()

# Wrapped functions each workload must reach. qpe_histogram runs only for
# shot-sampled preprocessing, which no workload uses.
UNUSED = {"preprocess.qpe_histogram"}
COMMON = {
    "qlsp.evolution_unitary",
    "qlsp.classical_solution",
    "sim.apply_circuit",
    "sim.postselect",
    "sim.gate_report",
    "sim.marginal_probabilities",
    "sim.state_preparation_matrix",
    "preprocess.run_preprocessing",
    "preprocess.build_qpe_circuit",
    "preprocess.qpe_gates",
    "preprocess.qpe_grid_probabilities",
    "preprocess.estimates_from_probabilities",
    "inversion.plan_canonical",
    "inversion.plan_hybrid",
    "inversion.plan_enhanced",
    "inversion.build_inversion_circuit",
    "pipeline.run",
    "pipeline.assemble_hhl",
}
USES = {
    "n2-sweep": COMMON | {"qlsp.generate_n2", "pipeline.projection_fidelity"},
    "n2-iterative": COMMON
    | {"qlsp.generate_n2", "pipeline.projection_fidelity", "preprocess.iterative_t0"},
    "n4-noisy-swap": COMMON
    | {
        "qlsp.generate_n4",
        "sim.sample",
        "sim.inject_noise",
        "preprocess.fixed_t0",
        "pipeline.swap_test_fidelity",
    },
}


def _small(name, problems=6):
    """The workload at its default seed, cut to its first problems."""
    workload = workloads.make_workload(name, workloads.DEFAULT_SEED, q.pipeline, q.sim)
    ops = tuple(op for op in workload.ops if op[0] < problems)
    return dataclasses.replace(workload, ops=ops)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_between_traced_batches(name):
    workload = _small(name)
    first, batch = run.traced_batch(q, workload, tracing.Tracer())
    second, _ = run.traced_batch(q, workload, tracing.Tracer())
    for count in run.EXACT_COUNTS:
        assert first[count] == second[count], count
    assert first["sim.gates"] > 0 and first["inversion.rotations"] > 0
    assert not any(isinstance(o, Exception) for o in batch.outcomes)


def test_every_wrapped_function_is_reached():
    assert set().union(*USES.values()) == set(tracing.NAMES) - UNUSED
    for name, expected in USES.items():
        summary, _ = run.traced_batch(q, _small(name, problems=2), tracing.Tracer())
        missing = sorted(f for f in expected if summary["calls"][f] == 0)
        assert not missing, f"{name} never called {missing}"


def test_tracer_uninstall_restores_every_binding():
    before = q.pipeline.apply_circuit, q.preprocess.qpe_gates, q.pipeline.run
    tracer = tracing.Tracer()
    tracer.install()
    assert q.pipeline.apply_circuit is not before[0]
    assert q.preprocess.qpe_gates.__wrapped__ is before[1]
    tracer.uninstall()
    assert (q.pipeline.apply_circuit, q.preprocess.qpe_gates, q.pipeline.run) == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    run_index = tracing.NAMES.index("pipeline.run")
    apply_index = tracing.NAMES.index("sim.apply_circuit")
    tracer.spans.extend([[run_index, 0.0, 10.0, -1, 0], [apply_index, 2.0, 6.0, 0, 0]])
    summary = tracer.summarize(0, 2, op_seconds=10.0)
    assert summary["pipeline.self_s"] == pytest.approx(6.0)
    assert summary["sim.apply_s"] == pytest.approx(4.0)
    assert summary["trace.coverage"] == pytest.approx(1.0)


def test_closed_form_check_rejects_a_perturbed_result():
    workload = _small("n2-sweep", problems=3)
    problems = workload.build_problems(q.qlsp)
    for p, config in workload.ops:
        result = q.pipeline.run(problems[p], config)
        assert checks.check_noiseless(problems[p], result) is None
        wrong = dataclasses.replace(result, fidelity=result.fidelity + 1e-7)
        assert checks.check_noiseless(problems[p], wrong) is not None


def test_cli_default_shots_failure_is_counted_and_workload_shots_complete():
    workload = workloads.make_workload("n4-noisy-swap", 1, q.pipeline, q.sim)
    problems = workload.build_problems(q.qlsp)
    canonical = workload.ops[0][1]
    assert canonical.variant == "canonical" and canonical.shots == workloads.N4_SHOTS
    assert checks.check_noisy(q.pipeline.run(problems[0], canonical)) is None
    cli_shots = dataclasses.replace(canonical, shots=4096)
    with pytest.raises(q.errors.InsufficientShotsError):
        q.pipeline.run(problems[0], cli_shots)
    small = dataclasses.replace(workload, ops=((0, cli_shots),))
    batch = run.run_batch(q.pipeline, problems, small.ops, q.errors.QlsLabError)
    verifier = run.Verifier(small, problems, batch.outcomes)
    assert verifier.add(batch.outcomes) == {"InsufficientShotsError": 1}


def test_default_seed_is_the_documented_sweep_grid():
    workload = workloads.make_workload("n2-sweep", workloads.DEFAULT_SEED, q.pipeline, q.sim)
    lambdas = [args[0] for args in workload.problem_args]
    assert len(lambdas) == 99 and lambdas[0] == 0.005
    assert lambdas[-1] == pytest.approx(0.495, abs=1e-15)
    other = workloads.make_workload("n2-sweep", 1, q.pipeline, q.sim)
    assert other.problem_args != workload.problem_args
    again = workloads.make_workload("n2-sweep", 1, q.pipeline, q.sim)
    assert other.problem_args == again.problem_args


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n2-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
