"""qlslab benchmark: three recipe workloads, per-op latency, per-layer counts.

    python3 bench/run.py --workload n2-sweep --seed 0 --seconds 30 --trace 0

One op is one ``qlslab.pipeline.run`` call; one batch is every op of a
workload, in CLI row order, run one at a time in this single process. With
``--trace 0`` the run times whole batches for ``--seconds`` seconds and
reports the end-to-end metrics; set-up time comes from fresh processes.
With ``--trace 1`` it alternates untraced and traced batches and reports the
per-layer metrics from the traced ones. Every op's output is checked (see
``checks.py``); failures are counted per op and never stop the run.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is the result as one JSON object. A record with the run
environment goes to ``bench/out/``, and the traced run's spans to
``bench/out/spans-<workload>.jsonl``.
"""
import os

# Pin BLAS/OpenMP to one thread before numpy is imported here or in a child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
WARMUP_PROBLEMS = 2  # untimed ops on the first problems before timing
MIN_BATCHES = 3
MIN_SAMPLES = 100  # so that at least ten op samples lie beyond p90
MIN_TRACED_BATCHES = 2
# Timings are reported in reference seconds: wall seconds scaled by the
# host's speed, measured by probe_host() every PROBE_INTERVAL_S of op time,
# relative to a probe time of REFERENCE_PROBE_S. Back-to-back processes on a
# shared 2-core host ran the same batch 0.72-1.11 s apart in wall time.
PROBE_LOOPS = 7
PROBE_INTERVAL_S = 0.25
REFERENCE_PROBE_S = 1.0e-3
# counts that must repeat exactly between traced batches
EXACT_COUNTS = (
    "sim.gates",
    "sim.apply_calls",
    "sim.amp_updates",
    "sim.max_qubits",
    "preprocess.qpe_sims",
    "preprocess.qpe_blocks",
    "preprocess.t0_searches",
    "inversion.rotations",
    "inversion.clamp_events",
    "qlsp.evolution_unitary_calls",
    "calls",
)
# Error types counted on their own; any other qlslab error counts as "other",
# and ops that complete but fail the output check count as "check".
FAILURE_KINDS = (
    "AliasingError",
    "CapacityError",
    "DegenerateRunError",
    "EmptyEstimateError",
    "EmptyPlanError",
    "InsufficientShotsError",
    "other",
    "check",
)

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_qlslab():
    """The qlslab package from this checkout's sources, never an installed one."""
    if not (SRC / "qlslab" / "__init__.py").is_file():
        raise SystemExit(f"error: qlslab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlslab.errors
    import qlslab.pipeline
    import qlslab.qlsp
    import qlslab.sim

    return qlslab


def probe_host() -> float:
    """Best of three timings of a fixed gate-application loop on a 6-qubit
    state, written like the simulator's inner loop but without qlslab.

    The loop mixes interpreter work and small numpy calls, as the ops do, so
    changes in its time track the host's speed (other tenants, clock
    changes), not the program. The best of three drops one-off interruptions.
    """
    index = numpy.arange(64)
    gate = numpy.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        vec = numpy.ones(64, dtype=complex) / 8.0
        for _ in range(PROBE_LOOPS):
            for qubit in range(6):
                base = index[((index >> qubit) & 1) == 0]
                pairs = numpy.stack([base, base + (1 << qubit)])
                out = vec.copy()
                out[pairs] = numpy.tensordot(gate, vec[pairs], axes=(1, 0))
                vec = out
        best = min(best, time.perf_counter() - start)
    return best


def environment() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            revision = done.stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Reference seconds of one fresh process's set-up (see setup_probe.py)."""
    before = probe_host()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    after = probe_host()
    wall = float(done.stdout.strip().splitlines()[-1])
    return wall * 2.0 * REFERENCE_PROBE_S / (before + after)


class Batch(NamedTuple):
    latencies: list  # wall seconds per op
    scaled: list  # reference seconds per op
    outcomes: list  # RunResult, or the qlslab error the op raised
    probes: list  # host probe seconds


def run_batch(pipeline, problems, ops, error_type, tracer=None) -> Batch:
    """Run every op once, in order, one at a time.

    The host is probed before the first op, after the last, and whenever
    PROBE_INTERVAL_S of op time has passed. An op's reference seconds are its
    wall seconds times REFERENCE_PROBE_S over the mean of the two probes
    around it.
    """
    latencies, outcomes = [], []
    probes, marks, since = [probe_host()], [0], 0.0
    clock = time.perf_counter
    for index, (p, config) in enumerate(ops):
        if since >= PROBE_INTERVAL_S:
            probes.append(probe_host())
            marks.append(index)
            since = 0.0
        if tracer is not None:
            tracer.op = index
        begin = clock()
        try:
            outcome = pipeline.run(problems[p], config)
        except error_type as exc:
            outcome = exc
        latencies.append(clock() - begin)
        since += latencies[-1]
        outcomes.append(outcome)
    if tracer is not None:
        tracer.op = -1
    probes.append(probe_host())
    marks.append(len(ops))
    scaled = []
    for s in range(len(marks) - 1):
        factor = 2.0 * REFERENCE_PROBE_S / (probes[s] + probes[s + 1])
        scaled.extend(v * factor for v in latencies[marks[s] : marks[s + 1]])
    return Batch(latencies, scaled, outcomes, probes)


class Verifier:
    """Checks each batch against the first one and counts failures by kind."""

    def __init__(self, workload, problems, reference):
        self.reference = [checks.fingerprint(o) for o in reference]
        self.reasons, self.faults = checks.check_batch(workload, problems, reference)
        self.failures = Counter()
        self.attempted = 0
        self.means = checks.mean_errors(workload, reference)

    def add(self, outcomes) -> Counter:
        """Count one batch's failures; returns them by kind."""
        batch = Counter()
        for index, outcome in enumerate(outcomes):
            if checks.fingerprint(outcome) != self.reference[index]:
                batch["check"] += 1
                self.faults.append(f"op {index} did not repeat the first batch's result")
            elif isinstance(outcome, Exception):
                name = type(outcome).__name__
                batch[name if name in FAILURE_KINDS else "other"] += 1
            elif self.reasons[index] is not None:
                batch["check"] += 1
        self.failures.update(batch)
        self.attempted += len(outcomes)
        return batch

    @property
    def correct(self) -> bool:
        return not self.faults and all(r is None for r in self.reasons)

    def problems_found(self) -> list:
        wrong = [f"op {i}: {r}" for i, r in enumerate(self.reasons) if r is not None]
        return (wrong + self.faults)[:20]


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def timed_run(q, workload, args):
    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    problems = workload.build_problems(q.qlsp)
    warmup = [op for op in workload.ops if op[0] < WARMUP_PROBLEMS]
    run_batch(q.pipeline, problems, warmup, q.errors.QlsLabError)

    batches, verifier = [], None
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or len(batches) < MIN_BATCHES
        or len(batches) * len(workload.ops) < MIN_SAMPLES
    ):
        batch = run_batch(q.pipeline, problems, workload.ops, q.errors.QlsLabError)
        batches.append(batch)
        if verifier is None:
            verifier = Verifier(workload, problems, batch.outcomes)
        verifier.add(batch.outcomes)
        del batch.outcomes[:]  # keep only the first batch's results alive

    scaled = [v for b in batches for v in b.scaled]
    wall = [v for b in batches for v in b.latencies]
    metrics = {
        "batch_s": statistics.median(sum(b.scaled) for b in batches),
        "op_ms_p50": 1e3 * statistics.median(scaled),
        "op_ms_p90": 1e3 * p90(scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "batches": len(batches),
        "op_samples": len(scaled),
        "op_samples_beyond_p90": sum(1 for v in scaled if 1e3 * v > metrics["op_ms_p90"]),
        "wall_batch_s": [sum(b.latencies) for b in batches],
        "wall_op_ms_p50": 1e3 * statistics.median(wall),
        "wall_op_ms_p90": 1e3 * p90(wall),
        "setup_s_all": setup,
        "probe_s": [v for b in batches for v in b.probes],
    }
    return metrics, details, verifier


def traced_batch(q, workload, tracer):
    """Build the problems and run every op once, under the tracer.

    Returns (per-layer summary, the batch). Times in the summary are scaled
    to reference seconds with the batch's own probes.
    """
    tracer.counts.clear()
    first = len(tracer.spans)
    tracer.install()
    try:
        problems = workload.build_problems(q.qlsp)
        batch = run_batch(q.pipeline, problems, workload.ops, q.errors.QlsLabError, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summarize(first, len(tracer.spans), sum(batch.latencies))
    scale = sum(batch.scaled) / sum(batch.latencies)
    for name in summary:
        if name.endswith(("_s", "ns_per_amp")):
            summary[name] *= scale
    return summary, batch


def traced_run(q, workload, args):
    problems = workload.build_problems(q.qlsp)
    warmup = [op for op in workload.ops if op[0] < WARMUP_PROBLEMS]
    run_batch(q.pipeline, problems, warmup, q.errors.QlsLabError)

    tracer = tracing.Tracer()
    untraced, traced, summaries, probes, verifier, failed = [], [], [], [], None, None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_TRACED_BATCHES:
        batch = run_batch(q.pipeline, problems, workload.ops, q.errors.QlsLabError)
        untraced.append(sum(batch.scaled))
        if verifier is None:
            verifier = Verifier(workload, problems, batch.outcomes)
        verifier.add(batch.outcomes)
        summary, batch = traced_batch(q, workload, tracer)
        traced.append(sum(batch.scaled))
        summaries.append(summary)
        batch_failed = verifier.add(batch.outcomes)
        failed = batch_failed if failed is None else failed
        probes.extend(batch.probes)

    for name in EXACT_COUNTS:
        if any(s[name] != summaries[0][name] for s in summaries):
            verifier.faults.append(f"count {name} differs between traced batches")
    metrics = {
        name: value if name in EXACT_COUNTS else statistics.median(s[name] for s in summaries)
        for name, value in summaries[0].items()
    }
    calls = metrics.pop("calls")
    ops = len(workload.ops)
    metrics["pipeline.ops"] = ops - sum(failed.values())
    metrics["pipeline.fail_frac"] = sum(failed.values()) / ops
    for kind in FAILURE_KINDS:
        metrics[f"pipeline.ops_failed.{kind}"] = failed[kind]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for variant in workloads.VARIANTS:
        metrics[f"err_{variant}"] = verifier.means.get(variant, float("nan"))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    details = {
        "untraced_batch_s": untraced,
        "traced_batch_s": traced,
        "calls_per_batch": calls,
        "spans": len(tracer.spans),
        "probe_s": probes,
    }
    return metrics, details, verifier


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    q = import_qlslab()
    workload = workloads.make_workload(args.workload, args.seed, q.pipeline, q.sim)
    if args.trace:
        listed = spec["per_layer"]
        metrics, details, verifier = traced_run(q, workload, args)
    else:
        listed = spec["end_to_end"]
        metrics, details, verifier = timed_run(q, workload, args)

    env = environment()
    probes = details.pop("probe_s")
    env["host_probe_s"] = {"min": min(probes), "median": statistics.median(probes), "max": max(probes)}
    result = {
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": sum(verifier.failures.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "failures": dict(verifier.failures),
        "check_problems": verifier.problems_found(),
        "details": details,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"op samples {details['op_samples']} ({details['op_samples_beyond_p90']} beyond p90)"
              f" in {details['batches']} batches")
    for problem in verifier.problems_found():
        print(f"check: {problem}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
