"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
two-dimensional experiments use the harness defaults (l=5, k=3, amplitude
thresholds 2^-l and 2^-k, exact readout, shot-free preprocessing, explicit
time scale 18 pi); the four-dimensional set uses the signed fixed formula.
"""
import math
import time
from itertools import combinations

import numpy as np
import pytest

from qlslab.analysis import BoundInputs, canonical_bound, enhanced_bound, enhanced_prefactor
from qlslab.pipeline import RunConfig, run
from qlslab.qlsp import QLSP, generate_n2, generate_n4
from qlslab.sim import NoiseSpec
from qlslab.cli import N2_SWEEP_T0, PAPER_N4_EIGENVALUES

SWEEP_LAMBDAS = [round(0.005 * i, 3) for i in range(1, 100)]
BENCH_LAMBDAS = [n / 24 for n in range(3, 12)]

TARGET_FIXED = {"canonical": 0.43, "hybrid": 0.51, "enhanced": 0.31}
TARGET_ITERATIVE_ENHANCED = 0.21
TARGET_N4 = {"canonical": 0.30, "hybrid": 0.30, "enhanced": 0.24}
TOLERANCE = 0.08


def _config(variant, **overrides):
    kwargs = dict(
        variant=variant,
        clock_bits=3,
        preprocess_bits=5 if variant == "enhanced" else 3,
        t0_mode="explicit",
        t0_value=N2_SWEEP_T0,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_bound_constants():
    """Analytic prefactors 0.62 / 0.68 and the 38 percent tightening."""
    two_bits = enhanced_prefactor(2)
    zero_bits = enhanced_prefactor(0)
    inputs = BoundInputs(kappa=2.0, t0=10.0, clock_bits=3, precision_bits=5)
    ratio = enhanced_bound(inputs) / canonical_bound(inputs, "original")
    tighter = (1.0 - ratio) * 100
    ok = (
        abs(two_bits - 0.62) <= 0.005
        and abs(zero_bits - 0.68) <= 0.005
        and abs(tighter - 38.0) <= 1.0
    )
    _report(
        "AC-1",
        ok,
        f"prefactors {two_bits:.4f}/{zero_bits:.4f}, bound {tighter:.1f}% tighter",
    )


def test_criterion_2_noiseless_sweep_means_and_ordering():
    """99-point sweep at defaults: target means within 0.08, strict ordering."""
    start = time.time()
    means = {}
    for variant in ("canonical", "hybrid", "enhanced"):
        errors = [run(generate_n2(lam), _config(variant)).error for lam in SWEEP_LAMBDAS]
        means[variant] = float(np.mean(errors))
    elapsed = time.time() - start
    in_band = all(abs(means[v] - TARGET_FIXED[v]) <= TOLERANCE for v in means)
    ordered = means["enhanced"] < means["canonical"] < means["hybrid"]
    ok = in_band and ordered and elapsed < 300
    _report(
        "AC-2",
        ok,
        "means canonical %.3f hybrid %.3f enhanced %.3f (targets 0.43/0.51/0.31 "
        "+-0.08), ordering %s, %.1fs" % (
            means["canonical"], means["hybrid"], means["enhanced"], ordered, elapsed
        ),
    )


def test_criterion_3_iterative_preprocessing():
    """Iterative time-scale search beats the fixed scale for enhanced runs."""
    fixed = [run(generate_n2(lam), _config("enhanced")).error for lam in SWEEP_LAMBDAS]
    iterative = [
        run(
            generate_n2(lam),
            RunConfig(variant="enhanced", clock_bits=3, preprocess_bits=5, t0_mode="iterative"),
        ).error
        for lam in SWEEP_LAMBDAS
    ]
    mean_fixed = float(np.mean(fixed))
    mean_iter = float(np.mean(iterative))
    ok = mean_iter <= mean_fixed and abs(mean_iter - TARGET_ITERATIVE_ENHANCED) <= TOLERANCE
    _report(
        "AC-3",
        ok,
        f"enhanced mean {mean_iter:.3f} iterative vs {mean_fixed:.3f} fixed "
        f"(target 0.21 +-0.08)",
    )


def test_criterion_4_perfect_estimation_zero_error():
    """Both eigenvalues on the 3-bit grid: every variant solves exactly."""
    errors = {}
    for variant in ("canonical", "hybrid", "enhanced"):
        errors[variant] = run(generate_n2(1 / 3), _config(variant)).error
    ok = all(err < 1e-6 for err in errors.values())
    detail = ", ".join(f"{v} {e:.2e}" for v, e in errors.items())
    _report("AC-4", ok, detail)


def test_criterion_5_ill_conditioned_case():
    """kappa = 99: every variant is close to maximally inaccurate."""
    errors = {}
    for variant in ("canonical", "hybrid", "enhanced"):
        errors[variant] = run(generate_n2(0.01), _config(variant)).error
    ok = all(err > 1.0 for err in errors.values())
    detail = ", ".join(f"{v} {e:.3f}" for v, e in errors.items())
    _report("AC-5", ok, detail)


def test_criterion_6_n4_set():
    """Seeded four-dimensional set: enhanced beats both baselines."""
    means = {}
    for variant in ("canonical", "hybrid", "enhanced"):
        errors = []
        for pair in combinations(range(4), 2):
            qlsp = generate_n4(PAPER_N4_EIGENVALUES, pair, seed=7)
            config = RunConfig(
                variant=variant,
                clock_bits=3,
                preprocess_bits=5 if variant == "enhanced" else 3,
            )
            errors.append(run(qlsp, config).error)
        means[variant] = float(np.mean(errors))
    in_band = all(abs(means[v] - TARGET_N4[v]) <= TOLERANCE for v in means)
    ordered = means["enhanced"] < means["canonical"] and means["enhanced"] < means["hybrid"]
    ok = in_band and ordered
    _report(
        "AC-6",
        ok,
        "means canonical %.3f hybrid %.3f enhanced %.3f (targets 0.30/0.30/0.24 +-0.08)"
        % (means["canonical"], means["hybrid"], means["enhanced"]),
    )


def test_criterion_7_oracle_equivalence_suite():
    """Grid-aligned spectra: exact solve and analytic success probability."""
    rng = np.random.default_rng(29)
    t0 = 14 * math.pi  # grid values g/7 stay within the unit spectral bound
    worst_error = 0.0
    worst_prob_gap = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 4]))
        grid_values = rng.choice(range(1, 8), size=dim, replace=False)
        eigenvalues = np.array(sorted(grid_values)) / 7.0
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        matrix = q @ np.diag(eigenvalues) @ q.T
        b = rng.standard_normal(dim)
        qlsp = QLSP(matrix, b / np.linalg.norm(b))
        result = run(qlsp, RunConfig(variant="canonical", t0_mode="explicit", t0_value=t0))
        worst_error = max(worst_error, result.error)
        c = 2 * math.pi / t0
        predicted = float(np.sum(np.abs(qlsp.projections) ** 2 * (c / qlsp.eigenvalues) ** 2))
        worst_prob_gap = max(worst_prob_gap, abs(result.success_probability - predicted))
    ok = worst_error < 1e-6 and worst_prob_gap < 1e-9
    _report(
        "AC-7",
        ok,
        f"worst error {worst_error:.2e}, worst success-probability gap {worst_prob_gap:.2e}",
    )


def test_criterion_8_swap_test_estimator():
    """Swap-test estimate lands within 4 sigma of the exact overlap."""
    rng = np.random.default_rng(31)
    shots = 8192
    failures = []
    for trial in range(50):
        lam = float(rng.uniform(0.12, 0.47))
        qlsp = generate_n2(lam)
        exact = run(qlsp, _config("canonical"))
        sampled = run(
            qlsp,
            _config("canonical", readout="swap", shots=shots, seed=500 + trial),
        )
        p = (1 - exact.fidelity) / 2
        conditioned = shots * exact.success_probability
        sigma_p = math.sqrt(max(p * (1 - p), 1.0 / conditioned) / conditioned)
        if abs(sampled.fidelity - exact.fidelity) > 4 * (2 * sigma_p):
            failures.append((lam, sampled.fidelity, exact.fidelity))
    ok = not failures
    _report("AC-8", ok, f"{50 - len(failures)}/50 runs within 4 sigma {failures[:3]}")


def test_criterion_9_gate_count_ordering():
    """Aggregate inversion size over the benchmark set: hybrid < enhanced < canonical."""
    totals = {"canonical": 0, "hybrid": 0, "enhanced": 0}
    for lam in BENCH_LAMBDAS:
        qlsp = generate_n2(lam)
        for variant in totals:
            result = run(qlsp, _config(variant))
            totals[variant] += len(result.plan.rotations)
    ok = totals["hybrid"] < totals["enhanced"] < totals["canonical"]
    _report(
        "AC-9",
        ok,
        "plan rotations over the set: hybrid %d < enhanced %d < canonical %d"
        % (totals["hybrid"], totals["enhanced"], totals["canonical"]),
    )


def test_criterion_10_noise_only_degrades():
    """Pauli noise injection never improves the ensemble mean error."""
    clean = []
    noisy = []
    for lam in BENCH_LAMBDAS:
        qlsp = generate_n2(lam)
        clean.append(run(qlsp, _config("canonical")).error)
        for seed in range(20):
            noisy.append(
                run(
                    qlsp,
                    _config("canonical", noise=NoiseSpec(0.02, rng_seed=seed)),
                ).error
            )
    mean_clean = float(np.mean(clean))
    mean_noisy = float(np.mean(noisy))
    stderr = float(np.std(noisy) / math.sqrt(len(noisy)))
    ok = mean_noisy >= mean_clean - 1.96 * stderr
    _report(
        "AC-10",
        ok,
        f"mean error {mean_clean:.3f} clean vs {mean_noisy:.3f} with noise "
        f"(95% band {1.96 * stderr:.3f})",
    )
