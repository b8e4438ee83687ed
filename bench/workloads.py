"""The benchmark's workloads, generated from a workload seed.

One operation ("op") is one ``qlslab.pipeline.run(qlsp, RunConfig)`` call,
the work behind one CSV row. Configurations mirror what ``qlslab sweep`` and
``qlslab n4`` build from the ``docs/reproduce.md`` recipe flags: explicit
18 pi for the 2x2 family (canonical ops stay there in iterative mode),
``preprocess_bits`` = l for enhanced ops and k otherwise.

``DEFAULT_SEED`` reproduces the documented recipe, except that the 4x4
workload's swap test takes ``N4_SHOTS`` shots instead of 4096. Any other seed
draws the lambda values (2x2 workloads) or the basis, noise and readout seeds
(4x4 workload) from that seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
VARIANTS = ("canonical", "hybrid", "enhanced")

N2_T0 = 18.0 * math.pi
N2_COUNT = 99
N2_LAMBDA_MIN, N2_LAMBDA_MAX = 0.005, 0.495
N4_EIGENVALUES = (-21 / 24, -20 / 24, 5 / 24, 6 / 24)
N4_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
# Swap-test shots for the 4x4 workload. At most seeds the canonical op on the
# first pair succeeds with probability 4.7e-4, so the CLI default of 4096
# shots keeps about 2 of them, and none at all (an InsufficientShotsError) at
# about one seed in seven. The lowest success
# probability over workload seeds 0-269 is 1.7e-5, which keeps about 280 of
# 2^24 shots. Sampling costs the same at any shot count.
N4_SHOTS = 2**24


@dataclass(frozen=True)
class Workload:
    """Problem recipes and the ops that run on them, in CLI row order."""

    name: str
    problem_args: tuple  # generator arguments, one tuple per problem
    generator: str  # name of the qlslab.qlsp generator
    ops: tuple  # (problem index, RunConfig)
    noiseless: bool
    documented_means: dict  # variant -> documented mean error (default seed only)

    def build_problems(self, qlsp_module) -> list:
        """Build every problem through the module attribute, so a tracer's
        wrapper around the generator sees the call."""
        generate = getattr(qlsp_module, self.generator)
        return [generate(*args) for args in self.problem_args]


def _n2_lambdas(seed: int) -> list[float]:
    if seed == DEFAULT_SEED:
        # the exact grid of `qlslab sweep --count 99`
        step = (N2_LAMBDA_MAX - N2_LAMBDA_MIN) / (N2_COUNT - 1)
        return [N2_LAMBDA_MIN + i * step for i in range(N2_COUNT)]
    rng = np.random.default_rng(seed)
    return sorted(float(v) for v in rng.uniform(N2_LAMBDA_MIN, N2_LAMBDA_MAX, N2_COUNT))


def _n2_config(run_config, variant: str, iterative: bool):
    k, l = 3, 5
    if iterative and variant != "canonical":
        t0 = dict(t0_mode="iterative")
    else:
        t0 = dict(t0_mode="explicit", t0_value=N2_T0)
    return run_config(
        variant=variant, clock_bits=k, preprocess_bits=l if variant == "enhanced" else k, **t0
    )


def make_workload(name: str, seed: int, pipeline_module, sim_module) -> Workload:
    """Workload ``name`` at ``seed``; raises KeyError for an unknown name."""
    run_config = pipeline_module.RunConfig
    default = seed == DEFAULT_SEED
    if name in ("n2-sweep", "n2-iterative"):
        iterative = name == "n2-iterative"
        lambdas = _n2_lambdas(seed)
        ops = tuple(
            (p, _n2_config(run_config, variant, iterative))
            for p in range(len(lambdas))
            for variant in VARIANTS
        )
        if not default:
            means = {}
        elif iterative:
            means = {"enhanced": 0.200}
        else:
            means = {"canonical": 0.400, "hybrid": 0.472, "enhanced": 0.371}
        return Workload(name, tuple((lam,) for lam in lambdas), "generate_n2", ops, True, means)
    if name == "n4-noisy-swap":
        if default:
            basis_seed, noise_seed, readout_seed = 7, 0, 11
        else:
            rng = np.random.default_rng(seed)
            basis_seed, noise_seed, readout_seed = (int(v) for v in rng.integers(0, 2**31, 3))
        k, l = 7, 10
        noise = sim_module.NoiseSpec(0.01, noise_seed)
        configs = {
            variant: run_config(
                variant=variant,
                clock_bits=k,
                preprocess_bits=l if variant == "enhanced" else k,
                t0_mode="fixed",
                readout="swap",
                shots=N4_SHOTS,
                seed=readout_seed,
                noise=noise,
            )
            for variant in VARIANTS
        }
        ops = tuple((p, configs[v]) for p in range(len(N4_PAIRS)) for v in VARIANTS)
        args = tuple((N4_EIGENVALUES, pair, basis_seed) for pair in N4_PAIRS)
        return Workload(name, args, "generate_n4", ops, False, {})
    raise KeyError(name)


WORKLOADS = ("n2-sweep", "n2-iterative", "n4-noisy-swap")
