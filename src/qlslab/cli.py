"""Experiment harness: problem generation, batch execution, CSV reporting.

Subcommands: ``sweep`` (two-dimensional family across its parameter range),
``set`` (the nine-instance hardware benchmark family), ``n4`` (the seeded
four-dimensional family), ``bounds``, ``describe``, and ``plot-data``.

The two-dimensional experiments default to an explicit time scale of 18 pi,
the calibrated benchmark scale for that family: its grid holds both
eigenvalues exactly at lambda = m/9, and the resulting error curves carry
the benchmark's target means. ``--t0-mode`` overrides it. Generic problems
default to the closed-form scale for a spectral-norm bound of 1.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analysis import BoundInputs, aggregate, canonical_bound, enhanced_bound
from .errors import QlsLabError
from .inversion import ALPHA_MODELS, ANGLE_POLICIES
from .pipeline import READOUTS, VARIANTS, RunConfig, RunResult, run
from .qlsp import QLSP, classical_solution, generate_n2, generate_n4
from .sim import NoiseSpec, check_count, check_positive

N2_SWEEP_T0 = 18.0 * math.pi

PAPER_N2_SET = [Fraction(n, 24) for n in range(3, 12)]
PAPER_N4_EIGENVALUES = (-21 / 24, -20 / 24, 5 / 24, 6 / 24)

CSV_COLUMNS = [
    "problem_id",
    "lambda_or_seed",
    "variant",
    "k",
    "l",
    "t0",
    "fidelity",
    "error",
    "success_prob",
    "gate_count",
    "two_qubit_count",
    "depth",
    "bound_enhanced",
    "bound_canonical",
]


@dataclass
class ExperimentSpec:
    name: str = "experiment"
    source: str = "n2-sweep"  # n2-sweep | n2-set | n4-set | file
    count: int = 99
    lambda_min: float = 0.005
    lambda_max: float = 0.495
    lambdas: list[float] | None = None
    eigenvalues: list[float] = field(default_factory=lambda: list(PAPER_N4_EIGENVALUES))
    pairs: str = "all"
    basis_seed: int = 7
    path: str | None = None
    variants: list[str] = field(default_factory=lambda: list(VARIANTS))
    # run settings: None leaves RunConfig's default (see _run_config)
    clock_bits: int | None = None
    preprocess_bits: int | None = None  # enhanced rows only
    t0_mode: str | None = None  # None picks the per-source default
    t0_value: float | None = None
    angle_policy: str | None = None
    alpha_model: str | None = None
    readout: str | None = None
    shots: int | None = None
    seed: int | None = None
    noise_p: float = 0.0
    noise_seed: int = 0
    out: str = "results.csv"
    summary_out: str | None = None

    def __post_init__(self) -> None:
        if self.source not in ("n2-sweep", "n2-set", "n4-set", "file"):
            raise ValueError(f"unknown problem source {self.source!r}")
        check_count("count", self.count, 1)
        if not self.variants:
            raise ValueError("the variant list is empty")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError(f"variants repeat a name: {self.variants}")
        if self.source.startswith("n2") and self.lambdas:
            bad = [v for v in self.lambdas if not 0.0 < float(v) < 0.5]
            if bad:
                raise ValueError(f"lambda values outside (0, 0.5): {bad}")
        if self.source == "file" and not self.path:
            raise ValueError("file source needs a problem path")
        _pairs(self.pairs)
        for variant in self.variants:  # RunConfig validates the name and settings
            _run_config(self, variant)


# JSON types each scalar ExperimentSpec annotation accepts; bool is excluded separately
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation such as ``list[float] | None``."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if typing.get_args(hint):  # a union
        return any(_fits(value, option) for option in typing.get_args(hint))
    if hint is type(None):
        return value is None
    return not isinstance(value, bool) and isinstance(value, _CONFIG_TYPES[hint])


def _spec_from_config(path: str) -> dict:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    hints = typing.get_type_hints(ExperimentSpec)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    for key, value in doc.items():
        if not _fits(value, hints[key]):
            raise ValueError(f"config key {key!r} does not take {json.dumps(value)}")
    return doc


def parse_fraction(text: str) -> float:
    """A decimal or a fraction such as "1/3"; ``ValueError`` on anything else, 1/0 included."""
    try:
        return float(Fraction(text))
    except ZeroDivisionError as exc:
        raise ValueError(f"{text!r} divides by zero") from exc


def _pairs(text: str) -> list[tuple[int, int]]:
    """Eigenvector index pairs of an n4 ``pairs`` value: "all" or e.g. "0-1,2-3".

    Raises ``ValueError`` on an entry that is not two distinct indices in
    0..3 and on a pair repeated in either order.
    """
    if text == "all":
        return [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs: list[tuple[int, int]] = []
    for entry in text.split(","):
        try:
            i, j = (int(v) for v in entry.split("-"))
            valid = i != j and 0 <= i < 4 and 0 <= j < 4
        except ValueError:  # not two integers
            valid = False
        if not valid:
            raise ValueError(f"pairs entry {entry!r} is not two distinct indices in 0..3")
        if (i, j) in pairs or (j, i) in pairs:
            raise ValueError(f"pairs repeat the pair {i}-{j}")
        pairs.append((i, j))
    return pairs


def _problems(spec: ExperimentSpec) -> list[tuple[str, str, QLSP]]:
    """Materialize (problem_id, lambda_or_seed, QLSP) triples."""
    problems = []
    if spec.source == "n2-sweep":
        if spec.count == 1:
            grid = [spec.lambda_min]
        else:
            step = (spec.lambda_max - spec.lambda_min) / (spec.count - 1)
            grid = [spec.lambda_min + i * step for i in range(spec.count)]
        for i, lam in enumerate(grid):
            problems.append((f"n2-{i:03d}", repr(round(lam, 12)), generate_n2(lam)))
    elif spec.source == "n2-set":
        values = spec.lambdas if spec.lambdas else PAPER_N2_SET
        for i, lam in enumerate(values):
            problems.append((f"n2-{i:03d}", str(lam), generate_n2(float(lam))))
    elif spec.source == "n4-set":
        eigs = tuple(float(v) for v in spec.eigenvalues)
        for pair in _pairs(spec.pairs):
            qlsp = generate_n4(eigs, pair, spec.basis_seed)
            tag = f"{pair[0]}{pair[1]}"
            problems.append((f"n4-{tag}", f"seed{spec.basis_seed}-pair{tag}", qlsp))
    else:
        qlsp = QLSP.from_json(Path(spec.path).read_text())
        problems.append((Path(spec.path).stem, Path(spec.path).stem, qlsp))
    return problems


def _run_config(spec: ExperimentSpec, variant: str) -> RunConfig:
    """The ``RunConfig`` of one variant: every field that ``spec`` sets under
    the same name, the per-source baseline t0 and the noise; RunConfig
    checks them all."""
    shared = {field.name for field in dataclasses.fields(RunConfig)}
    settings = {k: v for k, v in vars(spec).items() if k in shared and v is not None}
    if variant != "enhanced":  # the others preprocess at the clock width, which RunConfig derives
        settings.pop("preprocess_bits", None)
    mode = spec.t0_mode
    if spec.t0_value is None and (mode is None or (mode == "iterative" and variant == "canonical")):
        # the per-source baseline scale; canonical runs have no preprocessing
        # step to adapt, so they keep it and the columns stay comparable
        if spec.source.startswith("n2"):
            settings.update(t0_mode="explicit", t0_value=N2_SWEEP_T0)
        else:
            settings["t0_mode"] = "fixed"
    noise = NoiseSpec(spec.noise_p, spec.noise_seed)  # checked even when switched off
    return RunConfig(
        variant=variant, noise=noise if noise.per_gate_pauli_probability > 0 else None, **settings
    )


def _row(problem_id: str, label: str, qlsp: QLSP, result: RunResult) -> dict:
    inputs = BoundInputs(
        kappa=qlsp.condition_number,
        t0=result.t0,
        clock_bits=result.clock_bits,
        precision_bits=result.preprocess_bits,
    )
    return {
        "problem_id": problem_id,
        "lambda_or_seed": label,
        "variant": result.variant,
        "k": result.clock_bits,
        "l": result.preprocess_bits,
        "t0": repr(float(result.t0)),
        "fidelity": repr(float(result.fidelity)),
        "error": repr(float(result.error)),
        "success_prob": repr(float(result.success_probability)),
        "gate_count": result.gate_count,
        "two_qubit_count": result.two_qubit_count,
        "depth": result.depth,
        "bound_enhanced": repr(float(enhanced_bound(inputs))),
        "bound_canonical": repr(float(canonical_bound(inputs))),
    }


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the batch, write the CSV and JSON summary, return the summary."""
    configs = [_run_config(spec, variant) for variant in spec.variants]
    rows, results = [], []
    for problem_id, label, qlsp in _problems(spec):
        for config in configs:
            result = run(qlsp, config)
            rows.append(_row(problem_id, label, qlsp, result))
            results.append(result)
    out_path = Path(spec.out)
    summary_path = Path(spec.summary_out or out_path.with_suffix(".summary.json"))
    for path in (out_path, summary_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary = aggregate(results)
    summary["name"] = spec.name
    summary["rows"] = len(rows)
    summary["csv"] = str(out_path)
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary


def emit_plot_data(csv_path: str, out_path: str) -> int:
    """Pivot a sweep CSV into lambda vs per-variant error columns."""
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise ValueError(f"no data rows in {csv_path}")
    by_lambda: dict[float, dict[str, str]] = {}  # lambda -> variant -> error cell
    for row in rows:
        try:
            lam = float(Fraction(row["lambda_or_seed"]))
            error = float(row["error"])
            variant = row["variant"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed CSV {csv_path}: {exc}") from exc
        by_lambda.setdefault(lam, {})[variant] = repr(error)
    variants = sorted({row["variant"] for row in rows})
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda"] + [f"error_{v}" for v in variants])
        for lam in sorted(by_lambda):
            writer.writerow([repr(lam)] + [by_lambda[lam].get(v, "") for v in variants])
    return len(by_lambda)


def describe_problem(qlsp: QLSP, clock_bits: int, t0: float) -> str:
    """Human-readable spectrum report with grid alignment for the given scale."""
    check_count("clock_bits", clock_bits, 1)
    check_positive("t0", t0)
    lines = [
        f"dimension {qlsp.dimension} ({qlsp.num_qubits} qubit(s)), scale {qlsp.scale:g}",
        f"condition number {qlsp.condition_number:.6g}",
        f"clock grid: {clock_bits} bit(s), t0 = {t0:.6g}, spacing {2 * math.pi / t0:.6g}",
    ]
    solution = classical_solution(qlsp)
    lines.append(f"solution norm |A^-1 b| = {solution.raw_norm:.6g}")
    spectrum = zip(qlsp.eigenvalues.tolist(), qlsp.projections.tolist())
    for i, (eigenvalue, projection) in enumerate(spectrum):
        coord = eigenvalue * t0 / (2 * math.pi)
        nearest = round(coord)
        delta = abs(coord - nearest) * 2 * math.pi
        lines.append(
            f"  eig[{i}] = {eigenvalue:+.6f}  |beta| = {abs(projection):.6f}"
            f"  grid coord {coord:+.4f} (nearest {nearest:+d}, delta {delta:.4f} rad)"
        )
    return "\n".join(lines)


def _fraction_list(text: str) -> list[float]:
    try:
        return [parse_fraction(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from exc


def _name_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Experiment flags; each ``dest`` is an ``ExperimentSpec`` field.

    No experiment flag has a default: a flag not given leaves the config
    value or the ``ExperimentSpec`` default in place.
    """
    flag = parser.add_argument
    flag("--k", dest="clock_bits", type=int, metavar="K", help="clock register bits (default 3)")
    flag(
        "--l",
        dest="preprocess_bits",
        type=int,
        metavar="L",
        help="preprocessing bits (enhanced, default max(k + 2, 5))",
    )
    flag(
        "--variant",
        dest="variants",
        type=_name_list,
        metavar="LIST",
        help=f"comma-separated subset of {','.join(VARIANTS)} (default: all)",
    )
    flag(
        "--t0-mode",
        help="fixed, iterative, or explicit=<value>; default: explicit=18pi for "
        "the two-dimensional families, fixed otherwise",
    )
    flag("--angle-policy", choices=ANGLE_POLICIES)
    flag("--alpha", dest="alpha_model", choices=ALPHA_MODELS)
    flag("--readout", choices=READOUTS)
    flag("--shots", type=int)
    flag("--seed", type=int)
    flag("--noise-p", type=float)
    flag("--noise-seed", type=int)
    flag("--out", help="CSV output path")
    flag("--summary", dest="summary_out", metavar="PATH", help="JSON summary path")
    flag("--config", default=None, help="flat JSON config file")


# command -> the spec values a config file or a flag may override
EXPERIMENT_COMMANDS = {
    "sweep": {"source": "n2-sweep", "name": "n2-sweep", "out": "sweep.csv"},
    "set": {"source": "n2-set", "name": "n2-set", "out": "set.csv"},
    "n4": {"source": "n4-set", "name": "n4-set", "out": "n4.csv"},
}


# spec fields that only one problem source reads
_SOURCE_FIELDS = {
    "n2-sweep": ("count", "lambda_min", "lambda_max"),
    "n2-set": ("lambdas",),
    "n4-set": ("eigenvalues", "pairs", "basis_seed"),
    "file": ("path",),
}


def _spec_from_args(args) -> ExperimentSpec:
    """Command defaults, then the config file, then the flags actually given.

    A config key or flag that only another problem source, or only an
    unselected variant, reads raises ``ValueError`` rather than being
    ignored.
    """
    values = dict(EXPERIMENT_COMMANDS[args.command])
    config = _spec_from_config(args.config) if args.config else {}
    values.update(config)
    given = {key: val for key, val in vars(args).items() if key not in ("command", "config")}
    if given.get("t0_mode", "").startswith("explicit="):
        given["t0_value"] = float(given["t0_mode"].split("=", 1)[1])
        given["t0_mode"] = "explicit"
    values.update(given)
    spec = ExperimentSpec(**values)
    other = [keys for source, keys in _SOURCE_FIELDS.items() if source != spec.source]
    unread = sorted(set().union(*other) & (config.keys() | given.keys()))
    if unread:
        raise ValueError(f"source {spec.source!r} does not read {unread}")
    if "enhanced" not in spec.variants and "preprocess_bits" in config.keys() | given.keys():
        raise ValueError("only the enhanced variant reads preprocess_bits (--l)")
    return spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlslab", description="Quantum linear system experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # experiment flags left out stay out of the namespace (see _spec_from_args)
    experiment = dict(argument_default=argparse.SUPPRESS)
    p_sweep = sub.add_parser("sweep", help="two-dimensional family parameter sweep", **experiment)
    p_sweep.add_argument("--count", type=int, help="grid points (default 99)")
    p_sweep.add_argument("--lambda-min", type=float, help="default 0.005")
    p_sweep.add_argument("--lambda-max", type=float, help="default 0.495")
    _add_common_flags(p_sweep)

    p_set = sub.add_parser("set", help="fixed list of two-dimensional instances", **experiment)
    p_set.add_argument(
        "--lambdas",
        type=_fraction_list,
        help="comma-separated values, fractions allowed (default: the 9-instance benchmark)",
    )
    _add_common_flags(p_set)

    p_n4 = sub.add_parser("n4", help="seeded four-dimensional instances", **experiment)
    p_n4.add_argument(
        "--eigenvalues",
        type=_fraction_list,
        help="four comma-separated values, fractions allowed (default -21/24,-20/24,5/24,6/24)",
    )
    p_n4.add_argument("--pairs", help='"all" (default) or e.g. "0-1,2-3"')
    p_n4.add_argument("--basis-seed", type=int, help="default 7")
    _add_common_flags(p_n4)

    p_bounds = sub.add_parser("bounds", help="closed-form error bounds")
    p_bounds.add_argument("--kappa", type=float, required=True)
    p_bounds.add_argument("--t0", type=float, required=True)
    p_bounds.add_argument("--k", type=int, default=3)
    p_bounds.add_argument("--l", type=int, default=5)

    p_desc = sub.add_parser("describe", help="spectrum and grid-alignment report")
    group = p_desc.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="problem JSON path")
    group.add_argument("--lambda", dest="lambda_param", help="two-dimensional family parameter")
    p_desc.add_argument("--k", type=int, default=3)
    p_desc.add_argument("--t0", type=float, default=N2_SWEEP_T0)
    p_desc.add_argument(
        "--estimates",
        type=int,
        metavar="L",
        default=None,
        help="also run L-bit preprocessing at t0 * 2^(L-k) and dump the estimates",
    )

    p_plot = sub.add_parser("plot-data", help="pivot a sweep CSV into plot columns")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)

    return parser


def _dispatch(args) -> int:
    if args.command in EXPERIMENT_COMMANDS:
        summary = run_experiment(_spec_from_args(args))
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.command == "bounds":
        inputs = BoundInputs(kappa=args.kappa, t0=args.t0, clock_bits=args.k, precision_bits=args.l)
        print(f"enhanced bound      {enhanced_bound(inputs):.6g}")
        print(f"canonical original  {canonical_bound(inputs, 'original'):.6g}")
        print(f"canonical revised   {canonical_bound(inputs, 'revised'):.6g}")
        return 0
    if args.command == "describe":
        if args.file:
            qlsp = QLSP.from_json(Path(args.file).read_text())
        else:
            qlsp = generate_n2(parse_fraction(args.lambda_param))
        # build every part before printing, so a rejected input prints nothing
        parts = [describe_problem(qlsp, args.k, args.t0)]
        if args.estimates is not None:
            from .preprocess import run_preprocessing

            bits = args.estimates
            fine_t0 = args.t0 * 2 ** (bits - args.k)
            parts.append(run_preprocessing(qlsp, bits, fine_t0).to_json())
        print("\n".join(parts))
        return 0
    if args.command == "plot-data":
        count = emit_plot_data(args.csv, args.out)
        print(f"wrote {count} data row(s) to {args.out}")
        return 0
    raise ValueError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QlsLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
