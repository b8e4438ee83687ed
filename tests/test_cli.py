"""Harness tests: CSV output, determinism, plot data, CLI surface."""
import csv
import json
import math
from pathlib import Path

import pytest

from qlslab.cli import (
    CSV_COLUMNS,
    EXPERIMENT_COMMANDS,
    ExperimentSpec,
    _spec_from_args,
    _spec_from_config,
    build_parser,
    describe_problem,
    emit_plot_data,
    main,
    run_experiment,
)
from qlslab.qlsp import generate_n2


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_sweep_rows_and_columns(tmp_path):
    spec = ExperimentSpec(source="n2-sweep", count=4, out=str(tmp_path / "sweep.csv"))
    summary = run_experiment(spec)
    rows = _read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 4 * 3
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert summary["rows"] == 12
    assert set(summary["per_variant"]) == {"canonical", "hybrid", "enhanced"}
    assert (tmp_path / "sweep.summary.json").exists()


def test_sweep_deterministic(tmp_path):
    spec_a = ExperimentSpec(source="n2-sweep", count=3, out=str(tmp_path / "a.csv"))
    spec_b = ExperimentSpec(source="n2-sweep", count=3, out=str(tmp_path / "b.csv"))
    run_experiment(spec_a)
    run_experiment(spec_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_set_produces_27_rows(tmp_path):
    spec = ExperimentSpec(source="n2-set", out=str(tmp_path / "set.csv"))
    run_experiment(spec)
    rows = _read_rows(tmp_path / "set.csv")
    assert len(rows) == 9 * 3
    assert rows[0]["lambda_or_seed"] == "1/8"  # 3/24 reduced


def test_single_variant_filter(tmp_path):
    spec = ExperimentSpec(
        source="n2-set",
        lambdas=[0.25],
        variants=["canonical"],
        out=str(tmp_path / "one.csv"),
    )
    run_experiment(spec)
    rows = _read_rows(tmp_path / "one.csv")
    assert len(rows) == 1
    assert rows[0]["variant"] == "canonical"


def test_n4_experiment(tmp_path):
    spec = ExperimentSpec(source="n4-set", pairs="0-1,2-3", out=str(tmp_path / "n4.csv"))
    run_experiment(spec)
    rows = _read_rows(tmp_path / "n4.csv")
    assert len(rows) == 2 * 3
    assert {row["problem_id"] for row in rows} == {"n4-01", "n4-23"}
    # signed fixed-formula scale for three clock bits
    assert float(rows[0]["t0"]) == pytest.approx(6 * math.pi)


def test_plot_data_pivot(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    run_experiment(ExperimentSpec(source="n2-sweep", count=5, out=str(csv_path)))
    out_path = tmp_path / "plot.csv"
    count = emit_plot_data(str(csv_path), str(out_path))
    assert count == 5
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lambda", "error_canonical", "error_enhanced", "error_hybrid"]
    lams = [float(row[0]) for row in rows[1:]]
    assert lams == sorted(lams)
    assert len(rows) == 6


def test_plot_data_rejects_empty(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("problem_id,lambda_or_seed,variant,error\n")
    with pytest.raises(ValueError):
        emit_plot_data(str(bad), str(tmp_path / "out.csv"))
    assert not (tmp_path / "out.csv").exists()


def test_describe_report_contents():
    report = describe_problem(generate_n2(1 / 3), 3, 18 * math.pi)
    assert "condition number 2" in report
    assert "+0.333333" in report and "+0.666667" in report
    assert "delta 0.0000" in report


def test_describe_ill_conditioned():
    report = describe_problem(generate_n2(0.01), 3, 18 * math.pi)
    assert "condition number 99" in report


def test_config_file_and_overrides(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "count": 3,
                "clock_bits": 4,
                "shots": 1024,
                "readout": "swap",
                "variants": ["enhanced"],
                "name": "from-config",
            }
        )
    )
    out = tmp_path / "c.csv"
    code = main(
        ["sweep", "--config", str(config), "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert {row["variant"] for row in rows} == {"enhanced"}
    assert {row["k"] for row in rows} == {"4"}
    summary = json.loads((tmp_path / "c.summary.json").read_text())
    assert summary["name"] == "from-config"

    # only flags given on the command line beat the config
    args = build_parser().parse_args(["sweep", "--config", str(config), "--count", "7"])
    spec = _spec_from_args(args)
    assert (spec.count, spec.readout, spec.shots, spec.out) == (7, "swap", 1024, "sweep.csv")


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mystery_knob": 1}))
    assert main(["sweep", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"count": "3"},
        {"clock_bits": 3.5},
        {"shots": True},
        {"count": None},
        ["count"],
        {"variants": [[1]]},
        {"lambdas": [[1]]},
        {"eigenvalues": [[1], 2, 3, 4]},
        {"eigenvalues": [True, 2, 3, 4]},
    ],
)
def test_config_rejects_mistyped_values(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for command in EXPERIMENT_COMMANDS:
        assert main([command, "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err


def test_config_accepts_int_for_float_and_null_where_default_is_none(tmp_path):
    config = tmp_path / "config.json"
    doc = {"noise_p": 0, "t0_mode": None, "lambdas": None, "count": 2}
    config.write_text(json.dumps(doc))
    assert _spec_from_config(str(config)) == doc


def test_cli_bounds_and_describe(capsys):
    assert main(["bounds", "--kappa", "2", "--t0", "18.85", "--k", "3", "--l", "5"]) == 0
    out = capsys.readouterr().out
    assert "enhanced bound" in out and "canonical revised" in out
    assert main(["describe", "--lambda", "1/3"]) == 0
    assert "condition number 2" in capsys.readouterr().out


def test_cli_describe_estimate_dump(capsys):
    assert main(["describe", "--lambda", "1/3", "--estimates", "5"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[-1])
    assert payload["l"] == 5
    assert {entry[0] for entry in payload["entries"]} == {12, 24}


def test_cli_invalid_spec_exit_code(tmp_path):
    code = main(
        ["set", "--lambdas", "0.7", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_cli_rejects_repeated_variant(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["set", "--lambdas", "1/4", "--variant", "canonical,canonical", "--out", str(out)]
    assert main(args) == 2
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t0_mode", [None, "fixed", "iterative"])
def test_config_t0_value_needs_explicit_mode(tmp_path, capsys, t0_mode):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t0_value": 5.0, "t0_mode": t0_mode}))
    out = tmp_path / "x.csv"
    assert main(["set", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "t0_value" in err and "t0_mode" in err
    assert not out.exists()
    config.write_text(json.dumps({"t0_value": 5.0, "t0_mode": "explicit"}))
    assert main(["set", "--config", str(config), "--variant", "canonical", "--out", str(out)]) == 0
    assert {float(row["t0"]) for row in _read_rows(out)} == {5.0}


@pytest.mark.parametrize(
    "recipe",
    [
        ["sweep", "--count", "2", "--t0-lambda-max", "0.5"],
        ["sweep", "--count", "2", "--t0-mode", "iterative", "--t0-lambda-max", "0.5"],
        ["n4", "--pairs", "0-1", "--t0-mode", "explicit=5", "--t0-lambda-max", "0.9"],
        ["n4", "--pairs", "0-1", "--t0-mode", "iterative", "--variant", "hybrid,enhanced",
         "--t0-lambda-max", "0.9"],
    ],
    ids=["sweep", "sweep-iterative", "n4-explicit", "n4-iterative-no-canonical"],
)
def test_cli_rejects_a_t0_lambda_max_no_row_uses(tmp_path, capsys, recipe):
    out = tmp_path / "x.csv"
    assert main(recipe + ["--out", str(out)]) == 2
    assert "t0_lambda_max is only used with t0_mode 'fixed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t0_mode", [[], ["--t0-mode", "iterative"]], ids=["fixed", "iterative"])
def test_cli_t0_lambda_max_sets_the_fixed_rows(tmp_path, t0_mode):
    out = tmp_path / "n4.csv"
    args = ["n4", "--pairs", "0-1", "--t0-lambda-max", "0.9", "--out", str(out)]
    assert main(args + t0_mode) == 0
    rows = _read_rows(out)
    fixed = [row for row in rows if row["variant"] == "canonical"] if t0_mode else rows
    assert fixed and {float(row["t0"]) for row in fixed} == {2 * math.pi * 3 / 0.9}


@pytest.mark.parametrize(
    "pairs, message",
    [
        ("0-1,0-1", "pairs repeat the pair 0-1"),
        ("0-1,1-0", "pairs repeat the pair 1-0"),
        ("0-1-2", "pairs entry '0-1-2' is not two distinct indices"),
        ("1-1", "pairs entry '1-1' is not two distinct indices"),
        ("0-4", "pairs entry '0-4' is not two distinct indices"),
        ("0-x", "pairs entry '0-x' is not two distinct indices"),
        ("0-1,", "pairs entry '' is not two distinct indices"),
    ],
)
def test_cli_rejects_malformed_or_repeated_pairs(tmp_path, capsys, pairs, message):
    out = tmp_path / "x.csv"
    assert main(["n4", "--pairs", pairs, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_file_exit_code(tmp_path):
    assert main(["plot-data", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == 2


def test_cli_sweep_smoke(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--count",
            "3",
            "--variant",
            "enhanced",
            "--out",
            str(tmp_path / "sw.csv"),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 3


@pytest.mark.parametrize(
    "recipe, baseline",
    [
        (["sweep", "--count", "2"], 18 * math.pi),  # the explicit n2 scale
        (["n4", "--pairs", "0-1"], 6 * math.pi),  # the signed fixed formula at k = 3
    ],
    ids=["sweep", "n4"],
)
def test_iterative_mode_keeps_canonical_baseline(tmp_path, recipe, baseline):
    out = tmp_path / "it.csv"
    code = main(
        recipe + ["--t0-mode", "iterative", "--variant", "canonical,enhanced", "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out)
    assert {row["variant"] for row in rows} == {"canonical", "enhanced"}
    for row in rows:
        if row["variant"] == "canonical":
            assert float(row["t0"]) == pytest.approx(baseline)
        else:
            assert float(row["t0"]) != pytest.approx(baseline)


def test_cli_t0_mode_override(tmp_path):
    code = main(
        [
            "sweep",
            "--count",
            "2",
            "--variant",
            "canonical",
            "--t0-mode",
            "explicit=43.98229715025711",
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert code == 0
    rows = _read_rows(tmp_path / "t.csv")
    assert float(rows[0]["t0"]) == pytest.approx(43.98229715025711)


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--t0-mode", "explicit=nan"], "t0_value"),
        (["--t0-mode", "fixed", "--t0-lambda-max", "inf"], "t0_lambda_max must be finite"),
    ],
    ids=["t0-value", "t0-lambda-max"],
)
def test_cli_rejects_non_finite_time_scale_before_running(tmp_path, capsys, flags, field):
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--count", "2", "--out", str(out)] + flags) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--noise-p", "0.01", "--noise-seed", "-1"], "rng_seed"),
        (["--readout", "swap", "--seed", "-1"], "seed"),
    ],
    ids=["noise-seed", "seed"],
)
def test_cli_rejects_negative_seeds_before_running(tmp_path, capsys, flags, field):
    out = tmp_path / "bad.csv"
    assert main(["set", "--out", str(out)] + flags) == 2
    assert f"{field} must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_width_over_the_qubit_budget_before_running(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--count", "2", "--l", "34", "--out", str(out)]) == 2
    assert "preprocess_bits = 34" in capsys.readouterr().err
    assert not out.exists()


def test_cli_describe_estimates_over_the_qubit_budget_fails_cleanly(capsys):
    assert main(["describe", "--lambda", "1/3", "--estimates", "40"]) == 3
    assert "41 qubits exceed the simulator budget" in capsys.readouterr().err


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(source="n5-set")
    with pytest.raises(ValueError):
        ExperimentSpec(variants=["canonical", "quantum-leap"])
    with pytest.raises(ValueError):
        ExperimentSpec(source="file", path=None)
    with pytest.raises(ValueError):
        ExperimentSpec(source="n2-set", lambdas=[0.9])
    # run settings are checked by RunConfig for every requested variant
    with pytest.raises(ValueError, match="preprocess_bits"):
        ExperimentSpec(clock_bits=5, preprocess_bits=5, variants=["enhanced"])
    ExperimentSpec(clock_bits=5, preprocess_bits=5, variants=["canonical", "hybrid"])
    with pytest.raises(ValueError, match="t0 mode"):
        ExperimentSpec(t0_mode="adaptive")
    with pytest.raises(ValueError, match="shots"):
        ExperimentSpec(shots=0)


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_SPECS = {
    # file name -> spec of the CLI recipe that wrote it
    "sweep_count5.csv": dict(name="n2-sweep", source="n2-sweep", count=5),  # sweep --count 5
    "sweep_count5_iterative.csv": dict(
        name="n2-sweep", source="n2-sweep", count=5, t0_mode="iterative"
    ),  # sweep --count 5 --t0-mode iterative
    "n4_pairs01.csv": dict(name="n4-set", source="n4-set", pairs="0-1"),  # n4 --pairs 0-1
    "sweep_count5_swap_noisy.csv": dict(
        name="n2-sweep", source="n2-sweep", count=5, readout="swap", noise_p=0.02
    ),  # sweep --count 5 --readout swap --noise-p 0.02
    "n4_pairs01_swap_noisy.csv": dict(
        name="n4-set", source="n4-set", pairs="0-1", readout="swap", noise_p=0.01
    ),  # n4 --pairs 0-1 --readout swap --noise-p 0.01
    "n4_pairs01_k7_noisy.csv": dict(
        name="n4-set", source="n4-set", pairs="0-1", clock_bits=7, preprocess_bits=10, noise_p=0.01
    ),  # n4 --pairs 0-1 --k 7 --l 10 --noise-p 0.01
    "sweep_count5_direct.csv": dict(
        name="n2-sweep", source="n2-sweep", count=5, readout="direct"
    ),  # sweep --count 5 --readout direct
    "n4_pairs01_direct_noisy.csv": dict(
        name="n4-set", source="n4-set", pairs="0-1", readout="direct", noise_p=0.01
    ),  # n4 --pairs 0-1 --readout direct --noise-p 0.01
}


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("filename", sorted(GOLDEN_SPECS))
def test_golden_output(tmp_path, filename):
    """Recipe CSVs match the committed outputs: floats to 1e-12, the rest exactly."""
    spec = ExperimentSpec(out=str(tmp_path / filename), **GOLDEN_SPECS[filename])
    run_experiment(spec)
    expected = _read_rows(GOLDEN_DIR / filename)
    actual = _read_rows(tmp_path / filename)
    assert len(actual) == len(expected)
    for want_row, got_row in zip(expected, actual):
        assert list(got_row) == list(want_row)
        for column, want in want_row.items():
            want, got = _cell(want), _cell(got_row[column])
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), column
            else:
                assert got == want, column


def test_file_source(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(generate_n2(0.25).to_json())
    spec = ExperimentSpec(
        source="file",
        path=str(problem),
        variants=["canonical"],
        out=str(tmp_path / "f.csv"),
    )
    run_experiment(spec)
    rows = _read_rows(tmp_path / "f.csv")
    assert len(rows) == 1
    assert rows[0]["problem_id"] == "problem"
