"""Harness tests: CSV output, determinism, plot data, CLI surface."""
import argparse
import csv
import json
import math
import re
from pathlib import Path

import pytest

from qlslab.cli import (
    CSV_COLUMNS,
    EXPERIMENT_COMMANDS,
    N2_SWEEP_T0,
    ExperimentSpec,
    _add_common_flags,
    _run_config,
    _spec_from_args,
    _spec_from_config,
    build_parser,
    describe_problem,
    emit_plot_data,
    main,
    run_experiment,
)
from qlslab.pipeline import RunConfig
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


def test_missing_csv_and_summary_directories_are_both_created(tmp_path, capsys):
    """The summary's directory was not created, so the run wrote the CSV and exited 2."""
    out, summary = tmp_path / "a" / "x.csv", tmp_path / "b" / "s.json"
    args = ["set", "--lambdas", "1/3", "--out", str(out), "--summary", str(summary)]
    assert main(args) == 0
    assert len(_read_rows(out)) == 3
    assert json.loads(summary.read_text()) == json.loads(capsys.readouterr().out)


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


def test_plot_data_leaves_a_missing_variant_empty(tmp_path):
    csv_path = tmp_path / "partial.csv"
    csv_path.write_text(
        "lambda_or_seed,variant,error\n0.2,canonical,0.3\n0.3,canonical,0.1\n0.3,hybrid,0.4\n"
    )
    out_path = tmp_path / "plot.csv"
    assert emit_plot_data(str(csv_path), str(out_path)) == 2
    assert out_path.read_text().splitlines() == [
        "lambda,error_canonical,error_hybrid",
        "0.2,0.3,",
        "0.3,0.1,0.4",
    ]


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


@pytest.mark.parametrize("width", [0, -1, 2.5, 3.0, True, None])
def test_describe_accepts_only_int_clock_widths(width):
    message = f"clock_bits must be at least 1 and an int, not {width!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        describe_problem(generate_n2(0.3), width, 10.0)


@pytest.mark.parametrize("t0", [True, "2", None])
def test_describe_accepts_only_a_real_t0(t0):
    """A bool would describe the grid at t0 = 1, and a string or None raised ``TypeError``."""
    with pytest.raises(ValueError, match=re.escape(f"t0 must be a real number, not {t0!r}")):
        describe_problem(generate_n2(0.3), 3, t0)


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "x.csv"
    for doc in ({"mystery_knob": 1}, {"t0_lambda_max": 0.9}):
        config.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("sweep", {"lambdas": [0.1, 0.2]}, []),
        ("sweep", {"eigenvalues": [-0.5, -0.25, 0.25, 0.5]}, []),
        ("n4", {"count": 3, "lambda_min": 0.1}, []),
        ("set", {"basis_seed": 3}, []),
        ("sweep", {"source": "n2-set", "count": 3}, []),
        ("n4", {"path": "problem.json"}, []),
        ("sweep", {"source": "n4-set"}, ["--count", "3"]),
    ],
)
def test_config_rejects_keys_the_source_never_reads(tmp_path, capsys, command, doc, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(config), "--out", str(out)] + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_bounds_rejects_non_finite_input(capsys):
    assert main(["bounds", "--kappa", "nan", "--t0", "1"]) == 2
    assert "error: kappa must be finite" in capsys.readouterr().err
    assert main(["bounds", "--kappa", "2", "--t0", "10", "--k", "-3", "--l", "2"]) == 2
    captured = capsys.readouterr()
    assert "error: clock_bits must be at least 1 and an int" in captured.err and not captured.out


@pytest.mark.parametrize(
    "flags",
    [["--t0", "0"], ["--t0", "inf"], ["--t0", "-5"], ["--k", "0"]],
    ids=["t0-zero", "t0-inf", "t0-negative", "k-zero"],
)
def test_cli_describe_rejects_a_grid_that_cannot_exist(capsys, flags):
    assert main(["describe", "--lambda", "0.2"] + flags) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and not captured.out


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "1/0"], ["--lambda", "0.2", "--estimates", "0"]],
    ids=["lambda-divides-by-zero", "estimates-zero"],
)
def test_cli_describe_rejects_bad_input_before_printing(capsys, flags):
    assert main(["describe"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def test_cli_describe_estimate_dump(capsys):
    assert main(["describe", "--lambda", "1/3", "--estimates", "5"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[-1])
    assert payload["l"] == 5
    assert {entry[0] for entry in payload["entries"]} == {12, 24}


@pytest.mark.parametrize("bits", [1, 2, 4, 5, 7])
def test_cli_describe_estimates_run_at_the_scaled_t0(capsys, bits):
    """L-bit estimates run at t0 * 2^(L-k), below k as well as above it:
    at L = 2 < k = 5, lambda = 0.75 then reads 0.889 on the coarse grid,
    not an aliased 0.333 at the unscaled t0."""
    assert main(["describe", "--lambda", "0.25", "--k", "5", "--estimates", str(bits)]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["t0"] == N2_SWEEP_T0 * 2 ** (bits - 5)


MALFORMED_PROBLEMS = {
    "not-an-object": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "no-matrix": {"vector_b": [[1, 0], [0, 0]]},
    "not-pairs": {"matrix": [[1, 0], [0, 1]], "vector_b": [[1, 0], [0, 0]]},
    **{
        f"{name}-scale": {
            "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "vector_b": [[1, 0], [0, 0]],
            "scale": scale,
        }
        for name, scale in (
            ("nan", math.nan),
            ("negative", -3),
            ("infinite", math.inf),
            ("bool", True),
            ("string", "2"),
        )
    },
}


@pytest.mark.parametrize("doc", MALFORMED_PROBLEMS.values(), ids=MALFORMED_PROBLEMS)
def test_cli_rejects_a_malformed_problem_file(tmp_path, capsys, doc):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert main(["describe", "--file", str(problem)]) == 2
    assert "error:" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"source": "file", "path": str(problem)}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_invalid_spec_exit_code(tmp_path):
    code = main(
        ["set", "--lambdas", "0.7", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_cli_rejects_an_empty_variant_list_before_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--count", "2", "--variant", ",", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_flag_reference_lists_exactly_the_experiment_flags():
    doc = (Path(__file__).parents[1] / "docs" / "reproduce.md").read_text()
    table = doc.split("## Flag reference", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(--[\w-]+)`", table, flags=re.MULTILINE)
    parser = argparse.ArgumentParser(add_help=False)
    _add_common_flags(parser)
    registered = [option for action in parser._actions for option in action.option_strings]
    assert sorted(documented) == sorted(registered)


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
    "flags, field", [(["--t0-mode", "explicit=nan"], "t0_value")], ids=["t0-value"]
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
        (["--noise-seed", "-3"], "rng_seed"),
        (["--readout", "swap", "--seed", "-1"], "seed"),
    ],
    ids=["noise-seed", "noise-seed-noise-off", "seed"],
)
def test_cli_rejects_negative_seeds_before_running(tmp_path, capsys, flags, field):
    out = tmp_path / "bad.csv"
    assert main(["set", "--out", str(out)] + flags) == 2
    assert f"{field} must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise_p", ["-0.5", "nan"])
def test_cli_rejects_a_noise_probability_outside_0_1_before_running(tmp_path, capsys, noise_p):
    out = tmp_path / "bad.csv"
    assert main(["set", "--noise-p", noise_p, "--out", str(out)]) == 2
    assert "probability must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k, l", [(3, 5), (4, 6), (5, 7)])
def test_cli_enhanced_rows_default_to_two_extra_bits(tmp_path, k, l):
    out = tmp_path / "k.csv"
    assert main(["sweep", "--count", "2", "--k", str(k), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert {(row["variant"], row["k"], row["l"]) for row in rows} == {
        ("canonical", str(k), str(k)),
        ("hybrid", str(k), str(k)),
        ("enhanced", str(k), str(l)),
    }


def test_cli_rejects_an_enhanced_l_not_above_k(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--count", "2", "--k", "5", "--l", "5", "--out", str(out)]) == 2
    assert "preprocess_bits > clock_bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({}, ["--variant", "hybrid", "--l", "7"]),
        ({}, ["--variant", "canonical,hybrid", "--l", "3"]),
        ({"preprocess_bits": 7, "variants": ["canonical"]}, []),
        ({"preprocess_bits": 7}, ["--variant", "hybrid"]),
    ],
    ids=["flag-hybrid", "flag-at-k", "config-canonical", "config-with-variant-flag"],
)
def test_cli_rejects_an_l_that_no_row_reads(tmp_path, capsys, doc, flags):
    """Only enhanced rows read preprocess_bits; the others report l = k."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    argv = ["sweep", "--count", "2", "--config", str(config), "--out", str(out)] + flags
    assert main(argv) == 2
    assert "only the enhanced variant reads preprocess_bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["canonical", "hybrid", "enhanced"])
def test_unset_run_settings_take_the_run_config_defaults(variant):
    config = _run_config(ExperimentSpec(), variant)
    assert config == RunConfig(variant=variant, t0_mode="explicit", t0_value=N2_SWEEP_T0)


def test_cli_rejects_a_width_over_the_qubit_budget_before_running(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--count", "2", "--l", "34", "--out", str(out)]) == 2
    assert "preprocess_bits = 34" in capsys.readouterr().err
    assert not out.exists()


def test_cli_describe_estimates_over_the_qubit_budget_fails_cleanly(capsys):
    assert main(["describe", "--lambda", "1/3", "--estimates", "40"]) == 3
    assert "41 qubits exceed the simulator budget" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -2, 2.5, True, None, "3"])
def test_spec_rejects_a_count_that_is_not_a_positive_int(count):
    with pytest.raises(ValueError, match="count must be at least 1 and an int"):
        ExperimentSpec(count=count)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(source="n5-set")
    with pytest.raises(ValueError, match="unknown variant 'quantum-leap'"):  # from RunConfig
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
    with pytest.raises(ValueError, match="variant list is empty"):
        ExperimentSpec(variants=[])
    # checked even when no enhanced row would plan with them
    with pytest.raises(ValueError, match="unknown angle policy"):
        ExperimentSpec(angle_policy="bogus", variants=["canonical", "hybrid"])
    with pytest.raises(ValueError, match="unknown alpha model"):
        ExperimentSpec(alpha_model="bogus", variants=["canonical"])


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
    "sweep_count5_paper_exact.csv": dict(
        name="n2-sweep", source="n2-sweep", count=5, angle_policy="paper", alpha_model="exact"
    ),  # sweep --count 5 --angle-policy paper --alpha exact
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
