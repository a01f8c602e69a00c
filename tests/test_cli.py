import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import gobe
import oracles
from gobe import cli, dataset, estimator, power, regression, report
from gobe.cli import aggregate, build_parser, main
from gobe.report import validate_report
from gobe.rng import child_seed


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def four_row_csv(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "arm,kpi,pre\n0,1.0,0.5\n0,2.0,0.4\n1,4.0,0.6\n1,6.0,0.7\n",
        encoding="utf-8",
    )
    return path


SCHEMA_FLAGS = ["--assignment-col", "arm", "--outcome-col", "kpi",
                "--covariate-cols", "pre", "--pre-period-col", "pre"]


def read_report_file(path):
    doc = json.loads(path.read_text())
    validate_report(doc)
    return doc


def read_report(out_dir):
    return read_report_file(out_dir / "report.json")


def run_python(script, **env):
    """Run ``script`` in a fresh interpreter that imports this gobe; its stdout."""
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [str(Path(gobe.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_estimate_minimal(four_row_csv, tmp_path):
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", four_row_csv, *SCHEMA_FLAGS,
                   "--models", "dim", "--out", out, "--seed", "3")
    assert code == 0
    doc = read_report(out)
    assert doc["kind"] == "estimate"
    assert len(doc["estimates"]) == 1
    assert doc["estimates"][0]["model_id"] == "dim"
    assert doc["estimates"][0]["ate"] == pytest.approx(3.5)
    assert (out / "manifest.json").exists()


def test_simulate_reports_are_byte_identical(tmp_path):
    args = ["simulate", "--n-units", "200", "--outcome-cor", "0.5",
            "--seed", "11", "--daily-arrivals", "20"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "synthetic.csv").read_bytes() == (out2 / "synthetic.csv").read_bytes()
    read_report(out1)


def test_estimate_report_byte_identical_across_runs(four_row_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["estimate", "--input", four_row_csv, *SCHEMA_FLAGS,
            "--models", "dim,ols", "--seed", "5"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_aa_splits_rows(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "120", "--outcome-cor", "0.6",
                   "--seed", "2", "--out", sim) == 0
    out = tmp_path / "aa"
    code = run_cli("aa", "--input", sim / "synthetic.csv",
                   "--assignment-col", "assignment", "--outcome-col", "outcome",
                   "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1",
                   "--models", "dim,ols", "--s-splits", "40", "--kappa", "4",
                   "--seed", "7", "--out", out)
    assert code == 0
    doc = read_report(out)
    assert doc["s_splits"] == 40 and doc["kappa"] == 4
    lines = (out / "aa_splits.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 40 * 2
    assert set(doc["bucket_metrics"]["per_model"]) == {"dim", "ols"}


def test_aa_kappa_defaults_to_the_split_count_below_twenty(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "60", "--seed", "3", "--out", sim) == 0
    out = tmp_path / "aa"
    code = run_cli("aa", "--input", sim / "synthetic.csv",
                   "--assignment-col", "assignment", "--outcome-col", "outcome",
                   "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1",
                   "--models", "dim,ols", "--s-splits", "10", "--seed", "1", "--out", out)
    assert code == 0
    doc = read_report(out)
    assert doc["s_splits"] == 10 and doc["kappa"] == 10


def test_stress_command(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "200", "--outcome-cor", "0.5",
                   "--true-ate", "0.4", "--seed", "4", "--out", sim) == 0
    out = tmp_path / "stress"
    code = run_cli("stress", "--input", sim / "synthetic.csv",
                   "--assignment-col", "assignment", "--outcome-col", "outcome",
                   "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1",
                   "--models", "dim,ols", "--folds", "2", "--draws", "3",
                   "--seed", "4", "--out", out)
    assert code == 0
    doc = read_report(out)
    assert doc["fold_counts"] == [1, 2]
    assert set(doc["median_err"]) == {"dim", "ols"}
    table = (out / "stress.csv").read_text().strip().splitlines()
    assert table[0] == "model,folds,n_units,median_err,median_vr,runtime_ms"
    assert len(table) == 1 + 2 * 2  # two models x two fold counts


def _stress_runtimes(tmp_path, outcome):
    """runtime_ms per stress.csv row, keyed by (model, folds), for a
    dim,tweedie run on a small input with the given outcome column."""
    rng = np.random.default_rng(21)
    arm = (np.arange(outcome.size) % 2).astype(int)
    pre = rng.standard_normal(outcome.size)
    path = tmp_path / "kpi.csv"
    path.write_text("arm,kpi,pre\n" + "".join(
        f"{a},{y!r},{z!r}\n" for a, y, z in zip(arm, outcome.tolist(), pre.tolist())),
        encoding="utf-8")
    out = tmp_path / "stress"
    code = run_cli("stress", "--input", path, *SCHEMA_FLAGS, "--models", "dim,tweedie",
                   "--folds", "2", "--draws", "2", "--seed", "3", "--out", out)
    assert code == 0
    read_report(out)
    with open(out / "stress.csv", encoding="utf-8") as fh:
        return {(row["model"], int(row["folds"])): row["runtime_ms"]
                for row in csv.DictReader(fh)}


def test_stress_times_every_model_on_non_negative_input(tmp_path):
    revenue = np.random.default_rng(22).exponential(2.0, size=80)
    runtimes = _stress_runtimes(tmp_path, revenue)
    assert set(runtimes) == {(m, f) for m in ("dim", "tweedie") for f in (1, 2)}
    assert all(float(ms) > 0.0 for ms in runtimes.values())


def test_stress_runtime_blank_where_every_fit_failed(tmp_path):
    runtimes = _stress_runtimes(tmp_path, np.random.default_rng(23).standard_normal(80))
    for folds in (1, 2):
        assert runtimes[("tweedie", folds)] == ""  # tweedie rejects negative outcomes
        assert float(runtimes[("dim", folds)]) > 0.0


def test_power_command_and_horizon_exhaustion(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "1500", "--outcome-cor", "0.6",
                   "--daily-arrivals", "100", "--true-ate", "0.3",
                   "--seed", "6", "--out", sim) == 0
    out = tmp_path / "power"
    code = run_cli("power", "--input", sim / "synthetic.csv",
                   "--assignment-col", "assignment", "--outcome-col", "outcome",
                   "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1",
                   "--day-col", "day", "--models", "dim,ols",
                   "--day", "7", "--delta", "0.001", "--horizon", "9",
                   "--seed", "6", "--out", out)
    assert code == 0
    doc = read_report(out)
    assert doc["anchor_day"] == 7 and doc["horizon"] == 9
    for rec in doc["recommendations"]:
        assert rec["D_prime"] is None  # tiny effect, tiny horizon
        assert rec["D"] == 7


@pytest.mark.parametrize("given, message", [
    (["--delta", "0.01"], "--day (analysis day) is required for power"),
    (["--day", "7"], "--delta (hypothesized relative effect) is required for power"),
    (["--day", "7", "--delta", "0"],
     "delta must be non-zero; power cannot exceed alpha at zero effect"),
    (["--day", "7", "--delta", "0.1", "--power-target", "1"],
     "target_power must be in (0, 1), got 1.0"),
    (["--day", "7", "--delta", "0.1", "--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    (["--day", "0", "--delta", "0.1"], "day filter must be >= 1"),
    (["--day", "7", "--horizon", "3", "--delta", "0.1"],
     "horizon must not precede the analysis day"),
])
def test_power_checks_day_and_delta_before_loading_the_input(four_row_csv, tmp_path,
                                                             monkeypatch, given, message):
    loads = []
    monkeypatch.setattr(cli.dataset, "load_csv", lambda *args: loads.append(args))
    out = tmp_path / "power"
    assert run_cli("power", "--input", four_row_csv, *SCHEMA_FLAGS, *given, "--out", out) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"type": "ValidationError", "message": message}
    assert loads == []


def test_estimate_checks_the_day_before_loading_the_input(four_row_csv, tmp_path, monkeypatch):
    loads = []
    monkeypatch.setattr(cli.dataset, "load_csv", lambda *args: loads.append(args))
    out = tmp_path / "estimate"
    assert run_cli("estimate", "--input", four_row_csv, *SCHEMA_FLAGS, "--day", "0",
                   "--out", out) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"type": "ValidationError", "message": "day filter must be >= 1"}
    assert loads == []


def test_batch_layout_and_aggregate(tmp_path):
    out = tmp_path / "batch"
    code = run_cli("batch", "--experiments", "3", "--day-filters", "7,28",
                   "--n-units", "600", "--outcome-cor", "0.5", "--true-ate", "0.2",
                   "--daily-arrivals", "25", "--models", "dim,ols",
                   "--seed", "9", "--out", out)
    assert code == 0
    reports = sorted((out / "reports").glob("*.json"))
    assert len(reports) == 6
    for path in reports:
        doc = json.loads(path.read_text())
        validate_report(doc)
        assert doc["kind"] == "estimate"
        assert doc["input"]["day_filter"] in (7, 28)
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0].startswith("group,model,n_experiments")
    assert len(agg) > 1


def test_batch_outputs_are_byte_identical_across_runs(tmp_path):
    args = ["batch", "--n-units", "400", "--outcome-cor", "0.5", "--true-ate", "0.2",
            "--daily-arrivals", "20", "--day-filters", "7,28", "--models", "dim,ols,ridge",
            "--seed", "13"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    names = sorted(p.relative_to(out_a) for p in (out_a / "reports").glob("*.json"))
    assert len(names) == 6  # three experiments x two day filters
    assert names == sorted(p.relative_to(out_b) for p in (out_b / "reports").glob("*.json"))
    for name in [*names, "aggregate.csv"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_aggregate_single_report_is_identity():
    doc = {
        "kind": "estimate", "seed": 0, "alpha": 0.05,
        "input": {"n_units": 100, "k_covariates": 2, "n_per_arm": [50, 50],
                  "day_filter": None},
        "estimates": [], "variance_reduction": {"dim": 0.0, "ols": 42.5},
    }
    header, rows = aggregate([doc])
    ols_rows = [r for r in rows if r[0] == "all" and r[1] == "ols"]
    assert ols_rows[0][2] == 1
    assert ols_rows[0][header.index("vr_median")] == 42.5


def test_aggregate_median_of_four():
    docs = []
    for i, vr in enumerate([0.0, 10.0, 20.0, 30.0]):
        doc = {
            "kind": "estimate", "seed": i, "alpha": 0.05,
            "input": {"n_units": 100 + i, "k_covariates": 2,
                      "n_per_arm": [50, 50], "day_filter": None},
            "estimates": [], "variance_reduction": {"ols": vr},
        }
        docs.append(doc)
    header, rows = aggregate(docs)
    all_ols = next(r for r in rows if r[0] == "all" and r[1] == "ols")
    assert all_ols[header.index("vr_median")] == 15.0


def test_aggregate_quartile_groups_of_25():
    docs = []
    rng = np.random.default_rng(0)
    for i in range(100):
        doc = {
            "kind": "estimate", "seed": i, "alpha": 0.05,
            "input": {"n_units": int(rng.integers(100, 10_000)),
                      "k_covariates": 2, "n_per_arm": [50, 50], "day_filter": None},
            "estimates": [], "variance_reduction": {"ols": float(rng.uniform(0, 50))},
        }
        docs.append(doc)
    header, rows = aggregate(docs)
    for q in range(1, 5):
        row = next(r for r in rows if r[0] == f"size_q{q}" and r[1] == "ols")
        assert row[header.index("n_experiments")] == 25


def test_aggregate_quartiles_are_numpys_bit_for_bit():
    # a variance reduction is 100 (1 - r), never -0, so no zero of the wrong sign is drawn
    rng = np.random.default_rng(11)
    for n in [*range(1, 41), *rng.integers(41, 300, 20)]:
        for values in (rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n),
                       np.round(rng.uniform(-50, 50, n)) + 0.0):
            got = cli._quartiles(np.sort(values))
            want = (np.percentile(values, 25), np.median(values), np.percentile(values, 75))
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_batch_aggregate_is_the_aggregate_of_its_reports(tmp_path):
    out = tmp_path / "batch"
    assert run_cli("batch", "--experiments", "5", "--day-filters", "7,28", "--n-units", "500",
                   "--outcome-cor", "0.5", "--daily-arrivals", "30",
                   "--models", "dim,ols,ridge", "--seed", "21", "--out", out) == 0
    docs = [json.loads((out / "reports" / f"exp{w:03d}_day{day}.json").read_text())
            for w in range(5) for day in (7, 28)]
    header, rows = aggregate(docs)
    with open(out / "aggregate.csv", newline="", encoding="utf-8") as fh:
        written = list(csv.reader(fh))
    assert written[0] == header
    assert written[1:] == [[str(value) for value in row] for row in rows]
    assert {row[0] for row in rows} == {"all", "size_q1", "size_q2", "size_q3", "size_q4"}


@pytest.mark.parametrize("experiments", [0, -1])
def test_batch_needs_at_least_one_experiment(experiments, tmp_path):
    out = tmp_path / "out"
    assert run_cli("batch", "--experiments", experiments, "--out", out) == 1
    assert json.loads((out / "error.json").read_text())["error"] == {
        "type": "ValidationError",
        "message": f"--experiments must be >= 1, got {experiments}"}
    assert not (out / "reports").exists()


def test_batch_records_a_subset_too_small_to_estimate_and_aggregates_the_rest(tmp_path):
    out = tmp_path / "batch"
    assert run_cli("batch", "--experiments", "3", "--n-units", "60", "--daily-arrivals", "2",
                   "--day-filters", "1,28", "--out", out) == 0
    names = sorted(path.name for path in (out / "reports").iterdir())
    assert names == [f"exp{w:03d}_day{day}{suffix}" for w in range(3)
                     for day, suffix in ((1, ".error.json"), (28, ".json"))]
    for name in names[::2]:
        error = json.loads((out / "reports" / name).read_text())["error"]
        assert error["type"] == "ValidationError" and error["message"]
    header, rows = aggregate([read_report_file(out / "reports" / name) for name in names[1::2]])
    with open(out / "aggregate.csv", newline="", encoding="utf-8") as fh:
        written = list(csv.reader(fh))
    assert written == [header, *([str(value) for value in row] for row in rows)]
    assert rows[0][:3] == ["all", "dim", 3]


def test_every_too_small_day_subset_of_a_batch_is_told_both_arm_sizes(tmp_path):
    out = tmp_path / "batch"
    flags = ["--experiments", "3", "--n-units", "60", "--daily-arrivals", "2"]
    assert run_cli("batch", *flags, "--day-filters", "1,28", "--out", out) == 0
    config = cli._synthetic_config(build_parser().parse_args(["batch", *flags]))
    for w in range(3):
        subset = dataset.filter_by_day(
            dataset.generate(replace(config, seed=child_seed(0, w))), 1)
        error = json.loads((out / "reports" / f"exp{w:03d}_day1.error.json").read_text())
        n0, n1 = subset.arm_sizes()
        assert min(n0, n1) < 2
        assert error["error"] == {
            "type": "ValidationError",
            "message": f"need >= 2 units per arm for the error estimate (sizes: {n0}, {n1})"}


def test_a_batch_records_an_experiment_that_draws_an_empty_arm(tmp_path):
    out = tmp_path / "batch"
    flags = ["--experiments", "4", "--n-units", "20", "--assignment-prob", "0.05", "--seed", "2"]
    assert run_cli("batch", *flags, "--models", "dim", "--out", out) == 0
    assert (out / "aggregate.csv").exists()
    assert sorted(path.name for path in (out / "reports").iterdir()) == [
        "exp000.json", "exp001.json", "exp002.error.json", "exp003.json"]
    error = json.loads((out / "reports" / "exp002.error.json").read_text())
    assert error["error"] == {
        "type": "ValidationError",
        "message": "need >= 2 units per arm for the error estimate (sizes: 20, 0)"}


def test_batch_fails_with_the_first_error_when_no_subset_is_left(tmp_path):
    out = tmp_path / "batch"
    assert run_cli("batch", "--experiments", "2", "--n-units", "60", "--daily-arrivals", "2",
                   "--day-filters", "1", "--out", out) == 1
    first = json.loads((out / "reports" / "exp000_day1.error.json").read_text())
    assert json.loads((out / "error.json").read_text()) == first
    assert not (out / "aggregate.csv").exists()


def test_batch_checks_alpha_before_any_work(tmp_path):
    out = tmp_path / "out"
    assert run_cli("batch", "--alpha", "1.5", "--out", out) == 1
    assert json.loads((out / "error.json").read_text())["error"] == {
        "type": "ValidationError", "message": "alpha must be in (0, 1), got 1.5"}
    assert not (out / "reports").exists()


def test_config_file_with_flag_override(four_row_csv, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        f"input = {four_row_csv}\n"
        "models = dim\n"
        "seed = 1\n"
        "alpha = 0.05\n"
        "[schema]\n"
        "assignment = arm\n"
        "outcome = kpi\n"
        "covariates = pre\n"
        "pre_period = pre\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = run_cli("estimate", "--config", cfg, "--seed", "42", "--out", out)
    assert code == 0
    doc = read_report(out)
    assert doc["seed"] == 42  # flag beats the config file


def test_error_emits_machine_readable_json(tmp_path, capsys):
    out = tmp_path / "err"
    code = run_cli("estimate", "--input", tmp_path / "missing.csv",
                   *SCHEMA_FLAGS, "--out", out)
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["type"] == "ValidationError"
    assert "missing.csv" in err["error"]["message"]
    assert "does not exist" in capsys.readouterr().err


def test_day_beyond_int64_writes_a_validation_error(tmp_path):
    path = tmp_path / "days.csv"
    path.write_text("arm,kpi,pre,day\n0,1.0,0.5,1\n0,2.0,0.4,2\n1,4.0,0.6,1\n1,6.0,0.7,1e19\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", path, *SCHEMA_FLAGS, "--day-col", "day",
                   "--models", "dim", "--out", out)
    assert code == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("row 4, column 'day'")


@pytest.mark.parametrize("role", [["--day-col", "kpi"], ["--unit-id-col", "arm"]])
def test_a_day_or_unit_id_column_with_another_role_writes_a_schema_error(four_row_csv,
                                                                         tmp_path, role):
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", four_row_csv, *SCHEMA_FLAGS, *role,
                   "--models", "dim", "--out", out)
    assert code == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"type": "SchemaError",
                     "message": "schema maps the same column to more than one role"}
    assert not (out / "report.json").exists()


def test_quoted_field_over_the_csv_limit_writes_a_parse_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("arm,kpi,pre,note\n0,1.0,0.5,a\n0,2.0,0.4,b\n1,4.0,0.6,c\n"
                    f"1,6.0,0.7,\"{'x' * 140_000}\"\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", path, *SCHEMA_FLAGS, "--models", "dim", "--out", out)
    assert code == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("row 4: field larger than field limit")


@pytest.mark.parametrize("command", [["estimate"], ["aa", "--s-splits", "4"],
                                     ["stress", "--folds", "1", "--draws", "1"]])
@pytest.mark.parametrize("models", ["ols,ols", "dim,elastic_net:0.5,elastic_net:0.50"])
def test_a_model_listed_twice_writes_a_validation_error(four_row_csv, tmp_path, command,
                                                         models):
    out = tmp_path / "out"
    assert run_cli(*command, "--input", four_row_csv, *SCHEMA_FLAGS, "--models", models,
                   "--out", out) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].endswith("is listed more than once")
    assert not (out / "report.json").exists()


def test_batch_day_filter_zero_fails_as_filter_by_day_does(tmp_path):
    out = tmp_path / "out"
    assert run_cli("batch", "--experiments", "1", "--n-units", "40", "--day-filters", "0",
                   "--out", out) == 1
    assert json.loads((out / "error.json").read_text())["error"] == {
        "type": "ValidationError", "message": "day filter must be >= 1"}
    assert not (out / "reports").exists()


def test_env_var_default_out_dir(four_row_csv, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("GOBE_OUT", str(target))
    code = run_cli("estimate", "--input", four_row_csv, *SCHEMA_FLAGS,
                   "--models", "dim")
    assert code == 0
    assert (target / "report.json").exists()


def test_partial_model_failure_does_not_abort(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "arm,kpi,pre\n0,-1.0,0.5\n0,2.0,0.4\n1,4.0,0.6\n1,-6.0,0.7\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", path, *SCHEMA_FLAGS,
                   "--models", "dim,tweedie", "--out", out, "--seed", "1")
    assert code == 0  # tweedie fails on negative outcomes, dim still reports
    doc = read_report(out)
    assert [e["model_id"] for e in doc["estimates"]] == ["dim"]
    assert doc["failures"][0]["model_id"] == "tweedie"
    assert "non-negative" in doc["failures"][0]["message"]


def test_programming_error_in_a_fit_aborts_estimate(four_row_csv, tmp_path, capsys,
                                                    ols_fit_has_a_bug):
    out = tmp_path / "out"
    code = run_cli("estimate", "--input", four_row_csv, *SCHEMA_FLAGS,
                   "--models", "dim,ols", "--out", out, "--seed", "1")
    assert code == 1  # not recorded as a failed model
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "TypeError"
    assert not (out / "report.json").exists()


def test_stress_and_power_reports_are_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "600", "--outcome-cor", "0.6",
                   "--true-ate", "0.3", "--daily-arrivals", "40",
                   "--seed", "12", "--out", sim) == 0
    schema = ["--input", sim / "synthetic.csv", "--assignment-col", "assignment",
              "--outcome-col", "outcome", "--covariate-cols", "z1,z2,z3",
              "--pre-period-col", "z1", "--day-col", "day", "--models", "dim,ols",
              "--seed", "12"]
    for command in (["stress", "--folds", "2", "--draws", "2"],
                    ["power", "--day", "7", "--delta", "0.2"]):
        out_a, out_b = tmp_path / f"{command[0]}_a", tmp_path / f"{command[0]}_b"
        assert run_cli(*command, *schema, "--out", out_a) == 0
        assert run_cli(*command, *schema, "--out", out_b) == 0
        read_report(out_a)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def _command_options():
    """(command, dest, flag) for every option of every command but --help/--config."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.dest, action.option_strings[0])
            for command, p in sub.choices.items() for action in p._actions
            if action.option_strings and action.dest not in ("help", "config")]


def _config_key(dest, flag):
    if dest.startswith("schema_"):
        return "schema", dest[len("schema_"):]
    return "run", flag[len("--"):]


def _recording_handlers(monkeypatch):
    """Replace every command's handler by one that records its namespace."""
    seen = []
    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, lambda args, out_dir: seen.append(vars(args)))
    return seen


@pytest.mark.parametrize("command,dest,flag", _command_options())
def test_config_value_parses_like_its_flag(command, dest, flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GOBE_OUT", raising=False)
    seen = _recording_handlers(monkeypatch)
    section, key = _config_key(dest, flag)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = 2\n", encoding="utf-8")
    assert run_cli(command, flag, "2") == 0
    assert run_cli(command, "--config", cfg) == 0
    assert run_cli(command) == 0
    from_flag, from_config, default = seen
    assert from_config == {**from_flag, "config": str(cfg)}
    assert from_flag[dest] != default[dest]


@pytest.mark.parametrize("command,section,key", [
    ("estimate", "run", "folds"),
    ("aa", "run", "delta"),
    ("simulate", "schema", "outcome"),
    ("simulate", "run", "input"),
    ("simulate", "run", "models"),
    ("simulate", "run", "alpha"),
    ("estimate", "run", "command"),
])
def test_config_key_without_a_flag_in_the_command_is_rejected(command, section, key, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "ValidationError"
    assert error["message"] == f"unknown [{section}] config key {key!r} for command {command!r}"


@pytest.mark.parametrize("command,key,flag,value", [
    ("estimate", "seed", "--seed", "abc"),
    ("aa", "s_splits", "--s-splits", "1e2"),
    ("batch", "day_filters", "--day-filters", "7,x"),
    ("batch", "day_filters", "--day-filters", "7,28,7"),
])
def test_config_value_type_error_fails_like_the_flag(command, key, flag, value, tmp_path,
                                                     capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as from_flag:
        run_cli(command, flag, value, "--out", out)
    flag_stderr = capsys.readouterr().err
    with pytest.raises(SystemExit) as from_config:
        run_cli(command, "--config", cfg, "--out", out)
    assert from_config.value.code == from_flag.value.code == 2
    assert capsys.readouterr().err == flag_stderr
    assert repr(value) in flag_stderr


def test_config_out_receives_error_json(tmp_path, monkeypatch):
    monkeypatch.delenv("GOBE_OUT", raising=False)
    out = tmp_path / "from_config"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nout = {out}\nmodels = dim\n", encoding="utf-8")
    assert run_cli("estimate", "--config", cfg) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"type": "ValidationError",
                     "message": "--input (or config input=) is required"}


def test_manifest_echoes_typed_resolved_options(tmp_path, monkeypatch):
    _recording_handlers(monkeypatch)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nkappa = 4\n[schema]\noutcome = kpi\n", encoding="utf-8")
    out = tmp_path / "aa"
    assert run_cli("aa", "--config", cfg, "--seed", "8", "--out", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["alpha"] == 0.05 and isinstance(config["alpha"], float)
    assert config["s_splits"] == 1000 and config["arm"] == 0
    assert config["kappa"] == 4 and config["seed"] == 8
    assert config["models"] == "dim,ols"
    assert config["schema_outcome"] == "kpi" and config["schema_day"] is None
    assert config["out"] == str(out) and config["command"] == "aa"


def test_the_manifest_records_the_blas_and_the_thread_setup(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run_cli("simulate", "--n-units", "20", "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
                                   "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    assert manifest["cpu_count"] == os.cpu_count()
    built = getattr(np.__config__, "CONFIG", None)  # numpy >= 1.25 records its BLAS
    blas = built["Build Dependencies"]["blas"] if built else {}
    assert manifest["versions"]["blas"] == {"name": blas.get("name"),
                                            "version": blas.get("version")}


def test_a_successful_run_imports_neither_jsonschema_nor_importlib_metadata(tmp_path):
    data = dataset.generate(dataset.SyntheticConfig(n_units=200, k_covariates=2,
                                                    outcome_cor=0.5, seed=3))
    dataset.write_csv(data, tmp_path / "in.csv")
    schema = ["--input", str(tmp_path / "in.csv"), "--assignment-col", "assignment",
              "--outcome-col", "outcome", "--covariate-cols", "z1,z2", "--pre-period-col", "z1"]
    commands = [["estimate", *schema, "--models", "dim,ols,ridge", "--out", str(tmp_path / "est")],
                ["aa", *schema, "--models", "dim,ols", "--s-splits", "20", "--out",
                 str(tmp_path / "aa")]]
    # hashlib is loaded by numpy.random once a command runs, not by the import
    script = ("import json, sys\n"
              "import gobe.cli\n"
              "on_import = sorted({'jsonschema', 'importlib.metadata', 'hashlib', 'subprocess'}"
              " & set(sys.modules))\n"
              f"codes = [gobe.cli.main(argv) for argv in {commands!r}]\n"
              "print(json.dumps([on_import, codes, sorted({'jsonschema', 'importlib.metadata',"
              " 'subprocess'} & set(sys.modules))]))\n")
    assert json.loads(run_python(script)) == [[], [0, 0], []]
    for out in ("est", "aa"):
        read_report(tmp_path / out)
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["versions"]["gobe"] == gobe.__version__


def test_reports_are_written_and_rejected_without_jsonschema(tmp_path):
    data = dataset.generate(dataset.SyntheticConfig(n_units=200, k_covariates=2,
                                                    outcome_cor=0.5, seed=3))
    dataset.write_csv(data, tmp_path / "in.csv")
    argv = ["estimate", "--input", str(tmp_path / "in.csv"), "--assignment-col", "assignment",
            "--outcome-col", "outcome", "--covariate-cols", "z1,z2", "--pre-period-col", "z1",
            "--models", "dim,ols,lasso", "--out", str(tmp_path / "est")]
    script = ("import sys\n"
              "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
              "import gobe.cli\n"
              "from gobe import errors, report\n"
              f"print(gobe.cli.main({argv!r}))\n"
              "try:\n"
              "    report.validate_report({'kind': 'nope'})\n"
              "except errors.ValidationError as exc:\n"
              "    print(exc)\n")
    assert run_python(script).splitlines() == [
        "0", "report of kind 'nope' does not match schemas/report.schema.json"]
    read_report(tmp_path / "est")


def test_aa_and_stress_do_not_load_numpy_ma(tmp_path):
    # a cold numpy.ma import costs 10-20 ms, a sizeable share of a small run
    data = dataset.generate(dataset.SyntheticConfig(n_units=200, k_covariates=2,
                                                    outcome_cor=0.5, seed=3))
    dataset.write_csv(data, tmp_path / "in.csv")
    flags = ["--input", str(tmp_path / "in.csv"), "--assignment-col", "assignment",
             "--outcome-col", "outcome", "--covariate-cols", "z1,z2", "--pre-period-col", "z1"]
    runs = [["aa", *flags, "--s-splits", "20", "--out", str(tmp_path / "aa")],
            ["stress", *flags, "--models", "dim,ols,lasso", "--folds", "2", "--draws", "2",
             "--out", str(tmp_path / "stress")]]
    script = ("import json, sys, gobe.cli\n"
              f"codes = [gobe.cli.main(argv) for argv in {runs!r}]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    assert json.loads(run_python(script)) == [[0, 0], False]


def test_batch_does_not_load_numpy_ma():
    script = ("import json, sys, tempfile, gobe.cli\n"
              "code = gobe.cli.main(['batch', '--experiments', '4', '--n-units', '200',\n"
              "                      '--models', 'dim,ols', '--out', tempfile.mkdtemp()])\n"
              "print(json.dumps([code, 'numpy.ma' in sys.modules]))\n")
    assert json.loads(run_python(script)) == [0, False]


def _serial_descent(chains):
    """``regression._coordinate_descent``'s result, one chain at a time."""
    return [oracles.coordinate_descent_path(gram, c, gammas, lam)
            for gram, c, gammas, lam in chains]


def test_reports_are_the_ones_the_serial_descent_gives(tmp_path, monkeypatch):
    data = dataset.generate(dataset.SyntheticConfig(n_units=600, k_covariates=3,
                                                    outcome_cor=0.6, seed=5))
    dataset.write_csv(data, tmp_path / "in.csv")
    flags = ["--input", tmp_path / "in.csv", "--assignment-col", "assignment",
             "--outcome-col", "outcome", "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1",
             "--seed", "7"]
    runs = {"stress": ["stress", *flags, "--models", "dim,ols,lasso", "--folds", "3",
                       "--draws", "2"],
            "estimate": ["estimate", *flags, "--models", "lasso,elastic_net:0.5"]}
    for name, argv in runs.items():
        assert run_cli(*argv, "--out", tmp_path / "kernel" / name) == 0
    monkeypatch.setattr(regression, "_coordinate_descent", _serial_descent)
    for name, argv in runs.items():
        assert run_cli(*argv, "--out", tmp_path / "serial" / name) == 0
        assert (tmp_path / "kernel" / name / "report.json").read_bytes() == (
            tmp_path / "serial" / name / "report.json").read_bytes()


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # arms of over 1e5 rows at K=10, where a QR or a BLAS dot product of all an
    # arm's rows takes its last bits from the thread count
    rng = np.random.default_rng(2)
    n = 220_000
    z = np.column_stack([rng.gamma(2.0, 1.0, n), rng.standard_normal((n, 9))]).round(3)
    outcome = rng.gamma(2.0, np.exp(0.3 * z[:, 1]) * z[:, 0] / 4.0) * (rng.random(n) < 0.6)
    data = dataset.ExperimentData(  # short decimals, so the CSV is quick to write and read
        unit_ids=np.arange(n), assignment=(rng.random(n) < 0.5).astype(np.int8),
        outcome=outcome.round(3), covariates=z, pre_period_col=0,
        day_index=rng.integers(1, 11, n))
    schema = dataset.write_csv(data, tmp_path / "in.csv")
    flags = ["--input", str(tmp_path / "in.csv"), "--assignment-col", schema.assignment,
             "--outcome-col", schema.outcome, "--covariate-cols", ",".join(schema.covariates),
             "--pre-period-col", schema.pre_period, "--seed", "3"]
    runs = {"estimate": ["estimate", *flags, "--models", ZOO + ",two_step:tweedie"],
            "power": ["power", *flags, "--day-col", schema.day, "--day", "9", "--delta", "0.05",
                      "--models", "ols,pcr,tweedie"],
            "aa": ["aa", *flags, "--models", "ols,pcr", "--s-splits", "2"],
            "stress": ["stress", *flags, "--models", "dim,ols,pcr", "--folds", "1",
                       "--draws", "1"]}
    children, src = [], str(Path(gobe.__file__).parents[1])
    for threads in ("1", "2"):  # side by side; each one's own thread count sets its bits
        argvs = [[*argv, "--out", str(tmp_path / threads / name)] for name, argv in runs.items()]
        script = f"import gobe.cli\nassert [gobe.cli.main(a) for a in {argvs!r}] == [0] * 4"
        children.append(subprocess.Popen([sys.executable, "-c", script], env={
            **os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}))
    try:
        assert [child.wait(timeout=120) for child in children] == [0, 0]
    finally:
        for child in children:
            child.kill()
    for name in runs:
        for path in sorted((tmp_path / "1" / name).iterdir()):
            other = tmp_path / "2" / name / path.name
            if path.name == "stress.csv":  # runtime_ms, the last column, is a wall time
                assert [row[:-1] for row in csv.reader(path.read_text().splitlines())] == [
                    row[:-1] for row in csv.reader(other.read_text().splitlines())]
            elif path.name != "manifest.json":
                assert path.read_bytes() == other.read_bytes(), (name, path.name)


# Attributes perfbench/replay.py reads from the parsed namespace of each
# benchmark command line, and the ones it needs to default to None.
_REPLAY_READS = ("command", "out", "seed", "alpha", "input", "models", "schema_assignment",
                 "schema_outcome", "schema_covariates", "schema_pre_period", "schema_day",
                 "schema_unit_id")
_REPLAY_READS_BY_COMMAND = {
    "estimate": ("day",),
    "power": ("day", "delta", "horizon", "power_target"),
    "aa": ("arm", "s_splits", "kappa", "jobs"),
    "stress": ("folds", "draws", "reference_model"),
}
_REPLAY_NONE_DEFAULTS = ("input", "day", "delta", "horizon", "kappa")


def test_benchmark_command_lines_parse_with_the_attributes_replay_reads():
    workloads = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    fill = {"{input}": "input.csv", "{out}": "out", "{seed}": "5"}
    commands = set()
    for workload in workloads:
        for template in workload["commands"]:
            argv = []
            for arg in template:
                for key, value in fill.items():
                    arg = arg.replace(key, value)
                argv.append(arg)
            args = build_parser().parse_args(argv)
            commands.add(args.command)
            for name in _REPLAY_READS + _REPLAY_READS_BY_COMMAND[args.command]:
                assert hasattr(args, name), (workload["name"], args.command, name)
            assert isinstance(args.models, str) and isinstance(args.schema_covariates, str)
            bare = vars(build_parser().parse_args([args.command]))
            for name in _REPLAY_NONE_DEFAULTS:
                assert bare.get(name) is None, (args.command, name)
    assert commands == set(_REPLAY_READS_BY_COMMAND)


ZOO = "dim,ols,ridge,lasso,elastic_net:0.5,pcr,tweedie,two_step:ols,ols@pre"
SIM_FLAGS = ["--assignment-col", "assignment", "--outcome-col", "outcome",
             "--covariate-cols", "z1,z2,z3", "--pre-period-col", "z1", "--day-col", "day"]


@pytest.fixture
def daily_csv(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--n-units", "400", "--outcome-cor", "0.6",
                   "--daily-arrivals", "20", "--true-ate", "0.3", "--seed", "8",
                   "--out", sim) == 0
    return sim / "synthetic.csv"


def test_estimate_day_filter_matches_estimates_on_the_filtered_data(daily_csv, tmp_path):
    out = tmp_path / "est"
    assert run_cli("estimate", "--input", daily_csv, *SIM_FLAGS, "--models", "dim,ols,ridge",
                   "--day", "7", "--seed", "4", "--out", out) == 0
    doc = read_report(out)
    data = dataset.filter_by_day(dataset.load_csv(daily_csv, dataset.CsvSchema(
        assignment="assignment", outcome="outcome", covariates=("z1", "z2", "z3"),
        pre_period="z1", day="day")), 7)
    assert doc["input"]["day_filter"] == 7
    assert doc["input"]["n_units"] == data.n_units < 400
    assert doc["estimates"] == [report.jsonable(asdict(estimator.estimate(data, name, seed=4)))
                                for name in ("dim", "ols", "ridge")]


def test_power_records_a_failed_model_and_keeps_the_baseline(tmp_path):
    rng = np.random.default_rng(9)
    n = 120
    arm, day = np.arange(n) % 2, 1 + np.arange(n) // 10
    kpi = 1.0 + rng.standard_normal(n)  # negative outcomes: tweedie cannot fit
    path = tmp_path / "neg.csv"
    path.write_text("arm,kpi,pre,day\n" + "".join(
        f"{a},{y!r},{z!r},{d}\n" for a, y, z, d in zip(arm, kpi.tolist(),
                                                       rng.standard_normal(n).tolist(), day)),
        encoding="utf-8")
    out = tmp_path / "power"
    assert run_cli("power", "--input", path, *SCHEMA_FLAGS, "--day-col", "day",
                   "--models", "dim,tweedie", "--day", "4", "--delta", "0.5",
                   "--seed", "2", "--out", out) == 0
    doc = read_report(out)
    assert doc["failures"] == [{"model_id": "tweedie", "type": "ValidationError",
                                "message": "tweedie requires non-negative outcomes"}]
    data = dataset.load_csv(path, dataset.CsvSchema(
        assignment="arm", outcome="kpi", covariates=("pre",), pre_period="pre", day="day"))
    analysis = dataset.filter_by_day(data, 4)
    rec = power.recommend_duration(estimator.estimate(analysis, "dim", seed=2),
                                   power.forecast_arm_sizes(data, 4), 0.5)
    assert doc["recommendations"] == [report.jsonable(report.recommendation_to_dict(rec))]


@pytest.mark.parametrize("command", [["estimate"], ["power", "--day", "7", "--delta", "0.2"]])
def test_estimate_and_power_split_the_rows_by_arm_once(command, daily_csv, tmp_path,
                                                       monkeypatch):
    calls = []
    split_arms = estimator.split_arms
    monkeypatch.setattr(estimator, "split_arms", lambda data: calls.append(1) or split_arms(data))
    out = tmp_path / "out"
    assert run_cli(*command, "--input", daily_csv, *SIM_FLAGS, "--models", ZOO,
                   "--out", out) == 0
    assert len(read_report(out)["failures"]) == 1  # tweedie, on negative outcomes
    assert len(calls) == 1


READOUT_MODELS = "dim,ols,ridge,lasso,elastic_net:0.5,pcr,tweedie,two_step:ols,ols@pre"


def reductions(tmp_path, monkeypatch, models):
    """Run ``gobe estimate --models models`` on 400 rows in 64-row blocks, and
    return the data, the row indices of each ``_reduce`` call, the row count
    of each block QR of shifted rows and the number of ``_folds`` and
    ``_coordinate_descent`` calls."""
    rng = np.random.default_rng(8)
    n = 400
    z = rng.standard_normal((n, 4))
    data = dataset.ExperimentData(
        unit_ids=np.arange(n), assignment=(rng.random(n) < 0.45).astype(np.int8),
        outcome=rng.gamma(2.0, np.exp(0.3 * z[:, 0] - 0.2 * z[:, 1]) / 2.0),
        covariates=z, pre_period_col=0)
    schema = dataset.write_csv(data, tmp_path / "in.csv")
    monkeypatch.setattr(regression, "_BLOCK_ROWS", 64)  # so that every arm spans blocks
    calls, reduced, block_rows = {}, [], []

    def counting(name):
        real = getattr(regression, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(regression, name, wrapper)

    for name in ("_folds", "_coordinate_descent"):
        counting(name)
    real_reduce, real_qr, real_split = regression._reduce, np.linalg.qr, estimator.split_arms
    tables = []

    def split_arms(data):
        tables.append(data.covariates)
        return real_split(data)

    def reduce(y, z, rows, cols, shift):
        assert z is tables[0]  # the loaded table, shared by both arms and not copied
        reduced.append(rows)
        return real_reduce(y, z, rows, cols, shift)

    def qr(a, *args, **kwargs):
        if (a[:, 0] == 1.0).all():  # a block of shifted rows, led by its intercept column
            block_rows.append(a.shape[0])
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(estimator, "split_arms", split_arms)
    monkeypatch.setattr(regression, "_reduce", reduce)
    monkeypatch.setattr(np.linalg, "qr", qr)
    out = tmp_path / "out"
    assert run_cli("estimate", "--input", tmp_path / "in.csv", "--assignment-col",
                   schema.assignment, "--outcome-col", schema.outcome, "--covariate-cols",
                   ",".join(schema.covariates), "--pre-period-col", schema.pre_period,
                   "--models", models, "--out", out) == 0
    doc = read_report(out)
    assert [e["model_id"] for e in doc["estimates"]] == models.split(",")
    assert max(block_rows) <= 64
    return data, reduced, sum(block_rows), calls


def assert_reduced(data, reduced, arm_passes):
    """Each arm's rows are reduced whole ``arm_passes`` times and once in five
    folds that partition them."""
    for t in (0, 1):
        arm = np.flatnonzero(data.assignment == t)
        assert sum(np.array_equal(rows, arm) for rows in reduced) == arm_passes
        folds = [rows for rows in reduced if rows.size < arm.size and np.isin(rows, arm).all()]
        assert len(folds) == 5
        assert np.array_equal(np.sort(np.concatenate(folds)), arm)
    assert len(reduced) == 2 * (arm_passes + 5)


def test_a_command_reduces_each_arm_once_and_runs_one_kernel_call_per_round(tmp_path,
                                                                            monkeypatch):
    data, reduced, block_rows, calls = reductions(tmp_path, monkeypatch, READOUT_MODELS)
    # per arm: its rows reduced once for all columns and once for @pre, and one
    # fold set (5 folds) for ridge, lasso and elastic net; then one kernel call
    # for their CV chains and one for their fits
    assert data.arm_sizes()[0] != data.arm_sizes()[1]
    assert_reduced(data, reduced, 2)
    assert calls == {"_folds": 2, "_coordinate_descent": 2}
    # so each arm row enters one block QR per column set, and one for its fold
    assert block_rows == 3 * data.n_units


def test_an_arm_whose_fits_all_cross_validate_is_reduced_only_in_its_folds(tmp_path,
                                                                          monkeypatch):
    # which columns vary is read off the folds, and no fit reads the arm's triangle
    data, reduced, block_rows, calls = reductions(tmp_path, monkeypatch, "dim,lasso")
    assert_reduced(data, reduced, 0)
    assert calls == {"_folds": 2, "_coordinate_descent": 2}
    assert block_rows == data.n_units
