import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from retrainer import CostMatrix, InvalidInputError, RunConfig, StreamParseError, load_csv_stream, results_from_csv
from retrainer.cli import main
from retrainer.costmatrix import format_value, write_csv
from retrainer.harness import RESULT_COLUMNS


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "stream": {
            "dataset": "covcon",
            "n_batches": 14,
            "batch_size": 50,
            "queries_per_batch": 5,
            "query_mode": "D",
            "seed": 0,
        },
        "t_offline": 4,
        "t_online": 13,
        "kappas": [1.0, 3.0],
        "policies": [
            {"name": "threshold", "params": "optimize"},
            {"name": "never"},
            {"name": "adwin"},
        ],
        "model": {"kind": "logistic", "learning_rate": 0.5, "epochs": 60},
        "seeds": [0, 1],
        "output": str(tmp_path / "results.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_writes_loadable_stream(runner, tmp_path):
    out = tmp_path / "stream.csv"
    result = runner.invoke(
        main,
        ["gen", "--dataset", "gauss", "--n-batches", "6", "--batch-size", "40",
         "--queries", "4", "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    data, queries = load_csv_stream(out, 6)
    assert len(data) == 6 and data[0].size == 40
    assert all(q.size == 4 for q in queries)


def dense_matrix_csv(config_path, start, end, kappa, tmp_path):
    """The matrix CSV as written from one dense n x n array with kappa on its
    diagonal: every cell in row-major order."""
    psi = RunConfig.load(config_path).costs_for_seed(0)[2].staleness_matrix(start, end)
    dense = psi.copy()
    np.fill_diagonal(dense, kappa)
    cells = np.ndindex(dense.shape)
    path = tmp_path / "dense.csv"
    write_csv(path, ["t_prime", "t", "value"], ([start + i, start + j, format_value(dense[i, j])] for i, j in cells))
    return path.read_bytes()


def test_cost_matrix_subcommand(runner, config_path, tmp_path):
    out = tmp_path / "matrix.csv"
    result = runner.invoke(main, ["cost-matrix", "--config", str(config_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    matrix = CostMatrix.from_csv(out)
    assert matrix.start == 0 and matrix.end == 4
    assert np.all(matrix.kappa == 1.0)
    assert out.read_bytes() == dense_matrix_csv(config_path, 0, 4, 1.0, tmp_path)

    result = runner.invoke(
        main,
        ["cost-matrix", "--config", str(config_path), "--phase", "online",
         "--kappa", "3.0", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    matrix = CostMatrix.from_csv(out)
    assert matrix.start == 5 and matrix.end == 13
    assert np.all(matrix.kappa == 3.0)
    assert out.read_bytes() == dense_matrix_csv(config_path, 5, 13, 3.0, tmp_path)


def test_oracle_subcommand(runner, config_path, tmp_path):
    strategy_out = tmp_path / "strategy.csv"
    table_out = tmp_path / "table.csv"
    result = runner.invoke(
        main,
        ["oracle", "--config", str(config_path), "--out", str(strategy_out),
         "--table-out", str(table_out)],
    )
    assert result.exit_code == 0, result.output
    assert "optimal cost:" in result.output
    assert "retrains at: 5" in result.output
    lines = strategy_out.read_text().strip().splitlines()
    assert lines[0] == "t,served_by"
    assert len(lines) == 1 + 9
    assert table_out.exists()


def test_run_subcommand_with_trace(runner, config_path, tmp_path):
    trace_out = tmp_path / "trace.csv"
    result = runner.invoke(
        main,
        ["run", "--config", str(config_path), "--policy", "threshold",
         "--kappa", "1.0", "--trace-out", str(trace_out)],
    )
    assert result.exit_code == 0, result.output
    assert "strategy_cost:" in result.output
    assert "n_retrains:" in result.output
    lines = trace_out.read_text().strip().splitlines()
    assert lines[0] == "t,cumulative_cost"
    assert len(lines) == 1 + 9


def test_run_subcommand_policy_resolution(runner, config_path, monkeypatch):
    # a valid policy missing from the config runs with its defaults
    result = runner.invoke(main, ["run", "--config", str(config_path), "--policy", "markov"])
    assert result.exit_code == 0, result.output
    # an unknown name fails when the policy is named, before any stream is built

    def no_costs(self, seed):
        raise AssertionError("costs_for_seed was called")

    monkeypatch.setattr(RunConfig, "costs_for_seed", no_costs)
    result = runner.invoke(main, ["run", "--config", str(config_path), "--policy", "bogus"])
    assert result.exit_code != 0
    assert isinstance(result.exception, InvalidInputError)
    assert "'bogus'" in str(result.exception)


RUN_FIELDS = ("strategy_cost", "oracle_cost", "scpe", "n_retrains", "query_accuracy", "strategy")


@pytest.mark.parametrize("policy", ["threshold", "never", "adwin"])
def test_run_prints_the_sweep_row(runner, config_path, tmp_path, policy):
    result = runner.invoke(main, ["sweep", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = {(r["policy"], r["kappa"], r["seed"]): r for r in csv.DictReader(fh)}
    for kappa, seed in (("3.0", "1"), ("1.0", "0")):
        result = runner.invoke(
            main, ["run", "--config", str(config_path), "--policy", policy, "--kappa", kappa, "--seed", seed]
        )
        assert result.exit_code == 0, result.output
        printed = dict(line.split(": ", 1) for line in result.output.splitlines())
        row = rows[(policy, kappa, seed)]
        assert {f: printed[f] for f in RUN_FIELDS} == {f: row[f] for f in RUN_FIELDS}


def test_sweep_and_report_subcommands(runner, config_path, tmp_path):
    result = runner.invoke(main, ["sweep", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    results_path = tmp_path / "results.csv"
    rows = results_from_csv(results_path)
    assert len(rows) == 2 * 2 * 4  # seeds * kappas * (oracle + 3 policies)
    assert "dataset" in result.output  # summary table echoed

    summary_out = tmp_path / "summary.csv"
    result = runner.invoke(
        main, ["report", "--results", str(results_path), "--out", str(summary_out)]
    )
    assert result.exit_code == 0, result.output
    text = summary_out.read_text().splitlines()
    assert text[0].startswith("dataset,policy,runs,mean_scpe")
    assert len(text) == 1 + 4


def test_report_refuses_a_row_no_sweep_writes(runner, tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULT_COLUMNS) + "\ngauss,never,5.0,0,3.5,2.5,0.4,-3,0.9,0:0 0 0\n")
    result = runner.invoke(main, ["report", "--results", str(path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, StreamParseError) and result.exception.row == 2
    assert "n_retrains must be >= 1, got -3" in str(result.exception)
    assert "-3.00" not in result.output


def test_sweep_requires_output_path(runner, config_path, tmp_path):
    cfg = json.loads(config_path.read_text())
    cfg.pop("output")
    path = tmp_path / "no_out.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["sweep", "--config", str(path)])
    assert result.exit_code != 0
