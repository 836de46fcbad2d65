import csv
import hashlib
import inspect
import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from retrainer import RunConfig, StreamSpec, load_csv_stream, results_from_csv
from retrainer.cli import gen as gen_cmd, main
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


def test_gen_writes_the_pinned_bytes(runner, tmp_path):
    # sha256 of this file as written through csv.writer, one format_value per feature
    out = tmp_path / "stream.csv"
    result = runner.invoke(
        main,
        ["gen", "--dataset", "gauss", "--n-batches", "3", "--batch-size", "8",
         "--queries", "3", "--seed", "5", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_bytes().split(b"\r\n")
    assert lines[-1] == b"" and sum(line.endswith(b",1") for line in lines) == 3 * 3  # the query rows
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "784ac20a6928b67b30299f6967c5f49224c8b0f1feb885bd75dcf6e264167e6a"


def test_gen_defaults_are_the_stream_spec_defaults():
    spec = inspect.signature(StreamSpec).parameters
    options = [p for p in gen_cmd.params if p.name in spec and spec[p.name].default is not inspect.Parameter.empty]
    assert len(options) == 5
    for option in options:
        assert option.default == spec[option.name].default, option.name


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
    assert out.read_bytes() == dense_matrix_csv(config_path, 0, 4, 1.0, tmp_path)

    result = runner.invoke(
        main,
        ["cost-matrix", "--config", str(config_path), "--phase", "online",
         "--kappa", "3.0", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
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
    assert "'bogus'" in refusal(result)


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
    assert refusal(result).startswith("row 2: n_retrains must be >= 1, got -3")
    assert "-3.00" not in result.output


def refusal(result) -> str:
    """The message of a command that refused its input: exit code 1 and a
    single ``Error:`` line, not a traceback. It reads ``output``, which holds
    stderr under click 8.1's default runner too; ``stderr`` would not."""
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    return lines[0].removeprefix("Error: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen", "--dataset", "gauss", "--n-batches", "0", "--out", "{tmp}/x.csv"], "n_batches must be >= 1"),
        (["cost-matrix", "--config", "{config}", "--kappa", "-1", "--out", "{tmp}/m.csv"], "kappas must be >= 0"),
        (["oracle", "--config", "{config}", "--seed", "-1"], "seeds must be >= 0"),
        (["run", "--config", "{config}", "--policy", "never", "--kappa", "nan"], "kappas must be finite, got nan"),
        (["sweep", "--config", "{tmp}/short.json"], "t_online 13 needs 14 batches, stream has 10"),
        (["report", "--results", "{tmp}/bad.csv"], "unexpected results header: ['x']"),
    ],
    ids=["gen", "cost-matrix", "oracle", "run", "sweep", "report"],
)
def test_a_refused_input_prints_one_error_line(runner, config_path, tmp_path, args, message):
    cfg = json.loads(config_path.read_text())
    cfg["stream"]["n_batches"] = 10
    (tmp_path / "short.json").write_text(json.dumps(cfg))
    (tmp_path / "bad.csv").write_text("x\n")
    result = runner.invoke(main, [arg.format(config=config_path, tmp=tmp_path) for arg in args])
    assert refusal(result).startswith(message)
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("model", {"kind": ["forest"]}, "unknown model kind ['forest']; expected one of ['forest', 'logistic']"),
        ("policies", [{"name": ["never"]}], "unknown policy ['never']; expected one of ['adwin', 'cumulative', "),
    ],
    ids=["model-kind", "policy-name"],
)
def test_a_name_that_is_not_a_string_prints_one_error_line(runner, config_path, tmp_path, key, value, message):
    cfg = json.loads(config_path.read_text())
    cfg[key] = value
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["sweep", "--config", str(path)])
    assert refusal(result).startswith(message)
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key", ["covcon_alpha", "gauss_sigma"])
def test_a_removed_stream_key_prints_one_error_line(runner, config_path, tmp_path, key):
    # the covcon boundary and the gauss spread are fixed; a config that sets either is refused
    cfg = json.loads(config_path.read_text())
    cfg["stream"][key] = 1.0
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["sweep", "--config", str(path)])
    assert refusal(result).startswith(f"unknown stream key {key!r}")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("option", ["--covcon-alpha", "--gauss-sigma"])
def test_gen_has_no_removed_option(runner, tmp_path, option):
    out = tmp_path / "stream.csv"
    result = runner.invoke(main, ["gen", "--dataset", "covcon", option, "0.3", "--out", str(out)])
    # click words the error "No such option: --x" or "No such option '--x'", by version
    assert result.exit_code == 2 and "Error: No such option" in result.output and option in result.output
    assert not out.exists()
    assert option not in runner.invoke(main, ["gen", "--help"]).output


def test_an_overflowing_logistic_fit_prints_one_error_line(runner, tmp_path):
    # products of features near the float limit overflow in the first fit;
    # numpy warns of none of it, so outside the test suite too the refusal
    # is the only line
    rng = np.random.default_rng(0)
    x = rng.choice([-1e308, 1e308], size=200).tolist()
    write_csv(tmp_path / "huge.csv", ["t", "f0", "label", "is_query"], [[0, repr(v), int(v > 0), 0] for v in x])
    cfg = {
        "stream": {"dataset": "csv", "path": str(tmp_path / "huge.csv"), "n_batches": 10},
        "t_offline": 3,
        "t_online": 9,
        "kappas": [1],
        "policies": [{"name": "never"}],
        "model": {"kind": "logistic"},
        "output": str(tmp_path / "results.csv"),
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["sweep", "--config", str(path)])
    assert refusal(result).startswith("X: the features are too large to fit")
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "results.csv").exists()


def test_sweep_requires_output_path(runner, config_path, tmp_path):
    cfg = json.loads(config_path.read_text())
    cfg.pop("output")
    path = tmp_path / "no_out.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["sweep", "--config", str(path)])
    assert result.exit_code != 0
