"""The run configs shown in README.md parse and its Python examples run, so
the docs follow the code."""

import json
import re
from pathlib import Path

import pytest

from retrainer import CsvStream, RunConfig, StreamSpec, generate_stream, save_stream_csv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, flags=re.S)
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)


def test_readme_has_a_json_config():
    assert JSON_BLOCKS


@pytest.mark.parametrize("block", range(len(JSON_BLOCKS)))
def test_json_block_is_a_run_config(block):
    RunConfig.from_dict(json.loads(JSON_BLOCKS[block]))


def test_inline_csv_stream_form():
    (inline,) = re.findall(r'`"stream": (\{"dataset": "csv".*?\})`', README, flags=re.S)
    raw = dict(json.loads(JSON_BLOCKS[0]), stream=json.loads(inline))
    assert isinstance(RunConfig.from_dict(raw).stream, CsvStream)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(block, tmp_path, monkeypatch):
    # the CsvStream example reads a plain 100-batch data.csv from the working directory
    data, _ = generate_stream(StreamSpec("covcon", n_batches=100, batch_size=50, queries_per_batch=5))
    save_stream_csv(tmp_path / "data.csv", data, [])
    monkeypatch.chdir(tmp_path)
    exec(compile(PYTHON_BLOCKS[block], f"README.md python block {block}", "exec"), {"__name__": "__main__"})
