"""The run configs shown in README.md parse, so the docs follow the parser."""

import json
import re
from pathlib import Path

import pytest

from retrainer import CsvStream, RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, flags=re.S)


def test_readme_has_a_json_config():
    assert JSON_BLOCKS


@pytest.mark.parametrize("block", range(len(JSON_BLOCKS)))
def test_json_block_is_a_run_config(block):
    RunConfig.from_dict(json.loads(JSON_BLOCKS[block]))


def test_inline_csv_stream_form():
    (inline,) = re.findall(r'`"stream": (\{"dataset": "csv".*?\})`', README, flags=re.S)
    raw = dict(json.loads(JSON_BLOCKS[0]), stream=json.loads(inline))
    assert isinstance(RunConfig.from_dict(raw).stream, CsvStream)
