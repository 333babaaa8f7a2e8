"""Replay tests/golden/cli.json (written by make_golden.py): every recorded CLI
invocation must give the same stdout, stderr and exit code, byte for byte,
and enumerate_connected the same rows in the same order."""

import json

import pytest

from make_golden import GOLDEN, connected_rows, run, write_files

GOLD = json.loads(GOLDEN.read_text())


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    write_files(tmp_path, GOLD["files"])
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case", GOLD["cases"],
                         ids=[" ".join(c["argv"]) for c in GOLD["cases"]])
def test_cli_answers_match_the_golden_file(case, inputs):
    assert run(case["argv"]) == case


def test_connected_quandles_match_the_golden_file():
    assert connected_rows() == GOLD["enumerate_connected"]
