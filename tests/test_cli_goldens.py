"""Replay recorded CLI runs: stdout, stderr and exit code, byte for byte.

data/cli_goldens.json holds cheap invocations of every subcommand in all
three formats, the parameter and capacity errors (exit codes 2 and 3),
--version, --help and every subcommand's --help.  make_cli_goldens.py
records it; help and usage text follow the argparse of the Python that
recorded them (3.11) at COLUMNS=80.
"""

import json
import pathlib

import pytest

from kloosterlab.cli import main

CASES = json.loads(
    (pathlib.Path(__file__).with_name("data") / "cli_goldens.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "<none>" for c in CASES])
def test_cli_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])
