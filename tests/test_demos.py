"""Replay the demos: each demos/*.py prints the recorded bytes.

data/demo_outputs.json holds the stdout of every demo script, recorded by
make_demo_outputs.py.  Each script runs in a subprocess with src on
PYTHONPATH, as a user would run it.
"""

import json

import pytest

from make_demo_outputs import OUTPUTS, demo_scripts, run_demo

RECORDED = json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_demo_is_recorded():
    assert sorted(RECORDED) == [script.name for script in demo_scripts()]


@pytest.mark.parametrize("script", demo_scripts(), ids=lambda s: s.name)
def test_demo_output(script):
    assert run_demo(script) == RECORDED[script.name]
