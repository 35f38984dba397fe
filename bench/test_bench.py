"""Self-tests of the benchmark, run on demand:

    python3 -m pytest bench/test_bench.py -q

They sit outside the package's ``tests/`` tree, so the package suite
does not collect them.  The repeat test makes two traced runs per
workload and takes a few minutes; select one with ``-k``.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import grids
import run

sys.path.insert(0, str(run.SRC))

from kloosterlab import cli  # noqa: E402


def _cli_json(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return out.getvalue()


def _perturb(text: str, key: str, delta) -> str:
    doc = json.loads(text)
    doc["results"][0][key] += delta
    return json.dumps(doc)


@pytest.mark.parametrize("argv,key,delta", [
    (["sum", "5", "1009", "3000", "--weight", "unit"], "real", 1e-9),
    (["sum", "5", "1009", "3000", "--weight", "unit"], "real", float("nan")),
    (["sum", "5", "1009", "3000", "--weight", "von_mangoldt"], "terms", 1),
    (["max-sum", "97", "500"], "magnitude", 1e-6),
    (["max-sum", "97", "500"], "magnitude", float("nan")),
    (["max-sum", "97", "500"], "a_star", 1),
    (["kloosterman", "3", "4", "1013"], "value", 1e-9),
    (["short-sum", "7", "991", "10", "2000"], "imag", 1e-9),
    (["jcount", "2", "40", "101"], "count", 1),
    (["bilinear", "20", "30", "7", "1009"], "real", 1e-9),
])
def test_twins_accept_right_and_reject_wrong(argv, key, delta):
    text = _cli_json(argv)
    assert run.check_query(argv, text) == []
    assert run.check_query(argv, _perturb(text, key, delta))


@pytest.mark.parametrize("text", [
    "", "not json", '{"results": []}', '{"results": [{"real": 1.0}]}',
    '{"results": [{"real": "1", "imag": 0, "terms": 135, "error_bound": 1}]}',
])
def test_malformed_query_output_is_a_failure(text):
    assert run.check_query(["sum", "1", "101", "1000", "--weight", "unit"], text)


def test_grid_check_rejects_nan():
    assert grids.check(np.full((401, 401), np.nan + 0j), 401)


def test_reference_check_rejects_wrong_rows():
    ref = json.loads((run.BENCH / "reference.json").read_text())["jcount-avg 2 256 1024"]
    good = ",".join(ref["headers"]) + "\n" + ",".join(
        str(v) if isinstance(v, int) else format(v, ".12g") for v in ref["row"]) + "\n"
    assert run.check_cli("jcount-avg 2 256 1024", good, ref) == []
    bad = good.replace(str(ref["row"][3]), str(ref["row"][3] + 1))
    assert run.check_cli("jcount-avg 2 256 1024", bad, ref)
    assert run.check_cli("jcount-avg 2 256 1024", good.replace(",0.", ",x0."), ref)


def _counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat(workload):
    first = _counts(workload)
    assert first and any(first.values())
    assert _counts(workload) == first
