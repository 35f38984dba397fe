"""Record the CLI golden outputs replayed by test_cli_goldens.py.

    PYTHONPATH=src python3 tests/make_cli_goldens.py

Runs every case in CASES through kloosterlab.cli.main in one process and
writes argv, exit code, stdout and stderr to data/cli_goldens.json.  Help
text is rendered at a fixed COLUMNS=80.  Record from a commit whose output
is trusted: the replay test checks later code against these bytes.
"""

import contextlib
import io
import json
import os
import pathlib

from kloosterlab.cli import main

GOLDENS = pathlib.Path(__file__).with_name("data") / "cli_goldens.json"

INVOCATIONS = [
    "sum 1 7 10",
    "sum 2 11 50 --weight von_mangoldt",
    "max-sum 13 30",
    "max-sum 3000 2500",
    "avg-max 16 16",
    "avg-max 40 40",
    "fixed-a-avg 1 16 16",
    "kloosterman 1 1 5",
    "short-sum 3 97 10 40",
    "weil-ratio 1 101 0 50",
    "bilinear 4 8 1 7",
    "bilinear 4 8 1 7 --restrict-lm 45",
    "jcount 2 8 13",
    "jcount-avg 2 8 16",
    "unitfrac 2 10",
    "squarefull 1000",
    "vaughan-check 1 7 200",
    "vaughan-check 1 7 200 --truncation 5",
    "prime-power-gap 1 7 200",
    "theorem2-root",
    "baker-root 23/21",
    "baker-root 1.1 --tol 1e-6",
    "ternary 10 1.2",
    "garaev 100 7 3",
    "compare-bounds 1024",
    "exponent-fit 2:4 4:16 8:64",
    "choose-u avg-max 100 100",
    "choose-u fixed-a-avg 64 64",
    # mid-size runs: int64 inverse lanes (q >= 2**16), an even modulus, and
    # table chunks past 2**17
    "vaughan-check 3 65537 100000",
    "vaughan-check 2 1024 100000 --truncation 20",
    "prime-power-gap 1 7 200000",
    "bilinear 150 150 7 65537",
]

ERRORS = [
    "sum 1 1 10",
    "unitfrac 9 5",
    "choose-u avg-max 100 2",
    "exponent-fit 2:4 4;16 8:64",
    "nonsense",
    "sum 1 7",
    "sum 1 7 --format xml",
    "sum one 7 10",
    "choose-u bogus 64 64",
    "",
    # --max-sieve and --max-q-scan are gone, the byte budget being the one
    # ceiling: each former invocation is now a usage error
    "sum 1 7 1000000 --max-sieve 1000",
    "max-sum 50000 10 --max-q-scan 1000",
    # --method is gone: each former --method invocation is now a usage error
    "jcount 2 8 13 --method naive --format csv",
    "jcount 2 8 13 --method naive --format json",
    "jcount 2 8 13 --method naive --format pretty",
]

COMMANDS = [
    "sum", "max-sum", "avg-max", "fixed-a-avg", "kloosterman", "short-sum",
    "weil-ratio", "bilinear", "jcount", "jcount-avg", "unitfrac", "squarefull",
    "vaughan-check", "prime-power-gap", "theorem2-root", "baker-root",
    "ternary", "garaev", "compare-bounds", "exponent-fit", "choose-u",
]

CASES = (
    [f"{inv} --format {fmt}" for inv in INVOCATIONS for fmt in ("csv", "json", "pretty")]
    + ERRORS
    + ["--version", "--help"]
    + [f"{cmd} --help" for cmd in COMMANDS]
)


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run_case(case.split()) for case in CASES]
    GOLDENS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDENS}")
