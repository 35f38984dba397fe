"""Regenerate reference.json: the full-precision result row of every fixed CLI instance.

    python3 bench/make_reference.py

Rows are taken from ``--format json`` output of the current sources, so
run it only on a commit whose outputs are trusted; run.py then compares
every timed csv result against these rows.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, CLI_INSTANCES, ROOT, child_env


def main() -> int:
    ref = {}
    for instances in CLI_INSTANCES.values():
        for argv in instances:
            out = subprocess.run([sys.executable, "-m", "kloosterlab", *argv, "--format", "json"],
                                 env=child_env(), cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout
            row = json.loads(out)["results"][0]
            ref[" ".join(argv)] = {"headers": list(row), "row": list(row.values())}
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
