"""Record the demo outputs replayed by test_demos.py.

    python3 tests/make_demo_outputs.py

Runs every demos/*.py in a subprocess with src on PYTHONPATH and writes
each script's stdout to data/demo_outputs.json, keyed by file name.
Record from a commit whose output is trusted: the replay test checks
later code against these bytes.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
OUTPUTS = pathlib.Path(__file__).with_name("data") / "demo_outputs.json"


def demo_scripts() -> list[pathlib.Path]:
    return sorted(DEMOS.glob("*.py"))


def run_demo(script: pathlib.Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return done.stdout


if __name__ == "__main__":
    records = {script.name: run_demo(script) for script in demo_scripts()}
    OUTPUTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} demo outputs to {OUTPUTS}")
