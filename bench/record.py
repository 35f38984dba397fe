"""Record a trajectory point: repeated benchmark runs summarized into one JSON file.

    python3 bench/record.py --label seed --out bench/baseline.json

For every workload it makes one run for each of the seeds 1 to 10 with
``--trace 0`` and one run with ``--trace 1``, and writes per metric the
median, the quartiles and the spread (quartile distance over median),
the per-layer numbers of the traced run, and the host facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, WORKLOADS

SEEDS = range(1, 11)


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[0].split(" ", 1)[1])
    return result


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"label": args.label, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "run_seconds": seconds,
           "workloads": {}}
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        runs = [_bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = _bench(workload, SEEDS[0], seconds, 1)
        doc["host"] = traced["host"]
        names = runs[0]["metrics"]
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_seconds_each": (time.perf_counter() - t0) / (len(runs) + 1),
            "end_to_end": {n: {"unit": runs[0]["metrics"][n]["unit"],
                               **_summary([r["metrics"][n]["value"] for r in runs])}
                           for n in names},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        print(workload, json.dumps(doc["workloads"][workload]["end_to_end"]), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
