#!/usr/bin/env python3
"""kloosterlab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from any directory; the program is imported from ``src/`` next to
this directory.  Every workload is a closed loop with one caller: each
call blocks until its result is written.

Workloads
    scan         ``avg-max 1024 1024`` and ``avg-max 2048 2048`` through the
                 CLI, then ``kloosterman_grid(p)`` for every prime 400 < p < 700.
    fixed-twist  ``fixed-a-avg 1 4096 4096`` and ``jcount-avg 2 256 1024``.
    decompose    ``vaughan-check 1 7 1000000`` and ``prime-power-gap 1 7 5000000``.
    queries      1000 seeded point queries (queries.py) sent through
                 ``kloosterlab.cli.main`` in one long-lived process.

Each CLI call runs in a fresh process.  A *pass* runs the workload once.
A timed run (``--trace 0``) makes ``--workers 1`` passes while the next
is expected to end within ``--seconds``, with at least one.  Set-up
probes, fresh processes of their own, run before each pass and after the
last, so that their median spans the run.

End-to-end metrics (``--trace 0``)
    setup_s        median time of a fresh ``python3 -m kloosterlab sum 1 101 1000``:
                   interpreter start, import, the default 65,536 table build.
    pass_s         median wall time of a pass.
    peak_rss_mb    largest peak RSS of any process in the passes, each read
                   from its own ``os.wait4`` rusage.
    query_p50_ms, query_p99_ms
                   latency percentiles of the operations of the passes: a CLI
                   call or the grid sweep (process start to exit), or one
                   query of the stream.  With fewer than 100 operations p99
                   is close to the slowest one.
    queries_per_s  operations completed per second of pass wall time.

Operations that exit nonzero, are refused, or fail their output check
count as ``failed`` in the result line, against ``attempted``.

Per-layer metrics (``--trace 1``) come from a separate run: one untraced
pass at each worker count, then one traced pass at each worker count,
whose child processes wrap each layer's public calls (tracer.py).  Self
times, shares and counts are from the traced ``--workers 1`` pass.
``pass_w2_s`` is the wall time of the untraced pass with ``--workers 2``
given to every call (only the Q sweeps use it).  It has no bound: how much
a second thread helps depends on how much of the second core the host
leaves free, which drifts from minute to minute on a shared machine.
``parallel.efficiency`` is the time in ``pmap`` at one worker over twice
the time at two (item times would not do: under the interpreter lock
they include waiting for it).  ``trace.overhead`` compares the traced and
untraced ``--workers 1`` passes.  The outputs of the passes at one and at
two workers must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import queries
import tracer
import twins

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CLI_INSTANCES = {
    "scan": (("avg-max", "1024", "1024"), ("avg-max", "2048", "2048")),
    "fixed-twist": (("fixed-a-avg", "1", "4096", "4096"), ("jcount-avg", "2", "256", "1024")),
    "decompose": (("vaughan-check", "1", "7", "1000000"),
                  ("prime-power-gap", "1", "7", "5000000")),
    "queries": (),
}
WORKLOADS = tuple(CLI_INSTANCES)
SETUP_ARGV = ("sum", "1", "101", "1000")
#: The set-up call as its twin reads it, with the default weight spelled out.
SETUP_CHECK_ARGV = [*SETUP_ARGV, "--weight", "unit"]
#: Set-up probes before each pass and after the last.
SETUP_PROBES = 3
#: Children still running this many seconds after the run started are
#: killed and count as failed, so that a run ends within 180 s.
DEADLINE = 150
#: Relative tolerance for reference floats whose row reports no error bound.
REL_TOL = 1e-9
#: What reading a missing, mistyped or unparsable field of an output raises.
MALFORMED = (ValueError, KeyError, IndexError, TypeError)

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
}


@dataclass
class Child:
    seconds: float
    rc: int
    out: str
    err: str
    rss_mb: float


@dataclass
class Op:
    key: str
    seconds: float
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    workers: int
    traced: bool
    wall: float = 0.0
    rss_mb: float = 0.0
    ops: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for children: the checkout's src first, BLAS threads capped at nproc.

    Bytecode is cached next to the sources, as for an installed package, so
    that no timed process compiles the package; the warm-up call writes it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    cap = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(max(1, min(int(env[var]), cap)))
        except (KeyError, ValueError):
            env[var] = str(cap)
    return env


def spawn(cmd: list[str], env: dict, deadline: float) -> Child:
    """Run cmd to completion; time it and read its own peak RSS from wait4.

    The child is killed if it is still running at `deadline` (perf_counter).
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(seconds, proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_maxrss / 1024)


# --- output checks ----------------------------------------------------------

def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(key: str, text: str, ref: dict) -> list[str]:
    """Compare one CLI csv result with its stored reference row."""
    try:
        return _check_csv(key, text, ref)
    except MALFORMED as exc:
        return [f"{key}: malformed output ({exc!r}): {text[:200]!r}"]


def _check_csv(key: str, text: str, ref: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != ref["headers"]:
        return [f"{key}: unexpected csv {text[:200]!r}"]
    got = dict(zip(rows[0], rows[1]))
    problems = []
    for name, want in zip(ref["headers"], ref["row"]):
        if name in ("abs_error", "rel_error"):
            continue
        value = got[name]
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = value == str(want)
        elif isinstance(want, int):
            ok = value.lstrip("-").isdigit() and int(value) == want
        else:
            ok = abs(float(value) - want) <= REL_TOL * abs(want)
        if not ok:
            problems.append(f"{key}: {name} = {value}, reference {want!r}")
    command = key.split()[0]
    if command in ("avg-max", "fixed-a-avg"):
        Q, x = int(got["Q"]), float(got["x"])
        if float(got["trivial"]) != Q * len(twins.primes_between(x, 2 * x)):
            problems.append(f"{key}: trivial bound is not Q times the primes in [x, 2x)")
    if command == "vaughan-check" and not float(got["rel_error"]) <= REL_TOL:
        problems.append(f"{key}: decomposition off by {got['rel_error']}")
    if command == "prime-power-gap" and not float(got["gap"]) <= float(got["envelope"]):
        problems.append(f"{key}: gap over its envelope")
    return problems


def _close(row: dict, twin, what: str) -> list[str]:
    """A summed row against its twin: exact term count, value within both bounds."""
    value, terms, weight = twin
    problems = []
    if row["terms"] != terms:
        problems.append(f"{what}: {row['terms']} terms, twin has {terms}")
    diff = abs(complex(row["real"], row["imag"]) - value)
    # written so that a NaN fails
    if not diff <= row["error_bound"] + weight * twins.TWIN_EPS:
        problems.append(f"{what}: off its twin by {diff:.3g}, bound {row['error_bound']:.3g}")
    return problems


def check_query(argv: list[str], text: str) -> list[str]:
    """Compare one query's json result with its brute-force twin."""
    what = " ".join(argv[:6])
    try:
        return _check_row(argv[0], argv[1:], json.loads(text)["results"][0], what)
    except MALFORMED as exc:
        return [f"{what}: malformed output ({exc!r}): {text[:200]!r}"]


def _check_row(cmd: str, nums: list[str], row: dict, what: str) -> list[str]:
    if cmd == "sum":
        return _close(row, twins.prime_sum(int(nums[0]), int(nums[1]), float(nums[2]),
                                           nums[4]), what)
    if cmd == "short-sum":
        return _close(row, twins.short_sum(int(nums[0]), int(nums[1]), float(nums[2]),
                                           float(nums[3])), what)
    if cmd == "bilinear":
        return _close(row, twins.bilinear(float(nums[0]), float(nums[1]), int(nums[2]),
                                          int(nums[3])), what)
    if cmd == "kloosterman":
        q = int(nums[2])
        diff = abs(row["value"] - twins.kloosterman(int(nums[0]), int(nums[1]), q))
        # no bound in the row: allow 2^-44 of the trivial bound q
        return [] if diff <= q * 2.0 ** -44 else [f"{what}: off its twin by {diff:.3g}"]
    if cmd == "jcount":
        want = twins.jcount(int(nums[0]), int(nums[1]), int(nums[2]))
        return [] if row["count"] == want else [f"{what}: count {row['count']} != {want}"]
    if cmd == "max-sum":
        # judged by magnitude: any twist within tolerance of the maximum is right
        mags, terms = twins.twist_magnitudes(int(nums[0]), float(nums[1]))
        best, tol = max(mags.values()), REL_TOL * max(terms, 1)
        problems = []
        if not abs(row["magnitude"] - best) <= tol:
            problems.append(f"{what}: magnitude {row['magnitude']}, twin max {best}")
        if mags.get(row["a_star"], -1.0) < best - tol:
            problems.append(f"{what}: a_star {row['a_star']} is not a maximizer")
        return problems
    return [f"{what}: no twin for {cmd}"]


# --- passes -----------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.env = child_env()
        self.deadline = time.perf_counter() + DEADLINE
        self.py = sys.executable
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.passes: list[Pass] = []
        self.setup: list[Op] = []
        self.stream: list[list[str]] = []
        if workload == "queries":
            self.stream = queries.stream(seed)
            for workers in (1, 2):
                argvs = [[*q, "--format", "json", "--workers", str(workers)]
                         for q in self.stream]
                with open(self.tmp / f"stream-w{workers}.json", "w", encoding="utf-8") as fh:
                    json.dump(argvs, fh)

    def spawn(self, cmd: list[str]) -> Child:
        return spawn(cmd, self.env, self.deadline)

    def _spans(self, tag: str) -> Path:
        return self.tmp / f"spans-{len(self.passes)}-{tag}.json"

    def run_setup(self, probes: int) -> None:
        """Time `probes` fresh set-up processes and check their output."""
        cmd = [self.py, "-m", "kloosterlab", *SETUP_ARGV, "--format", "json"]
        for _ in range(probes):
            child = self.spawn(cmd)
            self.setup.append(Op("setup", child.seconds, self._exit_problems("setup", child)
                                 or check_query(SETUP_CHECK_ARGV, child.out)))

    @staticmethod
    def _exit_problems(key: str, child: Child) -> list[str]:
        if child.rc == 0:
            return []
        return [f"{key}: exit {child.rc}: {child.err.strip()[-300:]}"]

    def run_pass(self, workers: int, traced: bool) -> Pass:
        p = Pass(workers, traced)
        span_files = []
        children = []
        t0 = time.perf_counter()
        for i, argv in enumerate(CLI_INSTANCES[self.workload]):
            args = [*argv, "--format", "csv", "--workers", str(workers)]
            if traced:
                span_files.append(self._spans(str(i)))
                cmd = [self.py, str(BENCH / "tracer.py"), str(span_files[-1]), *args]
            else:
                cmd = [self.py, "-m", "kloosterlab", *args]
            children.append((" ".join(argv), self.spawn(cmd)))
        results = self.tmp / f"results-{len(self.passes)}.json"
        extra = []
        if traced:
            span_files.append(self._spans("x"))
            extra = [str(span_files[-1])]
        if self.workload == "scan":
            cmd = [self.py, str(BENCH / "grids.py"), str(results), *extra]
            children.append(("grids", self.spawn(cmd)))
        elif self.workload == "queries":
            stream = self.tmp / f"stream-w{workers}.json"
            cmd = [self.py, str(BENCH / "query_worker.py"), str(stream), str(results), *extra]
            children.append(("queries", self.spawn(cmd)))
        p.wall = time.perf_counter() - t0
        p.rss_mb = max(c.rss_mb for _, c in children)
        for key, child in children:
            problems = self._exit_problems(key, child)
            if key == "grids":
                p.ops.append(Op(key, child.seconds, problems or _load_json(results)))
            elif key == "queries":
                p.ops += self._query_ops(p, results, problems)
            else:
                p.ops.append(Op(key, child.seconds, problems))
                p.outputs[key] = child.out
        p.spans = [_load_json(f) for f in span_files if f.exists()]
        self.passes.append(p)
        return p

    def _query_ops(self, p: Pass, results: Path, problems: list[str]) -> list[Op]:
        if problems:
            return [Op("queries", 0.0, problems) for _ in self.stream]
        ops = []
        for i, (argv, r) in enumerate(zip(self.stream, _load_json(results))):
            key = f"q{i} {' '.join(argv)}"
            bad = [] if r["rc"] == 0 else [f"{key}: exit {r['rc']}: {r['err'].strip()[-300:]}"]
            ops.append(Op(key, r["s"], bad))
            p.outputs[key] = r["out"]
        return ops

    def check(self) -> None:
        """Output checks, after all timing: references, twins, identical bytes."""
        ref = _load_json(BENCH / "reference.json") if CLI_INSTANCES[self.workload] else {}
        first: dict[str, str] = {}
        verdict: dict[str, list[str]] = {}
        for p in self.passes:
            for op in p.ops:
                if op.problems or op.key not in p.outputs:
                    continue
                text = p.outputs[op.key]
                if op.key not in first:
                    first[op.key] = text
                    if op.key.startswith("q"):
                        argv = self.stream[int(op.key[1:].split()[0])]
                        verdict[op.key] = check_query(argv, text)
                    else:
                        verdict[op.key] = check_cli(op.key, text, ref[op.key])
                op.problems = list(verdict[op.key])
                if text != first[op.key]:
                    op.problems.append(f"{op.key}: output with --workers {p.workers} differs")

    def ops(self) -> list[Op]:
        return self.setup + [op for p in self.passes for op in p.ops]


# --- metrics ----------------------------------------------------------------

def end_to_end(r: Runner) -> dict:
    lat = [op.seconds * 1000 for p in r.passes for op in p.ops if not op.problems]
    # percentiles by linear interpolation between closest ranks; with one
    # latency or none, every percentile is that latency or 0
    pct = (statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1
           else [sum(lat)] * 99)
    values = {
        "setup_s": statistics.median(op.seconds for op in r.setup),
        "pass_s": statistics.median(p.wall for p in r.passes),
        "peak_rss_mb": max(p.rss_mb for p in r.passes),
        "query_p50_ms": pct[49],
        "query_p99_ms": pct[98],
        "queries_per_s": len(lat) / sum(p.wall for p in r.passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(untraced: Pass, untraced_w2: Pass, traced: Pass, traced_w2: Pass) -> dict:
    s1 = tracer.summarize(traced.spans)
    s2 = tracer.summarize(traced_w2.spans)
    wall = traced.wall
    selfs = {g + "_s": v for g, v in s1["self_s"].items()}
    selfs["unspanned_s"] = wall - sum(selfs.values())
    out = {}
    for name, v in selfs.items():
        out[name] = (v, "s")
        out[name + ".share"] = (v / wall, "1")
    c = s1["counts"]
    for name, v in c.items():
        out[name] = (v, "count")
    calls = c["arith.inverse_table_calls"]
    out["arith.inverse_table_hit_ratio"] = (
        c["arith.inverse_table_hits"] / calls if calls else 0.0, "1")
    avg = s1["avg_max_s"]
    out["experiments.avg_max_doubling"] = (
        avg[2048] / avg[1024] if 1024 in avg and 2048 in avg else 0.0, "1")
    # speed-up of the pmap sweeps from 1 to 2 workers, per worker
    out["parallel.efficiency"] = (
        s1["pmap_s"] / (2 * s2["pmap_s"]) if s2["pmap_s"] else 0.0, "1")
    out["pass_w2_s"] = (untraced_w2.wall, "s")
    out["trace.pass_s"] = (wall, "s")
    out["trace.overhead"] = (wall / untraced.wall - 1.0, "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", blas)
    except (TypeError, KeyError):
        pass
    return {"nproc": _nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(r: Runner, args) -> dict:
    """Run the passes, check every output, and return the metrics."""
    r.spawn([r.py, "-m", "kloosterlab", *SETUP_ARGV])  # warm bytecode and page caches
    if args.trace:
        passes = [r.run_pass(workers, traced) for traced in (False, True)
                  for workers in (1, 2)]
    else:
        # Passes run while the next one, judged by the last, ends within
        # --seconds; set-up probes go between the passes, so that their
        # median spans the run.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            r.run_setup(SETUP_PROBES)
            r.run_pass(1, False)
            now = time.perf_counter()
            if 2 * now - t0 - start > args.seconds:
                break
        r.run_setup(SETUP_PROBES)
    r.check()
    return per_layer(*passes) if args.trace else end_to_end(r)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kloosterlab" / "cli.py").is_file():
        print(f"error: no kloosterlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    facts = host_facts()
    facts["load_before"] = os.getloadavg()
    r = Runner(args.workload, args.seed)
    try:
        metrics = measure(r, args)
    finally:
        shutil.rmtree(r.tmp, ignore_errors=True)
    facts["load_after"] = os.getloadavg()

    ops = r.ops()
    failed = [op for op in ops if op.problems]
    print("host " + json.dumps(facts))
    for op in failed[:20]:
        print("FAILED " + "; ".join(op.problems))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": facts, "passes": [(p.workers, p.traced, p.wall) for p in r.passes],
              "metrics": metrics}
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
