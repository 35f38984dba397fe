"""Per-layer spans recorded from outside the package.

`install()` wraps the public calls of each kloosterlab module, in the
module that defines them and in every kloosterlab module that imported
them by name, so that a call from anywhere in the package opens a span.
Spans are kept in memory behind a lock (``--workers 2`` runs items on two
threads) and written as JSON by `dump()` when the traced process ends.
`summarize()` turns the spans of one or more processes into per-layer
self times and exact work counts.

Run as a script it traces one CLI call:

    python3 bench/tracer.py SPANS.json avg-max 1024 1024 --format csv

The untraced, timed child processes never import this module.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time

import numpy as np

from twins import primes_between

#: module -> {public function: metric group}.  A group's self time is the
#: summed self time of the spans of its functions.
WRAPPED = {
    "arith": {
        "sieve_primes": "arith.sieve",
        "build_multiplicative_tables": "arith.mult_tables",
        "shared_tables": "arith.mult_tables",
        "batch_inverses": "arith.inverses",
        "inverse_table": "arith.inverses",
    },
    "accumulate": {
        "unit_roots": "accumulate.unit_roots",
        "fsum_complex": "accumulate.fsum",
    },
    "expsums": {
        "max_prime_sum": "expsums.twist_scan",
        "inverse_phase_sum": "expsums.phase_sum",
        "prime_sum": "expsums.phase_sum",
        "short_inverse_sum": "expsums.phase_sum",
        "kloosterman": "expsums.kloosterman",
        "kloosterman_grid": "expsums.grid",
    },
    "bilinear": {"bilinear_sum": "bilinear.sum"},
    "vaughan": {
        "decompose": "vaughan.decompose",
        "evaluate_decomposition": "vaughan.check",
        "compare_decomposition": "vaughan.check",
        "prime_power_gap": "vaughan.check",
    },
    "counting": {
        "count_congruence_solutions": "counting.congruence",
        "sum_congruence_counts": "counting.congruence",
    },
    "experiments": {
        "avg_max_report": "experiments.driver_self",
        "fixed_a_avg_report": "experiments.driver_self",
    },
    "parallel": {"pmap": "parallel.self"},
    "cli": {"main": "cli.self"},
}

GROUPS = sorted({g for funcs in WRAPPED.values() for g in funcs.values()})


def _work(name, args, kwargs, result) -> dict:
    """Exact work counts of one call, from its arguments and result."""
    if name == "batch_inverses":
        return {"n": len(args[0])}
    if name == "inverse_phase_sum":
        return {"terms": result.term_count}
    if name == "max_prime_sum":
        return {"q": args[0], "x": args[1]}
    if name == "kloosterman_grid":
        return {"cells": args[0] * args[0]}
    if name == "bilinear_sum":
        return {"terms": result.term_count}
    if name == "decompose":
        return {"components": len(result.components)}
    if name == "count_congruence_solutions":
        k, q = args[0], args[2]
        method = args[3] if len(args) > 3 else kwargs.get("method", "convolution")
        return {"cells": (k - 1) * q * q if method == "convolution" else 0}
    if name == "shared_tables":
        return {"limit": result.limit}
    if name == "avg_max_report":
        return {"Q": args[0]}
    return {}


class Recorder:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self.spans: list[list] = []

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, group, name, fn, args, kwargs, parent=None):
        with self._lock:
            self._next += 1
            sid = self._next
        stack = self.stack()
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        info = _work(name, args, kwargs, result)
        with self._lock:
            self.spans.append([sid, parent, group, name, t0, t1, info])
        return result


def _wrap(rec: Recorder, group: str, name: str, fn):
    if name == "pmap":
        # items get spans of their own, children of the pmap span even when
        # they run on a worker thread
        @functools.wraps(fn)
        def pmap(item_fn, items, workers=1):
            def run(work, workers):
                sid = rec.stack()[-1]

                def item(x):
                    return rec.call("parallel.self", "item", item_fn, (x,), {}, parent=sid)
                return fn(item, work, workers)
            return rec.call(group, name, run, (list(items), workers), {})
        return pmap

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(group, name, fn, args, kwargs)
    return wrapper


def install() -> Recorder:
    """Wrap every function in WRAPPED wherever kloosterlab bound it by name."""
    import importlib

    pkg = importlib.import_module("kloosterlab")
    modules = [pkg] + [importlib.import_module(f"kloosterlab.{m}") for m in WRAPPED]
    rec = Recorder()
    rec.inverse_table = pkg.arith.inverse_table
    for mod_name, funcs in WRAPPED.items():
        home = sys.modules[f"kloosterlab.{mod_name}"]
        for name, group in funcs.items():
            original = getattr(home, name)
            wrapper = _wrap(rec, group, name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
    return rec


def dump(rec: Recorder, path: str) -> None:
    """Write the spans and the inverse-table cache counts as JSON."""
    with rec._lock:
        spans = list(rec.spans)
    cache = rec.inverse_table.cache_info()
    doc = {"spans": spans, "inverse_table": {"hits": cache.hits, "misses": cache.misses}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def twist_scan_cells(q: int, x: float) -> int:
    """Twists 1 <= a <= q/2 coprime to q, times primes x <= p < 2x not dividing q.

    These are the cells `max_prime_sum(q, x)` evaluates.
    """
    a = np.arange(1, q // 2 + 1)
    primes = primes_between(x, 2 * x)
    return int(np.count_nonzero(np.gcd(a, q) == 1)) * int(np.count_nonzero(q % primes))


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


#: span name -> (count metric, field of the span's work counts summed into
#: it; None counts the calls)
COUNTED = {
    "batch_inverses": ("arith.inverses_n", "n"),
    "build_multiplicative_tables": ("arith.table_builds", None),
    "unit_roots": ("accumulate.unit_roots_calls", None),
    "inverse_phase_sum": ("expsums.phase_sum_terms", "terms"),
    "max_prime_sum": ("expsums.twist_scan_cells", "cells"),
    "kloosterman_grid": ("expsums.grid_cells", "cells"),
    "kloosterman": ("expsums.kloosterman_calls", None),
    "bilinear_sum": ("bilinear.sum_terms", "terms"),
    "decompose": ("vaughan.components", "components"),
    "count_congruence_solutions": ("counting.convolve_cells", "cells"),
    "item": ("parallel.items", None),
    "main": ("cli.calls", None),
}


def summarize(docs) -> dict:
    """Self time per group and exact counts, by metric name, over the span dumps of a pass."""
    self_s = dict.fromkeys(GROUPS, 0.0)
    counts = dict.fromkeys([c for c, _ in COUNTED.values()] + [
        "arith.table_limit", "arith.inverse_table_hits", "arith.inverse_table_calls"], 0)
    avg_max: dict = {}
    pmap_s = 0.0
    for doc in docs:
        spans = doc["spans"]
        children: dict = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)
        for sid, _parent, group, name, t0, t1, info in spans:
            inside = [(max(c[4], t0), min(c[5], t1)) for c in children.get(sid, ())]
            self_s[group] += (t1 - t0) - _union(i for i in inside if i[1] > i[0])
            if name == "max_prime_sum":
                info = {"cells": twist_scan_cells(info["q"], info["x"])}
            if name in COUNTED:
                count, key = COUNTED[name]
                counts[count] += 1 if key is None else info[key]
            elif name == "shared_tables":
                counts["arith.table_limit"] = max(counts["arith.table_limit"], info["limit"])
            elif name == "pmap":
                pmap_s += t1 - t0
            elif name == "avg_max_report":
                avg_max[info["Q"]] = avg_max.get(info["Q"], 0.0) + (t1 - t0)
        cache = doc["inverse_table"]
        counts["arith.inverse_table_hits"] += cache["hits"]
        counts["arith.inverse_table_calls"] += cache["hits"] + cache["misses"]
    return {"self_s": self_s, "counts": counts, "avg_max_s": avg_max, "pmap_s": pmap_s}


def main(argv: list[str]) -> int:
    out, cli_argv = argv[0], argv[1:]
    rec = install()
    from kloosterlab import cli

    try:
        return cli.main(cli_argv)
    finally:
        dump(rec, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
