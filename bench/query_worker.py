"""Long-lived process that sends a query stream through kloosterlab.cli.main.

    python3 bench/query_worker.py STREAM.json RESULTS.json [SPANS.json]

STREAM.json holds a list of argv lists.  Each query is one blocking call
of ``cli.main``; its stdout is captured and its latency timed.  The
results file holds, per query, the exit code, the output text and the
latency.  With a third argument the calls are traced (see tracer.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    stream_path, results_path = argv[0], argv[1]
    rec = None
    if len(argv) > 2:
        import tracer

        rec = tracer.install()
    from kloosterlab import cli

    with open(stream_path, encoding="utf-8") as fh:
        stream = json.load(fh)
    results = []
    for query in stream:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(query)
        results.append({"rc": rc, "s": time.perf_counter() - t0,
                        "out": out.getvalue(), "err": err.getvalue()})
    if rec is not None:
        tracer.dump(rec, argv[2])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
