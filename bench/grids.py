"""Kloosterman grid sweep of the `scan` workload, in its own process.

    python3 bench/grids.py PROBLEMS.json [SPANS.json]

Computes ``kloosterman_grid(p)`` for every prime 400 < p < 700 and
checks each grid after its call: the Weil bound
|K(a, b; p)| <= 2 sqrt(p) off the axes, K(0, 0; p) = p - 1 and K = -1 on
the axes, a real result, and one entry against direct enumeration.
The problems found are written as a JSON list.  With a second argument
the calls are traced (see tracer.py).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import twins

LOW, HIGH = 400, 700


def check(grid: np.ndarray, p: int) -> list[str]:
    """Problems found in one grid; each comparison is written so that a NaN fails."""
    problems = []
    tol = 1e-9 * p
    if grid.shape != (p, p):
        return [f"p={p}: grid shape {grid.shape}"]
    if not float(np.abs(grid.imag).max()) <= tol:
        problems.append(f"p={p}: imaginary part {float(np.abs(grid.imag).max()):.3g}")
    k = grid.real
    weil = float(np.abs(k[1:, 1:]).max())
    if not weil <= 2 * math.sqrt(p) + tol:
        problems.append(f"p={p}: max |K| = {weil:.6f} over 2 sqrt(p)")
    axes = np.concatenate([k[0, 1:], k[1:, 0]])
    if not (abs(k[0, 0] - (p - 1)) <= tol and float(np.abs(axes + 1).max()) <= tol):
        problems.append(f"p={p}: wrong values on the axes")
    a, b = 1 + p // 3, 1 + p // 7
    if not abs(k[a, b] - twins.kloosterman(a, b, p)) <= tol:
        problems.append(f"p={p}: K({a},{b}) differs from direct enumeration")
    return problems


def main(argv: list[str]) -> int:
    rec = None
    if len(argv) > 1:
        import tracer

        rec = tracer.install()
    from kloosterlab import expsums

    problems = []
    for p in twins.primes_between(LOW + 1, HIGH).tolist():
        problems += check(expsums.kloosterman_grid(p), p)
    if rec is not None:
        tracer.dump(rec, argv[1])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(problems, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
