"""Deterministic fan-out over blocks of moduli, for the two block sweeps.

avg_max_report and fixed_a_avg_report (experiments) spend a block mostly in
numpy calls that release the interpreter lock, so a second thread pays; a
sweep of one modulus per item holds the lock, so it runs serially.  Worker
counts change wall time only: items are evaluated by a pure function and
the results are collected in submission order, so any exact or correctly
rounded reduction applied afterwards is independent of the worker count
and of scheduling.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pmap(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Map fn over items, preserving order; workers > 1 uses a thread pool.

    Each item is one block of moduli from expsums.moduli_blocks, whose cut
    never depends on workers, so neither do the bytes.  The pool has at
    most one thread per item and per CPU this process may run on, whatever
    workers asks for.
    """
    work = list(items)
    threads = min(workers or 1, len(work), _cores())
    if threads <= 1:
        return [fn(item) for item in work]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, work))
