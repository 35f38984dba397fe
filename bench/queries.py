"""Seeded stream of mixed point queries for the `queries` workload.

Every query type gets a fixed share of the stream.  Within a type, the
size parameters are drawn by stratified sampling (one draw per stratum,
strata paired at random), so the cost mix, and with it the latency
tail, barely moves from one seed to the next while the individual
inputs all change.
"""

from __future__ import annotations

import random

#: (type, count) per stream of 1000 queries.  The prime sum S_q(a; x), the
#: paper's central quantity, takes the largest share, split between its two
#: weights; every other query type gets 10-15%.  With these shares the
#: stream reproduces the latency profile measured for a prototype stream on
#: the seed commit (p50 about 11 ms, p99 about 34 ms, about 80 queries/s on a
#: 2-core Xeon host); the recorded baseline reads p50 10.0 ms, p99 31 ms and
#: 84 queries/s.
MIX = (
    ("sum", 250),
    ("sum-vm", 100),
    ("max-sum", 100),
    ("kloosterman", 150),
    ("short-sum", 150),
    ("jcount", 150),
    ("bilinear", 100),
)

#: Largest M per k for jcount, so the brute-force twin enumerates at most
#: about 40,000 k-tuples.
JCOUNT_M = {1: 5000, 2: 200, 3: 34}


def _prime_at_most(n: int) -> int:
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n -= 1
    return n


def _strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], one uniform draw from each of n equal strata, shuffled."""
    out = [lo + int((i + rng.random()) / n * (hi - lo + 1)) for i in range(n)]
    rng.shuffle(out)
    return out


def _make(kind: str, n: int, rng: random.Random) -> list[list[str]]:
    if kind in ("sum", "sum-vm"):
        qs, xs = _strata(rng, n, 3, 20000), _strata(rng, n, 2, 40000)
        weight = "unit" if kind == "sum" else "von_mangoldt"
        return [["sum", str(rng.randrange(1, q)), str(q), str(x), "--weight", weight]
                for q, x in zip(qs, xs)]
    if kind == "max-sum":
        # Prime q, rising together with x: the scan's size, and the memory it
        # takes, then grow smoothly with the stratum, so the largest scan is
        # about the same for every seed.
        qs, xs = sorted(_strata(rng, n, 3, 3000)), sorted(_strata(rng, n, 2, 2000))
        return [["max-sum", str(_prime_at_most(q)), str(x)] for q, x in zip(qs, xs)]
    if kind == "kloosterman":
        return [["kloosterman", str(rng.randrange(q)), str(rng.randrange(q)), str(q)]
                for q in _strata(rng, n, 2, 20000)]
    if kind == "short-sum":
        qs, lens = _strata(rng, n, 2, 20000), _strata(rng, n, 1, 20000)
        out = []
        for q, length in zip(qs, lens):
            lower = rng.randrange(20000)
            out.append(["short-sum", str(rng.randrange(1, q)), str(q),
                        str(lower), str(lower + length)])
        return out
    if kind == "jcount":
        out = []
        for q in _strata(rng, n, 2, 2000):
            k = rng.choice((1, 2, 3))
            out.append(["jcount", str(k), str(rng.randint(1, JCOUNT_M[k])), str(q)])
        return out
    if kind == "bilinear":
        # the area L*M sets the term count, so it is the stratified size
        out = []
        for q, area in zip(_strata(rng, n, 3, 20000), _strata(rng, n, 1, 22500)):
            L = rng.randint(1, min(150, area))
            out.append(["bilinear", str(L), str(-(-area // L)), str(rng.randrange(1, q)),
                        str(q)])
        return out
    raise ValueError(kind)


def stream(seed: int) -> list[list[str]]:
    """The query argv lists for one seed, in the order they are sent."""
    rng = random.Random(seed)
    out = [argv for kind, n in MIX for argv in _make(kind, n, rng)]
    rng.shuffle(out)
    return out
