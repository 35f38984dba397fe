"""Brute-force twins of the benchmarked queries.

Each twin recomputes one CLI result from its definition: ``pow(n, -1, q)``
for every inverse, ``exp(2 pi i k / q)`` evaluated afresh for every term
(no unit-root table), ``math.fsum`` for sums and direct enumeration for
counts and twist maxima.  None of them imports kloosterlab.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np

TAU = 2 * math.pi

#: Per-term error allowed for a twin's own evaluation of e(k/q).
TWIN_EPS = 2.0 ** -48


@lru_cache(maxsize=4)
def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit by the sieve of Eratosthenes, as an int64 array."""
    is_p = bytearray([1]) * (limit + 1)
    is_p[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.flatnonzero(np.frombuffer(bytes(is_p), dtype=np.uint8)).astype(np.int64)


def primes_between(lo: float, hi: float) -> np.ndarray:
    """Primes lo <= p < hi as an int64 array."""
    arr = _sieve(max(2, 1 << math.ceil(hi).bit_length()))
    return arr[(arr >= lo) & (arr < hi)]


def _phase_sum(pairs, a: int, q: int) -> tuple[complex, int, float]:
    """Sum of w * e(a * inv(n) / q) over (n, w) with gcd(n, q) = 1.

    Returns the value, the number of terms and the sum of |w|.
    """
    invs, ws = [], []
    for n, w in pairs:
        if math.gcd(n, q) == 1:
            invs.append(pow(n, -1, q))
            ws.append(w)
    if not invs:
        return 0j, 0, 0.0
    k = np.asarray(invs, dtype=np.int64) * a % q
    w = np.asarray(ws, dtype=np.float64)
    terms = w * np.exp(1j * TAU * k / q)
    value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return value, len(invs), math.fsum(np.abs(w).tolist())


def prime_sum(a: int, q: int, x: float, weight: str) -> tuple[complex, int, float]:
    """S_q(a; x) over primes x <= p < 2x, or Lambda-weighted over n ~ x."""
    if weight == "unit":
        return _phase_sum(((int(p), 1.0) for p in primes_between(x, 2 * x)), a, q)
    lo, hi = math.ceil(x), math.ceil(2 * x)
    pairs = []
    for p in primes_between(2, hi).tolist():
        pk = p
        while pk < hi:
            if pk >= lo:
                pairs.append((pk, math.log(p)))
            pk *= p
    pairs.sort()
    return _phase_sum(pairs, a, q)


def twist_magnitudes(q: int, x: float) -> tuple[dict[int, float], int]:
    """|S_q(a; x)| for every unit a mod q, and the number of primes summed."""
    primes = [int(p) for p in primes_between(x, 2 * x) if q % int(p)]
    units = np.asarray([a for a in range(1, q) if math.gcd(a, q) == 1], dtype=np.int64)
    if not primes:
        return {int(a): 0.0 for a in units}, 0
    invs = np.asarray([pow(p, -1, q) for p in primes], dtype=np.int64)
    mags = {}
    rows = max(1, (1 << 20) // len(invs))
    for i in range(0, len(units), rows):
        chunk = units[i : i + rows]
        k = (chunk[:, None] * invs[None, :]) % q
        vals = np.abs(np.exp(1j * TAU * k / q).sum(axis=1))
        mags.update(zip(chunk.tolist(), vals.tolist()))
    return mags, len(primes)


def kloosterman(a: int, b: int, q: int) -> float:
    """Real part of K(a, b; q) by direct enumeration over units n."""
    k = np.asarray([(a * n + b * pow(n, -1, q)) % q for n in range(1, q)
                    if math.gcd(n, q) == 1], dtype=np.float64)
    return math.fsum(np.cos(TAU * k / q).tolist())


def short_sum(a: int, q: int, lower: float, upper: float) -> tuple[complex, int, float]:
    ns = range(math.floor(lower) + 1, math.floor(upper) + 1)
    return _phase_sum(((n, 1.0) for n in ns), a, q)


def jcount(k: int, M: int, q: int) -> int:
    """2k-tuples of units m <= M whose inverse halves agree mod q."""
    invs = [pow(m, -1, q) for m in range(1, M + 1) if math.gcd(m, q) == 1]
    sums = Counter(sum(t) % q for t in product(invs, repeat=k))
    return sum(c * c for c in sums.values())


def bilinear(L: float, M: float, a: int, q: int) -> tuple[complex, int, float]:
    """Unit-coefficient sum of e(a * inv(l m) / q) over l ~ L, m ~ M."""
    ls = range(math.ceil(L), math.ceil(2 * L))
    ms = range(math.ceil(M), math.ceil(2 * M))
    return _phase_sum(((l * m, 1.0) for l in ls for m in ms), a, q)
