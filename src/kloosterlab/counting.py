"""Exact counting: unit-fraction equations, inverse congruences, square-full numbers.

Counts here are exact integers.  Unit-fraction counts bucket the k-fold
sums by exact rational value.  Inverse-congruence counts pick their route
from their inputs: few k-fold sums are enumerated and sorted, otherwise the
residue histogram of the inverses is folded by FFT, rounding every entry to
an integer under a written-down error bound that must stay below 1/2.  The
tests hold the enumeration of unit fractions and pure-Python twins of both
congruence routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import _prime_divisors, batch_inverses, charge_budget, check_modulus
from .errors import CapacityError, ConsistencyError
from .expsums import _FFT_ERROR_C, _UNIT_ROUNDOFF
from .parallel import pmap
from .reports import BoundReport, make_report

_STATE_CAP = 2 * 10 ** 7

#: Peak bytes of _enumerated_count per entry, an entry being one k-fold sum
#: or one inverse computed.  tracemalloc measured at most 28.4, over 160
#: seeded (k, M, q) with k = 1..4, n^k <= 2e7 and at least 1e5 entries, on
#: prime, power-of-two, primorial and random moduli: about 33 bytes per
#: inverse, and 16 per sum for the sorted sums and their runs.
_ENUM_BYTES = 32

#: The constant c in the fold error bound c * ceil(log2 q) * u * |f|_1 * |h|_2:
#: two forward transforms, one inverse and the pointwise product, each
#: within expsums' per-transform constant.
_CONVOLVE_ERROR_C = 3 * _FFT_ERROR_C


def count_unit_fraction_solutions(k: int, N: int) -> int:
    """Number of 2k-tuples in [1, N]^2k whose unit-fraction halves agree.

    Counts ordered tuples (n_1, ..., n_2k) with
    1/n_1 + ... + 1/n_k = 1/n_{k+1} + ... + 1/n_2k, exactly, in rational
    arithmetic, by bucketing the k-fold sums by reduced value and adding
    squared bucket sizes.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"need k in {{1, 2, 3}}, got {k}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if N ** k > _STATE_CAP:
        raise CapacityError(f"{N ** k} partial sums exceed the state cap")
    buckets: dict[Fraction, int] = {Fraction(0): 1}
    for _ in range(k):
        grown: dict[Fraction, int] = {}
        for value, mult in buckets.items():
            for n in range(1, N + 1):
                key = value + Fraction(1, n)
                grown[key] = grown.get(key, 0) + mult
        buckets = grown
    return sum(mult * mult for mult in buckets.values())


def _is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def count_squarefull(x: int) -> int:
    """Number of square-full integers in [1, x], exactly.

    Every square-full number is uniquely a^2 * b^3 with b squarefree, so
    the count is a sum of integer square roots over squarefree cubes; no
    sieve is needed and the cost is O(x^(1/3)) squarefree tests.
    """
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    total = 0
    b = 1
    while b * b * b <= x:
        if _is_squarefree(b):
            total += math.isqrt(x // (b * b * b))
        b += 1
    return total


def _unit_count(M: int, primes: list[int]) -> int:
    """Number of m in [1, M] divisible by none of primes, by inclusion-exclusion."""
    terms = [(1, 1)]
    for p in primes:
        terms += [(d * p, -sign) for d, sign in terms]
    return sum(sign * (M // d) for d, sign in terms)


def _inverse_histogram(M: int, q: int, primes: list[int]) -> np.ndarray:
    """Histogram over residues mod q of the inverses of the units m <= M (int64).

    The inverse of m depends only on m mod q, and a full period of m hits
    every unit residue once, so the histogram is M // q times the unit
    indicator plus the bincount of the inverses of 1..(M mod q): O(q) time
    and memory, whatever M.
    """
    periods, rest = divmod(M, q)
    invs = batch_inverses(np.arange(1, rest + 1, dtype=np.int64), q)
    hist = np.bincount(invs[invs != 0], minlength=q)
    if periods:
        units = np.ones(q, dtype=bool)
        for p in primes:
            units[::p] = False
        hist[units] += periods
    return hist


def _smooth_length(m: int) -> int:
    """The least n >= m with no prime factor above 5, a length pocketfft
    transforms directly rather than by Bluestein's algorithm."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches m
            best = min(best, p35 << ((m - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_error_bound(u: np.ndarray, v: np.ndarray) -> float:
    """Bound E on |computed - exact| at every entry of the cyclic convolution
    mod q of two length-q vectors u and v, computed as their linear
    convolution irfft(rfft(u, n) * rfft(v, n), n) with n = _smooth_length(2q - 1),
    wrapped mod q by adding entry r + q onto entry r.  In the style of
    expsums._twist_error_bound.

    Each length-n transform is off by at most eps = _FFT_ERROR_C *
    ceil(log2 n) * u times the 2-norm of its exact output; zero padding
    changes no norm.  A forward error then reaches each linear entry with at
    most eps * |u|_2 * |v|_2 (Cauchy-Schwarz over the spectra, and
    Parseval), and the inverse transform's own error is at most
    eps * |u * v|_2 <= eps * |u|_1 * |v|_2 (Young).  So with
    c = _CONVOLVE_ERROR_C, each linear entry is within
    c * ceil(log2 n) * u * |u|_1 * |v|_2, which also covers the rounding of
    the product.  A wrapped entry adds two of them, and its addition rounds
    once, by at most u * (|u|_1 * |v|_2 + 1) <= 2 * u * |u|_1 * |v|_2 for
    integer vectors, nonzero (E = 0 when either is zero, and all is exact):
    E = (2 * c * ceil(log2 n) + 2) * u * |u|_1 * |v|_2.
    """
    n = _smooth_length(2 * len(u) - 1)
    return ((2 * _CONVOLVE_ERROR_C * math.ceil(math.log2(n)) + 2) * _UNIT_ROUNDOFF
            * float(np.sum(np.abs(u))) * float(np.linalg.norm(v)))


def count_congruence_solutions(k: int, M: int, q: int) -> int:
    """Number of 2k-tuples of units m_i <= M whose inverse halves agree mod q.

    Counts ordered tuples (m_1, ..., m_2k), each coprime to q, with
    inv(m_1) + ... + inv(m_k) = inv(m_{k+1}) + ... + inv(m_2k) (mod q).

    The count n of units m <= M comes first, by inclusion-exclusion, so
    both routes refuse over their caps before allocating anything of
    length M.  The n^k k-fold sums are enumerated (_enumerated_count) when
    n^k <= q and n^k <= _STATE_CAP; otherwise the residue histogram is
    folded by FFT (_folded_count), at O(q log q) whatever n.  Over the 150
    jcount queries of the seed-1 benchmark query stream (best of 5 each,
    2-core VM, two runs) the FFT route alone took 35-37 ms in total, this
    rule 28-29 ms, and the faster route for each query 18-24 ms.
    Enumeration also runs counts whose length-q histogram would not fit the
    byte budget: (k, M, q) = (2, 10, 10**9 + 7) takes 100 sums.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"need 1 <= k <= 4, got {k}")
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    check_modulus(q)
    primes = _prime_divisors(q)
    n = _unit_count(M, primes)
    if n ** k <= min(q, _STATE_CAP):
        return _enumerated_count(k, M, q, n)
    return _folded_count(k, M, q, primes, n)


def _enumerated_count(k: int, M: int, q: int, n: int) -> int:
    """The congruence count from the n^k k-fold sums of the inverses of the
    n units m <= M, sorted in place and counted by runs of equal sums."""
    sums_n = n ** k
    if sums_n > _STATE_CAP:
        raise CapacityError(f"enumeration of {sums_n} sums is over the cap {_STATE_CAP}")
    charge_budget((sums_n + min(M, q)) * _ENUM_BYTES, f"enumeration of {sums_n} sums needs")
    # the units m <= M in order: whole periods of 1..q, then a prefix
    invs = batch_inverses(np.arange(1, min(M, q) + 1, dtype=np.int64), q)
    invs = np.resize(invs[invs != 0], n)
    sums = invs
    for _ in range(k - 1):
        sums = np.add.outer(sums, invs).ravel()
        sums %= q
    sums.sort()
    edges = np.flatnonzero(np.concatenate(([True], sums[1:] != sums[:-1], [True])))
    runs = np.diff(edges)
    # the sum of squared runs is at most sums_n**2 <= _STATE_CAP**2 < 2**63
    return int(np.dot(runs, runs))


def _folded_count(k: int, M: int, q: int, primes: list[int], n: int) -> int:
    """The congruence count from the residue histogram h of the inverses of
    the n units m <= M, folded k - 1 times with itself, each fold one
    zero-padded rfft/irfft product of a 5-smooth length at least 2q - 1
    (_smooth_length), whose linear convolution is wrapped mod q and rounded
    to int64; the count is the sum of the squared entries in exact integer
    arithmetic.  Before rounding, each fold checks that its error bound E is
    below 1/2 and that no entry is more than E from its integer; otherwise
    ConsistencyError.
    """
    if n ** (2 * k) >= 2 ** 62:
        raise CapacityError(f"bucket sizes for (k={k}, M={M}) would overflow the dense path")
    # the histogram and the fold, plus the length-n spectrum, product and
    # inverse transform with its work copy, for lengths up to 2.14 q; tracemalloc
    # measured at most 61 and 86 bytes per residue for k = 2 and k >= 3
    # (the fold's own spectrum), over q in [1000, 1100) and at q = 1351,
    # the worst n / (2q - 1) for q in [1000, 10**6)
    check_modulus(q, bytes_per_entry=64 if k <= 2 else 88)
    hist = _inverse_histogram(M, q, primes)
    size = _smooth_length(2 * q - 1)
    spectrum = np.fft.rfft(hist, size)
    folded = hist
    for _ in range(k - 1):
        # entries stay below n**k < 2**31, so E stays below about 4e-4
        err = _convolve_error_bound(folded, hist)
        if not err < 0.5:
            raise ConsistencyError(f"fold error bound {err} mod {q} is not below 1/2")
        if folded is hist:
            product = spectrum * spectrum
        else:
            product = np.fft.rfft(folded, size)
            product *= spectrum
        linear = np.fft.irfft(product, size)
        del product
        raw = linear[:q]
        raw[: q - 1] += linear[q : 2 * q - 1]
        folded = np.rint(raw)
        # raw becomes the distance of each entry from its integer
        np.abs(np.subtract(raw, folded, out=raw), out=raw)
        off = float(raw.max())
        if off > err:
            raise ConsistencyError(
                f"fold mod {q} is {off} off an integer, over its error bound {err}"
            )
        folded = folded.astype(np.int64)
    return int(np.dot(folded, folded))


def classify_tuple(ms) -> int:
    """Integer invariant F separating exact rational identities from congruences.

    For a 2k-tuple (m_1, ..., m_2k) let
    F = (prod m_i) * (1/m_1 + ... + 1/m_k - 1/m_{k+1} - ... - 1/m_2k),
    an exact integer.  F == 0 exactly when the unit-fraction identity
    holds; otherwise any modulus q coprime to every m_i for which the
    inverse congruence holds must divide F.
    """
    ms = [int(m) for m in ms]
    if len(ms) == 0 or len(ms) % 2 != 0:
        raise ValueError(f"need a nonempty tuple of even length, got {len(ms)} entries")
    if any(m < 1 for m in ms):
        raise ValueError("tuple entries must be positive")
    k = len(ms) // 2
    total = math.prod(ms)
    pos = sum(total // m for m in ms[:k])
    neg = sum(total // m for m in ms[k:])
    return pos - neg


def sum_congruence_counts(k: int, M: int, Q: int, workers: int = 1) -> BoundReport:
    """Sum of congruence counts over moduli q ~ Q, versus Q*M^k + M^(2k).

    The left side is the exact integer sum over Q <= q < 2Q; it is also
    exposed in extra["total"] without float rounding.
    """
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    counts = pmap(lambda q: count_congruence_solutions(k, M, q), range(Q, 2 * Q),
                  workers=workers)
    total = sum(counts)
    return make_report(
        name="jcount-avg",
        params={"k": k, "M": M, "Q": Q},
        lhs=float(total),
        rhs_terms={"Q*M^k": float(Q * M ** k), "M^(2k)": float(M ** (2 * k))},
        extra={"total": total, "moduli": Q},
    )
