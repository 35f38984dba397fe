"""Exact counting: unit-fraction equations, inverse congruences, square-full numbers.

Counts here are exact integers.  Each count has two independent routes, a
naive enumeration over tuples and a convolution: unit-fraction counts
bucket the k-fold sums by exact rational value, and inverse-congruence
counts fold the residue histogram of the inverses by FFT, rounding every
entry to an integer under a written-down error bound that must stay below
1/2.  The pair is kept side by side so they can be cross-checked instead
of trusting either one alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _prime_divisors, batch_inverses, check_modulus
from .errors import CapacityError, ConsistencyError
from .expsums import _FFT_ERROR_C, _UNIT_ROUNDOFF
from .parallel import pmap
from .reports import BoundReport, make_report

_METHODS = ("naive", "convolution")
_NAIVE_TUPLE_CAP = 4 * 10 ** 6
_STATE_CAP = 2 * 10 ** 7

#: The constant c in the fold error bound c * ceil(log2 q) * u * |f|_1 * |h|_2:
#: two forward transforms, one inverse and the pointwise product, each
#: within expsums' per-transform constant.
_CONVOLVE_ERROR_C = 3 * _FFT_ERROR_C


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")


@dataclass(frozen=True)
class CountResult:
    count: int
    method: str
    params: dict


def count_unit_fraction_solutions(k: int, N: int, method: str = "convolution") -> CountResult:
    """Number of 2k-tuples in [1, N]^2k whose unit-fraction halves agree.

    Counts ordered tuples (n_1, ..., n_2k) with
    1/n_1 + ... + 1/n_k = 1/n_{k+1} + ... + 1/n_2k, exactly, in rational
    arithmetic.  The naive method enumerates all tuples; convolution
    buckets the k-fold sums by reduced value and adds squared bucket sizes.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"need k in {{1, 2, 3}}, got {k}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    _check_method(method)
    params = {"k": k, "N": N}
    if N == 0:
        return CountResult(0, method, params)

    if method == "naive":
        if N ** (2 * k) > _NAIVE_TUPLE_CAP:
            raise CapacityError(f"naive enumeration of {N ** (2 * k)} tuples is over the cap")
        sums = _ordered_sums(k, N)
        count = sum(1 for s in sums for t in sums if s == t)
        return CountResult(count, method, params)

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
    count = sum(mult * mult for mult in buckets.values())
    return CountResult(count, method, params)


def _ordered_sums(k: int, N: int) -> list[Fraction]:
    """All k-fold sums of unit fractions with parts in [1, N], in tuple order."""
    sums = [Fraction(0)]
    for _ in range(k):
        sums = [s + Fraction(1, n) for s in sums for n in range(1, N + 1)]
    return sums


def cross_check_unit_fractions(k: int, N: int) -> int:
    """Run both unit-fraction methods; raise if they disagree."""
    fast = count_unit_fraction_solutions(k, N, "convolution").count
    slow = count_unit_fraction_solutions(k, N, "naive").count
    if fast != slow:
        raise ConsistencyError(
            f"unit-fraction methods disagree at (k={k}, N={N}): {fast} vs {slow}"
        )
    return fast


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


def count_congruence_solutions(k: int, M: int, q: int, method: str = "convolution") -> CountResult:
    """Number of 2k-tuples of units m_i <= M whose inverse halves agree mod q.

    Counts ordered tuples (m_1, ..., m_2k), each coprime to q, with
    inv(m_1) + ... + inv(m_k) = inv(m_{k+1}) + ... + inv(m_2k) (mod q).

    The naive route enumerates the k-fold sums.  The convolution route
    folds the residue histogram h of the inverses k - 1 times with itself,
    each fold one zero-padded rfft/irfft product of a 5-smooth length
    n >= 2q - 1 (_smooth_length), whose linear convolution is wrapped mod q
    and rounded to int64, and returns the sum of the squared entries in
    exact integer arithmetic.  Before
    rounding, each fold checks that its error bound E is below 1/2 and that
    no entry is more than E from its integer; otherwise ConsistencyError.
    The count of units n <= M comes first, by inclusion-exclusion, so both
    routes refuse over their caps before allocating anything of length M.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"need 1 <= k <= 4, got {k}")
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    _check_method(method)
    check_modulus(q)
    params = {"k": k, "M": M, "q": q}
    primes = _prime_divisors(q)
    n = _unit_count(M, primes)

    if method == "naive":
        if n ** k > _STATE_CAP:
            raise CapacityError(f"naive enumeration of {n ** k} sums is over the cap")
        # the units m <= M in order: whole periods of 1..q, then a prefix
        invs = batch_inverses(np.arange(1, min(M, q) + 1, dtype=np.int64), q)
        invs = np.resize(invs[invs != 0], n)
        sums = invs
        for _ in range(k - 1):
            sums = ((sums[:, None] + invs[None, :]) % q).ravel()
        _, mult = np.unique(sums, return_counts=True)
        count = int(sum(int(c) * int(c) for c in mult))
        return CountResult(count, method, params)

    if n ** (2 * k) >= 2 ** 62:
        raise CapacityError(f"bucket sizes for (k={k}, M={M}) would overflow the dense path")
    # the histogram and the fold, plus the length-n spectrum, product and
    # inverse transform with its work copy, for n <= 2.14 q; tracemalloc
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
    count = int(np.dot(folded, folded))
    return CountResult(count, method, params)


def cross_check_congruence(k: int, M: int, q: int) -> int:
    """Run both congruence-count methods; raise if they disagree."""
    fast = count_congruence_solutions(k, M, q, "convolution").count
    slow = count_congruence_solutions(k, M, q, "naive").count
    if fast != slow:
        raise ConsistencyError(
            f"congruence-count methods disagree at (k={k}, M={M}, q={q}): {fast} vs {slow}"
        )
    return fast


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


def sum_congruence_counts(
    k: int, M: int, Q: int, method: str = "convolution", workers: int = 1
) -> BoundReport:
    """Sum of congruence counts over moduli q ~ Q, versus Q*M^k + M^(2k).

    The left side is the exact integer sum over Q <= q < 2Q; it is also
    exposed in extra["total"] without float rounding.
    """
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    counts = pmap(
        lambda q: count_congruence_solutions(k, M, q, method).count,
        range(Q, 2 * Q),
        workers=workers,
    )
    total = sum(counts)
    return make_report(
        name="jcount-avg",
        params={"k": k, "M": M, "Q": Q},
        lhs=float(total),
        rhs_terms={"Q*M^k": float(Q * M ** k), "M^(2k)": float(M ** (2 * k))},
        extra={"total": total, "moduli": Q},
    )
