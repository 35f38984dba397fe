"""Exact counting: unit-fraction equations, inverse congruences, square-full numbers.

Counts here are exact integers.  Unit-fraction counts bucket the k-fold
sums by exact rational value.  Inverse-congruence counts pick their route
per modulus: few k-fold sums are enumerated and sorted, one modulus at a
time; otherwise the residue histogram of the inverses is folded k - 1
times with itself by FFT (_fold_rows), a block of moduli at once.  The
block's histograms are the rows of one array, zero-padded to one shared
5-smooth length n >= 2 * max q - 1; each fold is one 2-D rfft/irfft
product, and each row's linear convolution is wrapped mod its own q.
Each row is rounded to integers under its own written-down error bound,
at the shared length n, which must stay below 1/2, and no entry may lie
further than that bound from its integer.  A single count is a block of
one, charged per residue.  A sweep over q ~ Q factors its moduli a span
at a time (arith.factor_spans), and inverts (arith.block_inverses), bins
and folds them _FOLD_CELLS cells at a time; a block left with one modulus
to fold folds it as a single count.  The tests hold the enumeration of
unit fractions, pure-Python twins of both congruence routes, and the
per-modulus fold as the twin of the block fold.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from .arith import (
    FactorWindow,
    _prime_divisors,
    batch_inverses,
    block_inverses,
    charge_budget,
    check_modulus,
    factor_spans,
    memory_budget,
)
from .errors import CapacityError, ConsistencyError
from .expsums import _FFT_ERROR_C, _UNIT_ROUNDOFF
from .reports import BoundReport, make_report

_STATE_CAP = 2 * 10 ** 7

#: Peak bytes of count_unit_fraction_solutions per state (one of the N^k
#: k-fold sums) for k = 1, 2, 3: tracemalloc measured at most 170, 88 and 25,
#: for N up to 10**6, 500 and 70, as more states share one Fraction bucket.
_FRACTION_BYTES = (176, 96, 32)

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

#: Cells (moduli x fold length) per block of sum_congruence_counts, fewer
#: where the byte budget asks: 32 moduli at the Q = 1024 sweep's length
#: 4096.
_FOLD_CELLS = 1 << 17

#: Peak bytes per cell (an n and a subset of its primes) of _unit_counts,
#: with int64 floors and with the Python-int floors of an M past int64:
#: tracemalloc measured 23.1 and 103.8 over the span [2**19, 2**19 + 2**16),
#: whose largest group is the 24,773 n with three primes.
_UNIT_BYTES = (24, 112)

#: Peak bytes per cell of a fold block of two moduli or more, its
#: histograms and their inversion included: tracemalloc measured at most
#: 14, 33, 41 and 41 for k = 1..4, over the first and last blocks of sweeps
#: with Q from 40 to 20,000 and M from 3 to 3Q.  A fold of one modulus
#: (_folded_count) is charged per residue instead.
_FOLD_BYTES = 56


def _smooth_numbers(top: int) -> list[int]:
    """The numbers up to top with no prime factor above 5, ascending."""
    found = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            n = p35
            while n <= top:
                found.append(n)
                n *= 2
            p35 *= 3
        p5 *= 5
    return sorted(found)


#: Every fold length a modulus below arith.MODULUS_CAP = 2**31 can ask for:
#: the 5-smooth numbers up to 2**32, 1,500 or so.
_SMOOTH = _smooth_numbers(1 << 32)


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
    charge_budget(N ** k * _FRACTION_BYTES[k - 1], f"{N ** k} partial sums need")
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


def _unit_counts(M: int, factors: FactorWindow) -> list[int]:
    """_unit_count(M, primes) for the primes of every n of a factor window,
    at once for all the n with w primes, for each w.

    Each prime p doubles every row's floors M // d, d running over the
    products of distinct primes, since floor(floor(M / d) / p) is
    floor(M / (d p)); a row's count is the sum of its floors, those of odd
    subsets negated.  Each group of rows is charged before it is built.
    """
    lengths = np.diff(factors.bounds)
    # an M past int64 takes Python-int floors
    wide = M >= 2 ** 63
    counts = np.empty(len(lengths), dtype=object if wide else np.int64)
    for w in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == w)
        charge_budget(_UNIT_BYTES[wide] * (len(rows) << w), f"unit counts of {len(rows)} moduli need")
        primes = factors.primes[factors.bounds[rows, None] + np.arange(w)]
        floors, sign = np.full((len(rows), 1), M, dtype=counts.dtype), np.ones(1, dtype=np.int64)
        for p in primes.T:
            floors = np.hstack((floors, floors // p[:, None]))
            sign = np.hstack((sign, -sign))
        # int64 partial sums may wrap, but each count lies in [0, M]
        counts[rows] = floors @ sign
    return counts.tolist()


def _inverse_histogram(M: int, q: int, primes: list[int]) -> np.ndarray:
    """Histogram over residues mod q of the inverses of the units m <= M (int64).

    The inverse of m depends only on m mod q, and a full period of m hits
    every unit residue once, so the histogram is M // q times the unit
    indicator plus the bincount of the inverses of 1..(M mod q): O(q) time
    and memory, whatever M.
    """
    periods, rest = divmod(M, q)
    invs = batch_inverses(np.arange(1, rest + 1, dtype=np.int64), q, primes)
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
    return _SMOOTH[bisect.bisect_left(_SMOOTH, m)]


def _convolve_error_bound(u: np.ndarray, v: np.ndarray, n: int):
    """Bound E on |computed - exact| at every entry of the cyclic convolution
    mod q of two integer vectors u and v of length q, computed as their
    linear convolution irfft(rfft(u, n) * rfft(v, n), n) for an n >= 2q - 1,
    wrapped mod q by adding entry r + q onto entry r.  u and v may be the
    rows of a block, zero-padded to any common length: E is then one bound
    per row.  In the style of expsums._twist_error_bound.

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
    return ((2 * _CONVOLVE_ERROR_C * (n - 1).bit_length() + 2) * _UNIT_ROUNDOFF
            * np.abs(u).sum(axis=-1) * np.sqrt(np.square(v).sum(axis=-1)))


def _check_count(k: int, M: int) -> None:
    """Refuse a k or an M that no congruence count takes."""
    if not 1 <= k <= 4:
        raise ValueError(f"need 1 <= k <= 4, got {k}")
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")


def count_congruence_solutions(k: int, M: int, q: int) -> int:
    """Number of 2k-tuples of units m_i <= M whose inverse halves agree mod q.

    Counts ordered tuples (m_1, ..., m_2k), each coprime to q, with
    inv(m_1) + ... + inv(m_k) = inv(m_{k+1}) + ... + inv(m_2k) (mod q).

    The count n of units m <= M comes first, by inclusion-exclusion, so
    both routes refuse over their caps before allocating anything of
    length M.  The n^k k-fold sums are enumerated (_enumerated_count) when
    n^k <= q and n^k <= _STATE_CAP; otherwise the residue histogram is
    folded by FFT (_folded_count, a block of one), at O(q log q) whatever
    n.  Over the 150 jcount queries of the seed-1 benchmark query stream
    (best of 5 each, 2-core VM, two runs) the FFT route alone took 35-37 ms
    in total, this rule 28-29 ms, and the faster route for each query
    18-24 ms.
    Enumeration also runs counts whose length-q histogram would not fit the
    byte budget: (k, M, q) = (2, 10, 10**9 + 7) takes 100 sums.
    """
    _check_count(k, M)
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    check_modulus(q)
    primes = _prime_divisors(q)
    n = _unit_count(M, primes)
    if n ** k <= min(q, _STATE_CAP):
        return _enumerated_count(k, M, q, n, primes)
    return _folded_count(k, M, q, primes, n)


def _enumerated_count(k: int, M: int, q: int, n: int, primes=None) -> int:
    """The congruence count from the n^k k-fold sums of the inverses of the
    n units m <= M, sorted in place and counted by runs of equal sums;
    primes, when given, are those of q."""
    sums_n = n ** k
    if sums_n > _STATE_CAP:
        raise CapacityError(f"enumeration of {sums_n} sums is over the cap {_STATE_CAP}")
    charge_budget((sums_n + min(M, q)) * _ENUM_BYTES, f"enumeration of {sums_n} sums needs")
    # the units m <= M in order: whole periods of 1..q, then a prefix
    invs = batch_inverses(np.arange(1, min(M, q) + 1, dtype=np.int64), q, primes)
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


def _check_fold(k: int, M: int, n: int) -> None:
    """Refuse a fold whose bucket sizes, up to n**k, could overflow its sums."""
    if n ** (2 * k) >= 2 ** 62:
        raise CapacityError(f"bucket sizes for (k={k}, M={M}) would overflow the dense path")


def _folded_count(k: int, M: int, q: int, primes: list[int], n: int) -> int:
    """The congruence count by _fold_rows, as a block of one, from the
    residue histogram of the inverses of the n units m <= M
    (_inverse_histogram)."""
    _check_fold(k, M, n)
    size = _smooth_length(2 * q - 1)
    # the histogram and its inversion, the spectrum, the product for k >= 3,
    # and the inverse transform with its work copy, for lengths up to 2.14 q;
    # tracemalloc measured at most 61 and 87 bytes per residue for k <= 2 and
    # k >= 3, over q in [1000, 1100), 1351 (the worst n / (2q - 1) below
    # 10**6), 4999, 2**16, 65537, 100003 and 255255, and M below and above q
    check_modulus(q, bytes_per_entry=64 if k <= 2 else 88)
    hist = _inverse_histogram(M, q, primes).astype(np.float64)
    return _fold_rows(k, hist[None], [q], size)[0]


def _fold_rows(k: int, hist: np.ndarray, qs: list[int], n: int) -> list[int]:
    """The congruence count of every modulus of a block from its residue
    histogram: row j of hist (float64, of integers, max(qs) columns) mod
    qs[j], zero from qs[j] on.

    Each row is folded k - 1 times with itself, every fold one rfft/irfft
    product over the whole block at one length n >= 2 * max(qs) - 1.  Each
    row's linear convolution is wrapped mod its own q in place, entry r + q
    added onto r, and rounded to integers.  Before rounding, each row
    checks that its error bound E (_convolve_error_bound at length n) is
    below 1/2, and that no entry is more than E from its integer; otherwise
    ConsistencyError, naming the row's modulus.  A count is the sum of the
    row's squared entries in exact integer arithmetic.
    """
    rows, width = hist.shape
    spectrum = np.fft.rfft(hist, n, axis=1)
    folded = hist
    for fold in range(k - 1):
        # entries stay below n**k < 2**31, so E stays below about 4e-4
        err = np.zeros(rows) + _convolve_error_bound(folded, hist, n)
        bad = np.flatnonzero(~(err < 0.5))
        if len(bad):
            j = bad[0]
            raise ConsistencyError(f"fold error bound {err[j]} mod {qs[j]} is not below 1/2")
        if fold:
            product = np.fft.rfft(folded, n, axis=1)
            product *= spectrum
        else:
            # a single fold needs the spectrum no more: square it in place
            product = np.multiply(spectrum, spectrum, out=spectrum if k == 2 else None)
        linear = np.fft.irfft(product, n, axis=1)
        del product
        for row, q in zip(linear, qs):
            row[: q - 1] += row[q : 2 * q - 1]
            row[q:width] = 0
        raw = linear[:, :width]
        folded = np.rint(raw)
        # raw becomes the distance of each entry from its integer
        np.abs(np.subtract(raw, folded, out=raw), out=raw)
        off = raw.max(axis=1)
        del raw, linear
        bad = np.flatnonzero(off > err)
        if len(bad):
            j = bad[0]
            raise ConsistencyError(
                f"fold mod {qs[j]} is {off[j]} off an integer, over its error bound {err[j]}"
            )
    entries = folded.astype(np.int64)
    return np.einsum("ij,ij->i", entries, entries).tolist()


def _block_histograms(M: int, qs: list[int], divisors) -> np.ndarray:
    """The residue histograms of the inverses of the units m <= M mod each
    of the moduli qs, divisors[j] the primes of qs[j], as the rows of one
    float64 array of max(qs) columns, from one block_inverses and one
    bincount.

    Each m < q that is a unit stands for the m' <= M in its class: M // q
    of them, and one more when m <= M mod q.  So the values 1 .. min(M,
    max q - 1) are inverted once for the whole block, and each inverse is
    binned with that weight, whole periods included: O(q) per modulus,
    whatever M.
    """
    q = np.asarray(qs, dtype=np.int64)[:, None]
    width = int(q.max())
    vals = np.arange(1, min(M, width - 1) + 1, dtype=np.int64)
    invs = block_inverses(vals, q.ravel(), divisors)
    weight = (vals <= M % q) + M // q
    weight[(vals >= q) | (invs == 0)] = 0
    invs += np.arange(len(qs))[:, None] * width
    return np.bincount(invs.ravel(), weight.ravel(), len(qs) * width).reshape(len(qs), width)


def _congruence_block(k: int, M: int, qs: list[int], divisors, ns) -> list[int]:
    """count_congruence_solutions(k, M, q) at every modulus of qs, ascending,
    divisors[j] holding the primes of qs[j] and ns[j] the count of units
    m <= M mod qs[j] (_unit_counts): the moduli that enumeration
    takes one at a time, the others folded at once (_fold_rows), or as a
    single count (_folded_count, whose batch_inverses beats the lanes of
    block_inverses at one modulus) when one is left.  Every cap is checked,
    and the fold charged, before its arrays are built."""
    counts = [0] * len(qs)
    fold = []
    for j, (q, primes, n) in enumerate(zip(qs, divisors, ns)):
        if n ** k <= min(q, _STATE_CAP):
            counts[j] = _enumerated_count(k, M, q, n, primes)
        else:
            _check_fold(k, M, n)
            fold.append(j)
    if len(fold) == 1:
        j = fold[0]
        counts[j] = _folded_count(k, M, qs[j], divisors[j], ns[j])
    elif fold:
        moduli = [qs[j] for j in fold]
        size = _smooth_length(2 * moduli[-1] - 1)
        charge_budget(len(moduli) * size * _FOLD_BYTES, f"tables mod {moduli[0]} to {moduli[-1]} need")
        hist = _block_histograms(M, moduli, [divisors[j] for j in fold])
        for j, count in zip(fold, _fold_rows(k, hist, moduli, size)):
            counts[j] = count
    return counts


def _fold_blocks(lo: int, hi: int) -> list[range]:
    """The moduli lo <= q < hi cut into consecutive blocks of at most
    _FOLD_CELLS cells at the length of the largest, fewer where that would
    pass the byte budget, but at least one modulus."""
    size = _smooth_length(2 * (hi - 1) - 1)
    rows = max(1, min(_FOLD_CELLS, memory_budget() // _FOLD_BYTES) // size)
    return [range(q, min(q + rows, hi)) for q in range(lo, hi, rows)]


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


def sum_congruence_counts(k: int, M: int, Q: int) -> BoundReport:
    """Sum of congruence counts over moduli q ~ Q, versus Q*M^k + M^(2k).

    The left side is the exact integer sum over Q <= q < 2Q; it is also
    exposed in extra["total"] without float rounding.  Each count is
    count_congruence_solutions(k, M, q); the moduli are factored a span at
    a time (arith.factor_spans), their unit counts taken for the whole span
    (_unit_counts), and counted a block of _fold_blocks at a time
    (_congruence_block).
    """
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    _check_count(k, M)
    check_modulus(2 * Q - 1)
    total = 0
    for factors in factor_spans(Q, 2 * Q):
        ns = _unit_counts(M, factors)
        for block in _fold_blocks(factors.lo, factors.hi):
            at = block.start - factors.lo
            counts = _congruence_block(k, M, list(block), factors.divisors(block),
                                       ns[at : at + len(block)])
            total += sum(counts)
    return make_report(
        name="jcount-avg",
        params={"k": k, "M": M, "Q": Q},
        lhs=float(total),
        rhs_terms={"Q*M^k": float(Q * M ** k), "M^(2k)": float(M ** (2 * k))},
        extra={"total": total, "moduli": Q},
    )
