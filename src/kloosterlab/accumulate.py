"""Accumulation helpers for complex exponential sums.

Phases are always reduced to rationals k/q in [0, 1) and looked up in a
unit-root table, so the per-term evaluation error does not grow with the
modulus.  Term streams are summed by exact_sums, one stream per row of an
array (exact_sum for a single stream), by error-free level extraction
(Rump, Ogita and Oishi, "Accurate floating-point summation part I",
SIAM J. Sci. Comput. 31(1), 2008).  Each block of at most _BLOCK terms
per row is taken in levels:

- with 2**e above the block's largest magnitude and 2**t above twice
  its terms per row, sigma = 2**(e + t);
- q = (sigma + x) - sigma keeps the bits of each term x at or above
  2**(e + t - 53), and r = x - q the rest; both are exact;
- every q is a multiple of 2**(e + t - 53) (or of the smallest
  subnormal) of magnitude at most 2**e, so a row's sum of q is below
  2**(e + t - 1) at every partial sum: it is exact in any order, and
  it is added to the row's level sums;
- the next level takes r in place of x, until r is all zero.

Subnormal levels need no special case: there, too, q and r are exact
and every partial sum is a multiple of the smallest subnormal below
2**-1021, which is representable.  One math.fsum per row rounds the
exact total of that row's level sums once, so the result is the
correctly rounded exact sum, which is also what math.fsum of the stream
returns: the two agree bit for bit, and math.fsum is the twin in the
tests.  An exactly zero sum is +0.0, as math.fsum gives it.

The level sums of a block are exact whatever came before it, so they
can be carried: CarriedSums takes a stream a chunk at a time, keeps only
each chunk's level sums (a few per _BLOCK terms and row), and rounds
once when asked, bitwise math.fsum of the whole stream however it was
cut.  Callers that build their terms in chunks of _CHUNK hold that many
terms, not the stream; exact_sums is CarriedSums fed one chunk.

The extraction takes a block only while the sum, over the blocks taken,
of terms per row times 2**e stays below 2**_TOP: every partial sum of
the terms, and of their level sums, then stays below 2**1022, so
neither math.fsum can overflow.  A chunk that is not finite, or would
pass that limit, keeps its terms for the final math.fsum, and so does a
chunk of fewer than _FSUM_TERMS terms, where the fixed cost of the
extraction (about ten NumPy calls) exceeds math.fsum's.  math.fsum then
sees every non-finite term, in order, so its value or exception is kept;
the one outcome that can depend on the cuts is its OverflowError, for a
running sum within rounding of the largest double.  The error bound
attached to a result therefore only has to cover per-term evaluation
error plus one final rounding.

exact_sums also takes integer multiplicities: the sum of count_j * x_j
is the sum of the stream in which x_j appears count_j times, without
expanding it.  Each count is cut into base-2**13 digits; digit d of
level k weighs the term x * 2**(13k), which is exact.  The same levels
are extracted with t raised by the bit length of the block's largest
digit, so each q * d and each row's sum of them stay exact.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import check_modulus

# Conservative per-term phase-evaluation error (argument scaling plus one
# exp call), relative to the term magnitude, and one final-rounding ulp.
# Together they keep the reported bound below term_count * 2**-48 for
# unit-weight sums.
TERM_EPS = 2.0 ** -50
ROUND_EPS = 2.0 ** -52


def unit_roots_at(idx, q) -> np.ndarray:
    """Return e(k/q) = exp(2*pi*i*k/q) for each residue k in idx (0 <= k < q).

    q is one modulus, or an integer array of moduli that broadcasts
    against idx, such as a column with one modulus per row.  Entries above
    q/2 are the exact conjugates of the entries at q - k, the entry at 0 is
    exactly 1 and the entry at q/2 (even q) exactly -1, so conjugate
    symmetry of any sum over these values holds bitwise rather than merely
    up to rounding.  Each value depends only on (k, q): it is bitwise the
    entry k of unit_roots(q), whichever other residues and moduli are
    asked for.  No length-q table is built unless q is one modulus and idx
    has more than q/2 + 1 entries, of any shape: those are gathered from
    the table of unit_roots(q), whose upper half is already mirrored.
    """
    moduli = np.asarray(q, dtype=np.int64)
    if moduli.size and int(moduli.min()) < 1:
        raise ValueError(f"modulus must be >= 1, got {int(moduli.min())}")
    check_modulus(int(moduli.max(initial=1)))
    q = int(q) if moduli.ndim == 0 else moduli
    half = q // 2
    idx = np.asarray(idx, dtype=np.int64)
    if isinstance(q, int) and idx.size > half + 1:
        return _table(q)[idx]
    upper = idx > half
    roots = _lower_roots(np.where(upper, q - idx, idx), q)
    return np.conjugate(roots, out=roots, where=upper)


def _lower_roots(k: np.ndarray, q) -> np.ndarray:
    """e(k/q) for residues 0 <= k <= q/2, with q one modulus or an array of
    moduli that broadcasts against k."""
    # 1j * (2 pi / q) is the complex (0, 2 pi / q) for an int q and for an
    # int array alike; numpy's (2j * pi) / q over an array is not bitwise
    # Python's 2j * pi / q
    roots = np.exp((1j * (2 * math.pi / q)) * k)
    roots[k == 0] = 1.0
    roots[(k == q // 2) & (q % 2 == 0)] = -1.0
    return roots


def unit_roots(q: int) -> np.ndarray:
    """Return the table e(k/q) for k = 0 .. q-1, bitwise unit_roots_at(arange(q), q).

    Both take their values from _lower_roots and mirror the upper half.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    # the table plus its lower half and work arrays
    check_modulus(q, bytes_per_entry=32)
    return _table(q)


def _table(q: int) -> np.ndarray:
    """The table of unit_roots(q), for a checked modulus q >= 1."""
    lower = _lower_roots(np.arange(q // 2 + 1), q)
    return np.concatenate([lower, np.conj(lower[1 : (q + 1) // 2][::-1])])


#: Terms per stream in one block of the level extraction.  Exactness holds
#: for any block short enough that t stays below 53, so that a level keeps
#: a bit; 2**14 keeps a block's two work arrays in cache.
_BLOCK = 1 << 14

#: Bits per digit of a multiplicity.
_DIGIT_BITS = 13

#: Chunks of fewer terms than this, over all rows, keep their terms for
#: math.fsum rather than their level sums.  Measured against the level extraction (2-core VM, best of
#: 7 runs of 300 calls, uniform terms scaled by 2**-8 to 2**8, 1 to 64
#: rows, twice): math.fsum was 10-30% faster at 512 terms over all rows,
#: the two tied within 5% at 640 (9% at 64 rows), and the extraction was
#: faster from 768 up and 1.3-1.6x faster at 1,024.  So 512 costs at most
#: ~2 us per call against the exact crossover.  A 10-term fsum_complex
#: took 12 us extracted, 1.4 us by math.fsum.
_FSUM_TERMS = 512

#: The extraction takes blocks while the sum over them of terms per row
#: times 2**e stays below 2**_TOP: partial sums of the terms and of their
#: level sums then stay below 2**1022, so math.fsum cannot overflow on
#: either, and a level scale stays at most 2**1022.
_TOP = 1021

#: The weights of _level_sums count multiples of the smallest subnormal.
_TINY_BITS = 1074

#: Terms per row in one chunk of a carried stream: the callers of
#: CarriedSums build their terms this many at a time.
_CHUNK = 1 << 16


def _level_sums(rows: np.ndarray, room: int | None, digits: np.ndarray | None = None):
    """The exact level sums of each row of a 2-D float64 array, one tuple
    per row, each term j weighted by digits[j] < 2**13 when digits are
    given, and the weight they took: the sum over blocks of terms per row
    times 2**e, 2**e above the block's largest magnitude, in units of
    2**-_TINY_BITS.  None for a block whose largest magnitude is not finite,
    that would take the weight to room (None: no limit), or whose level
    scale would overflow: math.fsum has to sum that input."""
    k, n = rows.shape
    # two work arrays, shared by the blocks, and unit weights
    work = np.empty((2, k, min(n, _BLOCK)))
    ones = np.ones(min(n, _BLOCK))
    levels = []
    weight = 0
    for start in range(0, n, _BLOCK):
        x = rows[:, start : start + _BLOCK]
        w = ones[: x.shape[1]] if digits is None else digits[start : start + _BLOCK]
        q, r = work[:, :, : x.shape[1]]
        # abs and max propagate nan, so a nan fails the test
        amax = float(np.maximum.reduce(np.abs(x, out=q), axis=None))
        if not amax < math.inf:
            return None
        if room is not None and amax:
            weight += x.shape[1] << (math.frexp(amax)[1] + _TINY_BITS)
            if weight >= room:
                return None
        # 2**t > 2 * (terms per row) * (largest weight)
        t = (2 * len(w) * (1 if digits is None else int(w.max()))).bit_length()
        while amax:
            scale = math.frexp(amax)[1] + t
            if scale > 1023:
                return None
            sigma = 2.0 ** scale
            # q keeps the bits of x at or above 2**(scale - 53) and r the
            # rest, both exactly; |q| <= 2**(scale - t), so a row's sum of
            # q, or of q times a digit, is a multiple of 2**(scale - 53) (or
            # of the smallest subnormal) below 2**(scale - 1) at every
            # partial sum: none rounds
            np.add(x, sigma, out=q)
            q -= sigma
            x = np.subtract(x, q, out=r)
            levels.append(q @ w)
            amax = float(np.maximum.reduce(np.abs(r, out=q), axis=None))
    return (list(zip(*[level.tolist() for level in levels])) if levels else [()] * k), weight


class CarriedSums:
    """Correctly rounded sums of k streams fed a chunk at a time.

    add(chunk) takes a (k, n) array: the next n terms of each stream.
    sums() returns each stream's sum so far, bitwise math.fsum of its
    chunks concatenated, however the stream was cut.  A chunk keeps only
    its level sums, or its terms when it is shorter than _FSUM_TERMS or
    the extraction refuses it (see the module notes).
    """

    def __init__(self, rows: int):
        self._parts: list[list[float]] = [[] for _ in range(rows)]
        self._room = 1 << (_TOP + _TINY_BITS)

    @property
    def rows(self) -> int:
        return len(self._parts)

    def add(self, chunk) -> None:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or len(chunk) != len(self._parts):
            raise ValueError(f"need {len(self._parts)} rows of terms, got shape {chunk.shape}")
        found = _level_sums(chunk, self._room) if chunk.size >= _FSUM_TERMS else None
        if found is None:
            kept = chunk.tolist()
        else:
            kept, weight = found
            self._room -= weight
        for part, terms in zip(self._parts, kept):
            part.extend(terms)

    def sums(self) -> list[float]:
        # each level sum is exact, so their math.fsum rounds the exact total once
        return [math.fsum(part) for part in self._parts]


def exact_sums(rows, counts=None) -> list[float]:
    """The correctly rounded sum of each row of a 2-D array, each bitwise
    math.fsum(row), from one level extraction over all the rows.

    counts, when given, is a 1-D array of nonnegative integer multiplicities
    shared by every row, one per column: each sum is then bitwise
    math.fsum(np.repeat(row, counts)), computed without the repetition.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if counts is None:
        carried = CarriedSums(len(rows))
        carried.add(rows)
        return carried.sums()
    counts = np.asarray(counts)
    if counts.shape != rows.shape[1:] or counts.dtype.kind not in "iu":
        raise ValueError(f"need one integer count per column, got {counts.dtype} {counts.shape}")
    if counts.size and int(counts.min()) < 0:
        raise ValueError("counts must be nonnegative")
    kept = np.flatnonzero(counts)
    rows, counts = rows[:, kept], counts[kept].astype(np.int64)
    # the total as a Python int, from two halves whose sums cannot overflow
    total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
    fsums = lambda: [math.fsum(np.repeat(row, counts).tolist()) for row in rows]
    if total * len(rows) < _FSUM_TERMS or not total:
        return fsums()
    # below this limit the expanded stream of total terms keeps every
    # partial sum below 2**_TOP; inf and nan fail the test too
    if not float(np.abs(rows).max(initial=0.0)) < 2.0 ** (_TOP - total.bit_length()):
        return fsums()
    # digit level k of every count, with the terms scaled by 2**(13k): a
    # power of two no larger than the largest count, so the scaled terms
    # stay below 2**_TOP and scale exactly
    pieces, digits = [], []
    for shift in range(0, int(counts.max()).bit_length(), _DIGIT_BITS):
        d = (counts >> shift) & ((1 << _DIGIT_BITS) - 1)
        nz = np.flatnonzero(d)
        pieces.append(rows[:, nz] * 2.0 ** shift)
        digits.append(d[nz])
    found = _level_sums(np.concatenate(pieces, axis=1), None, np.concatenate(digits).astype(np.float64))
    # a level scale past 2**1023 leaves the expanded stream to math.fsum
    return fsums() if found is None else [math.fsum(levels) for levels in found[0]]


def exact_sum(values) -> float:
    """The correctly rounded sum of a real stream, bitwise math.fsum(values)."""
    return exact_sums(np.asarray(values, dtype=np.float64).reshape(1, -1))[0]


def fsum_complex(re_terms, im_terms) -> complex:
    """Correctly rounded sum of a complex term stream given as two real
    streams of one length, each part bitwise its math.fsum."""
    return complex(*exact_sums(np.array((re_terms, im_terms), dtype=np.float64)))


def accumulation_bound(weight_sum: float, value: complex) -> float:
    """Error bound for a compensated sum of terms of total weight weight_sum."""
    return weight_sum * TERM_EPS + abs(value) * ROUND_EPS
