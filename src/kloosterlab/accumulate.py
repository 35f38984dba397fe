"""Accumulation helpers for complex exponential sums.

Phases are always reduced to rationals k/q in [0, 1) and looked up in a
unit-root table, so the per-term evaluation error does not grow with the
modulus.  Term streams are summed by exact_sums, one stream per row of an
array (exact_sum for a single stream), a binned accumulator in the style
of Demmel and Hida ("Accurate and efficient floating point
summation", SIAM J. Sci. Comput. 25, 2003):

- np.frexp writes each term as x = m * 2**e with a 53-bit mantissa m,
  which is cut into two integers: its top 27 bits and its low 26 bits;
- np.bincount adds the halves into one bin per exponent level, the top
  half of a term 26 levels above its low half;
- a block of at most 2**26 terms per stream puts at most 2**26 integers
  below 2**27 into any bin, so every bin, and every partial sum bincount
  forms on the way, is an integer below 2**53: no addition rounds;
- the bins are combined as Python ints, and one int/int true division,
  which Python rounds correctly, rounds the exact total once.

So the result is the correctly rounded exact sum, which is also what
math.fsum returns: the two agree bit for bit, and math.fsum is the twin
in the tests.  An exactly zero sum is +0.0, as math.fsum gives it.
Input that is not finite, or so large that math.fsum could overflow on
the way, is summed by math.fsum itself, so its values and exceptions are
kept, and so are arrays of fewer than _FSUM_TERMS terms, where the fixed
cost of the binned pass (about fifteen NumPy calls) exceeds math.fsum's.
The error bound attached to a result therefore only has to cover
per-term evaluation error plus one final rounding.

exact_sums also takes integer multiplicities: the sum of count_j * x_j
is the sum of the stream in which x_j appears count_j times, without
expanding it.  Each count is cut into base-2**13 digits; digit d of
level k weighs the term x * 2**(13k), which is exact, and multiplies its
two integer halves, which stay below 2**40.  Blocks of such terms hold
at most 2**13 of them, so every bin stays below 2**53 as before.
"""

from __future__ import annotations

import math
import operator

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
    has more than q/2 + 1 entries, of any shape, when tabulating the lower
    half is the cheaper route.
    """
    moduli = np.asarray(q, dtype=np.int64)
    if moduli.size and int(moduli.min()) < 1:
        raise ValueError(f"modulus must be >= 1, got {int(moduli.min())}")
    check_modulus(int(moduli.max(initial=1)))
    q = int(q) if moduli.ndim == 0 else moduli
    half = q // 2
    idx = np.asarray(idx, dtype=np.int64)
    upper = idx > half
    k = np.where(upper, q - idx, idx)
    if isinstance(q, int) and k.size > half + 1:
        roots = _lower_roots(np.arange(half + 1), q)[k]
    else:
        roots = _lower_roots(k, q)
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
    lower = _lower_roots(np.arange(q // 2 + 1), q)
    return np.concatenate([lower, np.conj(lower[1 : (q + 1) // 2][::-1])])


#: Terms per stream binned at once.  Exactness holds for any block of at
#: most 2**26 terms; 2**14 keeps the ~50 bytes of work arrays per term in
#: cache, and measured as fast as 2**16 on million-term streams.
_BLOCK = 1 << 14

#: Bits per digit of a multiplicity, and terms per block when counted:
#: 2**13 terms whose halves (below 2**27) are scaled by a digit below
#: 2**13 keep every bin below 2**53.
_DIGIT_BITS = 13
_COUNTED_BLOCK = 1 << 13

#: Arrays of fewer terms than this, over all rows, are summed by math.fsum
#: row by row.  Measured with uniform random terms (2-core VM, best of 5
#: runs of 200 calls): math.fsum overtook the binned pass below about
#: 1,000 terms in one row, 470 per row in two, 170 per row in eight and
#: 80 per row in 64; a fixed 512 over all rows never picks the slower
#: route.  A 10-term fsum_complex took 17 us binned, 0.8 us by math.fsum.
_FSUM_TERMS = 512

#: Every bin is an integer multiple of 2**-1133: the smallest frexp
#: exponent, -1073, less 53 mantissa bits and 7 levels of octet padding.
_SCALE_BITS = 1133
_SCALE = 1 << _SCALE_BITS

#: A stream of n terms below 2**e in magnitude stays on the binned path
#: while e + n.bit_length() <= _TOP: its partial sums then stay below
#: 2**1022, so math.fsum cannot overflow on it either.
_TOP = 1021

#: Weights of eight consecutive levels; the octet sum stays below 2**61.
_OCTET = 1 << np.arange(7, -1, -1, dtype=np.int64)


def _binned_sums(rows: np.ndarray, limit: float, digits: np.ndarray | None = None) -> list[float] | None:
    """Correctly rounded exact sums of the rows of a 2-D float64 array, each
    term j weighted by digits[j] < 2**13 when digits are given, or None for
    a block whose largest magnitude is not below limit (not finite, or near
    overflow): math.fsum has to sum that input."""
    k, n = rows.shape
    totals = [0] * k
    size = _BLOCK if digits is None else _COUNTED_BLOCK
    for start in range(0, n, size):
        block = rows[:, start : start + size]
        amax = float(np.abs(block).max())
        if not amax < limit:
            return None
        m, e = np.frexp(block)
        # the largest exponent of a nonzero term, but at least that of a
        # zero (frexp gives zeros exponent 0, and they add 0 wherever they
        # land), and the smallest of any term
        emax, emin = max(math.frexp(amax)[1], 0), int(e.min())
        m *= 2.0 ** 27
        w = np.empty((2,) + m.shape)
        np.trunc(m, out=w[0])
        np.subtract(m, w[0], out=w[1])
        w[1] *= 2.0 ** 26
        if digits is not None:
            w *= digits[start : start + size]
        # each row takes the levels from emax down to emin, padded to whole
        # octets: a term of row j with exponent e adds its top half to bin
        # emax - e of the row and its low half 26 bins further, and bin i of
        # a row is in units of 2**(emax - 27 - i)
        levels = (emax - emin + 34) & -8
        bases = np.add.outer((emax, emax + 26), levels * np.arange(k))[:, :, None]
        bins = np.bincount(np.subtract(bases, e).ravel(), weights=w.ravel(), minlength=k * levels)
        octets = (bins.astype(np.int64).reshape(k, -1, 8) @ _OCTET).tolist()
        # octet g is in units of 2**(emax - 34 - 8g); Horner in small shifts,
        # then one shift of the row to units of 2**-_SCALE_BITS
        top = levels - 8
        steps = range(top, -1, -8)
        for j, row in enumerate(octets):
            totals[j] += sum(map(operator.lshift, row, steps)) << (emax + _SCALE_BITS - 34 - top)
    return [t / _SCALE for t in totals]


def _fsums(rows: np.ndarray) -> list[float]:
    return [math.fsum(row) for row in rows.tolist()]


def exact_sums(rows, counts=None) -> list[float]:
    """The correctly rounded sum of each row of a 2-D array, each bitwise
    math.fsum(row), from one binned pass over all the rows.

    counts, when given, is a 1-D array of nonnegative integer multiplicities
    shared by every row, one per column: each sum is then bitwise
    math.fsum(np.repeat(row, counts)), computed without the repetition.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if counts is None:
        if rows.size < _FSUM_TERMS:
            return _fsums(rows)
        # below this limit every exponent e has e + n.bit_length() <= _TOP;
        # inf and nan fail the test too
        sums = _binned_sums(rows, 2.0 ** (_TOP - rows.shape[1].bit_length()))
        return _fsums(rows) if sums is None else sums
    counts = np.asarray(counts)
    if counts.shape != rows.shape[1:] or counts.dtype.kind not in "iu":
        raise ValueError(f"need one integer count per column, got {counts.dtype} {counts.shape}")
    if counts.size and int(counts.min()) < 0:
        raise ValueError("counts must be nonnegative")
    kept = np.flatnonzero(counts)
    rows, counts = rows[:, kept], counts[kept].astype(np.int64)
    # the total as a Python int, from two halves whose sums cannot overflow
    total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
    if total * len(rows) < _FSUM_TERMS or not total:
        return _fsums(np.repeat(rows, counts, axis=1))
    # the same limit for the expanded stream of total terms
    if not float(np.abs(rows).max(initial=0.0)) < 2.0 ** (_TOP - total.bit_length()):
        return [math.fsum(np.repeat(row, counts).tolist()) for row in rows]
    # digit level k of every count, with the terms scaled by 2**(13k): a
    # power of two no larger than the largest count, so the scaled terms
    # stay below 2**_TOP and scale exactly
    pieces, digits = [], []
    for shift in range(0, int(counts.max()).bit_length(), _DIGIT_BITS):
        d = (counts >> shift) & ((1 << _DIGIT_BITS) - 1)
        nz = np.flatnonzero(d)
        pieces.append(rows[:, nz] * 2.0 ** shift)
        digits.append(d[nz])
    return _binned_sums(np.concatenate(pieces, axis=1), math.inf,
                        np.concatenate(digits).astype(np.float64))


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
