"""Accumulation helpers for complex exponential sums.

Phases are always reduced to rationals k/q in [0, 1) and looked up in a
unit-root table, so the per-term evaluation error does not grow with the
modulus.  Term streams are summed by exact_sum, a binned accumulator in
the style of Demmel and Hida ("Accurate and efficient floating point
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
kept.  The error bound attached to a result therefore only has to cover
per-term evaluation error plus one final rounding.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .arith import check_modulus

# Conservative per-term phase-evaluation error (argument scaling plus one
# exp call), relative to the term magnitude, and one final-rounding ulp.
# Together they keep the reported bound below term_count * 2**-48 for
# unit-weight sums.
TERM_EPS = 2.0 ** -50
ROUND_EPS = 2.0 ** -52


def unit_roots_at(idx, q: int) -> np.ndarray:
    """Return e(k/q) = exp(2*pi*i*k/q) for each residue k in idx (0 <= k < q).

    Entries above q/2 are the exact conjugates of the entries at q - k,
    the entry at 0 is exactly 1 and the entry at q/2 (even q) exactly -1,
    so conjugate symmetry of any sum over these values holds bitwise
    rather than merely up to rounding.  Each value depends only on (k, q):
    it is bitwise the entry k of unit_roots(q), whichever other residues
    are asked for.  No length-q table is built unless idx has more than
    q/2 + 1 entries, of any shape, when tabulating the lower half is the
    cheaper route.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    check_modulus(q)
    half = q // 2
    idx = np.asarray(idx, dtype=np.int64)
    upper = idx > half
    k = np.where(upper, q - idx, idx)
    if k.size > half + 1:
        roots = _lower_roots(np.arange(half + 1), q)[k]
    else:
        roots = _lower_roots(k, q)
    return np.conjugate(roots, out=roots, where=upper)


def _lower_roots(k: np.ndarray, q: int) -> np.ndarray:
    """e(k/q) for residues 0 <= k <= q/2."""
    roots = np.exp((2j * math.pi / q) * k)
    roots[k == 0] = 1.0
    if q % 2 == 0:
        roots[k == q // 2] = -1.0
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

#: Bins per row.  Bin _TOP - e of a row holds the top halves of its terms
#: with exponent e, and bin _TOP - e + 26 their low halves.  Exponents run
#: from -1073 up, so the bins read, padded to whole octets, end below
#: _TOP + 1073 + 34.
_ROW = 2128


@lru_cache(maxsize=None)
def _bases(k: int) -> np.ndarray:
    """The bin of exponent 0 for the top and low halves of k rows, shape
    (2, k, 1): a term of row j with exponent e goes to bins[:, j] - e."""
    bases = np.add.outer((_TOP, _TOP + 26), _ROW * np.arange(k))[:, :, None]
    bases.setflags(write=False)
    return bases


def _binned_sums(rows: np.ndarray) -> list[float] | None:
    """Correctly rounded exact sums of the rows of a 2-D float64 array, or
    None for input that math.fsum has to sum (not finite, or near overflow)."""
    k, n = rows.shape
    totals = [0] * k
    bases = _bases(k)
    # below this every exponent e has e + n.bit_length() <= _TOP; inf and
    # nan fail the test too
    limit = 2.0 ** (_TOP - n.bit_length())
    for start in range(0, n, _BLOCK):
        block = rows[:, start : start + _BLOCK]
        amax = float(np.abs(block).max())
        if not amax < limit:
            return None
        m, e = np.frexp(block)
        # the largest exponent of a nonzero term (zeros have exponent 0 and
        # add 0 wherever they land), and the smallest of any term
        emax, emin = math.frexp(amax)[1], int(e.min())
        m *= 2.0 ** 27
        w = np.empty((2,) + m.shape)
        np.trunc(m, out=w[0])
        np.subtract(m, w[0], out=w[1])
        w[1] *= 2.0 ** 26
        bins = np.bincount(np.subtract(bases, e).ravel(), weights=w.ravel(), minlength=k * _ROW)
        # bin first + i of a row is in units of 2**(emax - 27 - i)
        first = _TOP - emax
        levels = (emax - emin + 34) & -8
        filled = bins.reshape(k, _ROW)[:, first : first + levels].astype(np.int64)
        octets = (filled.reshape(k, -1, 8) @ _OCTET).tolist()
        # octet g is in units of 2**(emax - 34 - 8g); Horner in small shifts,
        # then one shift of the row to units of 2**-_SCALE_BITS
        top = levels - 8
        steps = range(top, -1, -8)
        for j, row in enumerate(octets):
            totals[j] += sum(map(operator.lshift, row, steps)) << (emax + _SCALE_BITS - 34 - top)
    return [t / _SCALE for t in totals]


def exact_sum(values) -> float:
    """The correctly rounded sum of a real stream, bitwise math.fsum(values)."""
    rows = np.asarray(values, dtype=np.float64).reshape(1, -1)
    sums = _binned_sums(rows)
    return math.fsum(rows[0]) if sums is None else sums[0]


def fsum_complex(re_terms, im_terms) -> complex:
    """Correctly rounded sum of a complex term stream given as two real
    streams of one length, each part bitwise its math.fsum."""
    rows = np.array((re_terms, im_terms), dtype=np.float64)
    sums = _binned_sums(rows)
    if sums is None:
        sums = [math.fsum(rows[0]), math.fsum(rows[1])]
    return complex(*sums)


def accumulation_bound(weight_sum: float, value: complex) -> float:
    """Error bound for a compensated sum of terms of total weight weight_sum."""
    return weight_sum * TERM_EPS + abs(value) * ROUND_EPS
