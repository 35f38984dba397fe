"""Accumulation helpers for complex exponential sums.

Phases are always reduced to rationals k/q in [0, 1) and looked up in a
unit-root table, so the per-term evaluation error does not grow with the
modulus.  Term streams are summed with math.fsum, which returns the
correctly rounded value of the exact real sum; the error bound attached
to a result therefore only has to cover per-term evaluation error plus
one final rounding.
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


def unit_roots_at(idx, q: int) -> np.ndarray:
    """Return e(k/q) = exp(2*pi*i*k/q) for each residue k in idx (0 <= k < q).

    Entries above q/2 are the exact conjugates of the entries at q - k,
    the entry at 0 is exactly 1 and the entry at q/2 (even q) exactly -1,
    so conjugate symmetry of any sum over these values holds bitwise
    rather than merely up to rounding.  Each value depends only on (k, q):
    it is bitwise the entry k of unit_roots(q), whichever other residues
    are asked for.  No length-q table is built unless idx is longer than
    q/2, when tabulating the lower half is the cheaper route.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    check_modulus(q)
    half = q // 2
    idx = np.asarray(idx, dtype=np.int64)
    upper = idx > half
    k = np.where(upper, q - idx, idx)
    if len(k) > half + 1:
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


def fsum_complex(re_terms, im_terms) -> complex:
    """Correctly rounded sum of a complex term stream given as two real streams."""
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def accumulation_bound(weight_sum: float, value: complex) -> float:
    """Error bound for a compensated sum of terms of total weight weight_sum."""
    return weight_sum * TERM_EPS + abs(value) * ROUND_EPS
