"""Exponential sums over primes and complete or short Kloosterman-type sums.

The central object is the sum of e(a * inv(p) / q) over primes in the
dyadic window [x, 2x), where inv(p) is the inverse of p modulo q and
e(t) = exp(2*pi*i*t).  Complete sums over a full period (Kloosterman
sums) and short sums over an interval share the same phase machinery.

Every sum reduces its phase to an exact residue class first and then
indexes a unit-root table, so results are reproducible bit for bit, and
conjugate symmetry in the twist parameter holds exactly.  Scans over all
twists take one FFT of the residue histogram: as a filter in
max_prime_sum, whose values still come from the table, and as the
result in kloosterman_grid.  A sweep over many moduli at one twist takes
them a block at a time (prime_sum_block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import (
    TERM_EPS,
    accumulation_bound,
    exact_sum,
    exact_sums,
    fsum_complex,
    unit_roots,
    unit_roots_at,
)
from .arith import (
    MultiplicativeTables,
    PrimeTable,
    _coprime_to,
    batch_inverses,
    check_modulus,
    memory_budget,
    prime_inverses,
    shared_prime_table,
    shared_tables,
)
from .errors import CapacityError, ConsistencyError
from .reports import BoundReport, make_report

#: Largest modulus a full twist scan (max over a) will attempt by default.
DEFAULT_SCAN_LIMIT = 10 ** 6

#: Longest interval upper - lower a short inverse sum will walk.
_INTERVAL_CAP = 10 ** 7

#: Matrix chunk size (cells) for vectorized twist scans; fixed so that
#: chunk boundaries never depend on worker counts or available memory.
_CHUNK_CELLS = 1 << 22

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53

#: The constant c in the FFT error term c * ceil(log2 q) * u * sqrt(q) * |h|_2.
#: numpy's pocketfft runs Bluestein at large prime factors (a padded
#: convolution of three FFTs), whose error is a small multiple of a plain
#: FFT's.  The largest |FFT - direct| measured over every q < 1200 and
#: selected q up to 100,000, direct error included, was 0.40 of the c = 1
#: term for the full fft, and 0.30 for the half spectrum (rfft) that real
#: histograms take; c = 8 leaves a factor 20.
_FFT_ERROR_C = 8.0

_WEIGHTS = ("unit", "von_mangoldt")

#: Moduli per prime_sum_block call, and the most moduli x primes cells a
#: block may have.  A block peaks at about 115 bytes per cell (tracemalloc:
#: 1.7 MB at 32 moduli x 464 primes), so the cell cap keeps it near 4 MB.
#: Of 8, 16 and 32 moduli per block, 32 ran the Q = x = 4096 sweep fastest
#: (2-core VM).
_BLOCK_MODULI = 32
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class ExpSumQuery:
    """Parameters of a prime exponential sum: twist a, modulus q, window [x, 2x)."""

    a: int
    q: int
    x: float

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"need modulus >= 2, got {self.q}")
        if not self.x >= 2:
            raise ValueError(f"need x >= 2, got {self.x}")


@dataclass(frozen=True)
class ExpSumValue:
    """An accumulated sum plus enough metadata to judge its accuracy."""

    value: complex
    term_count: int
    weight_sum: float
    accumulation_error_bound: float

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _phase_indices(ns, a: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Residues a*inv(n) mod q for the coprime entries of ns, with positions kept."""
    invs = batch_inverses(np.asarray(ns, dtype=np.int64), q)
    kept = np.flatnonzero(invs)
    return kept, (a % q) * invs[kept] % q


def inverse_phase_sum(ns, a: int, q: int, weights=None) -> ExpSumValue:
    """Sum of w_n * e(a * inv(n) / q) over the given integers.

    Entries sharing a factor with q are skipped.  weights is an optional
    sequence aligned with ns; omitted means unit weights.  The terms are
    unit_roots_at the phase residues, bitwise the entries of unit_roots(q),
    so no length-q table is built: the cost is O(len(ns) * log q) whatever
    the modulus.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    kept, idx = _phase_indices(ns, a, q)
    if len(kept) == 0:
        return ExpSumValue(0j, 0, 0.0, 0.0)
    terms = unit_roots_at(idx, q)
    if weights is None:
        weight_sum = float(len(kept))
    else:
        w = np.asarray(weights, dtype=np.float64)[kept]
        terms = terms * w
        weight_sum = exact_sum(np.abs(w))
    value = fsum_complex(terms.real, terms.imag)
    return ExpSumValue(
        value=value,
        term_count=len(kept),
        weight_sum=weight_sum,
        accumulation_error_bound=accumulation_bound(weight_sum, value),
    )


def prime_sum(
    query: ExpSumQuery,
    weight: str = "unit",
    tables: MultiplicativeTables | None = None,
) -> ExpSumValue:
    """Exponential sum over the dyadic prime window of the query.

    Args:
        query: twist, modulus and window start.
        weight: "unit" sums over primes p ~ x; "von_mangoldt" sums
            Lambda(n) * e(a * inv(n) / q) over all n ~ x.
        tables: tables covering 2x; sieved on demand when omitted.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}, got {weight!r}")
    need = int(math.ceil(2 * query.x))
    if tables is None:
        tables = shared_tables(need)
    table = tables.prime_table
    table.require_coverage(2 * query.x)
    if weight == "unit":
        ns = table.primes_between(query.x, 2 * query.x)
        return inverse_phase_sum(ns, query.a, query.q)
    lo, hi = int(math.ceil(query.x)), int(math.ceil(2 * query.x))
    # a view of the window, and the offsets of its prime powers
    pp = tables.vm_prime[lo:hi]
    sel = np.flatnonzero(pp > 0)
    weights = np.log(pp[sel].astype(np.float64))
    return inverse_phase_sum(lo + sel, query.a, query.q, weights=weights)


def prime_sum_block(
    a: int, moduli, x: float, tables: MultiplicativeTables | None = None
) -> list[complex]:
    """prime_sum(ExpSumQuery(a, q, x)).value at every modulus q of a block,
    each bitwise the per-q value, from one pass over the block.

    Three steps, each one array pass over the moduli x primes block:
    prime_inverses takes every inverse by batch inversion, unit_roots_at
    the terms with a column of moduli, and exact_sums sums the real and the
    imaginary row of every modulus at once.  A prime dividing q has
    inverse 0 and leaves a term 0, which does not change an exact sum: so
    the sums are the correctly rounded sums of the per-q terms.  Cost and
    memory grow with len(moduli) * pi-range; moduli_blocks bounds both.
    """
    if not x >= 2:
        raise ValueError(f"need x >= 2, got {x}")
    if tables is None:
        tables = shared_tables(int(math.ceil(2 * x)))
    table = tables.prime_table
    table.require_coverage(2 * x)
    qs = np.asarray(moduli, dtype=np.int64)
    col = qs[:, None]
    invs = prime_inverses(table.primes_between(x, 2 * x), qs)
    terms = unit_roots_at(a % col * invs % col, col)
    terms[invs == 0] = 0
    rows = np.concatenate((terms.real, terms.imag))
    del invs, terms
    sums = exact_sums(rows)
    return [complex(re, im) for re, im in zip(sums[: len(qs)], sums[len(qs) :])]


def moduli_blocks(lo: int, hi: int, terms: int) -> list[range]:
    """The moduli lo <= q < hi cut into consecutive blocks for prime_sum_block.

    A block holds _BLOCK_MODULI moduli, or at terms primes per modulus as
    many as fit in _BLOCK_CELLS cells, but at least one.  The cut depends
    only on the arguments, never on worker counts.
    """
    size = max(1, min(_BLOCK_MODULI, _BLOCK_CELLS // max(terms, 1)))
    return [range(q, min(q + size, hi)) for q in range(lo, hi, size)]


def _twist_error_bound(h: np.ndarray, weight: float, depth: int) -> float:
    """Bound E on |spectrum - direct magnitude| at any twist, for the scans below.

    A direct magnitude |sum of terms r_k * w_k| with unit-root table entries
    r_k and total weight sum |w_k| = weight is off the exact one by at most
    the table error weight * TERM_EPS, plus sqrt(2) * gamma_depth * weight
    for any summation order with at most depth roundings per term
    (gamma_k = k u / (1 - k u)), plus two roundings of a magnitude.  The
    FFT of the histogram h is off by at most
    _FFT_ERROR_C * ceil(log2 q) * u * sqrt(q) * |h|_2 at every twist.
    """
    q = len(h)
    u = _UNIT_ROUNDOFF
    gamma = depth * u / (1 - depth * u)
    direct = weight * (TERM_EPS + math.sqrt(2) * gamma + 2 * u)
    fft = _FFT_ERROR_C * math.ceil(math.log2(q)) * u * math.sqrt(q) * float(np.linalg.norm(h))
    return direct + fft


def _twist_spectrum(h: np.ndarray, twists: np.ndarray) -> np.ndarray:
    """|sum_r h[r] e(a r / q)| at each twist a, from one FFT of h (len q)."""
    q = len(h)
    if np.iscomplexobj(h):
        # numpy's fft has the sign e(-a r / q); index -a to get S(a)
        return np.abs(np.fft.fft(h))[(-twists) % q]
    # for real h, S(-a) is the conjugate of S(a), so |S(a)| is the half
    # spectrum at min(a, q - a)
    return np.abs(np.fft.rfft(h))[np.minimum(twists, q - twists)]


def _twist_max(h: np.ndarray, twists: np.ndarray, terms: np.ndarray, vals, err: float):
    """The first twist a with the largest |sum_k vals[k] e(a * terms[k] / q)|,
    and that magnitude; vals None means unit weights.

    One FFT gives the spectrum |sum_r h[r] e(a r / q)| at every twist, where
    h is the histogram of the terms weighted by vals.  Each direct magnitude
    is within err of its spectrum, so a twist more than 2 * err below the
    largest spectrum over twists cannot carry the largest direct magnitude,
    nor tie with it.  The others keep their order and are re-scored by the
    direct sum of unit-root table entries, at most _CHUNK_CELLS cells at a
    time; the first strict maximum wins.  Cost is O(q log q) plus
    O(len(terms)) per re-scored twist; when every twist ties it is the
    direct scan plus one FFT.

    Raises ConsistencyError if a re-scored twist is more than err off its
    spectrum.
    """
    q = len(h)
    spectrum = _twist_spectrum(h, twists)
    keep = spectrum >= spectrum.max() - 2 * err
    survivors, near = twists[keep], spectrum[keep]
    rows = max(1, _CHUNK_CELLS // len(terms))
    best_a, best_mag = int(twists[0]), -1.0
    for start in range(0, len(survivors), rows):
        chunk = survivors[start : start + rows]
        table = unit_roots_at((chunk[:, None] * terms[None, :]) % q, q)
        mags = np.abs((table if vals is None else table * vals).sum(axis=1))
        gap = float(np.abs(mags - near[start : start + rows]).max())
        if not gap <= err:
            raise ConsistencyError(
                f"twist spectrum mod {q} is {gap:.3e} off the direct scan, over its bound {err:.3e}"
            )
        j = int(mags.argmax())
        if mags[j] > best_mag:
            best_a, best_mag = int(chunk[j]), float(mags[j])
    return best_a, best_mag


def max_prime_sum(
    q: int,
    x: float,
    table: PrimeTable | None = None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> tuple[int, float]:
    """Maximum of |prime_sum| over twists a coprime to q, with its argmax.

    Scans only 1 <= a <= q/2 and relies on exact conjugate symmetry for
    the upper half; ties go to the smallest a.  _twist_max filters the
    twists by one FFT of the histogram of inverse residues and re-scores
    the survivors by the direct sum, so the result is bitwise the full
    direct scan's.  E is _twist_error_bound with n table terms and n - 1
    additions, for the n primes in the window.  The modulus is checked
    against scan_limit first.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    if not x >= 2:
        raise ValueError(f"need x >= 2, got {x}")
    if q > scan_limit:
        raise CapacityError(f"modulus {q} exceeds the twist-scan limit {scan_limit}")
    # twists, histogram, unit roots and spectrum, at their peak
    check_modulus(q, bytes_per_entry=64)
    if table is None:
        table = shared_prime_table(int(math.ceil(2 * x)))
    table.require_coverage(2 * x)

    candidates = _coprime_to(q, q // 2 + 1)
    ps = table.primes_between(x, 2 * x)
    primes = ps[q % ps != 0]
    if len(primes) == 0:
        return int(candidates[0]), 0.0
    invs = batch_inverses(primes, q)
    h = np.bincount(invs, minlength=q)
    n = len(invs)
    return _twist_max(h, candidates, invs, None, _twist_error_bound(h, n, n - 1))


def _units(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The units 1 <= n <= q modulo q, ascending, and their inverses."""
    ns = np.arange(1, q + 1, dtype=np.int64)
    invs = batch_inverses(ns, q)
    keep = invs != 0
    return ns[keep], invs[keep]


def kloosterman(a: int, b: int, q: int) -> float:
    """Complete sum of e((a*n + b*inv(n)) / q) over units n modulo q.

    The imaginary part must vanish (terms pair off under n -> q - n); it
    is asserted below 1e-9 and the real part is returned.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    # the unit arrays, the terms and the accumulator's work arrays, which
    # tracemalloc measured at under 100 bytes per residue for q >= 4096
    check_modulus(q, bytes_per_entry=112)
    roots = unit_roots(q)
    ns, invs = _units(q)
    terms = roots[(a % q * ns % q + b % q * invs % q) % q]
    value = fsum_complex(terms.real, terms.imag)
    if abs(value.imag) >= 1e-9:
        raise ConsistencyError(
            f"Kloosterman sum K({a},{b};{q}) has imaginary part {value.imag:.3e}"
        )
    return value.real


def kloosterman_grid(q: int) -> np.ndarray:
    """All Kloosterman sums modulo q at once: grid[a, b] for 0 <= a, b < q.

    For a unit u, K(d*u, b) = K(d, u*b) (substitute n -> n * inv(u)), so
    each row is a gather from the row of d = gcd(a, q).  That row is one
    length-q FFT: K(d, b) = sum_m v[m] e(b m / q), with v[inv(n)] = e(d n / q)
    for the units n.  Cost is O(tau(q) * q log q + q^2) time and 24 q^2
    bytes (the grid and its gather index) plus 16 q bytes per divisor.
    Entries agree with kloosterman() to well below 1e-9.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    need = (24 * q + 16 * len(divisors)) * q
    if need > memory_budget():
        raise CapacityError(f"Kloosterman grid for q={q} needs about {need} bytes")
    roots = unit_roots(q)
    ns, invs = _units(q)

    # twist a = d*u reads spectrum row d at -u*b: numpy's fft has the sign e(-c m / q)
    spectra = np.empty((len(divisors), q), dtype=np.complex128)
    offset = np.empty(q, dtype=np.int64)
    step = np.empty(q, dtype=np.int64)
    v = np.zeros(q, dtype=np.complex128)
    for i, d in enumerate(divisors):
        dn = d * ns % q
        v[invs] = roots[dn]
        spectra[i] = np.fft.fft(v)
        twists, first = np.unique(dn, return_index=True)
        offset[twists] = i * q
        step[twists] = q - ns[first]
    idx = np.multiply.outer(step, np.arange(q, dtype=np.int64))
    np.remainder(idx, q, out=idx)
    idx += offset[:, None]
    return spectra.ravel().take(idx)


def short_inverse_sum(a: int, q: int, lower: float, upper: float) -> ExpSumValue:
    """Sum of e(a * inv(n) / q) over integers lower < n <= upper coprime to q."""
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    if not 0 <= lower <= upper:
        raise ValueError(f"need 0 <= lower <= upper, got ({lower}, {upper})")
    if not math.isfinite(upper):
        raise ValueError(f"need finite bounds, got ({lower}, {upper})")
    if upper - lower > _INTERVAL_CAP:
        raise CapacityError(f"interval length {upper - lower} exceeds {_INTERVAL_CAP}")
    ns = np.arange(math.floor(lower) + 1, math.floor(upper) + 1, dtype=np.int64)
    return inverse_phase_sum(ns, a, q)


def weil_ratio(a: int, q: int, lower: float, upper: float) -> BoundReport:
    """Measured short inverse sum against its square-root cancellation core.

    The core is gcd(a, q) * ((upper - lower)/q + 1) + sqrt(q); the report
    carries the measured magnitude, both core terms, and their ratio.
    """
    value = short_inverse_sum(a, q, lower, upper)
    g = math.gcd(a, q)
    return make_report(
        name="weil-ratio",
        params={"a": a, "q": q, "lower": lower, "upper": upper},
        lhs=value.magnitude,
        rhs_terms={
            "gcd(a,q)*((Z-Y)/q+1)": g * ((upper - lower) / q + 1.0),
            "sqrt(q)": math.sqrt(q),
        },
        trivial_bound=float(max(0, math.floor(upper) - math.floor(lower))),
        extra={"terms": value.term_count},
    )
