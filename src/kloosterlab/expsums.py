"""Exponential sums over primes and complete or short Kloosterman-type sums.

The central object is the sum of e(a * inv(p) / q) over primes in the
dyadic window [x, 2x), where inv(p) is the inverse of p modulo q and
e(t) = exp(2*pi*i*t).  Complete sums over a full period (Kloosterman
sums) and short sums over an interval share the same phase machinery.

Every sum reduces its phase to an exact residue class first and then
indexes a unit-root table, so results are reproducible bit for bit, and
conjugate symmetry in the twist parameter holds exactly.  Scans over all
twists take one FFT of the residue histogram: as a filter in _twist_max,
whose values still come from the table, and as the result in
kloosterman_grid.  The filter's FFT has length q/2 at an even q: every
unit mod q is odd, and a histogram on the units (which _twist_max
checks) has the spectrum of its odd residues.  Sweeps over many moduli
take them a block at a time: prime_sum_block at one twist, and
max_prime_sum_block over all twists, one row of _twist_max per modulus
(max_prime_sum is a block of one).

The primes of a window [x, 2x) come from arith.prime_window alone, which
sieves the window itself and keeps nothing between calls: prime_sum and
max_prime_sum fetch their window, and the block kernels take the
window's primes from their caller, which fetches them once for a whole
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import (
    _CHUNK,
    TERM_EPS,
    CarriedSums,
    accumulation_bound,
    exact_sums,
    fsum_complex,
    unit_roots,
    unit_roots_at,
)
from .arith import (
    PrimeWindow,
    _lanes,
    _prime_divisors,
    batch_inverses,
    block_inverses,
    charge_budget,
    check_modulus,
    memory_budget,
    prime_window,
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

#: Cells of kloosterman_grid's gather index computed per block.
_GRID_CELLS = 1 << 16

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
#: block may have.  A block peaks at about 58 bytes per cell (tracemalloc:
#: 0.86 MB at 32 moduli x 464 primes, 74 bytes at 32 x 135), so the cell
#: cap keeps it near 2 MB.
#: Of 8, 16 and 32 moduli per block, 32 ran the Q = x = 4096 sweep fastest
#: (2-core VM).
_BLOCK_MODULI = 32
_BLOCK_CELLS = 1 << 15

#: Bytes per residue charged to a twist scan (histogram, spectrum and FFT
#: work arrays; a block of max_prime_sum_block peaked at 17-20 under
#: tracemalloc), and the most residues a block of twist scans may take:
#: 2**17 keeps a block near 2.5 MB, and 32 moduli per block up to Q = 2048.
_SCAN_BYTES = 64
_SCAN_RESIDUES = 1 << 17


@dataclass(frozen=True)
class ExpSumQuery:
    """Parameters of a prime exponential sum: twist a, modulus q, window [x, 2x)."""

    a: int
    q: int
    x: float

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"need modulus >= 2, got {self.q}")
        if not (self.x >= 2 and math.isfinite(self.x)):
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


def _add_terms(carried: CarriedSums, ns, a: int, q: int, weights=None, log: bool = False) -> int:
    """Add to carried, _CHUNK entries of ns at a time, the real and imaginary
    parts of w_n * e(a * inv(n) / q) over the n coprime to q, and, for
    weights and a carried of three rows, |w_n|; return how many terms there
    were.

    w_n is 1, or the entry of weights aligned with n, or with log set its
    natural log.  Each term is computed entry by entry, so a chunk's terms
    are bitwise the same slice of the terms of the whole array.
    """
    count = 0
    for lo in range(0, len(ns), _CHUNK):
        kept, idx = _phase_indices(ns[lo : lo + _CHUNK], a, q)
        roots = unit_roots_at(idx, q)
        if weights is None:
            carried.add((roots.real, roots.imag))
        else:
            w = np.asarray(weights[lo : lo + _CHUNK], dtype=np.float64)[kept]
            if log:
                w = np.log(w)
            carried.add((roots.real * w, roots.imag * w, np.abs(w))[: carried.rows])
        count += len(kept)
    return count


def _weighted_value(carried: CarriedSums, count: int) -> ExpSumValue:
    """The ExpSumValue of the count terms summed in carried, whose third row,
    if any, holds their weights (else the weights are 1)."""
    sums = carried.sums()
    value = complex(sums[0], sums[1])
    weight_sum = sums[2] if len(sums) == 3 else float(count)
    return ExpSumValue(
        value=value,
        term_count=count,
        weight_sum=weight_sum,
        accumulation_error_bound=accumulation_bound(weight_sum, value),
    )


def inverse_phase_sum(ns, a: int, q: int, weights=None) -> ExpSumValue:
    """Sum of w_n * e(a * inv(n) / q) over the given integers.

    Entries sharing a factor with q are skipped.  weights is an optional
    sequence aligned with ns; omitted means unit weights.  The terms are
    unit_roots_at the phase residues, bitwise the entries of unit_roots(q),
    so no length-q table is built: the cost is O(len(ns) * log q) whatever
    the modulus.  They are built and summed _CHUNK at a time.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    ns = np.asarray(ns, dtype=np.int64)
    carried = CarriedSums(2 if weights is None else 3)
    return _weighted_value(carried, _add_terms(carried, ns, a, q, weights))


def prime_sum(query: ExpSumQuery, weight: str = "unit") -> ExpSumValue:
    """Exponential sum over the dyadic prime window of the query.

    Args:
        query: twist, modulus and window start.
        weight: "unit" sums over primes p ~ x; "von_mangoldt" sums
            Lambda(n) * e(a * inv(n) / q) over all n ~ x.

    The window comes from arith.prime_window.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}, got {weight!r}")
    window = prime_window(math.ceil(query.x), math.ceil(2 * query.x))
    return window_sum(window, query.a, query.q, weight)


def window_sum(window: PrimeWindow, a: int, q: int, weight: str = "unit") -> ExpSumValue:
    """prime_sum over the primes ("unit") or the prime powers, weighted by
    Lambda ("von_mangoldt"), of an arith.prime_window.  The weighted sum
    carries the primes' terms, then the powers', so it is bitwise
    inverse_phase_sum over the window's n with Lambda(n) > 0."""
    if weight == "unit":
        return inverse_phase_sum(window.primes, a, q)
    carried = CarriedSums(3)
    count = _add_terms(carried, window.primes, a, q, window.primes, log=True)
    powers, bases = window.prime_powers
    count += _add_terms(carried, powers, a, q, bases, log=True)
    return _weighted_value(carried, count)


def prime_sum_block(a: int, moduli, primes, divisors=None) -> list[complex]:
    """prime_sum(ExpSumQuery(a, q, x)).value at every modulus q of a block,
    each bitwise the per-q value, from one pass over the block; primes are
    those of the window, prime_window(ceil(x), ceil(2x)).primes, and
    divisors, when given, the primes of each modulus (a sweep's
    FactorWindow.divisors).

    Three steps, each one array pass over the moduli x primes block:
    block_inverses takes every inverse by batch inversion, unit_roots_at
    the terms with a column of moduli, and exact_sums sums the real and the
    imaginary row of every modulus at once.  A prime dividing q has
    inverse 0 and leaves a term 0, which does not change an exact sum: so
    the sums are the correctly rounded sums of the per-q terms.  Cost and
    memory grow with len(moduli) * pi-range; moduli_blocks bounds both.
    """
    qs = np.asarray(moduli, dtype=np.int64)
    col = qs[:, None]
    invs = block_inverses(primes, qs, divisors)
    terms = unit_roots_at(a % col * invs % col, col)
    terms[invs == 0] = 0
    rows = np.concatenate((terms.real, terms.imag))
    del invs, terms
    sums = exact_sums(rows)
    return [complex(re, im) for re, im in zip(sums[: len(qs)], sums[len(qs) :])]


def moduli_blocks(lo: int, hi: int, terms: int, scan: bool = False) -> list[range]:
    """The moduli lo <= q < hi cut into consecutive blocks for prime_sum_block,
    or, with scan, for max_prime_sum_block.

    A block holds _BLOCK_MODULI moduli, or at terms primes per modulus as
    many as fit in _BLOCK_CELLS cells, but at least one.  A twist scan also
    holds arrays of _SCAN_BYTES per residue, so with scan a block takes at
    most _SCAN_RESIDUES residues (the sum of its moduli), and fewer where
    that would pass the byte budget.  The cut depends only on the
    arguments and the budget, never on worker counts.
    """
    size = min(_BLOCK_MODULI, _BLOCK_CELLS // max(terms, 1))
    if scan:
        size = min(size, min(_SCAN_RESIDUES, memory_budget() // _SCAN_BYTES) // max(hi - 1, 1))
    size = max(1, size)
    return [range(q, min(q + size, hi)) for q in range(lo, hi, size)]


def _row_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each row starts when rows of these lengths are laid end to end."""
    return lengths.cumsum() - lengths


def _twist_error_bound(h: np.ndarray, weight, depth, qs=None):
    """Bound E on |spectrum - direct magnitude| at any twist, for the scans below.

    A direct magnitude |sum of terms r_k * w_k| with unit-root table entries
    r_k and total weight sum |w_k| = weight is off the exact one by at most
    the table error weight * TERM_EPS, plus sqrt(2) * gamma_depth * weight
    for any summation order with at most depth roundings per term
    (gamma_k = k u / (1 - k u)), plus two roundings of a magnitude.  The
    FFT of the histogram h is off by at most
    _FFT_ERROR_C * ceil(log2 q) * u * sqrt(q) * |h|_2 at every twist.

    h is one histogram (len q), and E a float; or, with the moduli qs, the
    histograms of a block laid end to end (row j of length qs[j]), with
    weight and depth one entry per row, and E an array.  |h|_2 is the
    square root of the row's summed squares: exact for counts, so bitwise
    np.linalg.norm.
    """
    q = np.array([len(h)]) if qs is None else qs
    squares = h.real * h.real
    if np.iscomplexobj(h):
        squares += h.imag * h.imag
    norm = np.sqrt(np.add.reduceat(squares, _row_starts(q)).astype(np.float64))
    u = _UNIT_ROUNDOFF
    depth = np.asarray(depth, dtype=np.float64)
    gamma = depth * u / (1 - depth * u)
    direct = np.asarray(weight, dtype=np.float64) * (TERM_EPS + math.sqrt(2) * gamma + 2 * u)
    # frexp's exponent of q - 1 is ceil(log2 q)
    fft = _FFT_ERROR_C * np.frexp(q - 1)[1] * u * np.sqrt(q) * norm
    bound = direct + fft
    return float(bound[0]) if qs is None else bound


def _twist_spectrum(h: np.ndarray, twists: np.ndarray) -> np.ndarray:
    """|sum_r h[r] e(a r / q)| at each twist a, from one FFT of h (len q)."""
    q = len(h)
    if np.iscomplexobj(h):
        # numpy's fft has the sign e(-a r / q); index -a to get S(a)
        return np.abs(np.fft.fft(h))[(-twists) % q]
    # for real h, S(-a) is the conjugate of S(a), so |S(a)| is the half
    # spectrum at min(a, q - a)
    return np.abs(np.fft.rfft(h))[np.minimum(twists, q - twists)]


def _row_spectrum(row: np.ndarray, out: np.ndarray) -> None:
    """Write |S(a)| = |sum_r row[r] e(a r / q)|, q = len(row), into out for
    0 <= a < len(out): q // 2 + 1 twists for a real row, q for a complex one.

    An odd q takes the length-q transform of _twist_spectrum.  An even q
    takes one of length q/2: every unit mod q is odd, so for a row that is
    zero at the even residues, S(a) = e(a/q) * sum_s row[2s+1] e(a s / (q/2)),
    and |S(a)| is the spectrum of row[1::2] at a mod q/2, mirrored (a real
    row's half spectrum at min(a, q/2 - a)) or read at -a (numpy's sign) for
    a complex one.  Its error is within the length-q bound of
    _twist_error_bound: the same norm at a shorter length.
    """
    q = len(row)
    if q % 2:
        if np.iscomplexobj(row):
            out[:] = _twist_spectrum(row, np.arange(q))
        else:
            np.abs(np.fft.rfft(row), out=out)
        return
    m = q // 2
    if np.iscomplexobj(row):
        spec = np.abs(np.fft.fft(row[1::2]))
        out.reshape(2, m)[:] = spec[(-np.arange(m)) % m]
    else:
        k = m // 2 + 1
        np.abs(np.fft.rfft(row[1::2]), out=out[:k])
        out[k:] = out[m - k :: -1]


def _twist_max(
    h: np.ndarray, qs, terms: np.ndarray, counts, vals, err, divisors
) -> list[tuple[int, float]]:
    """For each row of a block, the first unit twist a with the largest
    |sum_k vals[k] e(a * terms[k] / q)|, and that magnitude.

    Row j has modulus qs[j], and the rows lie end to end in every array:
    its histogram is the next qs[j] entries of h, its terms and weights
    the next counts[j] entries of terms and vals (None: unit weights).
    Its bound is err[j], or err for every row, and divisors[j] is
    _prime_divisors(qs[j]).  A real histogram has |S(q - a)| = |S(a)|, so
    its row scans 1 <= a <= q/2; a complex one scans 1 <= a < q.

    One FFT per row (_row_spectrum) writes the spectrum
    |sum_r h[r] e(a r / q)| of every twist into one buffer, and strided
    stores over the primes dividing q mask the twists that are not units.
    The FFT has length q for an odd q and q/2 for an even one, whose units
    are the odd residues; so an even row with a term at an even residue
    raises ConsistencyError before any transform.  The spectrum is only a
    filter.  Each direct magnitude is within err of its spectrum, so a
    twist more than 2 * err below its row's top cannot carry the row's
    largest direct magnitude, nor tie with it.  The others, the survivors,
    are re-scored by the direct sum of unit-root table entries, all rows at
    once: the survivors of rows with the same term count stack into one
    matrix, at most _CHUNK_CELLS cells at a time, with the row expression
    of a direct scan, so every magnitude is bitwise the direct scan's.
    Each row's first strict maximum wins.  Cost is O(q log q) per row plus
    O(counts[j]) per survivor; when every twist ties it is the direct scan
    plus one FFT.

    Raises ConsistencyError if a survivor is more than its row's err off
    its spectrum.
    """
    qs = np.asarray(qs, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    moduli = np.repeat(qs, counts)
    even = np.flatnonzero((moduli | terms) & 1 == 0)
    if len(even):
        i = even[0]
        raise ConsistencyError(
            f"twist row mod {moduli[i]} has a term at the even residue {terms[i]}, not a unit"
        )
    half = not np.iscomplexobj(h)
    stops = qs // 2 + 1 if half else qs
    starts, spans = _row_starts(qs), _row_starts(stops)
    spectrum = np.empty(int(stops.sum()))
    for j, (q, lo, at, stop) in enumerate(
        zip(qs.tolist(), starts.tolist(), spans.tolist(), stops.tolist())
    ):
        out = spectrum[at : at + stop]
        _row_spectrum(h[lo : lo + q], out)
        for p in divisors[j]:
            out[::p] = -np.inf
    err = np.zeros(len(qs)) + err
    top = np.maximum.reduceat(spectrum, spans)
    survivors = (spectrum >= np.repeat(top - 2 * err, stops)).nonzero()[0]
    row = np.searchsorted(spans, survivors, side="right") - 1
    twists = survivors - spans[row]

    firsts = _row_starts(counts)
    mags = np.empty(len(survivors))
    width = counts[row]
    for n in set(counts.tolist()):
        group = (width == n).nonzero()[0]
        step = max(1, _CHUNK_CELLS // max(n, 1))
        for s in range(0, len(group), step):
            sel = group[s : s + step]
            cells = firsts[row[sel], None] + np.arange(n)
            col = qs[row[sel], None]
            table = unit_roots_at(twists[sel, None] * terms[cells] % col, col)
            mags[sel] = np.abs((table if vals is None else table * vals[cells]).sum(axis=1))
    gap = np.abs(mags - spectrum[survivors])
    bad = (~(gap <= err[row])).nonzero()[0]
    if len(bad):
        i = bad[0]
        raise ConsistencyError(
            f"twist spectrum mod {qs[row[i]]} is {gap[i]:.3e} off the direct scan, "
            f"over its bound {err[row[i]]:.3e}"
        )
    # every row keeps its top, so each row has survivors
    heads = np.searchsorted(row, np.arange(len(qs)))
    best = np.maximum.reduceat(mags, heads)
    hits = (mags == best[row]).nonzero()[0]
    won = hits[np.searchsorted(row[hits], np.arange(len(qs)))]
    return list(zip(twists[won].tolist(), mags[won].tolist()))


def check_twist_scan(moduli, scan_limit: int = DEFAULT_SCAN_LIMIT) -> None:
    """Refuse the first of the moduli that exceeds scan_limit, or whose twist
    scan would exceed the byte budget, which is read once for them all."""
    budget = memory_budget()
    for q in moduli:
        if q > scan_limit:
            raise CapacityError(f"modulus {q} exceeds the twist-scan limit {scan_limit}")
        check_modulus(q, bytes_per_entry=_SCAN_BYTES, budget=budget)


def _prime_twist_max(
    qs: np.ndarray, invs: np.ndarray, counts: np.ndarray, divisors
) -> list[tuple[int, float]]:
    """_twist_max over rows of unit-weight terms invs, counts[j] of them mod
    qs[j], with one bincount for every histogram.  E is _twist_error_bound
    with n table terms and n - 1 additions, for the n terms of a row."""
    h = np.bincount(invs + np.repeat(_row_starts(qs), counts), minlength=int(qs.sum()))
    err = _twist_error_bound(h, counts, counts - 1, qs)
    return _twist_max(h, qs, invs, counts, None, err, divisors)


def max_prime_sum(q: int, x: float, scan_limit: int = DEFAULT_SCAN_LIMIT) -> tuple[int, float]:
    """Maximum of |prime_sum| over twists a coprime to q, with its argmax.

    Scans only 1 <= a <= q/2 and relies on exact conjugate symmetry for
    the upper half; ties go to the smallest a.  _twist_max filters the
    twists by one FFT of the histogram of inverse residues, of length q/2
    over the odd residues when q is even (the inverses are units, so odd),
    and re-scores the survivors by the direct sum, so the result is
    bitwise the full direct scan's.  A block of one modulus: its inverses
    come from batch_inverses, which beats the lanes of block_inverses at
    one modulus.  The modulus is checked against scan_limit and the byte
    budget before the window is fetched from arith.prime_window.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    if not (x >= 2 and math.isfinite(x)):
        raise ValueError(f"need x >= 2, got {x}")
    check_twist_scan([q], scan_limit)
    ps = prime_window(math.ceil(x), math.ceil(2 * x)).primes
    invs = batch_inverses(ps[q % ps != 0], q)
    qs = np.array([q], dtype=np.int64)
    return _prime_twist_max(qs, invs, np.array([len(invs)]), [_prime_divisors(q)])[0]


def max_prime_sum_block(
    moduli, primes, scan_limit: int = DEFAULT_SCAN_LIMIT, divisors=None
) -> list[tuple[int, float]]:
    """max_prime_sum(q, x) at every modulus q of a block, each bitwise the
    per-q result, from one pass of _twist_max over the block; primes are
    those of the window, prime_window(ceil(x), ceil(2x)).primes, and
    divisors, when given, the primes of each modulus (a sweep's
    FactorWindow.divisors).

    Every modulus is checked against scan_limit and the byte budget before
    any work.  block_inverses takes the inverses of the window's primes mod
    every q at once; a prime dividing q has inverse 0 and is left out of
    its row.  Each modulus is factored once, for block_inverses and the
    unit mask of _twist_max alike.  moduli_blocks(..., scan=True) bounds
    the block's residues.
    """
    qs = np.asarray(moduli, dtype=np.int64)
    check_twist_scan(qs.tolist(), scan_limit)
    if divisors is None:
        divisors = [_prime_divisors(q) for q in qs.tolist()]
    invs = block_inverses(primes, qs, divisors)
    units = invs != 0
    return _prime_twist_max(qs, invs[units], units.sum(axis=1), divisors)


def _units(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The units 1 <= n <= q modulo q, ascending, and their inverses."""
    ns = np.arange(1, q + 1, dtype=np.int64)
    invs = batch_inverses(ns, q)
    keep = invs != 0
    return ns[keep], invs[keep]


def _kloosterman_phases(a: int, b: int, q: int, ns: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """(a*n + b*inv(n)) mod q for the units n and their inverses, in
    arith._lanes(q): a*n is reduced first, so a*n mod q + b*inv(n) stays
    below q + q**2, which fits the lane."""
    lanes = _lanes(q)
    mod = lanes(q)
    idx = ns.astype(lanes)
    idx *= lanes(a % q)
    idx %= mod
    binv = invs.astype(lanes)
    binv *= lanes(b % q)
    idx += binv
    idx %= mod
    return idx


def kloosterman(a: int, b: int, q: int) -> float:
    """Complete sum of e((a*n + b*inv(n)) / q) over units n modulo q.

    The imaginary part must vanish (terms pair off under n -> q - n); it
    is asserted below 1e-9 and the real part is returned.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    # the unit arrays, the terms and the accumulator's work arrays, which
    # tracemalloc measured at 45-84 bytes per residue for q from 4096 to 10**6
    check_modulus(q, bytes_per_entry=112)
    ns, invs = _units(q)
    terms = unit_roots(q)[_kloosterman_phases(a, b, q, ns, invs)]
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
    # the grid and its index first: listing the divisors takes O(q) time
    charge_budget(24 * q * q, f"Kloosterman grid mod {q} and its index need")
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    charge_budget((24 * q + 16 * len(divisors)) * q,
                  f"Kloosterman grid mod {q} with {len(divisors)} spectra needs")
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
    # the gather index, _GRID_CELLS cells at a time: step * b mod q in
    # arith._lanes(q); numpy's integer division by a scalar runs several
    # times faster than its remainder, so the remainder is x - (x // q) * q
    lanes = _lanes(q)
    mod, bs = lanes(q), np.arange(q, dtype=lanes)
    idx = np.empty((q, q), dtype=np.int64)
    rows = max(1, _GRID_CELLS // q)
    for r in range(0, q, rows):
        block = np.multiply.outer(step[r : r + rows].astype(lanes), bs)
        quot = block // mod
        quot *= mod
        block -= quot
        np.add(block, offset[r : r + rows, None], out=idx[r : r + rows])
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
