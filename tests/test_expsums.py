"""Exponential sums: scalar oracles, exact symmetries, and the Weil grid."""

import cmath
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import arith, expsums
from kloosterlab.accumulate import exact_sum, fsum_complex, unit_roots
from kloosterlab.arith import batch_inverses, prime_window
from kloosterlab.errors import CapacityError, ConsistencyError
from kloosterlab.arith import MEMORY_ENV_VAR
from kloosterlab.experiments import avg_max_report, fixed_a_avg_report
from kloosterlab.expsums import (
    _BLOCK_MODULI,
    _CHUNK_CELLS,
    _SCAN_BYTES,
    _SCAN_RESIDUES,
    ExpSumQuery,
    _row_spectrum,
    _twist_error_bound,
    _twist_spectrum,
    check_twist_scan,
    inverse_phase_sum,
    kloosterman,
    kloosterman_grid,
    max_prime_sum,
    max_prime_sum_block,
    moduli_blocks,
    prime_sum,
    prime_sum_block,
    short_inverse_sum,
    weil_ratio,
)


def _oracle_sum(ns, a, q, weights=None):
    """Term-by-term reference with cmath, no tables, no vectorization."""
    total = 0j
    for i, n in enumerate(ns):
        if math.gcd(n, q) != 1:
            continue
        w = 1.0 if weights is None else weights[i]
        total += w * cmath.exp(2j * math.pi * a * pow(n, -1, q) / q)
    return total


def test_inverse_phase_sum_against_oracle():
    for q in (2, 3, 7, 12, 97):
        for a in (0, 1, 3, q - 1):
            ns = list(range(1, 60))
            got = inverse_phase_sum(ns, a, q)
            want = _oracle_sum(ns, a, q)
            assert abs(got.value - want) < 1e-12
            assert got.term_count == sum(1 for n in ns if math.gcd(n, q) == 1)


def test_weights_and_error_bound():
    ns = [2, 3, 4, 5, 6]
    w = [0.5, 1.0, 2.0, 0.25, 3.0]
    got = inverse_phase_sum(ns, 1, 7, weights=w)
    want = _oracle_sum(ns, 1, 7, w)
    assert abs(got.value - want) < 1e-12
    assert got.magnitude <= got.weight_sum + got.accumulation_error_bound
    assert got.accumulation_error_bound < 1e-12


def test_zero_twist_counts_units_exactly():
    ns = list(range(1, 500))
    got = inverse_phase_sum(ns, 0, 12)
    # every phase is e(0) = 1, so the sum is exactly the unit count
    assert got.value == complex(got.term_count)


def _single_inversion_sum(ns, a, q):
    """inverse_phase_sum with one pow(n, -1, q) per term in place of batch inversion.

    Same unit-root table and the same correctly rounded sum, so the value
    must match the batched path bit for bit.
    """
    kept = [int(n) for n in ns if math.gcd(int(n), q) == 1]
    idx = np.asarray([a % q * pow(n, -1, q) % q for n in kept], dtype=np.intp)
    terms = unit_roots(q)[idx]
    return fsum_complex(terms.real.tolist(), terms.imag.tolist()), len(kept)


def test_batch_and_single_inversion_bitwise_equal(prime_table):
    fast = prime_sum(ExpSumQuery(a=3, q=23, x=50))
    value, count = _single_inversion_sum(prime_table.primes_between(50, 100), 3, 23)
    assert fast.value == value
    assert fast.term_count == count


def test_conjugate_twist_is_exact_conjugate():
    for (a, q, x) in [(1, 7, 10), (2, 9, 25), (5, 31, 100)]:
        plus = prime_sum(ExpSumQuery(a=a, q=q, x=x))
        minus = prime_sum(ExpSumQuery(a=q - a, q=q, x=x))
        # bitwise, thanks to the mirrored unit-root table
        assert minus.value == plus.value.conjugate()


def test_prime_sum_oracle_small_window(prime_table):
    query = ExpSumQuery(a=1, q=7, x=10)
    got = prime_sum(query)
    want = _oracle_sum([11, 13, 17, 19], 1, 7)
    assert abs(got.value - want) < 1e-12
    assert got.term_count == 4


def test_von_mangoldt_weight_includes_prime_powers():
    query = ExpSumQuery(a=1, q=5, x=8)
    got = prime_sum(query, weight="von_mangoldt")
    # window [8, 16): 8 = 2^3, 9 = 3^2, 11, 13 contribute log 2, log 3, log 11, log 13
    ns = [8, 9, 11, 13]
    ws = [math.log(2), math.log(3), math.log(11), math.log(13)]
    want = _oracle_sum(ns, 1, 5, ws)
    assert abs(got.value - want) < 1e-12
    assert got.term_count == 4


def test_prime_sum_rejects_unknown_weight():
    with pytest.raises(ValueError):
        prime_sum(ExpSumQuery(a=1, q=5, x=10), weight="log")


@pytest.mark.parametrize("x", [math.inf, math.nan])
@pytest.mark.parametrize("entry", [
    lambda x: ExpSumQuery(1, 7, x),
    lambda x: max_prime_sum(7, x),
    lambda x: avg_max_report(4, x),
    lambda x: fixed_a_avg_report(1, 4, x),
], ids=["ExpSumQuery", "max_prime_sum", "avg_max_report", "fixed_a_avg_report"])
def test_non_finite_x_is_refused(entry, x):
    # refused up front as VaughanParams refuses it, before math.ceil(x)
    with pytest.raises(ValueError, match="need x >= 2"):
        entry(x)


@pytest.mark.parametrize("q", [5, 8, 12, 13, 30, 47])
def test_max_prime_sum_against_full_scan(q):
    x = 30.0
    a_star, mag = max_prime_sum(q, x)
    assert 1 <= a_star <= q // 2
    assert math.gcd(a_star, q) == 1
    mags = {
        a: prime_sum(ExpSumQuery(a=a, q=q, x=x)).magnitude
        for a in range(1, q)
        if math.gcd(a, q) == 1
    }
    best = max(mags.values())
    assert mag == pytest.approx(best, abs=1e-9)
    assert mags[a_star] == pytest.approx(best, abs=1e-9)


def _direct_max_prime_sum(q, x, table):
    """max_prime_sum as a full direct scan: every twist 1 <= a <= q/2 coprime
    to q, in chunks of _CHUNK_CELLS cells, first strict maximum.

    Same table entries and the same row expression as the re-scoring in
    max_prime_sum, so (a*, magnitude) must match bit for bit.
    """
    candidates = np.arange(1, q // 2 + 1, dtype=np.int64)
    candidates = candidates[np.gcd(candidates, q) == 1]
    primes = [int(p) for p in table.primes_between(x, 2 * x) if q % int(p) != 0]
    if not primes:
        return int(candidates[0]), 0.0
    invs = np.asarray(batch_inverses(primes, q), dtype=np.int64)
    roots = unit_roots(q)
    best_a, best_mag = int(candidates[0]), -1.0
    rows = max(1, _CHUNK_CELLS // len(invs))
    for start in range(0, len(candidates), rows):
        chunk = candidates[start : start + rows]
        idx = (chunk[:, None] * invs[None, :]) % q
        mags = np.abs(roots[idx].sum(axis=1))
        j = int(mags.argmax())
        if mags[j] > best_mag:
            best_mag = float(mags[j])
            best_a = int(chunk[j])
    return best_a, best_mag


@pytest.mark.parametrize("x", [2, 10, 30, 100, 1024])
def test_max_prime_sum_bitwise_equals_direct_scan(x, prime_table):
    for q in range(2, 401):
        got = max_prime_sum(q, x)
        want = _direct_max_prime_sum(q, x, prime_table)
        assert got == want, (q, x)
        assert type(got[0]) is int and type(got[1]) is float


def test_max_prime_sum_near_tie_keeps_direct_argmax(prime_table):
    # a = 481 and a = 1019 = 481 * 1499 (1499^2 = 1 mod 3000) differ by
    # ~2e-14; the spectrum alone would pick 1019
    got = max_prime_sum(3000, 2500)
    assert got == _direct_max_prime_sum(3000, 2500, prime_table)
    assert got[0] == 481


def test_max_prime_sum_every_twist_ties(prime_table):
    # the window [2, 4) keeps only p = 3 for q = 2^5 5^5: |S(a)| = 1 for all a
    got = max_prime_sum(100000, 2)
    assert got == _direct_max_prime_sum(100000, 2, prime_table)


def test_max_prime_sum_first_maximum_across_chunks(monkeypatch, prime_table):
    # with chunks of 1000 twists, the largest magnitude recurs in later
    # chunks; the strict maximum keeps the first, as one chunk would
    want = _direct_max_prime_sum(100000, 2, prime_table)
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 1000)
    assert max_prime_sum(100000, 2) == want


def test_max_prime_sum_without_usable_primes(prime_table):
    # both primes of [2, 4) divide 6
    assert max_prime_sum(6, 2) == (1, 0.0)
    assert _direct_max_prime_sum(6, 2, prime_table) == (1, 0.0)


def test_twist_consistency_check_fires_with_zero_bound(monkeypatch):
    # the spectrum and the direct sums round differently, so a zero bound
    # must trip the check: on the half-length route (3000) and the full one
    monkeypatch.setattr(expsums, "_twist_error_bound", lambda *args: 0.0)
    for q in (3000, 3001):
        with pytest.raises(ConsistencyError):
            max_prime_sum(q, 2500)


def test_even_row_with_a_term_at_an_even_residue_is_refused():
    # the half-length spectrum holds only for rows on the units: the block's
    # even rows are checked from its terms, while an odd modulus takes any
    # residue
    qs, counts = np.array([9, 10, 12]), np.array([2, 2, 1])
    divisors = [[3], [2, 5], [2, 3]]
    with pytest.raises(ConsistencyError, match="mod 12 has a term at the even residue 6"):
        expsums._prime_twist_max(qs, np.array([2, 4, 1, 3, 6]), counts, divisors)
    got = expsums._prime_twist_max(qs[:1], np.array([2, 4]), counts[:1], divisors[:1])
    roots = unit_roots(9)
    mags = {a: abs(roots[2 * a % 9] + roots[4 * a % 9]) for a in (1, 2, 4)}
    assert got[0][0] == max(mags, key=mags.get) and got[0][1] == pytest.approx(max(mags.values()))


def test_max_prime_sum_capacity(monkeypatch):
    # the modulus cap, then the byte budget at _SCAN_BYTES per residue
    with pytest.raises(CapacityError, match=f"modulus {2 ** 31} is not below {2 ** 31}"):
        max_prime_sum(2 ** 31, 100.0)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(5000 * _SCAN_BYTES - 1))
    with pytest.raises(CapacityError, match=f"tables mod 5000 need about {5000 * _SCAN_BYTES} bytes"):
        max_prime_sum(5000, 100.0)


def test_kloosterman_known_value():
    # K(1, 1; 5) = 2 + 2 cos(4 pi / 5) = (3 - sqrt 5) / 2
    assert kloosterman(1, 1, 5) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    # K(a, 0; q) is a Ramanujan sum; at q prime and a unit it is -1
    assert kloosterman(1, 0, 7) == pytest.approx(-1.0, abs=1e-12)


def test_kloosterman_symmetry():
    for q in (5, 7, 11, 13):
        for a in (1, 2, 3):
            for b in (1, 2):
                assert kloosterman(a, b, q) == pytest.approx(kloosterman(b, a, q), abs=1e-9)


@pytest.mark.parametrize("q", [19787, (1 << 16) - 1, 65521, 1 << 16, 65537, 131071])
def test_kloosterman_phases_match_the_int64_expression(q):
    # uint32 lanes below 2**16, int64 from there; twists past q and negative
    ns, invs = expsums._units(q)
    for a, b in [(4384, 10939), (q - 1, q - 1), (1, 0), (3 * q + 5, -7), (-q - 2, 2 * q - 1)]:
        got = expsums._kloosterman_phases(a, b, q, ns, invs)
        assert got.dtype == arith._lanes(q)
        assert np.array_equal(got.astype(np.int64), (a % q * ns % q + b % q * invs % q) % q)


def test_kloosterman_grid_matches_scalar():
    # primes, prime powers, even and highly composite q: every divisor row
    for q in (2, 4, 5, 7, 8, 9, 12, 15, 30, 36, 60, 100):
        grid = kloosterman_grid(q)
        assert grid.shape == (q, q)
        assert np.abs(grid.imag).max() < 1e-12
        scalar = np.array([[kloosterman(a, b, q) for b in range(q)] for a in range(q)])
        assert np.abs(grid.real - scalar).max() < 1e-12


def test_weil_bound_on_prime_sample(prime_table):
    for p in (101, 211, 499):
        grid = kloosterman_grid(p)
        mags = np.abs(grid[1:, 1:])
        assert mags.max() <= 2 * math.sqrt(p) + 1e-6


def test_short_sum_full_period_is_ramanujan(tables):
    # over a full period the inverse substitution is a bijection on units,
    # so the sum collapses to the Ramanujan sum c_q(1) = mobius(q)
    for q in (5, 6, 9, 12, 30, 97):
        got = short_inverse_sum(1, q, 0, q)
        assert abs(got.value - int(tables.mobius[q])) < 1e-9


def test_short_sum_interval_convention():
    got = short_inverse_sum(1, 7, 2.5, 9.5)
    want = _oracle_sum([3, 4, 5, 6, 8, 9], 1, 7)
    assert abs(got.value - want) < 1e-12


def test_short_sum_length_cap():
    with pytest.raises(CapacityError, match=r"^interval length 10000001 exceeds 10000000$"):
        short_inverse_sum(1, 7, 0, 10 ** 7 + 1)


def test_weil_ratio_report(prime_table):
    rep = weil_ratio(1, 101, 0, 50)
    assert rep.lhs == pytest.approx(short_inverse_sum(1, 101, 0, 50).magnitude)
    assert set(rep.rhs_terms) == {"gcd(a,q)*((Z-Y)/q+1)", "sqrt(q)"}
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs_total)
    assert rep.trivial_bound == 50.0


def test_weil_ratio_envelope(prime_table):
    # recorded envelope: the measured worst ratio over this grid is ~1.27
    worst = 0.0
    for p in [int(v) for v in prime_table.primes if 101 <= v <= 1999]:
        for a in (1, 7):
            for lo, hi in [(0, p / 3), (p / 4, p / 2), (0, 2 * p / 3)]:
                worst = max(worst, weil_ratio(a, p, lo, hi).ratio)
    assert worst <= 1.5


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def _twisted_windows(draw):
    q = draw(st.integers(2, 3000))
    return draw(st.integers(1, q - 1)), q, draw(st.floats(2.0, 24000.0))


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@_PROPERTY
@given(case=_twisted_windows(), weight=st.sampled_from(["unit", "von_mangoldt"]))
def test_prime_sum_twist_q_minus_a_is_the_bitwise_conjugate(case, weight):
    a, q, x = case
    plus = prime_sum(ExpSumQuery(a=a, q=q, x=x), weight=weight).value
    minus = prime_sum(ExpSumQuery(a=q - a, q=q, x=x), weight=weight).value
    # an exactly zero imaginary part is +0.0 on both sides
    want = complex(plus.real, -plus.imag if plus.imag else 0.0)
    assert _bits(minus) == _bits(want)


@st.composite
def _histograms(draw):
    """A residue histogram mod q: counts of random terms, or complex weights
    in the unit disk on a random support."""
    q = draw(st.integers(2, 1500))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        terms = rng.integers(0, q, draw(st.integers(1, 400)))
        return q, terms, None
    support = np.flatnonzero(rng.random(q) < draw(st.floats(0.01, 1.0)))
    if len(support) == 0:
        support = np.array([int(rng.integers(0, q))])
    vals = rng.random(len(support)) * np.exp(2j * np.pi * rng.random(len(support)))
    return q, support, vals


@_PROPERTY
@given(case=_histograms())
def test_twist_spectrum_within_its_bound_of_the_direct_sum(case):
    # the bounds of max_prime_sum (counts) and bilinear._sweep_block (weights)
    q, terms, vals = case
    if vals is None:
        h = np.bincount(terms, minlength=q).astype(np.float64)
        err = _row_bound(h, len(terms), len(terms) - 1)
    else:
        h = np.zeros(q, dtype=np.complex128)
        h[terms] = vals
        err = _row_bound(h, float(np.abs(vals).sum()), len(terms) + 1)
    twists = np.arange(q, dtype=np.int64)
    spectrum = _twist_spectrum(h, twists)
    table = unit_roots(q)[(twists[:, None] * terms[None, :]) % q]
    direct = np.abs((table if vals is None else table * vals).sum(axis=1))
    assert float(np.abs(spectrum - direct).max()) <= err


def _row_bound(h, weight, depth):
    """_twist_error_bound of a block of one histogram h, as a float."""
    return float(_twist_error_bound(h, [weight], [depth], np.array([len(h)]))[0])


def _units_mod(q):
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def _row_histogram(q, terms, vals):
    """The histogram and bound E of max_prime_sum (counts of terms) or of
    bilinear._sweep_block (weights vals on the support terms)."""
    if vals is None:
        h = np.bincount(terms, minlength=q).astype(np.float64)
        return h, _row_bound(h, len(terms), len(terms) - 1)
    h = np.zeros(q, dtype=np.complex128)
    h[terms] = vals
    return h, _row_bound(h, float(np.abs(vals).sum()), len(terms) + 1)


@st.composite
def _even_unit_histograms(draw):
    """A histogram on the units mod an even q: q = 2, 4, or 2 or 0 mod 4
    up to 1500; counts of random unit terms, or complex weights in the
    unit disk on a random set of units."""
    mod_4 = st.builds(lambda n, r: 4 * n + r, st.integers(1, 374), st.sampled_from([0, 2]))
    q = draw(st.one_of(st.sampled_from([2, 4]), mod_4))
    units = _units_mod(q)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return q, rng.choice(units, draw(st.integers(1, 400))), None
    support = units[rng.random(len(units)) < draw(st.floats(0.01, 1.0))]
    if len(support) == 0:
        support = units[:1]
    vals = rng.random(len(support)) * np.exp(2j * np.pi * rng.random(len(support)))
    return q, support, vals


@_PROPERTY
@given(case=_even_unit_histograms())
@example(case=(2, np.array([1, 1]), None))
@example(case=(4, np.array([1, 3, 3]), None))
@example(case=(2, np.array([1]), np.array([0.5 - 0.5j])))
@example(case=(4, np.array([1, 3]), np.array([0.3j, 0.9])))
def test_half_length_row_spectrum_within_its_bound_of_the_direct_sum(case):
    # every twist of the buffer _twist_max fills: 0 <= a <= q/2 for a real
    # row, 0 <= a < q for a complex one
    q, terms, vals = case
    h, err = _row_histogram(q, terms, vals)
    spectrum = np.empty(q // 2 + 1 if vals is None else q)
    _row_spectrum(h, spectrum)
    twists = np.arange(len(spectrum))
    table = unit_roots(q)[(twists[:, None] * terms[None, :]) % q]
    direct = np.abs((table if vals is None else table * vals).sum(axis=1))
    assert float(np.abs(spectrum - direct).max()) <= err


@pytest.mark.parametrize("q", [8190, 8191, 8192, 8194, 8198, 8209])
def test_row_spectra_keep_parseval_within_the_bound_of_e(q):
    # an integer histogram h has sum over a mod q of |S(a)|^2 = q * |h|_2^2
    # exactly; spectra s(a) within E of every |S(a)| keep the sum of their
    # squares within 2 E q |h|_2 + q E^2 of it (Cauchy-Schwarz: the |S(a)|
    # sum to at most q |h|_2), and rounding each square adds u per square.
    # 8191 and 8209 are prime and take length q; 8192 halves to 2^12, 8190
    # to 3^2 * 5 * 7 * 13, 8194 to 17 * 241 and 8198 to the prime 4099
    rng = np.random.default_rng(q)
    units = _units_mod(q)
    counts = rng.choice(units, 6000)
    support = np.unique(rng.choice(units, 3000))
    gauss = rng.integers(-3, 4, len(support)) + 1j * rng.integers(-3, 4, len(support))
    for terms, vals in ((counts, None), (support, gauss)):
        h, err = _row_histogram(q, terms, vals)
        squares = int((h.real * h.real + h.imag * h.imag).sum())
        spectrum = np.empty(q // 2 + 1 if vals is None else q)
        _row_spectrum(h, spectrum)
        if vals is None:
            a = np.arange(q)
            spectrum = spectrum[np.minimum(a, q - a)]
        total = math.fsum((spectrum * spectrum).tolist())
        bound = 2 * err * q * math.sqrt(squares) + q * err ** 2 + 2 ** -52 * q * squares
        assert abs(total - q * squares) <= bound, (q, vals is None)


@pytest.mark.parametrize("q", [691, 701, 709, 3 ** 6, 2 ** 10, 2 * 3 ** 5])
def test_kloosterman_grid_columns_keep_parseval(q):
    # K(a, b; q) over a is the DFT of v[n] = e(b inv(n) / q) on the units, so
    # every column has sum over a of |K(a, b)|^2 = q * phi(q) exactly.  Each
    # entry is one FFT of root-table entries, within E of the exact sum
    # (_twist_error_bound at weight phi(q) and norm sqrt(phi(q))); the column
    # sum then keeps the bound of test_row_spectra_keep_parseval_within_the_bound_of_e
    grid = kloosterman_grid(q)
    units = _units_mod(q)
    phi = len(units)
    h = np.zeros(q, dtype=np.complex128)
    h[units] = 1
    err = _row_bound(h, phi, 0)
    bound = 2 * err * q * math.sqrt(phi) + q * err ** 2 + 2 ** -52 * q * phi
    assert bound < 1e-9 * q * phi
    squares = grid.real * grid.real + grid.imag * grid.imag
    for b in range(q):
        assert abs(math.fsum(squares[:, b].tolist()) - q * phi) <= bound, (q, b)


def test_von_mangoldt_prime_sum_peaks_within_its_charge(monkeypatch):
    # the window [x, 2x) is sieved within its charge; the sum then holds the
    # window's arrays and the terms of one chunk of _add_terms, charged with
    # the window, with no length-x copy of anything
    x = 500_000
    query = ExpSumQuery(a=1, q=7, x=x)
    prime_sum(query, weight="von_mangoldt")  # the base primes are cached apart
    needs = []
    for module in (arith, expsums):
        monkeypatch.setattr(module, "charge_budget", lambda need, subject, budget=None: needs.append(need))
    tracemalloc.start()
    try:
        prime_sum(query, weight="von_mangoldt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = prime_window(x, 2 * x)
    held = window.primes.nbytes + sum(arr.nbytes for arr in window.prime_powers)
    assert needs[0] < 7 * x
    assert held + expsums._TERMS * expsums._TERM_BYTES in needs
    assert peak <= max(needs)


def test_von_mangoldt_prime_sum_is_refused_one_byte_below_its_chunk_charge(monkeypatch):
    # the largest charge of the sum is one chunk of _add_terms beside the
    # window's primes and prime powers: one byte less refuses the sum, and
    # the charge itself lets it run, with the bits of an unbudgeted run
    query = ExpSumQuery(a=1, q=7, x=5e5)
    free = prime_sum(query, weight="von_mangoldt")
    window = prime_window(500_000, 1_000_000)
    charge = window.primes.nbytes + sum(arr.nbytes for arr in window.prime_powers)
    charge += expsums._TERMS * expsums._TERM_BYTES
    monkeypatch.setenv(MEMORY_ENV_VAR, str(charge - 1))
    with pytest.raises(CapacityError, match=rf"a sum of {len(window.primes)} terms mod 7 needs about {charge} bytes"):
        prime_sum(query, weight="von_mangoldt")
    monkeypatch.setenv(MEMORY_ENV_VAR, str(charge))
    budgeted = prime_sum(query, weight="von_mangoldt")
    assert (budgeted.value.real.hex(), budgeted.value.imag.hex(), budgeted.weight_sum.hex()) == (
        free.value.real.hex(), free.value.imag.hex(), free.weight_sum.hex())


def _window_primes(x):
    return prime_window(math.ceil(x), math.ceil(2 * x)).primes


def _per_q_values(a, moduli, x):
    return [prime_sum(ExpSumQuery(a=a, q=int(q), x=x)).value for q in moduli]


@st.composite
def _moduli_blocks(draw, tables):
    """A window x and a block of moduli: any size, across 2**16, and
    multiples of the window's primes; the twist is at times 0 mod one of them."""
    x = draw(st.floats(2.0, 3000.0))
    window = tables.prime_table.primes_between(x, 2 * x).tolist()
    plain = st.one_of(st.integers(2, 8000), st.integers((1 << 16) - 20, (1 << 16) + 20))
    multiple = st.builds(lambda p, c: p * c, st.sampled_from(window), st.integers(1, 12))
    moduli = draw(st.lists(st.one_of(plain, multiple), min_size=1, max_size=40))
    if draw(st.booleans()):
        a = draw(st.sampled_from(moduli)) * draw(st.integers(0, 3))
    else:
        a = draw(st.integers(-(10 ** 6), 10 ** 6))
    return a, moduli, x


@_PROPERTY
@given(data=st.data())
def test_prime_sum_block_bitwise_per_q(data, tables):
    a, moduli, x = data.draw(_moduli_blocks(tables))
    got = prime_sum_block(a, moduli, _window_primes(x))
    assert [_bits(v) for v in got] == [_bits(v) for v in _per_q_values(a, moduli, x)]


@_PROPERTY
@given(a=st.integers(1, 10 ** 4), Q=st.sampled_from([2, 5, _BLOCK_MODULI - 1, _BLOCK_MODULI,
                                                     _BLOCK_MODULI + 1, 2 * _BLOCK_MODULI + 7]),
       x=st.floats(2.0, 400.0))
def test_fixed_a_avg_sweep_bitwise_per_q(a, Q, x):
    # sweeps below, at and above one block of moduli
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = fixed_a_avg_report(a, Q, x)
    want = exact_sum([abs(v) for v in _per_q_values(a, range(Q, 2 * Q), x)])
    assert rep.lhs.hex() == want.hex()


def test_prime_sum_block_across_2_16():
    moduli = list(range((1 << 16) - 3, (1 << 16) + 3)) + [65521 * 2, 3 * 21851]
    for a in (1, 65536, 65521 * 2):
        got = prime_sum_block(a, moduli, _window_primes(20000.0))
        want = _per_q_values(a, moduli, 20000.0)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_moduli_blocks_cover_the_sweep_in_order():
    blocks = moduli_blocks(100, 300, 21)
    assert [q for b in blocks for q in b] == list(range(100, 300))
    assert {len(b) for b in blocks[:-1]} == {_BLOCK_MODULI}
    # long windows take fewer moduli per block, never none
    assert all(len(b) == 1 for b in moduli_blocks(10, 20, 10 ** 9))
    assert len(moduli_blocks(10, 20, 0)) == 1


def test_prime_sum_block_checks_its_moduli():
    primes = _window_primes(100.0)
    with pytest.raises(ValueError):
        prime_sum_block(1, [7, 1], primes)
    with pytest.raises(CapacityError):
        prime_sum_block(1, [2 ** 31], primes)


@st.composite
def _scan_blocks(draw, prime_table):
    """A window x and a block of moduli for max_prime_sum_block: of one
    modulus or many; even moduli, whose twists a and q/2 - a tie exactly;
    multiples of the window's primes, whose rows are shorter; moduli with
    no usable prime (6 at x = 2); and, at short windows, moduli across 2**16."""
    wide = draw(st.booleans())
    x = 2.0 if draw(st.integers(0, 3)) == 0 else draw(st.floats(2.0, 30.0 if wide else 1500.0))
    window = prime_table.primes_between(x, 2 * x).tolist()
    plain = st.integers((1 << 16) - 8, (1 << 16) + 8) if wide else st.integers(2, 2000)
    even = st.builds(lambda q: 2 * q, st.integers(1, 1000))
    multiple = st.builds(lambda p, c: p * c, st.sampled_from(window), st.integers(1, 12))
    moduli = draw(st.lists(st.one_of(plain, even, multiple), min_size=1,
                           max_size=1 if draw(st.booleans()) else 8))
    if x == 2.0 and draw(st.booleans()):
        moduli.insert(draw(st.integers(0, len(moduli))), 6)
    return moduli, x


@_PROPERTY
@given(data=st.data())
def test_max_prime_sum_block_rows_bitwise_direct_scan(data, prime_table):
    moduli, x = data.draw(_scan_blocks(prime_table))
    got = max_prime_sum_block(moduli, _window_primes(x))
    assert got == [_direct_max_prime_sum(q, x, prime_table) for q in moduli]
    assert all(type(a) is int and type(m) is float for a, m in got)


def test_max_prime_sum_block_known_near_tie_and_empty_rows(prime_table):
    # a block holding the near tie of q = 3000, the exact ties of even
    # moduli, and rows with no usable prime (both primes of [2, 4) divide 6)
    moduli = [3000, 2998, 6, 7, 12]
    got = max_prime_sum_block(moduli, _window_primes(2500))
    assert got == [_direct_max_prime_sum(q, 2500, prime_table) for q in moduli]
    assert got[0][0] == 481
    assert max_prime_sum_block([6, 12, 5], _window_primes(2))[:2] == [(1, 0.0), (1, 0.0)]


@_PROPERTY
@given(Q=st.sampled_from([2, 5, _BLOCK_MODULI - 1, _BLOCK_MODULI, _BLOCK_MODULI + 1,
                          2 * _BLOCK_MODULI + 7]),
       x=st.floats(2.0, 400.0))
def test_avg_max_sweep_bitwise_per_q(Q, x):
    # sweeps below, at and above one block, with partial last blocks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = avg_max_report(Q, x)
    want = exact_sum([max_prime_sum(q, x)[1] for q in range(Q, 2 * Q)])
    assert rep.lhs.hex() == want.hex()


def test_scan_blocks_cap_their_residues(monkeypatch):
    blocks = moduli_blocks(2048, 4096, 1, scan=True)
    assert [q for b in blocks for q in b] == list(range(2048, 4096))
    assert {len(b) for b in blocks} == {_BLOCK_MODULI}
    assert all(sum(b) <= _SCAN_RESIDUES for b in moduli_blocks(10 ** 4, 2 * 10 ** 4, 1, scan=True))
    assert {len(b) for b in moduli_blocks(10 ** 5, 2 * 10 ** 5, 1, scan=True)} == {1}
    # a small byte budget cuts blocks down to one modulus, never to none
    monkeypatch.setenv(MEMORY_ENV_VAR, str(_SCAN_BYTES * 3000))
    assert {len(b) for b in moduli_blocks(2048, 4096, 1, scan=True)} == {1}


def test_max_prime_sum_block_checks_every_modulus_first(monkeypatch):
    # the first modulus past the budget is named, before any inverse is taken
    monkeypatch.setattr(expsums, "block_inverses", None)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(100 * _SCAN_BYTES))
    with pytest.raises(CapacityError, match="tables mod 101 need about"):
        max_prime_sum_block([99, 100, 101, 102], _window_primes(50.0))
    with pytest.raises(CapacityError, match="tables mod 101 need about"):
        avg_max_report(60, 50.0)


def test_twist_scan_refuses_over_a_small_budget_reading_it_once(monkeypatch):
    # _SCAN_BYTES per residue: moduli up to 150 fit 150 residues' bytes, 151 does not
    budget, need = 150 * _SCAN_BYTES, 151 * _SCAN_BYTES
    monkeypatch.setenv(MEMORY_ENV_VAR, str(budget))
    reads = []
    read = expsums.memory_budget
    for module in (arith, expsums):
        monkeypatch.setattr(module, "memory_budget", lambda: reads.append(1) or read())
    check_twist_scan(range(100, 151))
    assert len(reads) == 1
    with pytest.raises(CapacityError) as refused:
        check_twist_scan(range(100, 200))
    assert str(refused.value) == (
        f"tables mod 151 need about {need} bytes, budget is {budget} (set {MEMORY_ENV_VAR} to raise it)"
    )
    with pytest.raises(CapacityError, match=f"tables mod 151 need about {need} bytes"):
        avg_max_report(100, 100.0)


_PEAK_CHILD = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-c", sys.argv[1]])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak(code: str, budget: int) -> int:
    """Peak RSS in bytes of a fresh interpreter running code under the byte budget."""
    src = str(Path(expsums.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env[MEMORY_ENV_VAR] = str(budget)
    out = subprocess.run([sys.executable, "-c", _PEAK_CHILD, code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout.split()
    assert out[0] == "0"
    return int(out[1]) * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize("q", [999983, 2 * 499979])
def test_twist_scan_peaks_within_its_charge_as_a_fresh_child(monkeypatch, q):
    # pocketfft's Bluestein buffers at the prime length q (or q/2 for this
    # even q), which tracemalloc does not see, are most of the scan: under a
    # budget of just its charge, it peaks within the charge over an
    # interpreter that has only imported it (173 and 93 bytes per residue
    # measured on a 2-core VM)
    charge = q * _SCAN_BYTES
    base = _child_peak("import kloosterlab.expsums", charge)
    peak = _child_peak(f"from kloosterlab.expsums import max_prime_sum; max_prime_sum({q}, 1e5)", charge)
    assert peak - base <= charge
    # one byte below the charge refuses the scan before its window is sieved
    monkeypatch.setenv(MEMORY_ENV_VAR, str(charge - 1))
    monkeypatch.setattr(arith, "_sieve_window", None)
    with pytest.raises(CapacityError, match=f"tables mod {q} need about {charge} bytes, budget is {charge - 1}"):
        max_prime_sum(q, 1e5)


def test_kloosterman_grid_index_stays_within_its_bytes():
    q = 691
    kloosterman_grid(q)
    tracemalloc.start()
    try:
        kloosterman_grid(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * q * q + (1 << 20)


def test_kloosterman_grid_refuses_before_listing_divisors():
    # listing the divisors of 10**9 alone would take about a minute
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="Kloosterman grid mod 1000000000 and its index need"):
        kloosterman_grid(10 ** 9)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("budget, message", [
    # 24 q^2 = 240000 bytes for the grid and its index, plus 16 q per divisor
    # of 100 (nine of them) for the spectra
    (100000, "Kloosterman grid mod 100 and its index need about 240000 bytes, budget is 100000"),
    (250000, "Kloosterman grid mod 100 with 9 spectra needs about 254400 bytes, budget is 250000"),
])
def test_kloosterman_grid_charges_the_byte_budget(monkeypatch, budget, message):
    monkeypatch.setenv(MEMORY_ENV_VAR, str(budget))
    with pytest.raises(CapacityError, match=message):
        kloosterman_grid(100)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(254400))
    assert kloosterman_grid(100).shape == (100, 100)
