"""Sieves, inverses, multiplicative tables, and the accumulation helpers."""

import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import arith
from kloosterlab.accumulate import accumulation_bound, fsum_complex, unit_roots, unit_roots_at
from kloosterlab.arith import (
    HARD_SIEVE_CAP,
    MEMORY_ENV_VAR,
    MODULUS_CAP,
    batch_inverses,
    block_inverses,
    build_multiplicative_tables,
    factor_spans,
    factor_window,
    inverse_table,
    is_prime_deterministic,
    is_squarefull,
    largest_prime_factor,
    memory_budget,
    mod_inverse,
    rough_window,
    sieve_primes,
)
from kloosterlab.errors import CapacityError, ConsistencyError, NotInvertibleError
from kloosterlab.parallel import pmap
from kloosterlab.reports import make_report
from test_counting import _traced_peak

#: Property tests draw the same examples on every run and stay quick.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _brute_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    table = sieve_primes(1000)
    assert table.primes.tolist() == _brute_primes(1000)


def test_spf_is_smallest_factor():
    table = sieve_primes(500)
    for n in range(2, 501):
        p = int(table.spf[n])
        assert n % p == 0
        assert all(n % d for d in range(2, p))


def test_factorize_and_divisors(prime_table):
    assert prime_table.factorize(1) == []
    assert prime_table.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert prime_table.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert prime_table.divisors(49) == [1, 7, 49]
    for n in (2, 97, 360, 1024):
        assert math.prod(p ** e for p, e in prime_table.factorize(n)) == n


def test_pi_and_windows(prime_table):
    assert prime_table.pi(10) == 4
    assert prime_table.pi(2) == 1
    window = prime_table.primes_between(10, 20)
    assert window.tolist() == [11, 13, 17, 19]


def test_coverage_errors(prime_table, tables):
    with pytest.raises(ValueError, match="beyond the table limit"):
        prime_table.pi(10 ** 9)
    with pytest.raises(ValueError, match="beyond the table limit"):
        prime_table.factorize(prime_table.limit + 1)
    with pytest.raises(ValueError, match="beyond the table limit"):
        prime_table.primes_between(10, prime_table.limit + 2)
    with pytest.raises(ValueError, match="outside"):
        tables.lam(tables.limit + 1)


def test_mod_inverse_agrees_with_pow():
    for q in (2, 5, 12, 97, 360):
        for n in range(1, q):
            if math.gcd(n, q) == 1:
                assert mod_inverse(n, q) == pow(n, -1, q)


def test_mod_inverse_failure_carries_gcd():
    with pytest.raises(NotInvertibleError) as info:
        mod_inverse(8, 12)
    assert info.value.gcd == 4
    # it is also a ValueError, like pow(8, -1, 12)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("q", [2, 3, 4, 12, 97, 360, 1009])
def test_batch_inverses_match_single(q):
    values = list(range(0, 2 * q + 3))
    got = batch_inverses(values, q)
    assert got.dtype == np.int64
    for v, inv in zip(values, got):
        if math.gcd(v, q) == 1:
            assert inv == pow(v, -1, q)
        else:
            assert inv == 0


def _montgomery_inverses(values, q):
    """Twin of batch_inverses: the prefix-product loop, one pow per batch,
    with 0 where not invertible."""
    vals = [int(v) % q for v in values]
    ok = [math.gcd(v, q) == 1 for v in vals]
    prefix = []
    acc = 1
    for v, good in zip(vals, ok):
        if good:
            prefix.append(acc)
            acc = acc * v % q
    out = [0] * len(vals)
    if prefix:
        inv_acc = pow(acc, -1, q)
        for i in range(len(vals) - 1, -1, -1):
            if ok[i]:
                out[i] = prefix.pop() * inv_acc % q
                inv_acc = inv_acc * vals[i] % q
    return out


_moduli = st.one_of(
    st.integers(2, 1000),
    st.integers(2, MODULUS_CAP - 1),
    st.integers(MODULUS_CAP - 1000, MODULUS_CAP - 1),
)
_int64_values = st.lists(st.integers(-(2 ** 62), 2 ** 62), max_size=40)


@_PROPERTY
@given(q=_moduli, values=_int64_values)
@example(q=MODULUS_CAP - 1, values=[-1, 0, 1, MODULUS_CAP - 2, MODULUS_CAP, 2 ** 62])
@example(q=MODULUS_CAP - 2, values=[-3, 2, 3, MODULUS_CAP + 1])
@example(q=2, values=[-1, 0, 1, 2, 3])
def test_batch_inverses_match_pow(q, values):
    expected = [pow(v, -1, q) if math.gcd(v, q) == 1 else 0 for v in values]
    got = batch_inverses(values, q)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@_PROPERTY
@given(q=st.integers(2, 5000), values=st.lists(st.integers(-(10 ** 6), 10 ** 6), max_size=200))
def test_batch_inverses_match_montgomery_twin(q, values):
    assert batch_inverses(values, q).tolist() == _montgomery_inverses(values, q)



#: Moduli where the inverse routes change shape: prime powers, highly
#: composite q, and both sides of the 2**16 lane edge.
_SHAPED_MODULI = [2, 4, 8, 27, 243, 1024, 3125, 16807, 59049, 65536, 131072,
                  12, 360, 720, 5040, 55440, 2 * 3 * 5 * 7 * 11 * 13,
                  65535, 65537, 65521, 65519, 2 * 65521]


def _pow_inverses(values, q):
    return [pow(int(v), -1, q) if math.gcd(int(v), q) == 1 else 0 for v in values]


@st.composite
def _inverse_requests(draw):
    """(q, values), the length just below, at or just above the dense
    crossover, or short; values negative, in [0, q) and far above q."""
    q = draw(st.one_of(st.integers(2, 5000), st.sampled_from(_SHAPED_MODULI)))
    dense = -(-q // arith._DENSE_RATIO)
    n = draw(st.one_of(st.sampled_from([dense - 1, dense, dense + 1]), st.integers(0, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(-3 * q, 3 * q, n)
    values[rng.random(n) < 0.1] += 2 ** 40 * q
    return q, values


@_PROPERTY
@given(request=_inverse_requests())
@example(request=(65535, np.arange(32768) - 5))
@example(request=(65536, 3 * np.arange(32767) - 7))
@example(request=(65537, np.arange(32770) + 2 ** 40))
def test_both_inverse_routes_match_pow(request):
    q, values = request
    expected = _pow_inverses(values, q)
    vals = np.remainder(values, q)
    fermat = arith._fermat_inverses(vals, q)
    table = arith._build_inverse_table(q)
    assert fermat.dtype == table.dtype == np.int64
    assert fermat.tolist() == expected
    assert table[vals].tolist() == expected
    assert table.tolist() == _pow_inverses(range(q), q)


@_PROPERTY
@given(request=_inverse_requests())
@example(request=(65535, np.arange(32768) - 5))
@example(request=(65536, 3 * np.arange(32767) - 7))
@example(request=(65537, np.arange(32770) + 2 ** 40))
def test_batch_inverses_gathers_exactly_when_dense(request):
    q, values = request
    builds = []
    build = arith._build_inverse_table
    with mock.patch.object(arith, "_build_inverse_table",
                           lambda m, *rest: builds.append(m) or build(m, *rest)):
        got = batch_inverses(values, q)
    assert got.dtype == np.int64
    assert got.tolist() == _pow_inverses(values, q)
    assert builds == ([q] if arith._DENSE_RATIO * len(values) >= q else [])


@pytest.mark.parametrize("head", [4, arith._TABLE_HEAD])
def test_inverse_table_route_equals_fermat_below_2000(head):
    # a head of 4 puts every q past 8 through the sieve and the chunks
    with mock.patch.object(arith, "_TABLE_HEAD", head):
        for q in range(2, 2000):
            residues = np.arange(q, dtype=np.int64)
            assert np.array_equal(arith._build_inverse_table(q), arith._fermat_inverses(residues, q)), q


def test_dense_request_over_the_table_budget_takes_the_sparse_route(monkeypatch):
    q = 10007
    monkeypatch.setenv(MEMORY_ENV_VAR, str(arith._TABLE_BYTES * q - 1))
    monkeypatch.setattr(arith, "_build_inverse_table", None)
    # q // 2 + 1 values are a dense request, and fit the budget sparsely
    half = q // 2 + 1
    assert batch_inverses(np.arange(half), q).tolist() == _pow_inverses(range(half), q)
    # all q of them would take more than the table, sparsely too
    with pytest.raises(CapacityError, match=f"inverses of {q} values"):
        batch_inverses(np.arange(q), q)
    with pytest.raises(CapacityError):
        inverse_table.__wrapped__(q)


def test_sparse_inverses_are_charged_before_allocating(monkeypatch):
    # 10**6 values mod a prime near 2**31 take the sparse route, at 29
    # bytes each far over a budget of 10**6 bytes
    q = 2 ** 31 - 1
    values = np.arange(1, 10 ** 6 + 1, dtype=np.int64)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(10 ** 6))

    def refused():
        with pytest.raises(CapacityError, match="inverses of 1000000 values"):
            batch_inverses(values, q)

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 5


@pytest.mark.parametrize("q,n", [(65521, 30000), (10 ** 6 + 3, 10 ** 5)])
def test_sparse_inverses_peak_within_their_charge(q, n):
    # uint32 lanes, then int64 lanes; the input is allocated outside
    values = np.arange(1, n + 1, dtype=np.int64) * 7919
    result, peak = _traced_peak(lambda: batch_inverses(values, q))
    assert result.tolist() == _pow_inverses(values.tolist(), q)
    assert peak <= n * arith._SPARSE_BYTES


def test_sieve_of_small_limits():
    for limit in range(2, 200):
        table = sieve_primes(limit)
        assert table.primes.tolist() == _brute_primes(limit)
        assert table.spf[:2].tolist() == [0, 0]
        assert all(int(table.spf[n]) == min(p for p in range(2, n + 1) if n % p == 0)
                   for n in range(2, limit + 1))


_PRIMES_TO_5000 = sieve_primes(5000).primes


@st.composite
def _prime_windows(draw):
    """A run of consecutive primes, and moduli around it: any size, near
    2**16 and 2**31, and multiples of primes of the run."""
    lo = draw(st.integers(0, len(_PRIMES_TO_5000)))
    window = _PRIMES_TO_5000[lo : lo + draw(st.integers(0, 70))].tolist()
    plain = st.one_of(
        st.integers(2, 6000),
        st.integers((1 << 16) - 40, (1 << 16) + 40),
        st.integers(MODULUS_CAP - 1000, MODULUS_CAP - 1),
    )
    multiples = plain
    if window:
        multiples = st.builds(lambda p, c: p * c, st.sampled_from(window), st.integers(1, 30))
    moduli = draw(st.lists(st.one_of(plain, multiples), min_size=1, max_size=8))
    return window, moduli


@_PROPERTY
@given(case=_prime_windows())
@example(case=([65521, 65537], [65521, 65535, 65536, 65537, 65521 * 2]))
@example(case=([2, 3, 5, 7, 11, 13], [2, 3, 30, 30030, MODULUS_CAP - 1]))
# primes past 2**32 reduce mod q before they enter a uint32 lane
@example(case=([p for p in range(2 ** 32, 2 ** 32 + 300) if is_prime_deterministic(p)],
               [7, 65521, 65535, 65537, MODULUS_CAP - 1]))
def test_prime_inverses_match_pow(case):
    window, moduli = case
    got = block_inverses(np.array(window, dtype=np.int64), moduli)
    assert got.dtype == np.int64 and got.shape == (len(moduli), len(window))
    expected = [[pow(p, -1, q) if q % p else 0 for p in window] for q in moduli]
    assert got.tolist() == expected


def test_prime_inverses_refuse_bad_input():
    with pytest.raises(ValueError):
        block_inverses([5, 3], [7])
    with pytest.raises(ValueError):
        block_inverses([3, 3], [7])
    with pytest.raises(ValueError):
        block_inverses([3], [7, 1])
    with pytest.raises(ValueError):
        block_inverses([0, 1], [7])
    with pytest.raises(CapacityError):
        block_inverses([3], [7, MODULUS_CAP])


@st.composite
def _value_runs(draw):
    """A run of consecutive values from 1 or past it, and moduli of every
    kind: prime, prime power, even, highly composite, and near 2**16 and
    2**31."""
    start = draw(st.one_of(st.just(1), st.integers(1, 10 ** 6), st.integers(2 ** 32, 2 ** 32 + 10 ** 4)))
    run = list(range(start, start + draw(st.integers(0, 90))))
    modulus = st.one_of(
        st.integers(2, 6000),
        st.sampled_from([2, 64, 729, 2048, 3 ** 10, 30, 210, 2310, 30030, 510510, 9973]),
        st.integers((1 << 16) - 40, (1 << 16) + 40),
        st.integers(MODULUS_CAP - 1000, MODULUS_CAP - 1),
    )
    return run, draw(st.lists(modulus, min_size=1, max_size=8))


@_PROPERTY
@given(case=_value_runs())
@example(case=(list(range(1, 2048)), [1024, 1025, 2047, 2048, 2310]))
def test_block_inverses_of_a_run_match_pow(case):
    run, moduli = case
    got = block_inverses(run, moduli)
    assert got.dtype == np.int64 and got.shape == (len(moduli), len(run))
    expected = [[pow(v, -1, q) if math.gcd(v, q) == 1 else 0 for v in run] for q in moduli]
    assert got.tolist() == expected


@pytest.mark.parametrize("lo,hi", [(1, 20000), (1, 2), (2, 3), (7, 7), (99991, 100100),
                                   (HARD_SIEVE_CAP - 50, HARD_SIEVE_CAP + 1)])
def test_factor_window_matches_prime_divisors(lo, hi):
    window = factor_window(lo, hi)
    assert window.divisors(range(lo, hi)) == [arith._prime_divisors(q) for q in range(lo, hi)]
    # any sub-range of the window reads the same lists
    mid = (lo + hi) // 2
    assert window.divisors(range(mid, hi)) == [arith._prime_divisors(q) for q in range(mid, hi)]


def test_factor_window_charges_its_bytes_first(monkeypatch):
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(10 ** 5 * arith._FACTOR_BYTES - 1))

    def refused():
        with pytest.raises(CapacityError, match=r"factor window \[100000, 200000\) needs"):
            factor_window(10 ** 5, 2 * 10 ** 5)

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 5
    monkeypatch.delenv("KLOOSTERLAB_MAX_BYTES")
    _, peak = _traced_peak(lambda: factor_window(10 ** 5, 2 * 10 ** 5))
    assert peak <= 10 ** 5 * arith._FACTOR_BYTES


def test_factor_spans_cut_the_window_into_bounded_spans(monkeypatch):
    monkeypatch.setattr(arith, "_FACTOR_SPAN", 1000)
    spans = list(factor_spans(5, 3500))
    assert [(w.lo, w.hi) for w in spans] == [(5, 1005), (1005, 2005), (2005, 3005), (3005, 3500)]
    got = [d for w in spans for d in w.divisors(range(w.lo, w.hi))]
    assert got == [arith._prime_divisors(n) for n in range(5, 3500)]
    assert list(factor_spans(7, 7)) == []
    # a budget that holds one span runs a window three spans long
    monkeypatch.setattr(arith, "_FACTOR_SPAN", 2 ** 14)
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(2 ** 14 * arith._FACTOR_BYTES))
    assert sum(w.hi - w.lo for w in factor_spans(1, 3 * 2 ** 14 + 1)) == 3 * 2 ** 14
    with pytest.raises(CapacityError, match=r"factor window \[1, 49153\) needs"):
        factor_window(1, 3 * 2 ** 14 + 1)


def test_factor_window_refuses_numbers_from_2_31():
    assert factor_window(MODULUS_CAP - 3, MODULUS_CAP).divisors(range(MODULUS_CAP - 1, MODULUS_CAP)) == [
        arith._prime_divisors(MODULUS_CAP - 1)
    ]
    with pytest.raises(CapacityError, match=f"modulus {MODULUS_CAP} is not below {MODULUS_CAP}"):
        factor_window(MODULUS_CAP - 3, MODULUS_CAP + 1)


def test_batch_inverses_refuse_moduli_from_2_31():
    assert batch_inverses([3], MODULUS_CAP - 1).tolist() == [pow(3, -1, MODULUS_CAP - 1)]
    with pytest.raises(CapacityError):
        batch_inverses([3], MODULUS_CAP)
    with pytest.raises(CapacityError):
        unit_roots_at([1], MODULUS_CAP)


def _trial_division_primes(q):
    """Distinct primes of q by a plain loop over 2, 3, 4, ... up to sqrt of the rest."""
    primes, n, p = [], q, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


@pytest.mark.parametrize("qs", [
    range(1, 5000),
    # around one pass of arith._TRIAL_CHUNK, and 4099 = the first prime past it
    [2 ** 16 - 1, 2 ** 16 + 1, 2 ** 24 - 1, 2 ** 24 + 1, 4099 ** 2, 2 * 4099 * 4111],
    [2 ** 31 - 1, 2 ** 31 - 2],
])
def test_prime_divisors_match_trial_division_twin(qs):
    for q in qs:
        assert arith._prime_divisors(q) == _trial_division_primes(q), q


def test_prime_divisors_peak_stays_bounded():
    # the candidates go _TRIAL_CHUNK at a time, not sqrt(q) at once
    primes, peak = _traced_peak(lambda: arith._prime_divisors(2 ** 31 - 1))
    assert primes == [2 ** 31 - 1]
    assert peak < 128 * 1024


def test_length_q_tables_stay_within_memory_budget(monkeypatch):
    # an inverse table charges 22 bytes and a unit-root table 32 per residue
    monkeypatch.setenv(MEMORY_ENV_VAR, str(22 * 1000))
    assert len(inverse_table.__wrapped__(1000)) == 1000
    with pytest.raises(CapacityError):
        inverse_table.__wrapped__(1001)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(32 * 1000))
    assert len(unit_roots(1000)) == 1000
    with pytest.raises(CapacityError):
        unit_roots(1001)
    # gathered roots need no table
    assert len(unit_roots_at([1, 5, 7], 10 ** 6)) == 3


def test_inverse_table_contents():
    t = inverse_table(12)
    assert len(t) == 12
    for r in range(12):
        if math.gcd(r, 12) == 1:
            assert r * int(t[r]) % 12 == 1
        else:
            assert int(t[r]) == 0
    with pytest.raises(ValueError):
        t[5] = 3  # the cached table must be immutable


def test_is_squarefull_brute():
    # 1 counts; primes never do
    expected = {1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100}
    got = {n for n in range(1, 101) if is_squarefull(n)}
    assert got == expected


def test_largest_prime_factor_direct(prime_table):
    for n in range(2, 2001):
        assert largest_prime_factor(n) == max(p for p, _ in prime_table.factorize(n))
    for n in (2, 97, 1024, 3 * 5 * 7 * 11, 10 ** 9 + 7):
        direct = largest_prime_factor(n)
        assert is_prime_deterministic(direct)
        assert n % direct == 0


def twin_largest_prime_factor_table(limit):
    """Each prime writes itself over its multiples, the largest prime last."""
    g = np.zeros(limit + 1, dtype=np.int32)
    for p in sieve_primes(limit).primes:
        g[p::p] = p
    return g


@pytest.mark.parametrize("limit", [2, 3, 2 ** 17 - 1, 2 ** 17 + 1, 3 * 2 ** 16 + 5, 10 ** 6, 1025 ** 2])
def test_rough_window_matches_twin(limit):
    # windows ending at limit, 1025**2 across a block boundary from lo = 1;
    # 10**6 and 1025**2 are squares, so the bounds meet the root exactly
    largest = twin_largest_prime_factor_table(limit)
    root = math.isqrt(limit)
    for lo in (1, 2, max(limit // 3, 1), limit, limit + 1):
        for bound in (0, 1.9, 2, 10.5, root - 0.5, root, math.sqrt(limit), root + 0.5, 1e12):
            flags = rough_window(lo, limit + 1, bound)
            assert flags.dtype == bool and len(flags) == limit + 1 - lo
            assert np.array_equal(flags, largest[lo:] > bound), (lo, bound)


def test_rough_window_charges_its_flags_and_one_block_first(monkeypatch):
    with pytest.raises(CapacityError, match=f"rough window limit {HARD_SIEVE_CAP + 1} exceeds hard cap"):
        rough_window(HARD_SIEVE_CAP - 5, HARD_SIEVE_CAP + 2, 10)
    size = 3 * 10 ** 5
    need = size + size * arith._ROUGH_BYTES
    cofactors = mock.Mock(wraps=arith._cofactors)
    monkeypatch.setattr(arith, "_cofactors", cofactors)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(need - 1))
    with pytest.raises(CapacityError, match=rf"rough window \[{10 ** 6}, {10 ** 6 + size}\) needs about {need} bytes"):
        rough_window(10 ** 6, 10 ** 6 + size, 50)
    assert not cofactors.called
    monkeypatch.setenv(MEMORY_ENV_VAR, str(need))
    flags, peak = _traced_peak(lambda: rough_window(10 ** 6, 10 ** 6 + size, 50))
    assert cofactors.called and peak <= need
    assert np.array_equal(flags, rough_window(10 ** 6, 10 ** 6 + size, 50.5))


def test_is_prime_deterministic_vs_sieve(prime_table):
    for n in range(2, 2000):
        assert is_prime_deterministic(n) == prime_table.is_prime(n)
    # a couple of large known values
    assert is_prime_deterministic(2 ** 61 - 1)
    assert not is_prime_deterministic(2 ** 61 + 1)


def test_mobius_and_von_mangoldt(tables):
    def mobius_brute(n):
        out = 1
        for p, e in tables.prime_table.factorize(n):
            if e > 1:
                return 0
            out = -out
        return out

    for n in range(1, 1000):
        assert int(tables.mobius[n]) == mobius_brute(n)
        fact = tables.prime_table.factorize(n)
        if len(fact) == 1:
            p, _ = fact[0]
            assert tables.lam(n) == pytest.approx(math.log(p), abs=0)
            assert tables.prime_power(n) == (p, fact[0][1])
        else:
            assert tables.lam(n) == 0.0
            assert tables.prime_power(n) is None


def _per_prime_tables(table):
    """Twin of build_multiplicative_tables: one slice pass per prime."""
    limit = table.limit
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    vm_prime = np.zeros(limit + 1, dtype=np.int32 if limit < 2 ** 31 else np.int64)
    for p in table.primes.tolist():
        mobius[p::p] *= -1
        if p * p <= limit:
            mobius[p * p :: p * p] = 0
        pk = p
        while pk <= limit:
            vm_prime[pk] = p
            pk *= p
    return mobius, vm_prime


def _assert_tables_match_twin(limit):
    mt = build_multiplicative_tables(limit)
    mobius, vm_prime = _per_prime_tables(mt.prime_table)
    for got, want in ((mt.mobius, mobius), (mt.vm_prime, vm_prime)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_small_primes = [p for p in range(2, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@_PROPERTY
@given(p=st.sampled_from(_small_primes), offset=st.integers(-2, 2))
@example(p=2, offset=0)
@example(p=2, offset=-2)
def test_multiplicative_tables_match_twin_near_prime_squares(p, offset):
    # the slice loop covers the primes up to sqrt(limit); one more joins at p * p
    _assert_tables_match_twin(max(2, p * p + offset))


@_PROPERTY
@given(limit=st.integers(2, 20000))
def test_multiplicative_tables_match_twin(limit):
    _assert_tables_match_twin(limit)


def test_multiplicative_tables_match_twin_at_10_6():
    _assert_tables_match_twin(10 ** 6)


@pytest.mark.parametrize("limit", [2 ** 17 - 1, 2 ** 17 + 1, 3 * 2 ** 16 + 5])
def test_multiplicative_tables_match_twin_where_the_chunk_cap_binds(limit):
    # chunks [lo, 2 lo) up to lo = 2**16, then _TABLE_BLOCK long: the
    # first capped chunk, one entry past it, and a short last chunk
    _assert_tables_match_twin(limit)


def test_multiplicative_tables_peak_memory_is_what_the_capacity_check_charges():
    # _check_capacity charges 5 bytes per entry (int8 mobius, int32
    # vm_prime); the chunk work arrays add O(_TABLE_BLOCK) on top
    limit = 10 ** 6
    table = sieve_primes(limit)
    tracemalloc.start()
    try:
        build_multiplicative_tables(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (limit + 1) + 64 * arith._TABLE_BLOCK


def test_tau_k(tables):
    assert tables.tau_k(12, 2) == 6
    assert tables.tau_k(1, 5) == 1
    # tau_3(p^2) counts ordered triples with product p^2: (e1+e2+e3 = 2)
    assert tables.tau_k(49, 3) == 6


def test_memory_env_var(monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, "1000000")
    assert memory_budget() == 10 ** 6
    with pytest.raises(CapacityError):
        sieve_primes(10 ** 7)
    monkeypatch.setenv(MEMORY_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        memory_budget()


def test_tables_stay_within_memory_budget(monkeypatch):
    # 110000 bytes admit a sieve to 20000 at 5.5 bytes per entry, and not
    # one entry more
    monkeypatch.setenv(MEMORY_ENV_VAR, "110000")
    assert build_multiplicative_tables(20000).limit == 20000
    with pytest.raises(CapacityError, match="prime sieve to 20001 needs about 110005 bytes"):
        build_multiplicative_tables(20001)


def test_tables_over_the_budget_are_refused_before_the_sieve(monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, "110000")
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")), \
            pytest.raises(CapacityError, match="prime sieve to 30000 needs"):
        build_multiplicative_tables(30000)


#: The tables the window route is checked against.
_WINDOW_LIMIT = 30000
_WINDOW_TABLES = build_multiplicative_tables(_WINDOW_LIMIT)


def _edges():
    """p**2, p**3 and p*(p+2) for twin primes p, the window edges most
    likely to be off by one, below _WINDOW_LIMIT."""
    primes = _WINDOW_TABLES.prime_table.primes.tolist()
    twins = set(primes)
    out = [p ** j for p in primes for j in (2, 3) if p ** j < _WINDOW_LIMIT]
    return sorted(out + [p * (p + 2) for p in primes if p + 2 in twins and p * (p + 2) < _WINDOW_LIMIT])


_EDGES = _edges()


@st.composite
def _window_bounds(draw):
    """(lo, hi): starting at or below 2, empty or reversed, anywhere below
    _WINDOW_LIMIT, or with either edge on or next to a prime power or a
    product of twin primes."""
    near = st.builds(lambda e, d: e + d, st.sampled_from(_EDGES), st.integers(-1, 1))
    anywhere = st.integers(0, _WINDOW_LIMIT)
    lo = draw(st.one_of(st.integers(-3, 3), near, anywhere))
    hi = draw(st.one_of(st.integers(lo - 3, lo + 3), near, anywhere,
                        st.integers(lo, min(lo + 3000, _WINDOW_LIMIT))))
    return lo, min(hi, _WINDOW_LIMIT + 1)


def _table_window(lo, hi):
    """The window read off _WINDOW_TABLES: primes, and the n > p with
    vm_prime[n] = p > 0, with their p."""
    lo = max(lo, 2)
    pt, vm = _WINDOW_TABLES.prime_table, _WINDOW_TABLES.vm_prime
    ns = np.arange(lo, max(lo, hi))
    stamped = ns[vm[ns] > 0]
    powers = stamped[pt.spf[stamped] != stamped]
    return pt.primes_between(lo, max(lo, hi)), powers, vm[powers].astype(np.int64)


@_PROPERTY
@given(bounds=_window_bounds(), block=st.sampled_from([7, 64, 1000, 1 << 20]))
@example(bounds=(0, 3), block=7)
@example(bounds=(2, 3), block=7)
@example(bounds=(5, 5), block=7)
@example(bounds=(10, 4), block=7)
@example(bounds=(4, 5), block=7)
@example(bounds=(4, 10), block=1 << 20)
@example(bounds=(0, _WINDOW_LIMIT + 1), block=1000)
@example(bounds=(121, 169), block=7)
@example(bounds=(122, 170), block=7)
@example(bounds=(27, 28), block=7)
@example(bounds=(143, 144), block=64)
@example(bounds=(29929, 29930), block=64)
def test_prime_window_matches_the_tables(bounds, block):
    lo, hi = bounds
    primes, powers, bases = _table_window(lo, hi)
    with mock.patch.object(arith, "_WINDOW_BLOCK", block):
        sieved = arith.prime_window(lo, hi)
    for arr, want in zip((sieved.primes, *sieved.prime_powers), (primes, powers, bases)):
        assert arr.dtype == np.int64 and np.array_equal(arr, want)
    # Lambda's window: the primes and the prime powers are every n with
    # vm_prime[n] > 0, each with its p
    powers, bases = sieved.prime_powers
    merged = sorted(zip(sieved.primes.tolist() + powers.tolist(), sieved.primes.tolist() + bases.tolist()))
    vm = _WINDOW_TABLES.vm_prime[max(lo, 2) : max(lo, hi, 2)]
    assert [n for n, _ in merged] == (max(lo, 2) + np.flatnonzero(vm)).tolist()
    assert [p for _, p in merged] == vm[vm > 0].tolist()


def test_prime_window_crosses_blocks_against_the_sieve():
    # 2**20-flag blocks: [999000, 3100000) spans three boundaries
    lo, hi = 999000, 3100000
    got = arith.prime_window(lo, hi)
    assert np.array_equal(got.primes, sieve_primes(hi - 1).primes_between(lo, hi))
    assert got.prime_powers[0].tolist() == sorted(p ** j for p in _brute_primes(1761) for j in range(2, 22)
                                         if lo <= p ** j < hi)


def test_prime_window_sieves_a_window_a_table_covers():
    # one route: a window inside tables already built is sieved all the same
    for hi in (_WINDOW_LIMIT + 1, _WINDOW_LIMIT + 2):
        with mock.patch.object(arith, "_sieve_window", wraps=arith._sieve_window) as sieve:
            got = arith.prime_window(20000, hi)
        sieve.assert_called_once()
        assert not np.shares_memory(got.primes, _WINDOW_TABLES.prime_table.primes)
        assert np.array_equal(got.primes, _table_window(20000, _WINDOW_LIMIT + 1)[0])


def test_prime_window_charges_before_it_sieves(monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, "1000000")
    with mock.patch.object(arith, "_sieve_window") as sieve, \
            pytest.raises(CapacityError, match=r"prime window \[1000000, 2000000\) needs"):
        arith.prime_window(10 ** 6, 2 * 10 ** 6)
    sieve.assert_not_called()
    with pytest.raises(CapacityError, match="exceeds hard cap"):
        arith.prime_window(10 ** 9, 2 * 10 ** 9)


@pytest.mark.parametrize("lo, hi", [(2 * 10 ** 6, 4 * 10 ** 6), (10 ** 3, 2 * 10 ** 3), (0, 3 * 10 ** 6)])
def test_prime_window_peak_within_its_charge(monkeypatch, lo, hi):
    arith._small_primes(1 << 11)  # the base primes are cached apart
    charged = []
    monkeypatch.setattr(arith, "charge_budget", lambda need, subject, budget=None: charged.append(need))
    _, peak = _traced_peak(lambda: arith.prime_window(lo, hi))
    assert peak <= charged[0]


def test_prime_window_fills_one_result_array():
    # [5,000,000, 10,000,000) has 316,066 primes (2.5 MB): the sieve holds
    # them in one array sized by _prime_count_bound and cut in place, plus
    # one block's flags and primes, never the per-block parts beside their
    # concatenation
    arith._small_primes(1 << 12)
    window, peak = _traced_peak(lambda: arith.prime_window(5 * 10 ** 6, 10 ** 7))
    assert len(window.primes) == 316066 and window.primes.flags.owndata
    bound = arith._prime_count_bound(5 * 10 ** 6, 10 ** 7)
    assert len(window.primes) <= bound < 1.03 * len(window.primes)
    assert peak <= 8 * bound + arith._WINDOW_BLOCK + 8 * 70000 + 2 ** 16


def test_prime_count_bound_holds_on_every_window_against_the_sieve():
    # windows from one integer to the whole table, on and off the 599
    # where Dusart's lower bound starts, against the counts of a table
    primes = sieve_primes(2 * 10 ** 6).primes
    pi = lambda x: int(np.searchsorted(primes, x, side="right"))
    rng = np.random.default_rng(599)
    starts = list(range(2, 1300)) + rng.integers(2, 10 ** 6, 3000).tolist()
    for lo in starts:
        for hi in (lo + 1, lo + 2, lo + 30, lo + 1000, 2 * lo, 2 * lo + 1, lo + 10 ** 6):
            assert pi(hi - 1) - pi(lo - 1) <= arith._prime_count_bound(lo, hi), (lo, hi)


def test_prime_window_refuses_a_count_past_its_bound(monkeypatch):
    # the result array is never written past its end: a bound one short of
    # the count raises rather than sieving on
    monkeypatch.setattr(arith, "_prime_count_bound", lambda lo, hi: 167)
    with pytest.raises(ConsistencyError, match=r"\[2, 1000\) has more primes than its bound 167"):
        arith.prime_window(2, 1000)


def test_unit_roots_structure():
    for q in (1, 2, 3, 4, 5, 12, 97, 360):
        roots = unit_roots(q)
        assert roots[0] == 1.0 + 0.0j
        if q % 2 == 0:
            assert roots[q // 2] == -1.0 + 0.0j
        for k in range(1, (q - 1) // 2 + 1):
            # mirrored half must be the exact bitwise conjugate
            assert roots[q - k] == np.conj(roots[k])
        assert np.abs(np.abs(roots) - 1.0).max() < 1e-15


def _mirrored_unit_roots(q):
    """Twin of unit_roots: exp over the lower half, mirrored into the upper."""
    roots = np.empty(q, dtype=np.complex128)
    half = q // 2
    roots[: half + 1] = np.exp((2j * math.pi / q) * np.arange(half + 1))
    roots[0] = 1.0
    if q % 2 == 0:
        roots[half] = -1.0
    idx = np.arange(1, (q - 1) // 2 + 1)
    roots[q - idx] = np.conj(roots[idx])
    return roots


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 12, 97, 360, 1024, 20011])
def test_unit_roots_bitwise_equal_mirrored_twin(q):
    assert np.array_equal(unit_roots(q).view(np.int64), _mirrored_unit_roots(q).view(np.int64))


@_PROPERTY
@given(data=st.data(), q=st.one_of(st.integers(1, 3000), st.integers(1, 10 ** 6)))
def test_unit_roots_at_bitwise_equal_table(data, q):
    # short gathers take the direct exp path, long ones (over q/2) the half table
    idx = data.draw(st.lists(st.integers(0, q - 1), max_size=min(2 * q, 3000)))
    got = unit_roots_at(idx, q)
    assert got.dtype == np.complex128
    assert np.array_equal(got.view(np.int64), unit_roots(q)[idx].view(np.int64))


def test_fsum_complex_and_bound():
    vals = [1e16, 1.0, -1e16]
    assert fsum_complex(vals, [0.0, 0.0, 0.0]) == 1.0 + 0.0j
    b = accumulation_bound(100.0, 1 + 1j)
    assert b > 0
    assert accumulation_bound(200.0, 1 + 1j) > b


def test_pmap_order_and_worker_equivalence():
    items = list(range(37))
    serial = pmap(lambda v: v * v, items, workers=1)
    threaded = pmap(lambda v: v * v, items, workers=8)
    assert serial == threaded == [v * v for v in items]


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pmap_caps_threads_at_items_and_cores(monkeypatch):
    import concurrent.futures

    from kloosterlab import parallel

    # pmap imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(parallel, "_cores", lambda: 4)
    assert parallel.pmap(lambda v: -v, range(3), workers=100000) == [0, -1, -2]
    assert parallel.pmap(lambda v: -v, range(50), workers=100000) == [-v for v in range(50)]
    assert parallel.pmap(lambda v: -v, range(50), workers=2) == [-v for v in range(50)]
    # one item, one worker or one core: no pool at all
    parallel.pmap(abs, [1], workers=100000)
    parallel.pmap(abs, range(9), workers=1)
    monkeypatch.setattr(parallel, "_cores", lambda: 1)
    parallel.pmap(abs, range(9), workers=8)
    assert _RecordingPool.sizes == [3, 4, 2]


def test_pmap_cores_are_the_affinity_set():
    from kloosterlab import parallel

    if hasattr(os, "sched_getaffinity"):
        assert parallel._cores() == len(os.sched_getaffinity(0))
    assert parallel._cores() >= 1


def test_make_report_validation():
    rep = make_report("demo", {"Q": 4}, 3.0, {"t": 6.0}, trivial_bound=9.0)
    assert rep.ratio == pytest.approx(0.5)
    assert rep.rhs_total == 6.0
    with pytest.raises(ValueError):
        make_report("demo", {}, -1.0, {"t": 1.0})
    with pytest.raises(ValueError):
        make_report("demo", {}, 1.0, {"t": 0.0})


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_mallopt = pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")

# Runs one call twice in a fresh process and prints the minor page faults
# of the second call.
_SECOND_CALL_FAULTS = """
import resource, sys
from kloosterlab.experiments import fixed_a_avg_report
from kloosterlab.vaughan import VaughanParams, compare_decomposition
call = {
    "fixed-a-avg": lambda: fixed_a_avg_report(1, 4096, 4096),
    "vaughan-check": lambda: compare_decomposition(VaughanParams(x=1e6, U=100), 1, 7),
}[sys.argv[1]]
call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _child(script: str, *args: str, **env: str) -> str:
    """stdout of script run in a fresh interpreter that imports this package,
    with no malloc setting of the caller's environment and env added."""
    base = {k: v for k, v in os.environ.items()
            if k not in arith._MALLOC_ENV and k != "GLIBC_TUNABLES"}
    src = os.path.dirname(os.path.dirname(arith.__file__))
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env={**base, **env},
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout


@needs_mallopt
@pytest.mark.parametrize("call", ["fixed-a-avg", "vaughan-check"])
def test_pinned_thresholds_keep_a_second_call_from_faulting(call):
    # measured 3 and 1 faults; 21,890 and 28,683 without the pinned thresholds
    assert int(_child(_SECOND_CALL_FAULTS, call)) < 200


@needs_mallopt
@pytest.mark.parametrize("env", [{"MALLOC_TRIM_THRESHOLD_": "131072"},
                                 {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}],
                         ids=["env", "tunables"])
@pytest.mark.parametrize("call", ["fixed-a-avg", "vaughan-check"])
def test_a_malloc_setting_of_the_environment_is_left_alone(call, env):
    # the user's trim threshold disables glibc's dynamic mmap threshold, so
    # the work arrays are mapped afresh by every call (measured 41,347 and
    # 138,913 faults)
    assert int(_child(_SECOND_CALL_FAULTS, call, **env)) > 5000


@pytest.mark.parametrize("env, pinned", [
    ({}, True),
    ({"MALLOC_ARENA_MAX": "2"}, True),
    ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=2"}, True),
    ({"MALLOC_MMAP_THRESHOLD_": "131072"}, False),
    ({"MALLOC_TRIM_THRESHOLD_": "131072"}, False),
    ({"MALLOC_TOP_PAD_": "0"}, False),
    ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=2:glibc.malloc.mmap_threshold=131072"}, False),
    ({"GLIBC_TUNABLES": "glibc.malloc.top_pad=0"}, False),
])
def test_pin_malloc_thresholds_skips_a_set_parameter(monkeypatch, env, pinned):
    for name in (*arith._MALLOC_ENV, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert arith.pin_malloc_thresholds() is (pinned and _has_mallopt())


@pytest.mark.parametrize("lookup", ["raise OSError('no libc')", "return object()"],
                         ids=["no-library", "no-mallopt"])
def test_import_survives_a_failed_mallopt_lookup(lookup):
    script = f"""
import ctypes
def cdll(name):
    {lookup}
ctypes.CDLL = cdll
from kloosterlab import arith, expsums
print(arith.pin_malloc_thresholds(), expsums.max_prime_sum(101, 1000)[0])
"""
    assert _child(script).split()[0] == "False"
