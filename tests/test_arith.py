"""Sieves, inverses, multiplicative tables, and the accumulation helpers."""

import math

import numpy as np
import pytest

from kloosterlab import arith
from kloosterlab.accumulate import accumulation_bound, fsum_complex, unit_roots
from kloosterlab.arith import (
    MEMORY_ENV_VAR,
    batch_inverses,
    build_multiplicative_tables,
    inverse_table,
    is_prime_deterministic,
    is_squarefull,
    largest_prime_factor,
    largest_prime_factor_table,
    memory_budget,
    mod_inverse,
    shared_tables,
    sieve_primes,
)
from kloosterlab.errors import (
    CapacityError,
    CoverageError,
    NotInvertibleError,
)
from kloosterlab.parallel import pmap
from kloosterlab.reports import make_report


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
    assert prime_table.count_dyadic(10) == 4


def test_coverage_errors(prime_table):
    with pytest.raises(CoverageError):
        prime_table.pi(10 ** 9)
    with pytest.raises(CoverageError):
        prime_table.factorize(prime_table.limit + 1)


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
    for v, inv in zip(values, got):
        if math.gcd(v, q) == 1:
            assert inv == pow(v, -1, q)
        else:
            assert inv is None


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


def test_largest_prime_factor_table_and_direct(prime_table):
    g = largest_prime_factor_table(2000)
    for n in range(2, 2001):
        assert int(g[n]) == max(p for p, _ in prime_table.factorize(n))
    for n in (2, 97, 1024, 3 * 5 * 7 * 11, 10 ** 9 + 7):
        direct = largest_prime_factor(n)
        assert is_prime_deterministic(direct)
        assert n % direct == 0


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


def test_shared_table_growth_stays_within_memory_budget(monkeypatch):
    # 110000 bytes admit a sieve to 20000 at 5.5 bytes per entry, well under
    # the 1 << 16 floor that a fresh table would otherwise grow to
    monkeypatch.setenv(MEMORY_ENV_VAR, "110000")
    monkeypatch.setattr(arith, "_shared_mult", None)
    assert shared_tables(100).limit == 20000
    assert shared_tables(20000).limit == 20000


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


def test_make_report_validation():
    rep = make_report("demo", {"Q": 4}, 3.0, {"t": 6.0}, trivial_bound=9.0)
    assert rep.ratio == pytest.approx(0.5)
    assert rep.rhs_total == 6.0
    with pytest.raises(ValueError):
        make_report("demo", {}, -1.0, {"t": 1.0})
    with pytest.raises(ValueError):
        make_report("demo", {}, 1.0, {"t": 0.0})
