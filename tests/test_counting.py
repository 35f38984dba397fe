"""Counting routes against pure-Python enumeration, plus the integer invariant."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import counting
from kloosterlab.cli import main as cli_main
from kloosterlab.counting import (
    classify_tuple,
    count_congruence_solutions,
    count_squarefull,
    count_unit_fraction_solutions,
    cross_check_congruence,
    cross_check_unit_fractions,
    sum_congruence_counts,
)
from kloosterlab.arith import is_squarefull
from kloosterlab.errors import CapacityError, ConsistencyError


def brute_unit_fractions(k, N):
    count = 0
    for tup in product(range(1, N + 1), repeat=2 * k):
        if sum(Fraction(1, m) for m in tup[:k]) == sum(Fraction(1, m) for m in tup[k:]):
            count += 1
    return count


def brute_congruence(k, M, q):
    units = [m for m in range(1, M + 1) if math.gcd(m, q) == 1]
    inv = {m: pow(m, -1, q) for m in units}
    count = 0
    for tup in product(units, repeat=2 * k):
        if sum(inv[m] for m in tup[:k]) % q == sum(inv[m] for m in tup[k:]) % q:
            count += 1
    return count


def _cyclic_convolve(u, v, q):
    """Exact cyclic convolution of int64 histograms: np.convolve, then fold mod q."""
    full = np.convolve(u, v)
    out = full[:q].copy()
    out[: len(full) - q] += full[q:]
    return out


def twin_congruence(k, M, q):
    """The congruence count from a per-m pow() histogram folded by np.convolve."""
    hist = np.zeros(q, dtype=np.int64)
    for m in range(1, M + 1):
        if math.gcd(m, q) == 1:
            hist[pow(m, -1, q)] += 1
    folded = hist
    for _ in range(k - 1):
        folded = _cyclic_convolve(folded, hist, q)
    return int(np.dot(folded, folded))


def test_unit_fraction_known_values():
    # N = 2, k = 2: sums 2, 3/2, 3/2, 1 give 1 + 4 + 1 matching pairs
    assert count_unit_fraction_solutions(2, 2).count == 6
    assert count_unit_fraction_solutions(1, 5).count == 5
    assert count_unit_fraction_solutions(2, 0).count == 0


@pytest.mark.parametrize("k,N", [(1, 4), (1, 9), (2, 3), (2, 5), (3, 3)])
def test_unit_fraction_methods_vs_brute(k, N):
    want = brute_unit_fractions(k, N)
    assert count_unit_fraction_solutions(k, N, "convolution").count == want
    if N ** (2 * k) <= 4 * 10 ** 6:
        assert count_unit_fraction_solutions(k, N, "naive").count == want


def test_unit_fraction_validation():
    with pytest.raises(ValueError):
        count_unit_fraction_solutions(4, 5)
    with pytest.raises(ValueError):
        count_unit_fraction_solutions(2, 5, method="fast")
    with pytest.raises(CapacityError):
        count_unit_fraction_solutions(3, 10 ** 4, "naive")


def test_congruence_known_values():
    # q = 3, M = 2: inverses 1 -> 1, 2 -> 2; only the diagonal pairs match
    assert count_congruence_solutions(1, 2, 3).count == 2
    # q = 2, M = 2: the single unit m = 1
    assert count_congruence_solutions(1, 2, 2).count == 1


@pytest.mark.parametrize("k,M,q", [
    (1, 4, 5), (1, 6, 6), (2, 4, 7), (2, 5, 12), (2, 6, 9), (3, 3, 10),
])
def test_congruence_methods_vs_brute(k, M, q):
    want = brute_congruence(k, M, q)
    assert count_congruence_solutions(k, M, q, "convolution").count == want
    assert count_congruence_solutions(k, M, q, "naive").count == want


def test_congruence_all_units_missing():
    # modulus 6 with M = 1: only m = 1; modulus 2 with M = 1 likewise
    assert count_congruence_solutions(2, 1, 6).count == 1
    # every m in [1, 2] shares a factor with 2 except 1
    assert count_congruence_solutions(1, 1, 2).count == 1


def test_cross_checks():
    assert cross_check_unit_fractions(2, 6) == brute_unit_fractions(2, 6)
    assert cross_check_congruence(2, 5, 9) == brute_congruence(2, 5, 9)


def test_squarefull_counts(prime_table):
    assert count_squarefull(0) == 0
    assert count_squarefull(1) == 1
    assert count_squarefull(100) == 14
    for x in (1, 10, 50, 200, 1000, 5000):
        brute = sum(1 for n in range(1, x + 1) if is_squarefull(n))
        assert count_squarefull(x) == brute


def test_classify_tuple_identity_vs_congruence():
    # 1/2 + 1/6 = 1/3 + 1/3 is an exact identity
    assert classify_tuple([2, 6, 3, 3]) == 0
    # permuted halves stay an identity
    assert classify_tuple([3, 2, 2, 3]) == 0
    # 1/2 + 1/3 vs 1/6 + 1/1 is not
    assert classify_tuple([2, 3, 6, 1]) != 0


def test_classify_tuple_divisibility_characterizes_congruence():
    # for units mod q, the congruence holds exactly when q divides F
    for q in (5, 7, 9):
        units = [m for m in range(1, 7) if math.gcd(m, q) == 1]
        inv = {m: pow(m, -1, q) for m in units}
        for tup in product(units, repeat=4):
            holds = (inv[tup[0]] + inv[tup[1]]) % q == (inv[tup[2]] + inv[tup[3]]) % q
            F = classify_tuple(tup)
            assert holds == (F % q == 0), (q, tup, F)


def test_classify_tuple_validation():
    with pytest.raises(ValueError):
        classify_tuple([2, 3, 4])
    with pytest.raises(ValueError):
        classify_tuple([])
    with pytest.raises(ValueError):
        classify_tuple([2, 0])


def test_sum_congruence_counts_matches_single_moduli():
    rep = sum_congruence_counts(2, 8, 16)
    total = sum(count_congruence_solutions(2, 8, q).count for q in range(16, 32))
    assert rep.extra["total"] == total
    assert rep.lhs == float(total)
    assert set(rep.rhs_terms) == {"Q*M^k", "M^(2k)"}
    assert rep.rhs_terms["Q*M^k"] == 16 * 8 ** 2
    assert rep.rhs_terms["M^(2k)"] == 8 ** 4


def test_sum_congruence_counts_worker_determinism():
    one = sum_congruence_counts(2, 6, 16, workers=1)
    many = sum_congruence_counts(2, 6, 16, workers=8)
    assert one.extra["total"] == many.extra["total"]


#: Largest M per k with M**(2k) < 2**62, the dense route's cap on n <= M.
_DENSE_M = {1: 2 ** 31 - 1, 2: 46340, 3: 1290, 4: 215}

#: The naive route is compared where its n**k sums fit this test budget
#: (its own cap, 2e7 sums, takes seconds per example).
_NAIVE_TEST_SUMS = 10 ** 6


@st.composite
def _congruence_cases(draw):
    k = draw(st.integers(1, 4))
    q = draw(st.integers(2, 3000))
    M = draw(st.integers(1, min(4 * q, _DENSE_M[k])))
    return k, M, q


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_congruence_cases())
def test_congruence_routes_agree(case):
    k, M, q = case
    want = twin_congruence(k, M, q)
    assert count_congruence_solutions(k, M, q).count == want
    n = sum(1 for m in range(1, M + 1) if math.gcd(m, q) == 1)
    if n ** k <= _NAIVE_TEST_SUMS:
        assert count_congruence_solutions(k, M, q, "naive").count == want


@pytest.mark.parametrize("k,M,q", [(2, 92678, 2), (4, 428, 2), (2, 46339, 65537)])
def test_congruence_cap_extremes_match_twin(monkeypatch, k, M, q):
    # n**(2k) just below 2**62: the largest entries the dense route accepts
    bounds = []
    bound = counting._convolve_error_bound

    def recorded(u, v):
        bounds.append(bound(u, v))
        return bounds[-1]

    monkeypatch.setattr(counting, "_convolve_error_bound", recorded)
    assert count_congruence_solutions(k, M, q).count == twin_congruence(k, M, q)
    assert len(bounds) == k - 1
    assert max(bounds) < 0.5


def test_congruence_consistency_check_fires_with_zero_bound(monkeypatch):
    # q = 1031 leaves a nonzero rounding residue on its fold
    monkeypatch.setattr(counting, "_convolve_error_bound", lambda u, v: 0.0)
    with pytest.raises(ConsistencyError, match="off an integer"):
        count_congruence_solutions(2, 200, 1031)


def test_congruence_refuses_a_bound_of_one_half(monkeypatch):
    monkeypatch.setattr(counting, "_convolve_error_bound", lambda u, v: 0.5)
    with pytest.raises(ConsistencyError, match="not below 1/2"):
        count_congruence_solutions(2, 8, 13)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_congruence_histogram_from_one_period():
    # 3,000,000 // 7 whole periods plus a prefix of 3,000,000 % 7 = 5 values
    result, peak = _traced_peak(lambda: count_congruence_solutions(1, 3_000_000, 7))
    assert result.count == 1102041183675
    assert peak < 10 ** 6


def test_jcount_period_histogram_under_a_small_budget(capsys, monkeypatch):
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", "200000")
    code, peak = _traced_peak(
        lambda: cli_main(["jcount", "1", "3000000", "7", "--format", "csv"]))
    assert code == 0
    assert capsys.readouterr().out == "k,M,q,method,count\n1,3000000,7,convolution,1102041183675\n"
    assert peak < 10 ** 6


@pytest.mark.parametrize("method", ["naive", "convolution"])
def test_congruence_caps_refuse_before_any_length_m_array(method):
    def refused():
        with pytest.raises(CapacityError):
            count_congruence_solutions(2, 10 ** 12, 7, method)

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 6


@pytest.mark.parametrize("M,q", [(1, 2), (30, 30), (31, 30), (1000, 210), (97, 2 * 3 * 5 * 7 * 11)])
def test_unit_count_by_inclusion_exclusion(M, q):
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    want = sum(1 for m in range(1, M + 1) if math.gcd(m, q) == 1)
    assert counting._unit_count(M, primes) == want
