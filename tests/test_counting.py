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
    sum_congruence_counts,
)
from kloosterlab.arith import _prime_divisors, is_squarefull
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


def _ordered_sums(k, N):
    """All k-fold sums of unit fractions with parts in [1, N], in tuple order."""
    sums = [Fraction(0)]
    for _ in range(k):
        sums = [s + Fraction(1, n) for s in sums for n in range(1, N + 1)]
    return sums


def twin_unit_fractions(k, N):
    """The unit-fraction count by comparing every pair of ordered k-fold sums."""
    sums = _ordered_sums(k, N)
    return sum(1 for s in sums for t in sums if s == t)


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


def congruence_routes(k, M, q):
    """Each private congruence route, as a thunk on (k, M, q), by name."""
    primes = _prime_divisors(q)
    n = counting._unit_count(M, primes)
    return {
        "enumerate": lambda: counting._enumerated_count(k, M, q, n),
        "fold": lambda: counting._folded_count(k, M, q, primes, n),
    }


def test_unit_fraction_known_values():
    # N = 2, k = 2: sums 2, 3/2, 3/2, 1 give 1 + 4 + 1 matching pairs
    assert count_unit_fraction_solutions(2, 2) == 6
    assert count_unit_fraction_solutions(1, 5) == 5
    assert count_unit_fraction_solutions(2, 0) == 0


@pytest.mark.parametrize("k,N", [(1, 4), (1, 9), (2, 3), (2, 5), (3, 3)])
def test_unit_fraction_methods_vs_brute(k, N):
    want = brute_unit_fractions(k, N)
    assert count_unit_fraction_solutions(k, N) == want
    assert twin_unit_fractions(k, N) == want


def test_unit_fraction_validation():
    with pytest.raises(ValueError):
        count_unit_fraction_solutions(4, 5)
    with pytest.raises(CapacityError):
        count_unit_fraction_solutions(3, 10 ** 4)


def test_congruence_known_values():
    # q = 3, M = 2: inverses 1 -> 1, 2 -> 2; only the diagonal pairs match
    assert count_congruence_solutions(1, 2, 3) == 2
    # q = 2, M = 2: the single unit m = 1
    assert count_congruence_solutions(1, 2, 2) == 1


@pytest.mark.parametrize("k,M,q", [
    (1, 4, 5), (1, 6, 6), (2, 4, 7), (2, 5, 12), (2, 6, 9), (3, 3, 10),
])
def test_congruence_methods_vs_brute(k, M, q):
    want = brute_congruence(k, M, q)
    assert count_congruence_solutions(k, M, q) == want
    for run in congruence_routes(k, M, q).values():
        assert run() == want


def test_congruence_all_units_missing():
    # modulus 6 with M = 1: only m = 1; modulus 2 with M = 1 likewise
    assert count_congruence_solutions(2, 1, 6) == 1
    # every m in [1, 2] shares a factor with 2 except 1
    assert count_congruence_solutions(1, 1, 2) == 1


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
    total = sum(count_congruence_solutions(2, 8, q) for q in range(16, 32))
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

#: The enumeration route is compared where its n**k sums fit this test
#: budget (its own cap, 2e7 sums, takes seconds per example).
_ENUM_TEST_SUMS = 10 ** 6


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
    assert count_congruence_solutions(k, M, q) == want
    routes = congruence_routes(k, M, q)
    assert routes["fold"]() == want
    n = sum(1 for m in range(1, M + 1) if math.gcd(m, q) == 1)
    if n ** k <= _ENUM_TEST_SUMS:
        assert routes["enumerate"]() == want


@pytest.mark.parametrize("k,M,q", [(2, 92678, 2), (4, 428, 2), (2, 46339, 65537)])
def test_congruence_cap_extremes_match_twin(monkeypatch, k, M, q):
    # n**(2k) just below 2**62: the largest entries the dense route accepts
    bounds = []
    bound = counting._convolve_error_bound

    def recorded(u, v):
        bounds.append(bound(u, v))
        return bounds[-1]

    monkeypatch.setattr(counting, "_convolve_error_bound", recorded)
    assert congruence_routes(k, M, q)["fold"]() == twin_congruence(k, M, q)
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
    assert result == 1102041183675
    assert peak < 10 ** 6


def test_jcount_period_histogram_under_a_small_budget(capsys, monkeypatch):
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", "200000")
    code, peak = _traced_peak(
        lambda: cli_main(["jcount", "1", "3000000", "7", "--format", "csv"]))
    assert code == 0
    assert capsys.readouterr().out == "k,M,q,count\n1,3000000,7,1102041183675\n"
    assert peak < 10 ** 6


@pytest.mark.parametrize("route", ["enumerate", "fold"])
def test_congruence_caps_refuse_before_any_length_m_array(route):
    def refused():
        with pytest.raises(CapacityError):
            congruence_routes(2, 10 ** 12, 7)[route]()

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 6


@pytest.mark.parametrize("M,q", [(1, 2), (30, 30), (31, 30), (1000, 210), (97, 2 * 3 * 5 * 7 * 11)])
def test_unit_count_by_inclusion_exclusion(M, q):
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    want = sum(1 for m in range(1, M + 1) if math.gcd(m, q) == 1)
    assert counting._unit_count(M, primes) == want


def _near_balance(draw, k, q):
    """An M whose unit count n has n**k within a few steps of q."""
    phi = sum(1 for m in range(1, q + 1) if math.gcd(m, q) == 1)
    centre = round(q ** (1 / k) * q / phi)
    return draw(st.integers(max(1, centre - 3 * q // phi), centre + 3 * q // phi))


@st.composite
def _balanced_cases(draw):
    """k and q <= 3000, some sharing primes with many m <= M, and an M on
    either side of n**k = q."""
    k = draw(st.integers(1, 4))
    q = draw(st.one_of(st.integers(2, 3000), st.sampled_from([30, 210, 2310, 64, 729, 2048])))
    return k, _near_balance(draw, k, q), q


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_balanced_cases())
def test_congruence_routes_either_side_of_the_rule(case):
    k, M, q = case
    want = twin_congruence(k, M, q)
    assert count_congruence_solutions(k, M, q) == want
    for run in congruence_routes(k, M, q).values():
        assert run() == want


@st.composite
def _large_prime_cases(draw):
    k = draw(st.integers(1, 4))
    q = draw(st.sampled_from([999999937, 10 ** 9 + 7, 10 ** 9 + 9, 2 ** 31 - 1]))
    return k, draw(st.integers(1, {1: 2000, 2: 12, 3: 5, 4: 3}[k])), q


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_large_prime_cases())
def test_congruence_enumeration_at_primes_near_1e9(case):
    # a length-q histogram would take gigabytes, so only enumeration runs
    k, M, q = case
    want = brute_congruence(k, M, q)
    assert count_congruence_solutions(k, M, q) == want
    assert congruence_routes(k, M, q)["enumerate"]() == want


@pytest.mark.parametrize("k,M,q,route", [
    (1, 3, 2, "enumerate"), (1, 5, 2, "fold"),           # n = 2 and 3 against q = 2
    (2, 16, 64, "enumerate"), (2, 17, 64, "fold"),       # n = 8 and 9 against q = 64
    (3, 6, 125, "enumerate"), (3, 7, 125, "fold"),       # n = 5 and 6 against q = 125
])
def test_congruence_route_rule_at_n_pow_k_equal_q(monkeypatch, k, M, q, route):
    taken = []
    for name, attr in (("enumerate", "_enumerated_count"), ("fold", "_folded_count")):
        real = getattr(counting, attr)
        monkeypatch.setattr(counting, attr,
                            lambda *a, name=name, real=real: taken.append(name) or real(*a))
    assert count_congruence_solutions(k, M, q) == brute_congruence(k, M, q)
    assert taken == [route]


def test_enumeration_charges_its_bytes_before_allocating(monkeypatch):
    # n = 3000 units mod a prime near 1e9 give 9e6 sums, far over 10**6 bytes
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(10 ** 6))

    def refused():
        with pytest.raises(CapacityError, match="enumeration of 9000000 sums"):
            count_congruence_solutions(2, 3000, 10 ** 9 + 7)

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 6


@pytest.mark.parametrize("k,M,q", [(1, 200_000, 10 ** 9 + 7), (2, 1000, 10 ** 9 + 7),
                                   (3, 100, 2 ** 31 - 1), (1, 100_000, 223092870)])
def test_enumeration_peak_is_within_its_charge(k, M, q):
    primes = _prime_divisors(q)
    n = counting._unit_count(M, primes)
    _, peak = _traced_peak(lambda: counting._enumerated_count(k, M, q, n))
    assert peak <= (n ** k + min(M, q)) * counting._ENUM_BYTES


def test_jcount_beyond_any_histogram_matches_brute(capsys):
    # a length-q histogram mod 10**9 + 7 would take about 64 GB
    assert cli_main(["jcount", "2", "10", "1000000007", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "k,M,q,count\n2,10,1000000007,198\n"
    assert brute_congruence(2, 10, 10 ** 9 + 7) == 198
