"""Counting routes against pure-Python enumeration, plus the integer invariant."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from kloosterlab.arith import _prime_divisors, factor_window, is_squarefull
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


def twin_folded_count(k, M, q):
    """The per-modulus fold that the block fold replaced: one histogram,
    folded k - 1 times by 1-D rfft/irfft at a 5-smooth length >= 2q - 1,
    wrapped mod q and rounded, then the sum of its squared entries."""
    hist = counting._inverse_histogram(M, q, _prime_divisors(q))
    size = counting._smooth_length(2 * q - 1)
    spectrum = np.fft.rfft(hist, size)
    folded = hist
    for _ in range(k - 1):
        product = spectrum * spectrum if folded is hist else np.fft.rfft(folded, size) * spectrum
        linear = np.fft.irfft(product, size)
        raw = linear[:q]
        raw[: q - 1] += linear[q : 2 * q - 1]
        assert np.abs(raw - np.rint(raw)).max() < 0.01
        folded = np.rint(raw).astype(np.int64)
    return int(np.dot(folded, folded))


def twin_smooth_length(m):
    """The least 5-smooth n >= m, by searching the powers of 3 and 5."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((m - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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


def test_unit_fraction_states_are_charged_before_bucketing(monkeypatch):
    # k = 2, N = 100: 10**4 states at 96 bytes each
    want = count_unit_fraction_solutions(2, 100)
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(10 ** 4 * 96))
    assert count_unit_fraction_solutions(2, 100) == want
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(10 ** 4 * 96 - 1))

    def refused():
        with pytest.raises(CapacityError, match="10000 partial sums need"):
            count_unit_fraction_solutions(2, 100)

    _, peak = _traced_peak(refused)
    assert peak < 10 ** 5


@pytest.mark.parametrize("k,N", [(1, 11000), (2, 100), (3, 20)])
def test_unit_fraction_peak_within_its_charge(k, N):
    _, peak = _traced_peak(lambda: count_unit_fraction_solutions(k, N))
    assert peak <= N ** k * counting._FRACTION_BYTES[k - 1]


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
    assert twin_folded_count(k, M, q) == want
    n = sum(1 for m in range(1, M + 1) if math.gcd(m, q) == 1)
    if n ** k <= _ENUM_TEST_SUMS:
        assert routes["enumerate"]() == want


@pytest.mark.parametrize("k,M,q", [(2, 92678, 2), (4, 428, 2), (2, 46339, 65537)])
def test_congruence_cap_extremes_match_twin(monkeypatch, k, M, q):
    # n**(2k) just below 2**62: the largest entries the dense route accepts
    bounds = []
    bound = counting._convolve_error_bound

    def recorded(u, v, n):
        bounds.append(bound(u, v, n))
        return bounds[-1]

    monkeypatch.setattr(counting, "_convolve_error_bound", recorded)
    assert congruence_routes(k, M, q)["fold"]() == twin_congruence(k, M, q)
    assert len(bounds) == k - 1
    assert max(bounds) < 0.5


def test_congruence_consistency_check_fires_with_zero_bound(monkeypatch):
    # q = 1031 leaves a nonzero rounding residue on its fold
    monkeypatch.setattr(counting, "_convolve_error_bound", lambda u, v, n: 0.0)
    with pytest.raises(ConsistencyError, match="off an integer"):
        count_congruence_solutions(2, 200, 1031)


def test_congruence_refuses_a_bound_of_one_half(monkeypatch):
    monkeypatch.setattr(counting, "_convolve_error_bound", lambda u, v, n: 0.5)
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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    lo=st.one_of(st.integers(2, 10 ** 6), st.sampled_from([510510 - 3, 9699690 - 3, 2 ** 20])),
    size=st.integers(0, 40),
    M=st.one_of(st.integers(1, 3000), st.integers(1, 2 ** 63 - 1), st.integers(2 ** 63, 10 ** 30)),
)
def test_unit_counts_of_a_span_equal_each_count(lo, size, M):
    # the one array step per span of sum_congruence_counts, M past int64 included
    got = counting._unit_counts(M, factor_window(lo, lo + size))
    assert got == [counting._unit_count(M, _prime_divisors(n)) for n in range(lo, lo + size)]
    assert all(type(n) is int for n in got)


@pytest.mark.parametrize("M", [256, 2 ** 64])
def test_unit_counts_peak_within_their_charge(monkeypatch, M):
    # each group of n with w primes is charged _UNIT_BYTES per cell before
    # it is built; the largest group bounds the peak
    factors = factor_window(2 ** 19, 2 ** 19 + 2 ** 14)
    lengths = np.diff(factors.bounds)
    cells = max(int(np.count_nonzero(lengths == w)) << w for w in set(lengths.tolist()))
    charge = counting._UNIT_BYTES[M >= 2 ** 63] * cells
    _, peak = _traced_peak(lambda: counting._unit_counts(M, factors))
    assert peak <= charge
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(charge - 1))
    with pytest.raises(CapacityError, match="unit counts of"):
        counting._unit_counts(M, factors)


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


#: Moduli of every kind for the block tests: primes, prime powers, even
#: and highly composite numbers.
_MODULUS_KINDS = [2, 3, 4, 6, 7, 8, 9, 12, 30, 64, 97, 128, 210, 243, 360, 720, 729,
                  997, 1009, 1024, 2048, 2310, 2520]


@st.composite
def _congruence_blocks(draw):
    """k, an M below the least modulus or up to past the largest, and an
    ascending block of moduli, many with both routes in one block."""
    k = draw(st.integers(1, 4))
    kinds = st.one_of(st.sampled_from(_MODULUS_KINDS), st.integers(2, 2600))
    qs = sorted(set(draw(st.lists(kinds, min_size=1, max_size=12))))
    M = draw(st.one_of(st.integers(1, qs[0]), st.integers(1, 3 * qs[-1])))
    return k, min(M, _DENSE_M[k]), qs


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_congruence_blocks())
@example((2, 40, [30, 64, 1009, 2048, 2310]))  # 30 and 1009 fold, 2048 and 2310 enumerate
@example((1, 5000, [2, 7, 2048, 2310]))        # whole periods of every modulus
@example((4, 215, [2, 3, 1024, 2520]))         # bucket sizes near the dense cap
def test_congruence_block_equals_each_count(case):
    k, M, qs = case
    divisors = [_prime_divisors(q) for q in qs]
    ns = [counting._unit_count(M, primes) for primes in divisors]
    got = counting._congruence_block(k, M, qs, divisors, ns)
    assert got == [count_congruence_solutions(k, M, q) for q in qs]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(2, 300), st.integers(1, 400), st.sampled_from([1 << 17, 4096, 1]))
def test_sum_congruence_counts_equals_the_sum_of_counts(k, Q, M, cells):
    M = min(M, _DENSE_M[k])
    # small cell caps cut the sweep into many blocks, down to one modulus each
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_FOLD_CELLS", cells)
        total = sum_congruence_counts(k, M, Q).extra["total"]
    assert total == sum(count_congruence_solutions(k, M, q) for q in range(Q, 2 * Q))


def test_sum_congruence_counts_rejects_bad_arguments():
    with pytest.raises(ValueError, match="need Q >= 2"):
        sum_congruence_counts(2, 8, 1)
    with pytest.raises(ValueError, match="need 1 <= k <= 4"):
        sum_congruence_counts(5, 8, 16)
    with pytest.raises(ValueError, match="need M >= 1"):
        sum_congruence_counts(2, 0, 16)
    with pytest.raises(CapacityError, match="modulus 2147483649 is not below"):
        sum_congruence_counts(2, 8, 2 ** 30 + 1)


def test_a_broken_fold_bound_names_its_modulus(monkeypatch):
    k, M, Q = 2, 60, 64
    # every q in [64, 128) folds, in one block at length 256
    size = counting._smooth_length(2 * (2 * Q - 1) - 1)
    assert counting._fold_blocks(Q, 2 * Q) == [range(Q, 2 * Q)] and size == 256
    monkeypatch.setattr(counting, "_CONVOLVE_ERROR_C", 1e20)
    with pytest.raises(ConsistencyError, match=r"fold error bound \S+ mod 64 is not below 1/2"):
        sum_congruence_counts(k, M, Q)
    # a constant that breaks only the bounds of the larger histograms: the
    # first of their moduli is named, wherever it sits in the block
    norms = {}
    for q in range(Q, 2 * Q):
        h = counting._inverse_histogram(M, q, _prime_divisors(q)).astype(float)
        norms[q] = h.sum() * math.sqrt(np.dot(h, h))
    ranked = sorted(set(norms.values()))
    cut = (ranked[len(ranked) // 2] + ranked[len(ranked) // 2 + 1]) / 2
    first = min(q for q in norms if norms[q] > cut)
    assert first > Q
    levels = (size - 1).bit_length()
    monkeypatch.setattr(counting, "_CONVOLVE_ERROR_C", (0.5 / (cut * 2.0 ** -53) - 2) / (2 * levels))
    with pytest.raises(ConsistencyError, match=rf"fold error bound \S+ mod {first} is not below 1/2"):
        sum_congruence_counts(k, M, Q)


def test_fold_blocks_cut_under_the_cell_cap_and_the_budget(monkeypatch):
    blocks = counting._fold_blocks(1024, 2048)
    assert [q for b in blocks for q in b] == list(range(1024, 2048))
    assert {len(b) for b in blocks} == {32}
    assert {len(b) for b in counting._fold_blocks(10 ** 5, 2 * 10 ** 5)} == {1}
    # a small byte budget cuts blocks down to one modulus, never to none
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(4096 * counting._FOLD_BYTES * 3))
    assert {len(b) for b in counting._fold_blocks(1024, 2048)[:-1]} == {3}
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", "1000")
    assert {len(b) for b in counting._fold_blocks(1024, 2048)} == {1}


def test_sum_congruence_counts_refuses_a_fold_over_the_budget(monkeypatch):
    want = sum_congruence_counts(2, 256, 64).extra["total"]
    # one modulus of [64, 128) at a time, each a single fold charged 64
    # bytes per residue, as count_congruence_solutions charges it
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(256 * counting._FOLD_BYTES))
    assert {len(b) for b in counting._fold_blocks(64, 128)} == {1}
    assert sum_congruence_counts(2, 256, 64).extra["total"] == want
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(127 * 64))
    assert sum_congruence_counts(2, 256, 64).extra["total"] == want
    # 127 is the first modulus whose fold no longer fits
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(127 * 64 - 1))
    with pytest.raises(CapacityError, match="tables mod 127 need about 8128 bytes"):
        sum_congruence_counts(2, 256, 64)


@pytest.mark.parametrize("k,M,per_residue", [(2, 3000, 64), (3, 400, 88), (4, 100, 88)])
def test_a_single_fold_is_charged_its_bytes_per_residue(monkeypatch, k, M, per_residue):
    # a fold of one modulus is charged per_residue bytes a residue, so a
    # count that fits that runs, and one byte less refuses it
    q = 100_003
    assert counting._unit_count(M, _prime_divisors(q)) ** k > q
    want = count_congruence_solutions(k, M, q)
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(q * per_residue))
    assert count_congruence_solutions(k, M, q) == want
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(q * per_residue - 1))
    with pytest.raises(CapacityError, match=f"tables mod {q} need about {q * per_residue} bytes"):
        count_congruence_solutions(k, M, q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [1025, 1351, 4999, 2 ** 16, 65537])
def test_a_single_fold_peaks_within_its_charge(k, q):
    M = {1: 5 * q, 2: min(3 * q + 7, 40_000), 3: 400, 4: 100}[k]
    primes = _prime_divisors(q)
    n = counting._unit_count(M, primes)
    count = lambda: counting._folded_count(k, M, q, primes, n)
    count()
    _, peak = _traced_peak(count)
    assert peak <= q * (64 if k <= 2 else 88)


@pytest.mark.parametrize("k,M,Q", [(1, 3000, 1000), (2, 256, 1024), (3, 40, 300), (4, 20, 100)])
def test_fold_block_peak_is_within_its_charge(k, M, Q):
    block = counting._fold_blocks(Q, 2 * Q)[-1]
    qs = list(block)
    divisors = [_prime_divisors(q) for q in qs]
    size = counting._smooth_length(2 * qs[-1] - 1)
    ns = [counting._unit_count(M, primes) for primes in divisors]
    counting._congruence_block(k, M, qs, divisors, ns)
    _, peak = _traced_peak(lambda: counting._congruence_block(k, M, qs, divisors, ns))
    assert peak <= len(qs) * size * counting._FOLD_BYTES


def test_smooth_length_matches_its_search_twin():
    for m in list(range(1, 5000)) + [2 ** 31 - 1, 2 ** 32 - 3, 2 ** 32 - 1, 2 ** 32]:
        assert counting._smooth_length(m) == twin_smooth_length(m), m
    assert counting._smooth_length(2 * (2 ** 31 - 1) - 1) == 2 ** 32


def test_jcount_beyond_any_histogram_matches_brute(capsys):
    # a length-q histogram mod 10**9 + 7 would take about 64 GB
    assert cli_main(["jcount", "2", "10", "1000000007", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "k,M,q,count\n2,10,1000000007,198\n"
    assert brute_congruence(2, 10, 10 ** 9 + 7) == 198
