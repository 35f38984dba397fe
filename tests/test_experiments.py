"""Roots, ternary counts, residue statistics, fits, and the averaged reports."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import arith, counting, experiments, expsums
from kloosterlab.arith import largest_prime_factor
from kloosterlab.bilinear import type1_report, type2_avg_max_report, type2_fixed_a_report
from kloosterlab.counting import sum_congruence_counts
from kloosterlab.errors import CapacityError, ConsistencyError
from kloosterlab.experiments import (
    avg_max_report,
    choose_U,
    comparison_table,
    exponent_fit,
    fixed_a_avg_report,
    garaev_congruence_count,
    sieve_exponent_root,
    sieve_threshold_function,
    ternary_exponent_root,
    ternary_rough_count,
    ternary_threshold_function,
)


def test_threshold_root_location():
    res = ternary_exponent_root()
    assert abs(res.root - 1.188) <= 1e-3
    assert res.residual < 1e-8
    assert ternary_threshold_function(res.root - 1e-3) < 0
    assert ternary_threshold_function(res.root + 1e-3) > 0


def test_special_and_general_forms_agree():
    special = ternary_exponent_root()
    general = sieve_exponent_root(23 / 21)
    assert abs(special.root - general.root) < 1e-12
    # the cleared form is exactly 21 times the general one
    for theta in (1.0, 1.2, 1.5, 1.9):
        assert ternary_threshold_function(theta) == pytest.approx(
            21 * sieve_threshold_function(theta, 23 / 21), rel=1e-12
        )


def test_threshold_function_monotone():
    prev = None
    for i in range(50):
        theta = 0.95 + i * 0.02
        val = sieve_threshold_function(theta, 23 / 21)
        if prev is not None:
            assert val > prev
        prev = val


def test_root_finder_validation():
    with pytest.raises(ValueError):
        sieve_exponent_root(2.5)
    with pytest.raises(ValueError):
        sieve_exponent_root(1.0)
    with pytest.raises(ValueError):
        # no sign change: the root is near 1.188
        sieve_exponent_root(23 / 21, bracket=(1.5, 1.9))
    with pytest.raises(ValueError):
        sieve_threshold_function(0.5, 23 / 21)  # outside the log domain
    with pytest.raises(ValueError):
        ternary_threshold_function(0.9)


def test_roots_move_with_alpha():
    # heavier input exponent alpha moves the threshold root up
    r1 = sieve_exponent_root(1.05).root
    r2 = sieve_exponent_root(23 / 21).root
    r3 = sieve_exponent_root(1.3).root
    assert r1 < r2 < r3


def _brute_ternary(x, theta):
    from kloosterlab.arith import sieve_primes

    pt = sieve_primes(2 * x + 1)
    ps = [int(p) for p in pt.primes if x <= p < 2 * x]
    threshold = float(x) ** theta
    count = 0
    for p1 in ps:
        for p2 in ps:
            for p3 in ps:
                if largest_prime_factor(p1 * p2 + p1 * p3 + p2 * p3) > threshold:
                    count += 1
    return count, len(ps) ** 3


@pytest.mark.parametrize("x", [10, 20])
def test_ternary_exhaustive(x):
    prev = None
    for theta in (0.5, 1.0, 1.1, 1.2):
        res = ternary_rough_count(x, theta)
        want_count, want_total = _brute_ternary(x, theta)
        assert res.count == want_count
        assert res.total == want_total
        assert res.fraction == pytest.approx(res.count / res.total)
        if prev is not None:
            assert res.count <= prev  # monotone in the roughness threshold
        prev = res.count
    everything = ternary_rough_count(x, 0.0)
    assert everything.count == everything.total


def _theta_at(x, p_max, shift):
    """theta with x**theta about shift past isqrt(3 * p_max**2), the root of
    the values' top, where rough_window's base primes stop at the root."""
    return math.log(math.isqrt(3 * p_max ** 2) + shift) / math.log(x)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(x=st.integers(2, 60), thetas=st.lists(st.floats(0, 2.5), min_size=2, max_size=2))
@example(x=50, thetas=[_theta_at(50, 97, -0.01), _theta_at(50, 97, 0.01)])
@example(x=50, thetas=[_theta_at(50, 97, 0), _theta_at(50, 97, 1)])
@example(x=60, thetas=[_theta_at(60, 113, -0.5), _theta_at(60, 113, 0.5)])
def test_ternary_matches_brute_force_and_falls_with_theta(x, thetas):
    low, high = sorted(thetas)
    counts = []
    for theta in (low, high):
        res = ternary_rough_count(x, theta)
        assert (res.count, res.total) == _brute_ternary(x, theta)
        counts.append(res.count)
    assert counts[0] >= counts[1]


def test_ternary_scaled_normalization():
    res = ternary_rough_count(10, 1.0)
    assert res.scaled == pytest.approx(res.count * math.log(10) ** 3 / 1000.0)


def _brute_garaev(x, q, prime_table):
    ps = [int(p) for p in prime_table.primes if p <= x]
    out = {}
    for p1 in ps:
        for p2 in ps:
            for p3 in ps:
                lam = p1 * p2 * p3 % q
                out[lam] = out.get(lam, 0) + 1
    return out, len(ps)


@pytest.mark.parametrize("x,q", [(50, 6), (100, 7), (60, 12), (80, 30), (40, 8)])
def test_garaev_counts_exact(x, q, prime_table):
    brute, pi_x = _brute_garaev(x, q, prime_table)
    total = 0
    for lam in range(q):
        got = garaev_congruence_count(x, q, lam)
        assert got == brute.get(lam, 0), (x, q, lam)
        total += got
    assert total == pi_x ** 3


def test_garaev_negative_lambda_wraps():
    assert garaev_congruence_count(50, 7, -1) == garaev_congruence_count(50, 7, 6)


def test_garaev_checks_its_modulus_before_the_sieve(monkeypatch):
    # the histograms mod q take 40 bytes per residue: q = 10**6 needs
    # 4 * 10**7, over a budget of 10**7, and no prime is sieved
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(10 ** 7))
    with mock.patch.object(experiments, "prime_window") as window, \
            pytest.raises(CapacityError, match="tables mod 1000000 need about 40000000 bytes"):
        garaev_congruence_count(10 ** 6, 10 ** 6, 3)
    window.assert_not_called()


def test_exponent_fit_recovers_power_law():
    fit = exponent_fit([(2, 12.0 * 2 ** 2), (4, 12.0 * 4 ** 2),
                        (8, 12.0 * 8 ** 2), (16, 12.0 * 16 ** 2)])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(12.0), abs=1e-9)
    assert fit.residual_norm < 1e-9
    assert fit.points == 4


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        exponent_fit([(2, 4.0), (4, 16.0)])
    with pytest.raises(ValueError):
        exponent_fit([(2, 4.0), (4, -1.0), (8, 64.0)])
    with pytest.raises(ValueError):
        exponent_fit([(2, 4.0), (2, 4.0), (2, 4.0)])


def test_comparison_table_ordering():
    rows = comparison_table(100.0)
    by_label = {row.label: row for row, _ in rows}
    assert by_label["fixed-a-sharpened"].exponent == Fraction(15, 8)
    assert by_label["avg-max-sharpened"].exponent == Fraction(19, 10)
    assert by_label["avg-max-classical"].exponent == Fraction(23, 12)
    assert by_label["fixed-a-bilinear"].exponent == Fraction(95, 48)
    assert (
        by_label["fixed-a-sharpened"].exponent
        < by_label["avg-max-sharpened"].exponent
        < by_label["avg-max-classical"].exponent
        < by_label["fixed-a-bilinear"].exponent
        < by_label["trivial"].exponent
    )
    assert by_label["conjectured"].exponent == Fraction(3, 2)
    # values follow the exponents at any Q > 1
    vals = dict((row.label, val) for row, val in rows)
    assert vals["conjectured"] < vals["fixed-a-sharpened"] < vals["trivial"]


def test_choose_u_balanced_points():
    # at x = Q both branches of the avg-max rule coincide with x^(1/3)
    assert choose_U("avg-max", 100, 100) == pytest.approx(100 ** (1 / 3), rel=1e-12)
    # at x = Q^(2/3) the rule gives Q^(1/6)
    assert choose_U("avg-max", 1000, 100) == pytest.approx(1000 ** (1 / 6), rel=1e-12)
    # fixed-a at x = Q also balances to x^(1/3)
    assert choose_U("fixed-a-avg", 64, 64) == pytest.approx(4.0, rel=1e-12)
    U = choose_U("avg-max", 256, 1024.0)
    assert 1 <= U <= 1024 ** (1 / 3) * (1 + 1e-9)
    assert 1024.0 / U <= 256 * (1 + 1e-9)


def test_choose_u_range_errors():
    with pytest.raises(ValueError):
        choose_U("avg-max", 100, 2.0)  # below Q^(2/3)
    with pytest.raises(ValueError):
        choose_U("avg-max", 100, 10 ** 4)  # above Q^(3/2)
    with pytest.raises(ValueError):
        choose_U("fixed-a-avg", 100, 3.0)  # below Q^(1/2)
    with pytest.raises(ValueError):
        choose_U("nonsense", 100, 100)


def test_avg_max_report_small(prime_table):
    rep = avg_max_report(16, 16.0)
    assert rep.lhs < rep.trivial_bound
    assert set(rep.rhs_terms) == {"Q^(5/4)*x^(5/8)", "Q*x^(9/10)", "Q^(7/6)*x^(13/18)"}
    assert rep.extra["pi_range"] == len(prime_table.primes_between(16, 32))
    assert rep.trivial_bound == 16.0 * rep.extra["pi_range"]


def test_avg_max_warns_outside_window():
    with pytest.warns(UserWarning):
        avg_max_report(1000, 5.0)


def test_fixed_a_report_small(prime_table):
    rep = fixed_a_avg_report(1, 16, 16.0)
    assert rep.lhs < rep.trivial_bound
    assert set(rep.rhs_terms) == {"Q^(1/2)*x^(11/8)", "Q^(7/6)*x^(2/3)"}
    assert rep.extra["size_factor"] == pytest.approx(math.sqrt(1 + 1 / (16.0 * 16)))
    with pytest.raises(ValueError):
        fixed_a_avg_report(0, 16, 16.0)


def test_report_worker_determinism():
    one = avg_max_report(8, 8.0, workers=1)
    many = avg_max_report(8, 8.0, workers=8)
    assert one.lhs == many.lhs


def test_q_sweeps_factor_their_moduli_once_without_trial_division(monkeypatch):
    # every modulus of a sweep takes its primes from arith.factor_spans
    def refused(q):
        raise AssertionError(f"modulus {q} was trial-divided")

    for module in (arith, counting, expsums):
        monkeypatch.setattr(module, "_prime_divisors", refused)
    avg_max_report(64, 64.0)
    fixed_a_avg_report(1, 64, 64.0)
    # k = 1, M = 40 < q enumerates, by the table below q = 80 and square-and-multiply above
    sum_congruence_counts(1, 40, 64)
    # n^2 against q: highly composite moduli enumerate, the others fold
    sum_congruence_counts(2, 20, 64)
    type2_avg_max_report(8, 8, 64, 2)
    type1_report(8, 8, 32, a=3)


def test_q_sweeps_read_the_same_whatever_the_factor_span(monkeypatch):
    # the moduli are factored a span at a time; spans of 5 moduli cut every
    # sweep's blocks differently, and blocks of one modulus cut them finer,
    # and neither changes a byte of any value
    rng = np.random.default_rng(5)
    alpha = rng.uniform(-1, 1, 8) * np.exp(2j * np.pi * rng.random(8))
    beta = rng.uniform(-1, 1, 8)

    def sweeps():
        reports = [type2_avg_max_report(8, 8, 64, 2), type2_avg_max_report(8, 8, 64, 2, alpha=alpha, beta=beta),
                    type2_fixed_a_report(3, 8, 8, 64), type2_fixed_a_report(3, 8, 8, 64, alpha=alpha, beta=beta),
                    type1_report(8, 8, 32, a=3), type1_report(8, 100, 32, alpha=alpha)]
        return [avg_max_report(64, 64.0).lhs.hex(), fixed_a_avg_report(1, 64, 64.0).lhs.hex(),
                sum_congruence_counts(2, 20, 64).extra["total"]] + [
                    (rep.lhs.hex(), rep.trivial_bound.hex()) for rep in reports]

    want = sweeps()
    monkeypatch.setattr(arith, "_FACTOR_SPAN", 5)
    assert sweeps() == want
    monkeypatch.setattr(expsums, "_BLOCK_MODULI", 1)
    assert sweeps() == want
