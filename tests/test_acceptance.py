"""Acceptance gate: one test per criterion, with pinned tolerances.

Each test prints a single "ACCEPTANCE <n> <name>: PASS" line when it
passes; a failure reads as the usual pytest red with the offending
values.  Time budgets are asserted, not just hoped for.
"""

import csv
import io
import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import kloosterlab as kl
from kloosterlab.cli import main as cli_main
from test_counting import congruence_routes, twin_unit_fractions


def _passed(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_acceptance_1_threshold_root():
    t0 = time.perf_counter()
    res = kl.ternary_exponent_root()
    assert abs(res.root - 1.188) <= 1e-3, res.root
    assert res.residual < 1e-8
    general = kl.sieve_exponent_root(Fraction(23, 21))
    assert abs(res.root - general.root) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"root finding took {elapsed:.2f}s"
    _passed(1, "threshold-root")


def test_acceptance_2_weil_bound_exhaustive(prime_table):
    t0 = time.perf_counter()
    primes = [int(p) for p in prime_table.primes if p <= 200]
    checked = 0
    for p in primes:
        grid = kl.kloosterman_grid(p)
        assert np.abs(grid.imag).max() < 1e-9, p
        mags = np.abs(grid[1:, 1:].real)
        assert mags.max() <= 2 * math.sqrt(p) + 1e-6, p
        checked += (p - 1) ** 2
        # grid route against the scalar route at a few spots
        for (a, b) in [(1, 1), (2, p - 1), (p // 2, 3)]:
            a, b = a % p, b % p
            if a and b:
                assert grid[a, b].real == pytest.approx(
                    kl.kloosterman(a, b, p), abs=1e-9
                )
    assert checked > 10 ** 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(2, "weil-bound-exhaustive")


def test_acceptance_3_identity_and_decomposition(tables):
    t0 = time.perf_counter()
    # pointwise identity for every n up to 2e4 under four truncations
    for n in range(2, 20001):
        for U in (2.0, 5.0, n ** 0.25, n ** (1 / 3)):
            got = kl.reconstruct_lambda(n, U)
            want = tables.lam(n)
            assert abs(got - want) <= 1e-9, (n, U, got, want)
    # block decomposition against the direct window sum on a 20-point grid
    grid = [
        (1, 7, 100.0, 4.0), (2, 7, 100.0, 2.0), (3, 11, 200.0, 5.0),
        (1, 11, 300.0, 300 ** (1 / 3)), (4, 9, 400.0, 7.0),
        (2, 12, 500.0, 5.0), (5, 13, 600.0, 8.0), (1, 5, 700.0, 2.0),
        (3, 8, 800.0, 9.0), (7, 17, 900.0, 900 ** (1 / 3)),
        (1, 19, 1000.0, 10.0), (6, 23, 1500.0, 11.0),
        (2, 29, 2000.0, 12.0), (9, 31, 2500.0, 13.0),
        (1, 37, 3000.0, 14.0), (11, 41, 4000.0, 15.0),
        (3, 43, 5000.0, 17.0), (0, 7, 1200.0, 10.0),
        (8, 16, 6000.0, 18.0), (5, 53, 10000.0, 10000 ** (1 / 3)),
    ]
    assert len(grid) == 20
    for a, q, x, U in grid:
        chk = kl.compare_decomposition(kl.VaughanParams(x=x, U=U), a, q)
        assert chk.rel_error <= 1e-7, (a, q, x, U, chk.rel_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passed(3, "identity-and-decomposition")


def test_acceptance_4_counting_routes_agree():
    t0 = time.perf_counter()
    for k in (1, 2):
        for M in range(1, 31):
            for q in range(2, 101):
                routes = congruence_routes(k, M, q)
                fast, slow = routes["fold"](), routes["enumerate"]()
                assert fast == slow == kl.count_congruence_solutions(k, M, q), (k, M, q)
    assert kl.count_congruence_solutions(1, 2, 3) == 2
    for k in (1, 2):
        for N in range(0, 31):
            fast = kl.count_unit_fraction_solutions(k, N)
            slow = twin_unit_fractions(k, N)
            assert fast == slow, (k, N, fast, slow)
    assert kl.count_unit_fraction_solutions(2, 2) == 6
    assert kl.count_squarefull(100) == 14
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(4, "counting-routes-agree")


def test_acceptance_5_congruence_average_envelope():
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    for k in (1, 2, 3):
        for M in (4, 8, 16, 32, 64):
            for Q in (16, 64, 256):
                rep = kl.sum_congruence_counts(k, M, Q)
                rows.append((k, M, Q, rep.extra["total"], rep.rhs_total, rep.ratio))
                worst = max(worst, rep.ratio)
    print("    k   M    Q       total         core    ratio")
    for k, M, Q, total, core, ratio in rows:
        print(f"    {k}  {M:3d}  {Q:4d}  {total:10d}  {core:11.0f}  {ratio:7.4f}")
    assert worst <= 20.0, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _passed(5, "congruence-average-envelope")


def test_acceptance_6_average_maximum_growth():
    t0 = time.perf_counter()
    series = []
    for Q in (256, 512, 1024, 2048):
        rep = kl.avg_max_report(Q, float(Q), workers=4)
        assert rep.lhs < rep.trivial_bound, (Q, rep.lhs, rep.trivial_bound)
        series.append((Q, rep.lhs))
    fit = kl.exponent_fit(series)
    assert fit.slope < 2.0, fit.slope
    print(f"    growth exponent at x = Q: {fit.slope:.4f} "
          f"(trivial 2, conjectured 1.5)")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _passed(6, "average-maximum-growth")


def test_acceptance_7_product_congruence_histogram(prime_table):
    t0 = time.perf_counter()
    for (x, q) in [(100, 6), (150, 7), (200, 12), (120, 29), (200, 30)]:
        ps = [int(p) for p in prime_table.primes if p <= x]
        brute = {}
        for p1 in ps:
            for p2 in ps:
                r = p1 * p2
                for p3 in ps:
                    lam = r * p3 % q
                    brute[lam] = brute.get(lam, 0) + 1
        total = 0
        for lam in range(q):
            got = kl.garaev_congruence_count(x, q, lam)
            assert got == brute.get(lam, 0), (x, q, lam)
            total += got
        assert total == len(ps) ** 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(7, "product-congruence-histogram")


def test_acceptance_8_ternary_rough_triples():
    t0 = time.perf_counter()
    for x in (10, 20):
        pt = kl.sieve_primes(2 * x + 1)
        ps = [int(p) for p in pt.primes if x <= p < 2 * x]
        prev = None
        for theta in (0.5, 1.0, 1.1, 1.2):
            res = kl.ternary_rough_count(x, theta)
            threshold = float(x) ** theta
            brute = sum(
                1
                for p1, p2, p3 in product(ps, repeat=3)
                if kl.largest_prime_factor(p1 * p2 + p1 * p3 + p2 * p3) > threshold
            )
            assert res.count == brute, (x, theta, res.count, brute)
            assert res.total == len(ps) ** 3
            if prev is not None:
                assert res.count <= prev
            prev = res.count
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(8, "ternary-rough-triples")


def test_acceptance_9_cli_determinism(tmp_path):
    commands = [
        ["avg-max", "64", "64", "--format", "csv"],
        ["avg-max", "64", "64", "--format", "json"],
        ["fixed-a-avg", "1", "64", "64", "--format", "csv"],
        ["jcount-avg", "2", "8", "64", "--format", "csv"],
        ["vaughan-check", "1", "7", "500", "--format", "csv"],
        ["garaev", "200", "12", "5", "--format", "json"],
        ["theorem2-root", "--format", "json"],
    ]
    for i, base in enumerate(commands):
        outputs = []
        for j, workers in enumerate(("1", "8", "1")):
            target = tmp_path / f"c{i}_{j}.out"
            code = cli_main(base + ["--workers", workers, "--output", str(target)])
            assert code == 0, base
            outputs.append(target.read_bytes())
        # identical bytes across worker counts and across repeated runs
        assert outputs[0] == outputs[1] == outputs[2], base
    # and the csv/json payloads agree with each other on the numbers
    a = tmp_path / "x.csv"
    b = tmp_path / "x.json"
    assert cli_main(["jcount-avg", "2", "8", "64", "--format", "csv",
                     "--output", str(a)]) == 0
    assert cli_main(["jcount-avg", "2", "8", "64", "--format", "json",
                     "--output", str(b)]) == 0
    rows = list(csv.reader(io.StringIO(a.read_text())))
    doc = json.loads(b.read_text())
    assert int(dict(zip(rows[0], rows[1]))["total"]) == doc["results"][0]["total"]
    _passed(9, "cli-determinism")
