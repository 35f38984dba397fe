"""Bilinear forms: direct oracle, coefficient rules, averaged reports."""

import cmath
import math

import numpy as np
import pytest

from kloosterlab import bilinear
from kloosterlab.accumulate import unit_roots
from kloosterlab.arith import inverse_table
from kloosterlab.bilinear import (
    BilinearSpec,
    _max_abs_over_twists,
    bilinear_sum,
    dyadic_window,
    type1_report,
    type2_avg_max_report,
    type2_fixed_a_report,
)
from kloosterlab.errors import CapacityError, ConsistencyError
from kloosterlab.expsums import _CHUNK_CELLS


def _oracle(L, M, a, q, alpha=None, beta=None, restrict=None):
    ls = dyadic_window(L)
    ms = dyadic_window(M)
    total = 0j
    for i, l in enumerate(ls):
        for j, m in enumerate(ms):
            lm = int(l) * int(m)
            if restrict is not None and not (restrict <= lm < 2 * restrict):
                continue
            if math.gcd(lm, q) != 1:
                continue
            al = 1.0 if alpha is None else alpha[i]
            bm = 1.0 if beta is None else beta[j]
            total += al * bm * cmath.exp(2j * math.pi * a * pow(lm, -1, q) / q)
    return total


def test_dyadic_window_edges():
    assert dyadic_window(4).tolist() == [4, 5, 6, 7]
    assert dyadic_window(2.5).tolist() == [3, 4]
    assert dyadic_window(0.75).tolist() == [1]
    with pytest.raises(ValueError):
        dyadic_window(0)


def test_windows_partition_integers():
    # adjacent anchored blocks tile the integers with no gaps or overlaps
    start = 3.7
    seen = []
    while start < 200:
        seen.extend(dyadic_window(start).tolist())
        start *= 2
    lo, hi = seen[0], seen[-1]
    assert seen == list(range(lo, hi + 1))


def test_bilinear_sum_unit_coefficients():
    for (L, M, a, q) in [(4, 8, 1, 7), (3, 3, 2, 12), (5, 16, 3, 11)]:
        got = bilinear_sum(BilinearSpec(L=L, M=M, a=a, q=q))
        want = _oracle(L, M, a, q)
        assert abs(got.value - want) < 1e-12


def test_bilinear_sum_with_coefficients_and_restriction():
    L, M, a, q, x = 4, 8, 2, 9, 45.0
    rng = np.random.default_rng(7)
    alpha = rng.uniform(-1, 1, len(dyadic_window(L)))
    beta = rng.uniform(-1, 1, len(dyadic_window(M)))
    got = bilinear_sum(BilinearSpec(L=L, M=M, a=a, q=q, alpha=alpha, beta=beta,
                                    restrict_lm=x))
    want = _oracle(L, M, a, q, alpha, beta, restrict=x)
    assert abs(got.value - want) < 1e-12


def test_coefficient_validation():
    with pytest.raises(ValueError):
        BilinearSpec(L=4, M=4, a=1, q=7, alpha=[2.0, 0, 0, 0])
    with pytest.raises(ValueError):
        BilinearSpec(L=4, M=4, a=1, q=7, beta=[0.5, 0.5])  # wrong length
    spec = BilinearSpec(L=4, M=4, a=1, q=7, alpha=[1.0, -1.0, 0.0, 0.5])
    assert isinstance(spec.alpha, np.ndarray)
    assert spec.is_type1


def test_term_cap():
    with pytest.raises(CapacityError):
        bilinear_sum(BilinearSpec(L=2 ** 13, M=2 ** 13, a=1, q=7))


def test_type2_fixed_a_matches_direct_assembly():
    L, M, Q, a = 4, 8, 8, 1
    rng = np.random.default_rng(3)
    alpha = rng.uniform(-1, 1, len(dyadic_window(L)))
    beta = rng.uniform(-1, 1, len(dyadic_window(M)))
    rep = type2_fixed_a_report(a, L, M, Q, alpha=alpha, beta=beta)
    direct = math.fsum(
        bilinear_sum(BilinearSpec(L=L, M=M, a=a, q=q, alpha=alpha, beta=beta)).magnitude
        for q in range(Q, 2 * Q)
    )
    assert rep.lhs == pytest.approx(direct, rel=1e-9)
    assert set(rep.rhs_terms) == {"Q*L*M^(1/2)", "Q^(1/2)*L^(5/4)*M^(3/2)"}
    assert rep.extra["size_factor"] == pytest.approx(math.sqrt(1 + a / (L * M * Q)))


def test_type2_avg_max_dominates_fixed_a():
    L, M, Q = 4, 8, 8
    top = type2_avg_max_report(L, M, Q, k=1)
    for a in (1, 3):
        at_a = type2_fixed_a_report(a, L, M, Q)
        assert top.lhs >= at_a.lhs - 1e-9
    assert set(top.rhs_terms) == {"Q^(1+1/2k)*L^((2k-1)/2k)*M^(1/2)",
                                  "Q*L^((2k-1)/2k)*M"}


def test_type2_avg_max_recorded_ratio():
    # recorded envelope at the worked example: measured ratio ~0.131
    rep = type2_avg_max_report(8, 8, 32, k=2)
    assert rep.ratio <= 1.0
    assert rep.lhs > 0


def test_type1_report_structure():
    rep = type1_report(4, 64, 8)
    assert set(rep.rhs_terms) == {"L*M", "Q^(3/2)*L"}
    assert 0 < rep.ratio <= 1.0
    fixed = type1_report(4, 64, 8, a=1)
    assert fixed.lhs <= rep.lhs + 1e-9


def test_sweep_hypothesis_validation():
    with pytest.raises(ValueError):
        type2_avg_max_report(64, 4, 8, k=1)  # L > Q
    with pytest.raises(ValueError):
        type2_avg_max_report(4, 4, 8, k=5)
    with pytest.raises(ValueError):
        type2_fixed_a_report(0, 4, 4, 8)


def test_report_determinism_across_workers():
    one = type2_avg_max_report(4, 8, 8, k=2, workers=1)
    many = type2_avg_max_report(4, 8, 8, k=2, workers=8)
    assert one.lhs == many.lhs
    assert one.rhs_terms == many.rhs_terms


def _direct_max_abs_over_twists(h, q):
    """_max_abs_over_twists as a full direct scan over every unit twist, in
    chunks of _CHUNK_CELLS cells.

    Same table entries and the same row expression as the re-scoring in
    _max_abs_over_twists, so the maximum must match bit for bit.
    """
    support = np.flatnonzero(h)
    if len(support) == 0:
        return 0.0
    vals = h[support]
    roots = unit_roots(q)
    twists = np.arange(1, q, dtype=np.int64)
    twists = twists[np.gcd(twists, q) == 1]
    best = 0.0
    rows = max(1, _CHUNK_CELLS // len(support))
    for start in range(0, len(twists), rows):
        chunk = twists[start : start + rows]
        idx = (chunk[:, None] * support[None, :]) % q
        mags = np.abs((roots[idx] * vals).sum(axis=1))
        best = max(best, float(mags.max()))
    return best


def _histograms(q, x):
    """Residue histograms as the sweeps build them: inv(l) for l ~ x with
    unit coefficients, and inv(l*m) for l ~ x, m ~ 4 with seeded complex
    alpha and real beta."""
    inv = inverse_table(q)
    ls, ms = dyadic_window(x), dyadic_window(4)
    rng = np.random.default_rng(q)
    alpha = rng.uniform(-0.7, 0.7, len(ls)) + 1j * rng.uniform(-0.7, 0.7, len(ls))
    beta = rng.uniform(-1, 1, len(ms))
    for res, coeff in [(ls % q, np.ones(len(ls))),
                       (np.multiply.outer(ls % q, ms % q) % q, np.multiply.outer(alpha, beta))]:
        iv = inv[res]
        keep = iv > 0
        h = np.bincount(iv[keep], weights=coeff.real[keep], minlength=q).astype(np.complex128)
        h.imag = np.bincount(iv[keep], weights=coeff.imag[keep], minlength=q)
        yield h


@pytest.mark.parametrize("x", [2, 10, 30, 100, 1024])
def test_max_abs_over_twists_bitwise_equals_direct_scan(x):
    for q in range(2, 401):
        for h in _histograms(q, x):
            assert _max_abs_over_twists(h, q) == _direct_max_abs_over_twists(h, q), (q, x)


@pytest.mark.parametrize("q, x", [(3000, 2500), (100000, 2), (6, 2)])
def test_max_abs_over_twists_edge_cases(q, x):
    # a near tie; a single residue, where every twist ties; and an empty
    # histogram (both l in [2, 4) share a factor with 6)
    for h in _histograms(q, x):
        assert _max_abs_over_twists(h, q) == _direct_max_abs_over_twists(h, q)


def test_max_abs_consistency_check_fires_with_zero_bound(monkeypatch):
    monkeypatch.setattr(bilinear, "_twist_error_bound", lambda *args: 0.0)
    h = next(_histograms(3001, 2500))
    with pytest.raises(ConsistencyError):
        _max_abs_over_twists(h, 3001)
