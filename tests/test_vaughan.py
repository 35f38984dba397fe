"""The four-term identity, its block decomposition, and the prime-power gap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab.expsums import ExpSumQuery, prime_sum
from kloosterlab.vaughan import (
    KIND_TYPE1,
    KIND_TYPE2,
    VaughanParams,
    _has_support,
    compare_decomposition,
    decompose,
    evaluate_decomposition,
    prime_power_gap,
    reconstruct_lambda,
    validate_decomposition,
)

#: Property tests draw the same examples on every run and stay quick.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def test_params_validation():
    VaughanParams(x=100.0, U=4.0)
    with pytest.raises(ValueError):
        VaughanParams(x=1.0, U=1.0)
    with pytest.raises(ValueError):
        VaughanParams(x=100.0, U=0.5)
    with pytest.raises(ValueError):
        VaughanParams(x=100.0, U=10.0)  # above x^(1/3)


def test_reconstruct_lambda_equals_von_mangoldt(tables):
    for n in range(2, 400):
        for U in (1.0, 2.0, 3.5, n ** (1 / 3)):
            got = reconstruct_lambda(n, U, tables)
            assert abs(got - tables.lam(n)) <= 1e-9, (n, U)
    assert reconstruct_lambda(1, 2.0, tables) == 0.0


def test_decomposition_structure(tables):
    params = VaughanParams(x=600.0, U=600 ** (1 / 3))
    decomp = decompose(params, tables)
    validate_decomposition(decomp)
    assert decomp.type1_count > 0
    assert decomp.type2_count > 0
    x, U = params.x, params.U
    for comp in decomp.components:
        assert comp.restrict == x
        if comp.kind == KIND_TYPE2:
            # both coefficient sides bounded, block inside [U, x/U]
            assert U / (1 + 1e-9) <= comp.L <= x / U * (1 + 1e-9)
            assert comp.beta is None or np.max(np.abs(comp.beta)) <= 1 + 1e-12
        else:
            assert comp.kind == KIND_TYPE1
            assert comp.L < U


def test_decomposition_is_deterministic(tables):
    params = VaughanParams(x=300.0, U=5.0)
    d1 = decompose(params, tables)
    d2 = decompose(params, tables)
    assert len(d1.components) == len(d2.components)
    t1, _ = evaluate_decomposition(d1, 2, 11)
    t2, _ = evaluate_decomposition(d2, 2, 11)
    assert t1 == t2


@pytest.mark.parametrize("a,q,x,U", [
    (1, 7, 100.0, 4.0),
    (2, 11, 300.0, 300 ** (1 / 3)),
    (3, 12, 500.0, 2.0),
    (5, 9, 800.0, 8.0),
    (0, 7, 200.0, 5.0),     # zero twist collapses to weighted unit counts
    (2, 4, 150.0, 5.0),     # twist sharing a factor with the modulus
])
def test_decomposition_matches_direct_sum(a, q, x, U, tables):
    chk = compare_decomposition(VaughanParams(x=x, U=U), a, q, tables)
    assert chk.rel_error <= 1e-9, (a, q, x, U, chk.rel_error)


def test_component_values_sum_to_total(tables):
    params = VaughanParams(x=200.0, U=4.0)
    decomp = decompose(params, tables)
    total, vals = evaluate_decomposition(decomp, 1, 7)
    assert len(vals) == len(decomp.components)
    assert abs(total - sum(vals)) < 1e-9


def test_truncation_cases_cover_identity(tables):
    # U = 1 leaves only the a3 and a4 ranges; U = x^(1/3) is the balanced cut
    for U in (1.0, 2.0):
        chk = compare_decomposition(VaughanParams(x=64.0, U=U), 1, 5, tables)
        assert chk.rel_error <= 1e-9


def test_prime_power_gap_window(tables):
    gap = prime_power_gap(1, 5, 50.0, tables)
    # [50, 100) holds exactly 64 = 2^6 and 81 = 3^4
    assert gap.prime_power_terms == 2
    assert gap.envelope == pytest.approx(math.log(2) + math.log(3), abs=1e-12)
    assert gap.gap <= gap.envelope + 1e-12


def test_prime_power_gap_envelope_bound(tables):
    for x in (50.0, 200.0, 1000.0):
        for (a, q) in [(1, 5), (3, 14)]:
            gap = prime_power_gap(a, q, x, tables)
            assert gap.gap <= gap.envelope + 1e-12
            assert gap.envelope <= 2 * math.sqrt(2 * x) * math.log(2 * x)


def test_direct_gap_equals_weighted_difference(tables):
    a, q, x = 2, 9, 120.0
    gap = prime_power_gap(a, q, x, tables)
    lam = prime_sum(ExpSumQuery(a=a, q=q, x=x), weight="von_mangoldt", tables=tables)
    pt = tables.prime_table
    primes = pt.primes_between(x, 2 * x)
    logs = np.log(primes.astype(float))
    from kloosterlab.expsums import inverse_phase_sum

    direct = inverse_phase_sum(primes, a, q, weights=logs)
    assert gap.gap == pytest.approx(abs(lam.value - direct.value), abs=0)


def _per_l_has_support(ls, l_ok, ms, m_ok, x):
    """_has_support as the former loop over l, with one product mask per l."""
    if not l_ok.any() or not m_ok.any():
        return False
    msub = ms[m_ok]
    for l in ls[l_ok]:
        prod = int(l) * msub
        if bool(((prod >= x) & (prod < 2 * x)).any()):
            return True
    return False


@st.composite
def _supports(draw):
    """Consecutive l and m blocks with masks, and a window start x that is
    a product l*m, half of one, a float neighbour, or a non-integer."""
    scale = draw(st.sampled_from([10, 10 ** 4, 10 ** 8, 2 ** 30]))
    l0, m0 = draw(st.integers(1, scale)), draw(st.integers(1, scale))
    ls = np.arange(l0, l0 + draw(st.integers(0, 10)), dtype=np.int64)
    ms = np.arange(m0, m0 + draw(st.integers(0, 30)), dtype=np.int64)
    l_ok = np.array(draw(st.lists(st.booleans(), min_size=len(ls), max_size=len(ls))), dtype=bool)
    m_ok = np.array(draw(st.lists(st.booleans(), min_size=len(ms), max_size=len(ms))), dtype=bool)
    if len(ls) and len(ms) and draw(st.booleans()):
        p = int(draw(st.sampled_from(ls.tolist()))) * int(draw(st.sampled_from(ms.tolist())))
        x = draw(st.sampled_from([
            p, float(p), p / 2,
            math.nextafter(float(p), -math.inf), math.nextafter(float(p), math.inf),
        ]))
    else:
        x = draw(st.floats(0.5, 4.0 * scale * scale, allow_nan=False))
    return ls, l_ok, ms, m_ok, x


@_PROPERTY
@given(_supports())
def test_has_support_equals_per_l_twin(case):
    assert _has_support(*case) == _per_l_has_support(*case)


def test_has_support_edges():
    ls, ms = np.arange(4, 8), np.arange(10, 20)
    every_l, every_m = np.ones(4, bool), np.ones(10, bool)
    assert _has_support(ls, every_l, ms, every_m, 70.0)
    # 7 * 19 = 133 is the largest product, and 40 = 4 * 10 the smallest
    assert not _has_support(ls, every_l, ms, every_m, 133.5)
    assert _has_support(ls, every_l, ms, every_m, 133)
    assert not _has_support(ls, every_l, ms, every_m, 20)
    assert _has_support(ls, every_l, ms, every_m, 20.5)
    only_19 = np.arange(10, 20) == 19
    assert not _has_support(ls, ls == 4, ms, only_19, 80)  # 4 * 19 = 76 < 80
    assert not _has_support(ls, ~every_l, ms, every_m, 70.0)
    assert not _has_support(ls, every_l, ms[:0], every_m[:0], 70.0)


@pytest.mark.parametrize("l, m, x, want", [
    # past 2^53 the quotient x / l rounds across m: the products decide
    (738360466, 758650494, 5.6015753228097024e17, False),
    (60075810, 493073047, 29621762687693070, True),
])
def test_has_support_past_2_53(l, m, x, want):
    ls, ms, one = np.array([l], dtype=np.int64), np.array([m], dtype=np.int64), np.ones(1, bool)
    assert _has_support(ls, one, ms, one, x) is want
    assert _per_l_has_support(ls, one, ms, one, x) is want
