"""Bilinear forms: direct oracle, coefficient rules, averaged reports."""

import cmath
import functools
import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import arith, bilinear, expsums
from kloosterlab.accumulate import CarriedSums, exact_sum, exact_sums, fsum_complex, unit_roots
from kloosterlab.arith import factor_window, inverse_table
from kloosterlab.bilinear import (
    BilinearSpec,
    _evaluate,
    _grouped,
    _grouping,
    _pair_chunks,
    _phase_histograms,
    _product_window,
    _sweep_block,
    _term_parts,
    SlicedCoefficients,
    bilinear_sum,
    dyadic_range,
    dyadic_window,
    type1_report,
    type2_avg_max_report,
    type2_fixed_a_report,
)
from kloosterlab.errors import CapacityError, ConsistencyError
from kloosterlab.expsums import _CHUNK_CELLS, _row_starts, moduli_blocks
from kloosterlab.vaughan import VaughanParams, decompose

#: Property tests draw the same examples on every run and stay quick.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_are_refused(bad):
    # NaN compares false with every bound, so "|c| > 1" alone lets it through
    coeffs = [1.0, bad, 0.0, 0.5]
    with pytest.raises(ValueError, match="finite"):
        BilinearSpec(L=4, M=4, a=1, q=7, alpha=coeffs)
    with pytest.raises(ValueError, match="finite"):
        BilinearSpec(L=4, M=4, a=1, q=7, beta=np.array([complex(0.0, c) for c in coeffs]))
    with pytest.raises(ValueError, match="finite"):
        type2_fixed_a_report(1, 4, 4, 8, beta=coeffs)


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
    # as type2_fixed_a_report does: a = 0 would measure lhs = trivial, a
    # violated bound, and a = -3 the sums at a = 3
    for a in (0, -3):
        with pytest.raises(ValueError, match="need a >= 1"):
            type1_report(4, 64, 8, a=a)


def test_sweep_hypothesis_validation():
    with pytest.raises(ValueError):
        type2_avg_max_report(64, 4, 8, k=1)  # L > Q
    with pytest.raises(ValueError):
        type2_avg_max_report(4, 4, 8, k=5)
    with pytest.raises(ValueError):
        type2_fixed_a_report(0, 4, 4, 8)


def test_reports_keep_their_pinned_values():
    # the values of the sweep that took one modulus at a time, bit for bit
    rep = type2_avg_max_report(64, 64, 1024, 2)
    assert (rep.lhs, rep.trivial_bound) == (133971.24377936343, 1802186.0)
    rep = type2_avg_max_report(8, 8, 32, 2)
    assert (rep.lhs, rep.trivial_bound) == (294.2439758939586, 829.0)
    assert type2_fixed_a_report(1, 64, 64, 1024).lhs == 46896.94035457586
    rep = type1_report(8, 4096, 1024)
    assert (rep.lhs, rep.trivial_bound) == (81135.21536077434, 14094186.0)
    assert type1_report(8, 4096, 1024, a=3).lhs == 27987.872821242563


def _direct_max_abs_over_twists(h, q):
    """The maximum over unit twists of |sum_r h[r] e(a r / q)| as a full
    direct scan over every unit twist, in chunks of _CHUNK_CELLS cells.

    Same table entries and the same row expression as the re-scoring in
    expsums._twist_max, which _sweep_block calls, so the maximum must
    match bit for bit.
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


def _scan_forms(x):
    """The forms of the scan tests: l ~ x against m = 1 with unit
    coefficients (the histogram of inv(l)), and l ~ x against m ~ 4 with
    complex alpha and real beta, seeded by x."""
    ls, ms = dyadic_window(x), dyadic_window(4)
    rng = np.random.default_rng(x)
    alpha = rng.uniform(-0.7, 0.7, len(ls)) + 1j * rng.uniform(-0.7, 0.7, len(ls))
    beta = rng.uniform(-1, 1, len(ms))
    yield ls, None, dyadic_window(1), None
    yield ls, alpha, ms, beta


def _rows(moduli, ls, alpha, ms, beta, a=None):
    """(sizes, weights) of _sweep_block over one block of consecutive moduli."""
    block = range(moduli[0], moduli[-1] + 1)
    divisors = factor_window(block.start, block.stop).divisors(block)
    return _sweep_block(np.arange(block.start, block.stop), divisors, ls, alpha, ms, beta, a)


def _block_rows(lo, hi, ls, alpha, ms, beta, a=None):
    """(sizes, weights) at every modulus lo <= q < hi, in the blocks of _sweep."""
    sizes, weights = [], []
    for block in moduli_blocks(lo, hi, len(ls) * len(ms), scan=True):
        got = _rows(block, ls, alpha, ms, beta, a)
        sizes += got[0]
        weights += got[1]
    return sizes, weights


@pytest.mark.parametrize("x", [2, 10, 30, 100, 1024])
def test_max_abs_over_twists_bitwise_equals_direct_scan(x):
    # every row of the blocks of 2 <= q <= 400 against the direct scan of
    # its twin histogram
    for ls, alpha, ms, beta in _scan_forms(x):
        sizes, _ = _block_rows(2, 401, ls, alpha, ms, beta)
        for q, size in zip(range(2, 401), sizes):
            h, _ = _twin_histogram(q, ls, alpha, ms, beta)
            assert size == _direct_max_abs_over_twists(h, q), (q, x)


@pytest.mark.parametrize("q, x", [(3000, 2500), (100000, 2), (6, 2)])
def test_max_abs_over_twists_edge_cases(q, x):
    # a near tie; a single residue, where every twist ties; and an empty
    # histogram (both l in [2, 4) share a factor with 6): as a block of one
    # modulus, and as the middle row of a block of three
    for ls, alpha, ms, beta in _scan_forms(x):
        want = _direct_max_abs_over_twists(_twin_histogram(q, ls, alpha, ms, beta)[0], q)
        assert _rows([q], ls, alpha, ms, beta)[0] == [want]
        assert _rows([q - 1, q, q + 1], ls, alpha, ms, beta)[0][1] == want


def test_max_abs_consistency_check_fires_with_zero_bound(monkeypatch):
    # on the full-length route (3001) and the half-length one (3000), for
    # a real and a complex histogram
    monkeypatch.setattr(bilinear, "_twist_error_bound", lambda *args: 0.0)
    for ls, alpha, ms, beta in _scan_forms(2500):
        for q in (3001, 3000):
            with pytest.raises(ConsistencyError):
                _rows([q], ls, alpha, ms, beta)


def test_max_abs_refuses_an_even_histogram_off_the_units(monkeypatch):
    # a complex row mod an even q takes the half-length spectrum, which
    # needs h zero at the even residues: the block kernel hands its rows
    # to _twist_max, which refuses a term at an even residue
    h = np.zeros(10, dtype=np.complex128)
    h[[3, 4]] = [0.5j, 1.0]
    monkeypatch.setattr(bilinear, "_phase_histograms", lambda *args: (h, [1.5]))
    with pytest.raises(ConsistencyError, match="mod 10 has a term at the even residue 4"):
        _rows([10], dyadic_window(4), None, dyadic_window(1), None)


def _restricted(l, ms, beta, x):
    """The m values (and aligned beta entries) with l*m inside the product
    window: the mask bilinear applied per l before _product_window."""
    if x is None:
        return ms, beta
    # the int64 products against integer bounds, never cast to float
    prod = l * ms
    mask = (prod >= math.ceil(x)) & (prod < math.ceil(2 * x))
    return ms[mask], (None if beta is None else beta[mask])


def _per_l_pairs(q, ls, alpha, ms, beta, restrict):
    """The pair stream as a loop over l: per l, the residues inv(l*m) mod q
    and coefficients alpha_l * beta_m of the kept pairs, skipping rows with
    alpha_l = 0 or no kept pair."""
    inv = inverse_table(q)
    for i, l in enumerate(ls):
        l = int(l)
        al = 1.0 if alpha is None else alpha[i]
        if al == 0:
            continue
        msub, bsub = _restricted(l, ms, beta, restrict)
        if len(msub) == 0:
            continue
        iv = inv[(l % q) * (msub % q) % q]
        good = iv > 0
        iv = iv[good]
        if len(iv) == 0:
            continue
        yield iv, al * (np.ones(len(iv)) if bsub is None else bsub[good])


def _twin_pairs(q, ls, alpha, ms, beta, restrict, twist=1):
    """The whole pair stream, the rows of _per_l_pairs concatenated in
    (l, m) order, its residues scaled by the twist: two aligned arrays."""
    rows = list(_per_l_pairs(q, ls, alpha, ms, beta, restrict))
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0)
    iv = np.concatenate([iv for iv, _ in rows])
    return (twist % q) * iv % q, np.concatenate([c for _, c in rows])


def _twin_histogram(q, ls, alpha, ms, beta):
    """One modulus's histogram as one bincount over the twin stream (complex,
    length q), and numpy's sum of the |coefficient| of the stream."""
    iv, coeff = _twin_pairs(q, ls, alpha, ms, beta, None)
    h = np.bincount(iv, weights=coeff.real, minlength=q).astype(np.complex128)
    if np.iscomplexobj(coeff):
        h.imag = np.bincount(iv, weights=coeff.imag, minlength=q)
    return h, float(np.abs(coeff).sum())


def _per_l_histogram(q, ls, alpha, ms, beta):
    """A modulus's histogram as the sum of one bincount per l."""
    h_re, h_im, has_im, weight = np.zeros(q), np.zeros(q), False, 0.0
    for iv, coeff in _per_l_pairs(q, ls, alpha, ms, beta, None):
        coeff = np.asarray(coeff, dtype=np.complex128)
        h_re += np.bincount(iv, weights=coeff.real, minlength=q)
        if np.any(coeff.imag):
            has_im = True
            h_im += np.bincount(iv, weights=coeff.imag, minlength=q)
        weight += float(np.abs(coeff).sum())
    h = h_re + 1j * h_im if has_im else h_re.astype(np.complex128)
    return h, weight


def _bits(arr):
    return arr.dtype, arr.tobytes()


@st.composite
def _bounds(draw, ls, ms):
    """A product-window start x: exactly a product l*m of the block or half
    of one (so that 2x is), a float neighbour of either, or a non-integer."""
    kind = draw(st.sampled_from(["product", "half", "below", "above", "float"]))
    if kind == "float" or not (len(ls) and len(ms)):
        lo = max(float(ls[0] * ms[0]) / 3 if len(ls) and len(ms) else 1.0, 0.5)
        return draw(st.floats(lo, 3 * lo + 10, allow_nan=False, allow_infinity=False))
    p = int(draw(st.sampled_from(ls.tolist()))) * int(draw(st.sampled_from(ms.tolist())))
    if kind == "product":
        return draw(st.sampled_from([p, float(p)]))
    if kind == "half":
        return p / 2
    return math.nextafter(float(p), -math.inf if kind == "below" else math.inf)


@st.composite
def _windows(draw):
    """Consecutive l and m blocks, at any size up to products past 2^53."""
    scale = draw(st.sampled_from([10, 10 ** 4, 10 ** 8, 2 ** 30]))
    l0, m0 = draw(st.integers(1, scale)), draw(st.integers(1, scale))
    ls = np.arange(l0, l0 + draw(st.integers(0, 12)), dtype=np.int64)
    ms = np.arange(m0, m0 + draw(st.integers(0, 40)), dtype=np.int64)
    return ls, ms, draw(_bounds(ls, ms))


def _check_window(ls, ms, x):
    start, stop = _product_window(ls, ms, x)
    lo, hi = math.ceil(x), math.ceil(2 * x)
    for i, l in enumerate(ls.tolist()):
        # Python int products against the integer bounds: nothing rounds
        kept = [j for j, m in enumerate(ms.tolist()) if lo <= l * m < hi]
        assert kept == list(range(start[i], stop[i])), (l, x)


@_PROPERTY
@given(_windows())
def test_product_window_matches_the_per_l_mask(block):
    _check_window(*block)


@pytest.mark.parametrize("l, m0, x", [
    # past 2^53 the float quotient x / l puts the estimate one m too low ...
    (738360466, 758650488, 5.6015753228097024e17),
    (503886501, 140279564, 3.534249084454229e16),
    # ... or one m too high, for the start and for the stop 2x
    (60075810, 493073041, 29621762687693070),
    (79476403, 134164015, 5331436900548232.0),
])
def test_product_window_corrects_the_quotient_estimate(l, m0, x):
    ls = np.array([l - 1, l, l + 1], dtype=np.int64)
    _check_window(ls, np.arange(m0, m0 + 7, dtype=np.int64), x)


def test_product_window_compares_products_as_integers():
    # float(l*m) is 32 above l*m, past 2^53: cast to float64, l*m would
    # round up to it and reach the bound, so the window would start at m
    l, m = 738360466, 758650480
    x = float(l * m)
    ms = np.arange(m - 3, m + 4, dtype=np.int64)
    start, stop = _product_window(np.array([l], dtype=np.int64), ms, x)
    assert (ms[start[0]], stop[0]) == (m + 1, len(ms))
    _check_window(np.array([l - 1, l, l + 1], dtype=np.int64), ms, x)


@st.composite
def _forms(draw):
    """A small bilinear form as bilinear_sum sees it: dyadic windows (M=0.3
    gives an empty one), coefficients with zero entries, and a product
    window that may sit exactly on a product."""
    q = draw(st.integers(2, 60))
    L = draw(st.sampled_from([0.3, 1, 2.5, 4, 7.3, 16]))
    M = draw(st.sampled_from([0.3, 1, 3, 8, 11.7, 32]))
    ls, ms = dyadic_window(L), dyadic_window(M)

    def coeffs(n):
        kind = draw(st.sampled_from(["unit", "float", "int", "complex"]))
        if kind == "unit":
            return None
        vals = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 0.3, -1.0]), min_size=n, max_size=n))
        arr = np.array(vals, dtype=np.float64)
        if kind == "int":
            return np.rint(arr).astype(np.int64)
        if kind == "complex":
            return arr * (0.6 - 0.8j)
        return arr

    alpha, beta = coeffs(len(ls)), coeffs(len(ms))
    restrict = draw(st.one_of(st.none(), _bounds(ls, ms)))
    return q, L, M, alpha, beta, restrict


def _form_window(L, kind):
    """Coefficients on the window l ~ L with zero entries: int, float or complex."""
    vals = np.resize([1, 0, -1, 1, 0], len(dyadic_window(L)))
    return {"int": vals, "float": vals * 0.5, "complex": vals * (0.6 - 0.8j)}[kind]


@_PROPERTY
@given(_forms())
# q = 2**16 - 1 = 3 * 5 * 17 * 257 and q = 2**16 are the last uint32 lanes;
# q = 2**16 + 1 takes the first int64 ones, and at q = 10**6 + 3 most
# products of two inverses pass 2**32
@example((65535, 16, 32, None, _form_window(32, "float"), None))
@example((65536, 16, 32, _form_window(16, "int"), _form_window(32, "int"), 700))
@example((65537, 4, 8, _form_window(4, "complex"), _form_window(8, "float"), 45.0))
@example((10 ** 6 + 3, 16, 32, None, None, 700.5))
# q = 30 shares 2 and 3 with l ~ 4 and 2, 3 and 5 with m ~ 8
@example((30, 4, 8, _form_window(4, "int"), None, None))
def test_pairs_bitwise_equal_per_l_twin(form):
    # windows this short fit one chunk of _pair_chunks: the stream in (l, m)
    # order, bit for bit
    q, L, M, alpha, beta, restrict = form
    ls, ms = dyadic_window(L), dyadic_window(M)
    chunks = list(_pair_chunks(q, ls, alpha, ms, beta, restrict))
    rows = list(_per_l_pairs(q, ls, alpha, ms, beta, restrict))
    assert [r for iv, _ in chunks for r in iv.tolist()] == [r for row, _ in rows for r in row.tolist()]
    if rows:
        assert len(chunks) == 1
        assert _bits(chunks[0][1]) == _bits(np.concatenate([c for _, c in rows]))
    else:
        assert chunks == []


@_PROPERTY
@given(_forms())
def test_bilinear_sum_term_count_keeps_zero_beta(form):
    # rows with alpha_l = 0 are dropped, entries with beta_m = 0 are summed
    q, L, M, alpha, beta, restrict = form
    got = bilinear_sum(BilinearSpec(L=L, M=M, a=1, q=q, alpha=alpha, beta=beta,
                                    restrict_lm=restrict))
    ls, ms = dyadic_window(L), dyadic_window(M)
    count = sum(
        1
        for i, l in enumerate(ls.tolist())
        for m in ms.tolist()
        if (alpha is None or alpha[i] != 0)
        and math.gcd(l * m, q) == 1
        and (restrict is None or restrict <= l * m < 2 * restrict)
    )
    assert got.term_count == count
    assert abs(got.value - _oracle(L, M, 1, q, alpha, beta, restrict)) < 1e-12


def test_zero_alpha_rows_and_zero_beta_entries():
    alpha = np.array([0.0, 1.0, 0.0, -1.0])
    beta = np.zeros(8)
    got = bilinear_sum(BilinearSpec(L=4, M=8, a=1, q=101, alpha=alpha, beta=beta))
    assert (got.value, got.term_count, got.weight_sum) == (0j, 16, 0.0)
    empty = bilinear_sum(BilinearSpec(L=4, M=0.3, a=1, q=101))
    assert (empty.value, empty.term_count) == (0j, 0)


@pytest.mark.parametrize("L, M, kind", [
    (4, 8, "unit"), (8, 8, "float"), (16, 5.5, "complex"), (3, 3, "int"), (7.5, 16, "float"),
])
def test_phase_histogram_bitwise_equals_per_l_twin(L, M, kind):
    # M <= Q <= q, as in the Type II reports: no l puts two terms in one bin,
    # so every row is the per-l twin's sum of one bincount per l, bit for
    # bit; in a block of 40 moduli and in blocks of one
    ls, ms = dyadic_window(L), dyadic_window(M)
    rng = np.random.default_rng(len(ls) * 100 + len(ms))
    alpha = beta = None
    if kind != "unit":
        alpha, beta = rng.uniform(-1, 1, len(ls)), rng.uniform(-1, 1, len(ms))
    if kind == "int":
        alpha, beta = np.rint(alpha).astype(np.int64), np.rint(beta).astype(np.int64)
    if kind == "complex":
        alpha = alpha * (0.6 + 0.8j)
    lo = int(2 * M)
    for block in [range(lo, lo + 40)] + [range(q, q + 1) for q in range(lo, lo + 3)]:
        qs = np.arange(block.start, block.stop)
        h, weights = _phase_histograms(qs, factor_window(block.start, block.stop).divisors(block),
                                       ls, alpha, ms, beta)
        assert np.iscomplexobj(h) == (kind == "complex")
        for q, start, weight in zip(block, _row_starts(qs).tolist(), weights):
            want, want_weight = _per_l_histogram(q, ls, alpha, ms, beta)
            assert _bits(h[start : start + q].astype(np.complex128)) == _bits(want), q
            assert weight == pytest.approx(want_weight, rel=1e-15, abs=0)
            if kind in ("unit", "int"):
                assert weight == want_weight


def _complex_product_value(spec):
    """The value of the form as complex products coeff * e(a * inv(lm) / q)
    of the pair stream, summed by fsum_complex: the twin of the value path."""
    q = spec.q
    iv, coeff = _twin_pairs(q, spec.l_values, spec.alpha, spec.m_values, spec.beta, spec.restrict_lm)
    if len(iv) == 0:
        return 0j
    terms = np.multiply(coeff, unit_roots(q)[(spec.a % q * iv) % q])
    return fsum_complex(terms.real, terms.imag)


def _complex_bits(z):
    return z.real.hex(), z.imag.hex()


@functools.lru_cache(maxsize=None)
def _components(x, U):
    return decompose(VaughanParams(x=x, U=U)).components


@settings(derandomize=True, database=None, deadline=None, max_examples=16)
@given(
    xU=st.sampled_from([(200.0, 4.0), (1000.0, 10.0), (3000.0, 1.0), (5000.0, 17.0)]),
    q=st.sampled_from([2, 7, 12, 1024, 3001, 65535, 65536, 65537, 100003]),
    turns=st.integers(0, 2),
    shift=st.sampled_from([0, 1, 5, 2 ** 16 + 3]),
    coeffs=st.sampled_from(["as built", "complex alpha", "complex beta", "zero beta"]),
)
@example(xU=(1000.0, 10.0), q=7, turns=1, shift=0, coeffs="as built")
@example(xU=(1000.0, 10.0), q=65537, turns=2, shift=0, coeffs="complex beta")
@example(xU=(3000.0, 1.0), q=100003, turns=0, shift=5, coeffs="as built")
@example(xU=(5000.0, 17.0), q=1024, turns=0, shift=1, coeffs="zero beta")
def test_value_path_bitwise_equals_complex_products(xU, q, turns, shift, coeffs):
    # every component of a decomposition, at twists a = turns * q + shift
    # (shift 0: a = 0 mod q), with its coefficients as built or made complex
    # or zero on one side
    a = turns * q + shift
    for comp in _components(*xU):
        alpha, beta = comp.alpha, comp.beta
        if coeffs == "complex alpha":
            alpha = (np.ones(len(dyadic_window(comp.L))) if alpha is None else alpha) * (0.6 + 0.8j)
        elif coeffs == "complex beta":
            beta = (np.ones(len(dyadic_window(comp.M))) if beta is None else beta) * (-0.8j)
        elif coeffs == "zero beta":
            beta = np.zeros(len(dyadic_window(comp.M)))
        spec = BilinearSpec(L=comp.L, M=comp.M, a=a, q=q, alpha=alpha, beta=beta,
                            restrict_lm=comp.restrict)
        want = _complex_bits(_complex_product_value(spec))
        value = _evaluate(q, a, spec.l_values, spec.alpha, spec.m_values, spec.beta, spec.restrict_lm)[0]
        assert _complex_bits(value) == want
        assert _complex_bits(bilinear_sum(spec).value) == want


@pytest.mark.parametrize("q,a", [(7, 1), (97, -5), (1024, 3), (65537, 12345)])
def test_abs_at_twist_is_the_magnitude_of_an_exact_sum(q, a):
    # every row of a block at a fixed twist against the magnitude of the
    # exact sum of its twin histogram's terms; a row whose coefficients are
    # all zero has no terms, and reads 0.0
    ls, ms = dyadic_window(16), dyadic_window(40)
    rng = np.random.default_rng(q)
    alpha = (rng.uniform(-0.7, 0.7, len(ls)) + 1j * rng.uniform(-0.7, 0.7, len(ls))) * (rng.random(len(ls)) < 0.7)
    beta = rng.uniform(-1, 1, len(ms)) * (rng.random(len(ms)) < 0.7)
    sizes, _ = _rows([q - 1, q, q + 1], ls, alpha, ms, beta, a)
    for modulus, size in zip([q - 1, q, q + 1], sizes):
        h, _ = _twin_histogram(modulus, ls, alpha, ms, beta)
        support = np.flatnonzero(h)
        terms = unit_roots(modulus)[(a % modulus) * support % modulus] * h[support]
        assert size == abs(complex(math.fsum(terms.real), math.fsum(terms.imag))), modulus
    assert _rows([q], ls, alpha, ms, np.zeros(len(ms)), a) == ([0.0], [0.0])


@st.composite
def _grouped_forms(draw, moduli=st.one_of(st.sampled_from([2, 3, 7, 12, 30, 97, 360]), st.integers(2, 400))):
    """A form for both routes: q = 2, small primes and composites, or any
    q to 400 (or q from moduli); each side unit, +-1 with zeros,
    few-valued (with zeros), many-valued, int or complex; windows from one
    integer to hundreds; with or without a product window."""
    q = draw(moduli)
    L = draw(st.sampled_from([0.6, 1, 3, 8.5, 25, 64]))
    M = draw(st.sampled_from([0.3, 1, 9, 30, 100, 300]))
    ls, ms = dyadic_window(L), dyadic_window(M)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def coeffs(n):
        kind = draw(st.sampled_from(["unit", "sign", "few", "many", "int", "complex"]))
        if kind == "unit":
            return None
        if kind == "many":
            return rng.uniform(-1, 1, n) * (rng.random(n) < 0.8)
        few = {"sign": [-1.0, 0.0, 1.0], "few": [0.0, 0.25, -0.5, 1.0, 0.3], "int": [-1, 0, 1],
               "complex": [0.0, 0.6 - 0.8j, -0.5j, 0.25]}[kind]
        return np.array(few)[rng.integers(0, len(few), n)]

    alpha, beta = coeffs(len(ls)), coeffs(len(ms))
    restrict = draw(st.one_of(st.none(), _bounds(ls, ms)))
    return q, ls, alpha, ms, beta, restrict


def _terms_value(iv, coeff, q, counts=None):
    """The correctly rounded sums, in each part, of the terms coeff * e(iv / q),
    each taken counts times when counts are given."""
    return complex(*exact_sums(_term_parts(iv, coeff, q), counts))


def _stream_sums(q, a, ls, alpha, ms, beta, restrict):
    """(value, term count, weight sum) from the pair stream alone."""
    iv, coeff = _twin_pairs(q, ls, alpha, ms, beta, restrict, twist=a)
    return _terms_value(iv, coeff, q), len(coeff), exact_sum(np.abs(coeff))


def _groups(q, ls, alpha, ms, beta, by_l):
    """The groups of the grouped side, at least one: its distinct
    (coefficient, unit class mod q) pairs, with nonzero alpha only when l
    is grouped."""
    ns, cc = (ls, alpha) if by_l else (ms, beta)
    cc = None if cc is None else cc[:]
    keys = {(1.0 if cc is None else cc[j], n % q) for j, n in enumerate(map(int, ns))
            if math.gcd(n, q) == 1 and not (by_l and cc is not None and cc[j] == 0)}
    return max(1, len(keys))


def _grouped_whole(q, a, ls, alpha, ms, beta, restrict, by_l):
    """The grouped route's three arrays with every row in one chunk."""
    rows = len(ms) if by_l else len(ls)
    cells = max(rows, 1) * _groups(q, ls, alpha, ms, beta, by_l)
    with mock.patch.object(bilinear, "_CELLS", cells):
        chunks = list(_grouped(q, a, ls, alpha, ms, beta, restrict, by_l))
    assert len(chunks) <= 1
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
    return chunks[0]


def _sums_bits(sums):
    value, count, weight = sums
    return _complex_bits(value), count, weight.hex()


@_PROPERTY
@given(_grouped_forms(), st.sampled_from([0, 1, 2, 5, 10 ** 6 + 1]))
# a unit side against q = 2 and 3: counts past one base-2**13 digit
@example((2, dyadic_window(1), None, dyadic_window(30000), None, None), 1)
@example((3, dyadic_window(3), np.array([1.0, -0.5, 0.0]), dyadic_window(30000), None, 45000.5), 5)
# a few-valued side longer than the rows, and one shorter: both ways of counting
@example((7, dyadic_window(4), np.array([0.3, 0.1, 0.2, 0.7]), dyadic_window(100),
          np.resize([1.0, -1.0, 0.0], 100), None), 1)
@example((12, dyadic_window(200), np.resize([1, 0, -1], 200), dyadic_window(10),
          np.linspace(-1, 1, 10), 2500), 1)
def test_grouped_sums_bitwise_equal_the_pair_stream(form, a):
    # both groupings, forced, and the evaluator, whichever route it takes
    q, ls, alpha, ms, beta, restrict = form
    want = _sums_bits(_stream_sums(q, a, ls, alpha, ms, beta, restrict))
    for by_l in (False, True):
        iv, coeff, counts = _grouped_whole(q, a, ls, alpha, ms, beta, restrict, by_l)
        assert counts.dtype.kind == "i" and counts.min(initial=1) > 0
        weight = exact_sums(np.abs(coeff).reshape(1, -1), counts)[0]
        got = _sums_bits((_terms_value(iv, coeff, q, counts), int(counts.sum()), weight))
        assert got == want, by_l
    assert _sums_bits(_evaluate(q, a, ls, alpha, ms, beta, restrict, weigh=True)) == want


@_PROPERTY
@given(_grouped_forms(st.sampled_from([2, 7, 30, 101])), st.sampled_from([0, 1, 3, 5, 10 ** 6 + 1]),
       st.sampled_from([1, 3, 2, 4, 16, 64]), st.sampled_from([None, 1, 5]))
# a unit side against q = 2 and 7, counts past one base-2**13 digit, in chunks of 3 rows, and of one
# row against spans of 5 groups
@example((2, dyadic_window(1), None, dyadic_window(30000), None, None), 1, 3, None)
@example((7, dyadic_window(3), np.array([1.0, -0.5, 0.0]), dyadic_window(30000), None, 45000.5), 5, 1, 5)
def test_chunked_grouped_route_bitwise_the_whole_block_and_the_stream(form, a, rows, span):
    # _CELLS set to rows times the groups makes chunks of that many rows
    # against every group, and set to a span below the groups, chunks of
    # one row against that many; their counted sums carried: the value,
    # term count and weight sum of the whole block in one chunk, and of
    # the pair stream, bit for bit
    q, ls, alpha, ms, beta, restrict = form
    want = _sums_bits(_stream_sums(q, a, ls, alpha, ms, beta, restrict))
    for by_l in (False, True):
        iv, coeff, counts = _grouped_whole(q, a, ls, alpha, ms, beta, restrict, by_l)
        whole = _sums_bits((_terms_value(iv, coeff, q, counts), int(counts.sum()),
                            exact_sums(np.abs(coeff).reshape(1, -1), counts)[0]))
        cells = rows * _groups(q, ls, alpha, ms, beta, by_l) if span is None else span
        with mock.patch.object(bilinear, "_CELLS", cells):
            chunks = list(_grouped(q, a, ls, alpha, ms, beta, restrict, by_l))
        carried, count = CarriedSums(3), 0
        for iv, coeff, counts in chunks:
            assert len(iv) == len(coeff) == len(counts) <= cells
            carried.add(np.vstack((_term_parts(iv, coeff, q), np.abs(coeff))), counts)
            count += int(counts.sum())
        sums = carried.sums()
        assert _sums_bits((complex(sums[0], sums[1]), count, sums[2])) == whole == want, by_l
        with mock.patch.object(bilinear, "_CELLS", cells):
            assert _sums_bits(_evaluate(q, a, ls, alpha, ms, beta, restrict, weigh=True)) == want


def test_grouping_takes_the_cheaper_route_on_decomposition_blocks():
    # at q = 7 the blocks of a2 (a unit m side) are grouped by m, all but
    # the smallest; a3's short mu windows against long log windows stream
    routes = {}
    for comp in _components(10 ** 6, 100):
        ls, ms = dyadic_window(comp.L), dyadic_window(comp.M)
        route = _grouping(7, ls, comp.alpha, ms, comp.beta, comp.restrict)
        kind = "a2" if comp.beta is None else ("a3" if comp.sign == 1 else "a4")
        routes.setdefault(kind, []).append(route)
    assert routes["a2"].count(False) >= len(routes["a2"]) - 1
    assert set(routes["a3"]) == {None}


def test_routes_charge_the_byte_budget_before_building(monkeypatch):
    # at q = 10**6 + 3 every pair is its own group, so the form streams; a
    # unit side at q = 2 is one group, the odd m, so one row is one cell
    spec = BilinearSpec(L=1, M=2 ** 20, a=1, q=10 ** 6 + 3)
    # the stream is charged one chunk: _CHUNK pairs, _CHUNK m and one row
    chunk = bilinear._CHUNK_BYTES + bilinear._COLUMN_BYTES
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(chunk - 1))
    with pytest.raises(CapacityError, match=r"a stream of 1048576 \(l, m\) pairs needs"):
        bilinear_sum(spec)
    # a budget below the whole stream's 2**20 * 128 bytes fits the chunks
    # and the unit-root table mod q; of the m ~ 2**20, only q is no unit
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(2 ** 20 * 64))
    assert bilinear_sum(spec).term_count == 2 ** 20 - 1
    grouped = BilinearSpec(L=1, M=2 ** 20, a=1, q=2)
    assert bilinear_sum(grouped).term_count == 2 ** 19
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(bilinear._CELL_BYTES - 1))
    with pytest.raises(CapacityError, match="grouped terms need"):
        bilinear_sum(grouped)


def _recorded_tables(monkeypatch):
    """Weak references to the inverse tables arith builds from here on,
    inverse_table's cached ones among them: its cache is emptied first."""
    arith.inverse_table.cache_clear()
    tables = []
    build = arith._build_inverse_table

    def recorded(q, *rest):
        table = build(q, *rest)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(arith, "_build_inverse_table", recorded)
    return tables


#: A window of 6,000 against q = 10007 asks for q/2 inverses or more: the
#: m of the stream (one l), or the rows of a block grouped by its m.
_DENSE_FORMS = [(None, 1, 6000, r"a stream of 6000 \(l, m\) pairs needs"),
                (False, 6000, 1, "grouped terms need")]


@pytest.mark.parametrize("route,L,M,refusal", _DENSE_FORMS)
def test_inverse_table_is_built_once_and_goes_with_the_form(monkeypatch, route, L, M, refusal):
    # the slices or chunks, six or more, gather from one table, which no
    # cache keeps once the form is evaluated
    q, ls, ms = 10007, dyadic_window(L), dyadic_window(M)
    want = _evaluate(q, 3, ls, None, ms, None, None)
    tables = _recorded_tables(monkeypatch)
    monkeypatch.setattr(bilinear, "_grouping", lambda *form: route)
    monkeypatch.setattr(bilinear, "_CHUNK", 1000)
    monkeypatch.setattr(bilinear, "_CELLS", 1000)
    assert _evaluate(q, 3, ls, None, ms, None, None) == want
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None


@pytest.mark.parametrize("route,L,M,refusal", _DENSE_FORMS)
def test_refused_form_builds_no_inverse_table(monkeypatch, route, L, M, refusal):
    # the budget fits the table's build, which batch_inverses' rule asks
    # of a dense route, but not the table beside a chunk
    q = 10007
    tables = _recorded_tables(monkeypatch)
    monkeypatch.setattr(bilinear, "_grouping", lambda *form: route)
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(q * arith._TABLE_BYTES))
    with pytest.raises(CapacityError, match=refusal):
        _evaluate(q, 3, dyadic_window(L), None, dyadic_window(M), None, None)
    assert tables == []


def _stream_key(iv, coeff):
    """The pairs of a stream as a sorted list of (residue, coefficient bits)."""
    coeff = np.asarray(coeff, dtype=np.complex128)
    return sorted(zip(iv.tolist(), coeff.real.tolist(), coeff.imag.tolist()))


@_PROPERTY
@given(_forms(), st.sampled_from([1, 2, 5, 16, 2 ** 16]), st.sampled_from(["array", "range", "sliced"]))
@example((65537, 16, 32, _form_window(16, "int"), _form_window(32, "float"), 700), 3, "sliced")
def test_pair_chunks_hold_the_stream_in_bounded_chunks(form, size, side):
    # every pair once, chunks of at most size pairs, with the m window as
    # an array or a range and beta as an array or made slice by slice
    q, L, M, alpha, beta, restrict = form
    ls = dyadic_window(L)
    ms = dyadic_window(M) if side == "array" else dyadic_range(M)
    if side == "sliced" and beta is not None:
        whole = beta
        beta = SlicedCoefficients(len(whole), lambda lo, hi: whole[lo:hi] * 1)
    want = _twin_pairs(q, ls, alpha, dyadic_window(M), None if beta is None else beta[:], restrict, twist=3)
    chunks = list(_pair_chunks(q, ls, alpha, ms, beta, restrict, 3, size))
    assert all(0 < len(iv) <= size and len(iv) == len(c) for iv, c in chunks)
    got = [p for iv, c in chunks for p in _stream_key(iv, c)]
    assert sorted(got) == _stream_key(*want)


@_PROPERTY
@given(_grouped_forms(), st.sampled_from([0, 1, 5]), st.sampled_from([1, 3, 64]))
def test_evaluate_bitwise_whatever_the_chunk_size(form, a, size):
    # the carried sums of small chunks against one chunk of the whole stream
    q, ls, alpha, ms, beta, restrict = form
    want = _sums_bits(_evaluate(q, a, ls, alpha, ms, beta, restrict, weigh=True))
    with mock.patch.object(bilinear, "_CHUNK", size):
        got = _sums_bits(_evaluate(q, a, ls, alpha, ms, beta, restrict, weigh=True))
    assert got == want


def test_complex_stream_value_bitwise_whatever_the_chunk_size(monkeypatch):
    # chunks of 2^14 terms or more multiply coefficient by root in the
    # same order as shorter ones: a chunk size never moves a bit of the sum
    ms = dyadic_window(2 ** 16)
    beta = np.exp(0.37j * np.arange(len(ms))) * 0.5
    monkeypatch.setattr(bilinear, "_grouping", lambda *args: None)
    values = set()
    for size in (2 ** 16, 2 ** 14, 2 ** 13):
        monkeypatch.setattr(bilinear, "_CHUNK", size)
        value = _evaluate(65537, 3, dyadic_window(1), None, ms, beta, None)[0]
        values.add(_complex_bits(value))
    assert len(values) == 1


#: The charge of the stream below for its largest chunk, without the table:
#: 5 pairs, and 5 m and 8 l.
_STREAM_BYTES = 5 * bilinear._PAIR_BYTES + (5 + 8) * bilinear._COLUMN_BYTES


@pytest.mark.parametrize("q,spare,tables", [(97, None, [97]), (256, None, [256]), (257, None, []),
                                            (97, 97 * 32, [97]), (97, 97 * 32 - 1, [])])
def test_evaluate_decides_its_roots_table_once_per_stream(monkeypatch, q, spare, tables):
    # 8 x 16 = 128 pairs in chunks of 5: a stream of at least q/2 pairs
    # builds one table for every chunk, if the table (32 bytes a residue)
    # fits the budget beside the stream's largest chunk, so spare bytes over
    # the stream's own charge; otherwise no chunk builds one, and both give
    # the correctly rounded sums of the table's terms
    if spare is not None:
        monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", str(_STREAM_BYTES + spare))
    charges = []
    charge = bilinear.charge_budget
    monkeypatch.setattr(bilinear, "charge_budget",
                        lambda need, subject, budget=None: charges.append(need) or charge(need, subject, budget))
    built = []
    monkeypatch.setattr(bilinear, "unit_roots", lambda q: built.append(q) or unit_roots(q))
    monkeypatch.setattr(bilinear, "_grouping", lambda *args: None)
    monkeypatch.setattr(bilinear, "_CHUNK", 5)
    ls, ms = dyadic_window(8), dyadic_window(16)
    alpha, beta = np.linspace(-1, 2, len(ls)), np.sqrt(np.arange(1.0, len(ms) + 1))
    value, count, _ = _evaluate(q, 3, ls, alpha, ms, beta, None)
    assert built == tables
    # the stream is charged for the table it holds beside every chunk
    assert charges[-1] == _STREAM_BYTES + 32 * len(tables) * q
    monkeypatch.delenv("KLOOSTERLAB_MAX_BYTES", raising=False)
    iv, coeff = _twin_pairs(q, ls, alpha, ms, beta, None, twist=3)
    table = unit_roots(q)
    assert count == len(iv)
    assert value == complex(math.fsum(table.real[iv] * coeff), math.fsum(table.imag[iv] * coeff))


def test_term_cap_counts_the_pairs_of_the_product_window(monkeypatch):
    # l ~ 10 and m ~ 1000 make a rectangle of 10**4 pairs, and x = 15000 a
    # product window of fewer: the cap counts the window's
    ls, ms = dyadic_window(10), dyadic_window(1000)
    window = sum(1 for l in ls.tolist() for m in ms.tolist() if 15000 <= l * m < 30000)
    assert window < len(ls) * len(ms)
    spec = BilinearSpec(L=10, M=1000, a=1, q=7, restrict_lm=15000)
    monkeypatch.setattr(bilinear, "_TERM_CAP", len(ls) * len(ms) - 1)
    assert bilinear_sum(spec).term_count > 0
    monkeypatch.setattr(bilinear, "_TERM_CAP", window - 1)
    with pytest.raises(CapacityError, match=f"bilinear form has {window} pairs in its product window"):
        bilinear_sum(spec)


def _twin_report(L, M, Q, a, alpha, beta):
    """(lhs, trivial) of a Type I/II sweep, one modulus at a time: the twin
    histogram of each q, its direct scan over the unit twists (a None) or
    the magnitude of math.fsum of its terms at the twist a, and numpy's sum
    of the |coefficient| of its stream; each summed over q by math.fsum."""
    ls, ms = dyadic_window(L), dyadic_window(M)
    sizes, weights = [], []
    for q in range(Q, 2 * Q):
        h, weight = _twin_histogram(q, ls, alpha, ms, beta)
        if a is None:
            sizes.append(_direct_max_abs_over_twists(h, q))
        else:
            support = np.flatnonzero(h)
            terms = unit_roots(q)[(a % q) * support % q] * h[support]
            sizes.append(abs(complex(math.fsum(terms.real), math.fsum(terms.imag))))
        weights.append(weight)
    return math.fsum(sizes), math.fsum(weights)


def _sweep_coeffs(kind, n, rng):
    """Coefficients on a window of n integers: unit (None), real or complex
    with zero entries, or all zero."""
    if kind == "unit":
        return None
    if kind == "zero":
        return np.zeros(n)
    vals = rng.uniform(-1, 1, n) * (rng.random(n) < 0.7)
    return vals if kind == "real" else vals * np.exp(2j * np.pi * rng.random(n))


@st.composite
def _sweeps(draw):
    """A Type I or II report: Q to 40, so even and odd moduli; L and M within
    Q for Type II, and M past 2Q for Type I (several m per residue); unit,
    real, complex or zero coefficients."""
    report = draw(st.sampled_from(["type1", "type2-avg-max", "type2-fixed-a"]))
    Q = draw(st.integers(2, 40))
    L = draw(st.sampled_from([1, 1.5, 3, 4.5, 8]))
    M = draw(st.sampled_from([1, 2, 3.5, 8] if report != "type1" else [1, 3, 30, 100]))
    if report != "type1":
        L, M = min(L, Q), min(M, Q)
    a = None if report == "type2-avg-max" else draw(st.sampled_from([1, 2, 5, 10 ** 6 + 1]))
    if report == "type1":
        a = draw(st.sampled_from([None, a]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = st.sampled_from(["unit", "real", "complex", "zero"])
    alpha = _sweep_coeffs(draw(kinds), len(dyadic_window(L)), rng)
    beta = None if report == "type1" else _sweep_coeffs(draw(kinds), len(dyadic_window(M)), rng)
    return report, L, M, Q, a, alpha, beta


def _report(report, L, M, Q, a, alpha, beta):
    if report == "type1":
        return type1_report(L, M, Q, a=a, alpha=alpha)
    if report == "type2-avg-max":
        return type2_avg_max_report(L, M, Q, 2, alpha=alpha, beta=beta)
    return type2_fixed_a_report(a, L, M, Q, alpha=alpha, beta=beta)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_sweeps())
# 1716 = 2^2 * 3 * 11 * 13 shares a prime with every l ~ 8: its row has no
# terms and reads 0.0, at a fixed twist and in the scan
@example(("type2-fixed-a", 8, 4, 860, 5, np.linspace(-1, 1, 8) * 0.5j, None))
@example(("type1", 8, 1, 860, None, None, None))
# complex alpha against real beta with zeros, Type I with M = 100 > 2Q
@example(("type2-avg-max", 8, 8, 24, None, np.linspace(-1, 1, 8) * (0.6 - 0.8j), np.resize([0.5, 0.0, -1.0], 8)))
@example(("type1", 3, 100, 7, 3, np.array([0.3, -1.0, 0.7]), None))
def test_reports_bitwise_equal_the_per_modulus_twin(case):
    report, L, M, Q, a, alpha, beta = case
    rep = _report(report, L, M, Q, a, alpha, beta)
    lhs, trivial = _twin_report(L, M, Q, a, alpha, beta)
    assert (rep.lhs.hex(), rep.trivial_bound.hex()) == (lhs.hex(), trivial.hex())


def test_sweep_blocks_charge_the_byte_budget_before_building(monkeypatch):
    # a block of three moduli is charged for its pairs, its inverted windows
    # and its histograms, before any of them is built
    ls, ms = dyadic_window(8), dyadic_window(8)
    alpha = np.linspace(-1, 1, len(ls))
    need = (3 * (len(ls) * len(ms) * bilinear._PAIR_BYTES + (len(ls) + len(ms)) * bilinear._COLUMN_BYTES)
            + (64 + 65 + 66) * expsums._SCAN_BYTES)
    want = _rows([64, 65, 66], ls, alpha, ms, None)
    build = bilinear._phase_histograms

    def refused(*args):
        raise AssertionError("histograms built before the charge")

    monkeypatch.setattr(bilinear, "_phase_histograms", refused)
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(need - 1))
    with pytest.raises(CapacityError, match=rf"moduli 64 to 66 with 64 \(l, m\) pairs each need about {need} bytes"):
        _rows([64, 65, 66], ls, alpha, ms, None)
    monkeypatch.setattr(bilinear, "_phase_histograms", build)
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(need))
    assert _rows([64, 65, 66], ls, alpha, ms, None) == want
    # the sweep cuts its blocks to the budget, down to one modulus, whose
    # charge is then refused
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(64 * 64 + 16 * 64 + 64 * 64 - 1))
    with pytest.raises(CapacityError, match="moduli 64 to 64 with 64"):
        type2_avg_max_report(8, 8, 64, 2)


def test_flat_histogram_rescore_stays_within_its_charge(monkeypatch):
    # the first block of type1_report(8, 4096, 1024) is q = 1024 alone, with
    # a flat histogram on the units: every one of the 256 twists survives
    # the spectrum, and the re-score takes its 256 x 512 cells a chunk at a
    # time, charged beside the block's arrays
    ls, ms = dyadic_window(8), dyadic_window(4096)
    block = moduli_blocks(1024, 2048, len(ls) * len(ms), scan=True)[0]
    assert block == range(1024, 1025)
    want = _rows([1024], ls, None, ms, None)
    needs = []
    for module in (arith, bilinear, expsums):
        monkeypatch.setattr(module, "charge_budget", lambda need, subject, budget=None: needs.append((need, subject)))
    tracemalloc.start()
    try:
        got = _rows([1024], ls, None, ms, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    rescore = [need for need, subject in needs if subject == "re-scoring 256 twists needs"]
    assert len(rescore) == 1
    assert peak <= max(need for need, _ in needs)
    assert peak < 2 * 10 ** 6
