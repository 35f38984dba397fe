"""The exact accumulator, by error-free level extraction, against its math.fsum twin."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import accumulate
from kloosterlab.accumulate import CarriedSums, exact_sum, exact_sums, fsum_complex, unit_roots, unit_roots_at

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: Finite doubles of every size from 1e-300 to 1e300, subnormals and zeros.
_SCALED = st.builds(
    lambda mantissa, power: mantissa * 10.0 ** power,
    st.floats(-1.0, 1.0),
    st.integers(-300, 300),
)
_FINITE = st.one_of(
    _SCALED,
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
)


@st.composite
def _streams(draw):
    """A stream, often with each of some terms cancelled by its negation."""
    values = draw(st.lists(_FINITE, max_size=60))
    cancelled = draw(st.integers(0, len(values)))
    values += [-v for v in values[:cancelled]]
    return draw(st.permutations(values))


def _same(got: float, want: float) -> bool:
    return got.hex() == want.hex()


def _extracted(block):
    """Send every array, however short, through the level extraction, in
    blocks of block terms, counted or not."""
    return mock.patch.multiple(accumulate, _BLOCK=block, _FSUM_TERMS=0)


@_PROPERTY
@given(values=_streams(), block=st.sampled_from([1, 3, 7, 1 << 14]))
@example(values=[], block=1 << 14)
@example(values=[-0.0, -0.0], block=1 << 14)
@example(values=[1e300, 1.0, -1e300, 5e-324], block=1)
@example(values=[0.0, 1e-300, -3e-310, 5e-324, 0.0], block=1 << 14)
# 1.0 beside full-mantissa terms near 1e-30: three levels or more
@example(values=[1.0, 1e-30, -3.3333333333333333e-30, 7.77e-31, 1.0 + 2.0 ** -52], block=1 << 14)
@example(values=[1.0, 1e-30, 2e-60, 3e-90, 4e-120, -1.0], block=3)
# a level scale 2**(e + t) that falls among the subnormals, alone or
# below a normal first level
@example(values=[1e-310, -3e-320, 5e-324, 2.5e-315], block=1 << 14)
@example(values=[2.0 ** -1000 * (1 + 2.0 ** -52), 5e-324, -2.0 ** -1060], block=1 << 14)
# rows of only -0.0 sum to +0.0, as math.fsum gives them
@example(values=[-0.0] * 600, block=1 << 14)
@example(values=[-0.0, -0.0, -0.0], block=1)
def test_exact_sum_bitwise_fsum(values, block):
    # blocks of 1, 3 and 7 terms put every stream across block boundaries
    with _extracted(block):
        assert _same(exact_sum(np.array(values, dtype=np.float64)), math.fsum(values))
        assert _same(exact_sum(values), math.fsum(values))


@_PROPERTY
@given(pairs=st.lists(st.tuples(_FINITE, _FINITE), max_size=40), block=st.sampled_from([2, 5, 1 << 14]))
@example(pairs=[(0.0, 1e-300), (2.5e-320, 0.0), (-1e-300, 0.0)], block=1 << 14)
def test_fsum_complex_bitwise_fsum_per_part(pairs, block):
    re = [p[0] for p in pairs]
    im = [p[1] for p in pairs]
    with _extracted(block):
        got = fsum_complex(np.array(re), np.array(im))
    assert _same(got.real, math.fsum(re)) and _same(got.imag, math.fsum(im))


@_PROPERTY
@given(k=st.integers(1, 6), data=st.data(), block=st.sampled_from([1, 4, 1 << 14]))
def test_exact_sums_of_rows_bitwise_fsum_per_row(k, data, block):
    n = data.draw(st.integers(0, 30))
    rows = [data.draw(st.lists(_FINITE, min_size=n, max_size=n)) for _ in range(k)]
    _check_rows(rows, block)


@pytest.mark.parametrize("rows", [
    [[1e-300, 2e-310], [0.0, 0.0]],
    [[3e-5, 0.0, 1e-300]],
    [[], []],
    [[-0.0], [5e-324]],
])
def test_exact_sums_rows_of_tiny_terms_beside_zeros(rows):
    # zeros beside tiny terms: the level scale follows the largest magnitude
    _check_rows(rows, 1 << 14)


def _check_rows(rows, block):
    with _extracted(block):
        got = exact_sums(np.array(rows, dtype=np.float64).reshape(len(rows), -1))
    assert [g.hex() for g in got] == [math.fsum(row).hex() for row in rows]


def test_exact_sum_of_long_unit_root_streams_across_blocks():
    roots = unit_roots(100003)
    idx = np.random.default_rng(5).integers(0, 100003, 3 * (1 << 14) + 11)
    terms = roots[idx] * np.linspace(0.0, 1.0, len(idx))
    got = fsum_complex(terms.real, terms.imag)
    assert _same(got.real, math.fsum(terms.real.tolist()))
    assert _same(got.imag, math.fsum(terms.imag.tolist()))


def _outcome(fn, values):
    try:
        return fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("values", [
    [math.inf, 1.0],
    [-math.inf, -math.inf, 2.0],
    [math.nan, 1.0],
    [math.inf, -math.inf],
    [1e308, 1e308],
    [1e308, 1e308, -1e308],
    [1e308, -1e308, 1.0],
    [1.7976931348623157e308, 1e292],
    [2.0 ** 1000] * 3,
])
def test_non_finite_and_near_overflow_input_keeps_fsum_outcome(values):
    # math.fsum sums these itself: same value, or the same exception and
    # message, on the short-array route and after the level extraction refuses them
    for fsum_terms in (accumulate._FSUM_TERMS, 0):
        with mock.patch.object(accumulate, "_FSUM_TERMS", fsum_terms):
            assert _outcome(exact_sum, np.array(values)) == _outcome(math.fsum, values)
            complex_outcome = _outcome(lambda v: fsum_complex(v, [0.0] * len(v)).real, values)
            assert complex_outcome == _outcome(math.fsum, values)
            counted = _outcome(lambda v: exact_sums(np.reshape(v, (1, -1)), [2] * len(v))[0], values)
            assert counted == _outcome(math.fsum, [v for v in values for _ in range(2)])


def test_short_arrays_take_fsum_and_long_ones_the_level_extraction():
    # both sides of the crossover, in one row and in several
    rng = np.random.default_rng(11)
    for shape in [(1, accumulate._FSUM_TERMS - 1), (1, accumulate._FSUM_TERMS), (2, 255), (2, 256), (64, 7), (64, 9)]:
        rows = rng.uniform(-1, 1, shape) * 2.0 ** rng.integers(-60, 60, shape)
        kernel = accumulate._level_sums
        with mock.patch.object(accumulate, "_level_sums", side_effect=kernel) as spy:
            got = exact_sums(rows)
        assert spy.called == (rows.size >= accumulate._FSUM_TERMS)
        assert [g.hex() for g in got] == [math.fsum(row).hex() for row in rows.tolist()]


@st.composite
def _counted(draw):
    """Rows of finite terms and one multiplicity per column: small, past one
    base-2**13 digit, or zero (a column that is left out)."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 12))
    rows = [draw(st.lists(_FINITE, min_size=n, max_size=n)) for _ in range(k)]
    counts = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(2 ** 13 - 2, 2 ** 13 + 2),
                                     st.integers(0, 3 * 2 ** 13)), min_size=n, max_size=n))
    return rows, counts


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=_counted(), block=st.sampled_from([1, 3, 1 << 13]), fsum_terms=st.sampled_from([0, 512]))
@example(case=([[1.0, 1e-300, -1.0]], [2 ** 13, 2 ** 13 + 1, 2 ** 13]), block=1, fsum_terms=0)
@example(case=([[5e-324, -0.0], [1e300, -1e300]], [3 * 2 ** 13, 7]), block=3, fsum_terms=0)
# counts at the 2**13 digit edge: the largest digit, and the first counts of two digits
@example(case=([[0.1, -1.0 / 3, 1e-30]], [2 ** 13 - 1, 2 ** 13, 2 ** 13 + 1]), block=1 << 14, fsum_terms=0)
@example(case=([[-0.0, -0.0], [-0.0, 0.0]], [2 ** 13 - 1, 2 ** 13]), block=1, fsum_terms=0)
def test_counted_sums_bitwise_fsum_of_the_expanded_stream(case, block, fsum_terms):
    rows, counts = case
    expanded = [[v for v, c in zip(row, counts) for _ in range(c)] for row in rows]
    with _extracted(block), mock.patch.object(accumulate, "_FSUM_TERMS", fsum_terms):
        got = exact_sums(np.array(rows, dtype=np.float64).reshape(len(rows), -1), np.array(counts, dtype=np.int64))
    assert [g.hex() for g in got] == [math.fsum(row).hex() for row in expanded]


@pytest.mark.parametrize("counts", [
    [2 ** 20 + 3, 2 ** 13, 2 ** 13 - 1, 1, 0],
    [2 ** 26 + 1, 3, 2 ** 13, 2 ** 26 - 1, 5],
    [2 ** 40 + 12345, 2 ** 26, 1, 2 ** 52 - 1, 2 ** 39],
    # the 2**26 digit edge: digits of 2**13 - 1 and a digit 1 at the third level
    [2 ** 26 - 1, 2 ** 26, 2 ** 26 + 1, 2 ** 13 - 1, 2 ** 13],
])
def test_counts_past_2_13_and_2_26_give_the_correctly_rounded_sum(counts):
    # the expanded stream's exact sum, rounded once: math.fsum of that stream
    # where it fits in memory, and the exact rational sum in any case
    rng = np.random.default_rng(len(counts) + counts[0] % 97)
    rows = rng.uniform(-1, 1, (2, len(counts))) * 2.0 ** rng.integers(-40, 40, (2, len(counts)))
    got = exact_sums(rows, np.array(counts, dtype=np.int64))
    want = [float(sum((Fraction(t) * c for t, c in zip(row.tolist(), counts)), Fraction(0))) for row in rows]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    if sum(counts) <= 2 ** 21:
        assert [g.hex() for g in got] == [math.fsum(np.repeat(row, counts).tolist()).hex() for row in rows]


def test_long_counted_streams_keep_every_bin_exact():
    # 3 * 2**13 + 5 terms of one exponent, just below 1 and odd in the last bit, each
    # counted 2**13 - 1 times: without 13 bits of headroom for the digit, a level's
    # products and their sums would pass 2**53 units
    n = 3 * 2 ** 13 + 5
    terms = np.full((1, n), 1 - 2.0 ** -53) - np.arange(n) * 2.0 ** -52
    counts = np.full(n, 2 ** 13 - 1)
    want = float(sum((Fraction(t) for t in terms[0].tolist()), Fraction(0)) * (2 ** 13 - 1))
    assert exact_sums(terms, counts)[0].hex() == want.hex()


def test_counts_are_checked():
    rows = np.ones((2, 3))
    with pytest.raises(ValueError):
        exact_sums(rows, [1, 2])
    with pytest.raises(ValueError):
        exact_sums(rows, [1, -1, 2])
    with pytest.raises(ValueError):
        exact_sums(rows, [1.0, 2.0, 3.0])
    # a column counted zero times is left out, even an infinite one
    assert exact_sums(np.array([[math.inf, 0.5, 1.0]]), [0, 3, 1]) == [2.5]


@_PROPERTY
@given(data=st.data(), moduli=st.lists(st.one_of(
    st.integers(1, 3000), st.integers((1 << 16) - 40, (1 << 16) + 40)), min_size=1, max_size=8))
def test_unit_roots_at_column_of_moduli_bitwise_per_modulus(data, moduli):
    n = data.draw(st.integers(0, 50))
    idx = np.array([data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
                    for q in moduli], dtype=np.int64).reshape(len(moduli), n)
    got = unit_roots_at(idx, np.array(moduli)[:, None])
    want = [unit_roots_at(row, q) for row, q in zip(idx, moduli)]
    assert got.shape == idx.shape
    assert np.array_equal(got.view(np.int64), np.array(want).reshape(idx.shape).view(np.int64))


def test_unit_roots_at_column_refuses_bad_moduli():
    with pytest.raises(ValueError):
        unit_roots_at([[0], [0]], np.array([[5], [0]]))


def test_fsum_complex_refuses_streams_of_unequal_length():
    with pytest.raises(ValueError):
        fsum_complex([1.0, 2.0], [1.0])


def test_unit_roots_at_sizes_two_dimensional_gathers_by_entries(monkeypatch):
    # a 2 x 40 gather mod 61 has 80 entries, over q/2: one half table serves it
    lengths = []
    lower = accumulate._lower_roots

    def recorded(k, q):
        lengths.append(k.shape)
        return lower(k, q)

    monkeypatch.setattr(accumulate, "_lower_roots", recorded)
    idx = np.arange(80).reshape(2, 40) % 61
    got = unit_roots_at(idx, 61)
    assert lengths == [(31,)]
    assert got.shape == (2, 40)
    assert np.array_equal(got.view(np.int64), unit_roots(61)[idx].view(np.int64))


def _carried(rows, cuts):
    """CarriedSums of the rows fed in chunks cut at the given columns."""
    carried = CarriedSums(len(rows))
    edges = [0, *sorted(cuts), len(rows[0]) if rows else 0]
    for lo, hi in zip(edges, edges[1:]):
        carried.add(np.array([row[lo:hi] for row in rows], dtype=np.float64).reshape(len(rows), -1))
    return carried.sums()


@st.composite
def _cut_streams(draw):
    """One to three rows of finite terms, subnormal to 2**1000, and cuts
    anywhere, repeated cuts making empty chunks."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 50))
    terms = st.one_of(_FINITE, st.sampled_from([2.0 ** 1000, -(2.0 ** 1000), 2.0 ** -1074]))
    rows = [draw(st.lists(terms, min_size=n, max_size=n)) for _ in range(k)]
    cuts = draw(st.lists(st.integers(0, n), max_size=8))
    return rows, cuts


@_PROPERTY
@given(case=_cut_streams(), block=st.sampled_from([1, 3, 7, 1 << 14]), fsum_terms=st.sampled_from([0, 5, 512]))
@example(case=([[-0.0] * 40, [-0.0] * 40], [0, 0, 13, 40]), block=3, fsum_terms=0)
@example(case=([[2.0 ** 1000] * 30 + [-(2.0 ** 1000)] * 29 + [5e-324]], [7, 29, 29]), block=7, fsum_terms=0)
@example(case=([[1.0, 1e-30, -1.0, 2.0 ** -1074] * 6], [1, 2, 5, 23]), block=1, fsum_terms=0)
def test_carried_sums_bitwise_fsum_of_the_whole_stream(case, block, fsum_terms):
    # chunks cut on and off the block grid, empty ones, and chunks either
    # side of the short-chunk crossover: one final rounding of the stream
    rows, cuts = case
    with mock.patch.multiple(accumulate, _BLOCK=block, _FSUM_TERMS=fsum_terms):
        got = _carried(rows, cuts)
    assert [g.hex() for g in got] == [math.fsum(row).hex() for row in rows]


def test_carried_rows_of_negative_zeros_sum_to_positive_zero():
    with _extracted(5):
        got = _carried([[-0.0] * 12, [-0.0] * 3 + [0.0] * 9], [0, 4, 4, 11])
    assert [g.hex() for g in got] == [(0.0).hex()] * 2


@_PROPERTY
@given(values=_streams(), special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
       at=st.integers(0, 60), cuts=st.lists(st.integers(0, 70), max_size=5),
       fsum_terms=st.sampled_from([0, 512]))
@example(values=[1e300, 1.0], special=[math.inf, -math.inf], at=1, cuts=[1, 2], fsum_terms=0)
@example(values=[2.0 ** 1000] * 4, special=[math.nan], at=2, cuts=[2, 3], fsum_terms=0)
def test_carried_non_finite_chunk_keeps_the_fsum_outcome(values, special, at, cuts, fsum_terms):
    # a chunk with inf or nan keeps its terms: the same value, or the same
    # exception and message, as math.fsum of the whole stream
    stream = values[:at] + special + values[at:]
    cuts = [min(c, len(stream)) for c in cuts]
    with mock.patch.multiple(accumulate, _BLOCK=3, _FSUM_TERMS=fsum_terms):
        got = _outcome(lambda s: _carried([s], cuts)[0], stream)
    assert got == _outcome(math.fsum, stream)


@st.composite
def _counted_cut_streams(draw):
    """One to three rows of terms, subnormal to 2**1000, sometimes with an
    inf or a nan; one multiplicity per column, zero, small or past one
    base-2**13 digit; and cuts anywhere, repeated cuts making empty chunks."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 24))
    terms = st.one_of(_FINITE, st.sampled_from([2.0 ** 1000, -(2.0 ** 1000), 2.0 ** -1074]))
    rows = [draw(st.lists(terms, min_size=n, max_size=n)) for _ in range(k)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    counts = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(2 ** 13 - 2, 2 ** 13 + 2),
                                     st.integers(0, 3 * 2 ** 13)), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(0, n), max_size=6))
    return rows, counts, cuts


def _sums_outcome(fn):
    """The hex of each sum fn returns, or its exception and message."""
    try:
        return [s.hex() for s in fn()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_counted_cut_streams(), block=st.sampled_from([1, 3, 1 << 14]), fsum_terms=st.sampled_from([0, 5, 512]))
# few terms, counted past the short-chunk crossover; huge terms counted; an inf beside a nan
@example(case=([[0.5, -1e-300]], [300, 300], [1]), block=1 << 14, fsum_terms=512)
@example(case=([[2.0 ** 1000, -(2.0 ** 1000), 1.0]], [3 * 2 ** 13, 3 * 2 ** 13 - 1, 7], [1, 2]), block=3, fsum_terms=0)
@example(case=([[math.inf, 1.0], [math.nan, -0.0]], [2, 2 ** 13], [1]), block=1, fsum_terms=0)
def test_carried_counted_sums_bitwise_exact_sums_under_any_cut(case, block, fsum_terms):
    # CarriedSums fed (chunk, counts) cut anywhere: the outcome of
    # exact_sums(rows, counts) and of math.fsum of each repeated row, its
    # level sums or its kept terms alike
    rows, counts, cuts = case
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    counts = np.array(counts, dtype=np.int64)
    edges = [0, *sorted(cuts), arr.shape[1]]

    def carried():
        sums = CarriedSums(len(arr))
        for lo, hi in zip(edges, edges[1:]):
            sums.add(arr[:, lo:hi], counts[lo:hi])
        return sums.sums()

    with mock.patch.multiple(accumulate, _BLOCK=block, _FSUM_TERMS=fsum_terms):
        got, whole = _sums_outcome(carried), _sums_outcome(lambda: exact_sums(arr, counts))
    assert got == whole == _sums_outcome(lambda: [math.fsum(np.repeat(row, counts).tolist()) for row in arr])


def test_counted_terms_take_room_by_their_multiplicity():
    # 2**1008 counted 3000 times weighs about 2**1020.55 of the 2**_TOP
    # room: the first chunk keeps its one level sum, and the second, past
    # the room, its 3000 terms for the final math.fsum, as the repeated
    # stream would
    carried = CarriedSums(1)
    for _ in range(2):
        carried.add([[2.0 ** 1008]], [3000])
    assert [len(part) for part in carried._parts] == [1 + 3000]
    assert carried.sums()[0] == math.fsum([2.0 ** 1008] * 6000) == 6000 * 2.0 ** 1008


def test_carried_sums_refuse_chunks_of_another_row_count():
    carried = CarriedSums(2)
    with pytest.raises(ValueError):
        carried.add(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        carried.add(np.zeros(4))


def _half_table_roots(idx, q):
    """unit_roots_at as it gathered a dense request from the lower half of
    the table and conjugated the upper entries."""
    idx = np.asarray(idx, dtype=np.int64)
    upper = idx > q // 2
    roots = accumulate._lower_roots(np.arange(q // 2 + 1), q)[np.where(upper, q - idx, idx)]
    return np.conjugate(roots, out=roots, where=upper)


@pytest.mark.parametrize("q", [1, 2, 3, 61, 64, 1000, 18037, 2 ** 16 + 1])
def test_dense_unit_roots_at_gathers_the_half_table_route_bitwise(q):
    # more than q/2 + 1 residues of one modulus, odd or even, come from the
    # whole table of unit_roots(q): the bits of the lower-half route
    rng = np.random.default_rng(q)
    for shape in ((q // 2 + 2,), (2, q // 2 + 1), (3 * q,)):
        idx = rng.integers(0, q, shape)
        got = unit_roots_at(idx, q)
        assert got.shape == idx.shape
        assert np.array_equal(got.view(np.int64), _half_table_roots(idx, q).view(np.int64))
