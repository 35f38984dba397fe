"""The binned exact accumulator against its math.fsum twin."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import accumulate
from kloosterlab.accumulate import exact_sum, fsum_complex, unit_roots, unit_roots_at

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


@_PROPERTY
@given(values=_streams(), block=st.sampled_from([1, 3, 7, 1 << 14]))
@example(values=[], block=1 << 14)
@example(values=[-0.0, -0.0], block=1 << 14)
@example(values=[1e300, 1.0, -1e300, 5e-324], block=1)
@example(values=[0.0, 1e-300, -3e-310, 5e-324, 0.0], block=1 << 14)
def test_exact_sum_bitwise_fsum(values, block):
    # blocks of 1, 3 and 7 terms put every stream across block boundaries
    with mock.patch.object(accumulate, "_BLOCK", block):
        assert _same(exact_sum(np.array(values, dtype=np.float64)), math.fsum(values))
        assert _same(exact_sum(values), math.fsum(values))


@_PROPERTY
@given(pairs=st.lists(st.tuples(_FINITE, _FINITE), max_size=40), block=st.sampled_from([2, 5, 1 << 14]))
@example(pairs=[(0.0, 1e-300), (2.5e-320, 0.0), (-1e-300, 0.0)], block=1 << 14)
def test_fsum_complex_bitwise_fsum_per_part(pairs, block):
    re = [p[0] for p in pairs]
    im = [p[1] for p in pairs]
    with mock.patch.object(accumulate, "_BLOCK", block):
        got = fsum_complex(np.array(re), np.array(im))
    assert _same(got.real, math.fsum(re)) and _same(got.imag, math.fsum(im))


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
    # math.fsum sums these itself: same value, or the same exception and message
    assert _outcome(exact_sum, np.array(values)) == _outcome(math.fsum, values)
    complex_outcome = _outcome(lambda v: fsum_complex(v, [0.0] * len(v)).real, values)
    assert complex_outcome == _outcome(math.fsum, values)


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
