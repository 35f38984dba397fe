"""Bilinear forms with modular-inverse phases, and their averaged bounds.

A bilinear form here is W = sum over l ~ L, m ~ M with (lm, q) = 1 of
alpha_l * beta_m * e(a * inv(l*m) / q), optionally restricted to the
dyadic product window l*m ~ x.  Coefficients are normalized: construction
rejects |alpha| > 1 or |beta| > 1, so measured values can be compared
against bound cores directly.

A form is evaluated by one of two routes, both giving the correctly
rounded exact sum of the same terms, so their values agree bit for bit:

- the pair stream: one term alpha_l * beta_m * e(a * inv(l*m) / q) per
  kept pair, in (l, m) order;
- grouped: one term per row, value and residue class of the other side,
  with the number of pairs that share it as its multiplicity.  The rows
  are the side with many coefficient values; a pair's term depends on the
  row, the other side's coefficient and its class mod q alone, so equal
  terms are summed once, times their count.

_grouping takes the grouped route where it expects fewer terms, weighed
by their cost, than the pair stream has pairs: as for a unit-coefficient
side against a small modulus.  Either route is built and summed a chunk
at a time, and the chunks' exact level sums, counted ones included, are
carried (accumulate.CarriedSums): the stream in chunks of at most _CHUNK
pairs from at most _CHUNK consecutive m, the grouped route in chunks of
rows and groups of at most _CELLS cells, both sized to
accumulate._CARRY_BYTES.  So a form holds one chunk of its work, never
the whole of it or of its row or m window: windows may be ranges, and a
side's coefficients SlicedCoefficients, made a slice at a time.  Both
routes charge the byte budget for their largest chunk before they build
one.

The averaged reports sweep q over [Q, 2Q) a block of moduli at a time, as
avg_max_report does: one residue histogram per modulus from one bincount,
then one expsums._twist_max over the block (maximal sums) or one gather of
unit roots (a fixed twist).  They compare the sums over q with the
monomials of the corresponding square-root cancellation bounds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .accumulate import (
    _CARRY_BYTES,
    _ROOTS_BYTES,
    CarriedSums,
    accumulation_bound,
    exact_sum,
    exact_sums,
    unit_roots,
    unit_roots_at,
)
from .arith import (
    _lanes,
    batch_inverses,
    block_inverses,
    charge_budget,
    factor_spans,
    inverter,
)
from .errors import CapacityError
from .expsums import _SCAN_BYTES, ExpSumValue, _row_starts, _twist_error_bound, _twist_max, moduli_blocks
from .reports import BoundReport, make_report

#: Pairs in the product window of one form that _evaluate takes on.  The
#: stream is built in chunks, so this bounds time, not memory.
_TERM_CAP = 5 * 10 ** 7
_COEFF_SLACK = 1.0 + 1e-12

#: Peak bytes per pair of a chunk of the pair stream, per cell (row x
#: group) of a chunk of the grouped route, and per l of the window, m of
#: a chunk's inverted range or entry of a grouped side, charged to the
#: byte budget before either route builds its arrays.  Under tracemalloc
#: (2-core VM), a chunk of a3's longest stream at x = 10**6, q = 7 (the
#: log window m ~ 409,600) peaked at 75 bytes per pair with its slice of
#: m at 26,214 pairs, and at 90 at 16,384 pairs, where the exact sums'
#: two work arrays are as long as the chunk; a grouped chunk of a3's
#: l ~ 108 block at x = 10**7, q = 7 peaked at 118 bytes per cell at
#: 10,922 cells.  Over the blocks of decompose at (x, U) in {(10**5, 10),
#: (10**6, 100), (10**6, 10)} and q in {7, 30, 101}, the stream forced on
#: every block and the grouped route where _grouping takes it, blocks
#: charged above 0.2 MB peaked at most 0.88 (stream) and 0.61 (grouped)
#: of their largest charge.  Blocks of 2**15 pairs of the Type I/II
#: sweeps (_sweep_block), charged at the same rates, peaked at 19-44
#: bytes per pair, histograms included, within half their charge.
_PAIR_BYTES = 80
_CELL_BYTES = 192
_COLUMN_BYTES = 96

#: Pairs per chunk of the stream, and cells per chunk of the grouped
#: route: as many as _CARRY_BYTES holds.
_CHUNK = _CARRY_BYTES // _PAIR_BYTES
_CELLS = _CARRY_BYTES // _CELL_BYTES

#: The largest charge of one chunk of either route, besides its rows and
#: a grouped side.
_CHUNK_BYTES = max(_CHUNK * (_PAIR_BYTES + _COLUMN_BYTES), _CELLS * _CELL_BYTES)

#: Coefficients sampled to judge how many values a side has.
_SAMPLE = 512

#: The cost of a grouped cell, and of each entry of a grouped side with
#: coefficients (its values, classes and sort), in pairs of the stream.
#: Fitted to both routes timed on every block of decompose at x in
#: {10**5, 3*10**5, 10**6} and q in {2, 7, 13, 30, 101} (2-core VM): the
#: rule's total came within 2% of always taking the faster route.
_CELL_PAIRS = 2
_SORT_PAIRS = 20


def dyadic_range(start: float) -> range:
    """Integers n with start <= n < 2*start, as a range."""
    if not 0 < start < math.inf:
        raise ValueError(f"need a positive finite range start, got {start}")
    return range(math.ceil(start), math.ceil(2 * start))


def dyadic_window(start: float) -> np.ndarray:
    """Integers n with start <= n < 2*start, as an int64 array."""
    return _ints(dyadic_range(start))


def _ints(window) -> np.ndarray:
    """A window of consecutive integers, an int64 array or a range, as an
    int64 array."""
    if isinstance(window, np.ndarray):
        return window
    return np.arange(window.start, window.stop, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SlicedCoefficients:
    """Coefficients of a window made a slice at a time: take(lo, hi) returns
    entries lo to hi - 1, bitwise that slice of the whole array.  Only
    slices are taken (coeffs[lo:hi]); coeffs[:] builds the whole array."""

    length: int
    take: Callable[[int, int], np.ndarray]

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, part: slice) -> np.ndarray:
        lo, hi, _ = part.indices(self.length)
        return self.take(lo, max(lo, hi))


def _check_coeffs(name: str, coeffs, window: np.ndarray):
    if coeffs is None:
        return None
    arr = np.asarray(coeffs)
    if arr.shape != window.shape:
        raise ValueError(
            f"{name} has length {arr.shape}, window needs {window.shape}"
        )
    # "not <=" also refuses NaN, which compares false with every bound
    if arr.size and not np.abs(arr).max() <= _COEFF_SLACK:
        raise ValueError(f"{name} entries must be finite with |coefficient| <= 1")
    return arr


@dataclass(frozen=True)
class BilinearSpec:
    """One bilinear form: ranges, coefficients, twist and modulus.

    alpha (on l ~ L) and beta (on m ~ M) are sequences aligned with the
    integer windows; None stands for unit coefficients, and a unit beta
    marks the form as Type I.  restrict_lm, when set to x, keeps only the
    pairs with x <= l*m < 2x.
    """

    L: float
    M: float
    a: int
    q: int
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    restrict_lm: float | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"need modulus >= 2, got {self.q}")
        object.__setattr__(self, "alpha", _check_coeffs("alpha", self.alpha, self.l_values))
        object.__setattr__(self, "beta", _check_coeffs("beta", self.beta, self.m_values))
        if self.restrict_lm is not None and not self.restrict_lm > 0:
            raise ValueError(f"restrict_lm must be positive, got {self.restrict_lm}")

    @property
    def l_values(self) -> np.ndarray:
        return dyadic_window(self.L)

    @property
    def m_values(self) -> np.ndarray:
        return dyadic_window(self.M)

    @property
    def is_type1(self) -> bool:
        return self.beta is None


def _product_window(ls: np.ndarray, ms, x) -> tuple[np.ndarray, np.ndarray]:
    """For each l in ls, the index range [start, stop) of the m in the
    window ms (consecutive integers, an array or a range) with
    x <= l*m < 2x.

    An integer l*m reaches a bound exactly when it reaches b = ceil(bound),
    so the first m that does is ceil(b / l): integer floor division takes
    it, and no quotient or product is rounded, however large.
    """
    first = int(ms[0]) if len(ms) else 0
    ends = [np.clip(-(-math.ceil(bound) // ls) - first, 0, len(ms)) for bound in (x, 2 * x)]
    return ends[0], ends[1]


def _row_ranges(ls: np.ndarray, ms, restrict) -> tuple[np.ndarray, np.ndarray]:
    """Each l's range [start, stop) of m indices: the product window, or all
    of ms without restriction."""
    if restrict is None:
        return np.zeros(len(ls), dtype=np.int64), np.full(len(ls), len(ms), dtype=np.int64)
    return _product_window(ls, ms, restrict)


def _cut(starts: np.ndarray, counts: np.ndarray, size: int):
    """Cut the runs [starts[r], starts[r] + counts[r]), taken in order, into
    pieces of at most size entries in all.  Yields, per piece, the slice of
    the runs it meets and the starts and counts of its parts of them."""
    ends = np.cumsum(counts)
    for p0 in range(0, int(ends[-1]) if len(ends) else 0, size):
        p1 = min(p0 + size, int(ends[-1]))
        part = slice(int(np.searchsorted(ends, p0, side="right")), int(np.searchsorted(ends, p1)) + 1)
        begin = ends[part] - counts[part]
        lo, hi = np.maximum(begin, p0), np.minimum(ends[part], p1)
        yield part, starts[part] + (lo - begin), hi - lo


def _pair_chunks(q: int, ls, alpha, ms, beta, restrict, twist: int = 1,
                 size: int = _CHUNK, held: int = 0):
    """The pair stream in chunks of at most size pairs from at most size
    consecutive m: (residues twist * inv(l*m) mod q, coefficients
    alpha_l * beta_m) per chunk, in (l, m) order.  A pair is kept when
    (lm, q) = 1, alpha_l != 0 and, with restrict = x, x <= l*m < 2x; rows
    and m that are not units are dropped first, and int64 residues are
    taken from products in arith._lanes(q).

    The m range the rows meet is cut into slices of size m; in each, the
    slice's m are inverted once and its pairs, in (l, m) order, are cut
    into chunks.  Where the m range asks for an inverse table
    (arith.inverter), it is built with the first chunk and goes with the
    stream.  Only a chunk's slice of ms and of beta (an array or
    SlicedCoefficients) is built.  Every pair of the stream is in exactly
    one chunk, with the residue and coefficient it has there.  The byte
    budget is charged, with held bytes and any inverse table besides, for
    the largest chunk when this is called, before any chunk or table is
    built.
    """
    rows = np.arange(len(ls)) if alpha is None else np.flatnonzero(alpha)
    inv_l = batch_inverses(ls[rows], q)
    unit = inv_l > 0
    rows, inv_l = rows[unit], inv_l[unit] * (twist % q) % q
    start, stop = _row_ranges(ls[rows], ms, restrict)
    lo, hi = (int(start.min()), int(stop.max())) if len(rows) else (0, 0)
    pairs = int((stop - start).sum())
    invert, table_bytes = inverter(q, hi - lo)
    charge_budget(held + table_bytes + min(pairs, size) * _PAIR_BYTES
                  + (min(hi - lo, size) + len(ls)) * _COLUMN_BYTES, f"a stream of {pairs} (l, m) pairs needs")
    lane = _lanes(q)
    inv_l = inv_l.astype(lane)
    a_rows = None if alpha is None else alpha[rows]

    def chunks():
        for k0 in range(lo, hi, size):
            s, e = np.clip(start, k0, k0 + size), np.clip(stop, k0, k0 + size)
            live = np.flatnonzero(e > s)
            if not len(live):
                continue
            s, e = s[live], e[live]
            m_lo, m_hi = int(s.min()), int(e.max())
            inv_m = invert(_ints(ms[m_lo:m_hi]))
            units = np.flatnonzero(inv_m)
            inv_m = inv_m[units].astype(lane)
            b_units = None if beta is None else beta[m_lo:m_hi][units]
            # each row's ends, counted in the slice's unit m
            s, e = np.searchsorted(units, s - m_lo), np.searchsorted(units, e - m_lo)
            for part, first, counts in _cut(s, e - s, size):
                a_part = None if a_rows is None else a_rows[live[part]]
                yield _chunk_pairs(q, lane, inv_l[live[part]], a_part, first, counts, inv_m, b_units)

    return chunks()


def _chunk_pairs(q: int, lane, inv_rows, a_rows, first, counts, inv_m, b_units):
    """One chunk of the pair stream: row r, with inverse inv_rows[r] and
    coefficient a_rows[r] (None: 1.0), meets the unit m first[r] to
    first[r] + counts[r] - 1 of its slice, with inverses inv_m and
    coefficients b_units (None: 1.0).  Returns the pairs' residues, as
    int64, and coefficients; the work arrays go with the call."""
    # pair t of the chunk sits at offset[r] + t and takes unit m first[r] + t
    offset = np.cumsum(counts) - counts
    mj = np.repeat(first - offset, counts)
    mj += np.arange(len(mj))
    iv = np.repeat(inv_rows, counts)
    iv *= inv_m[mj]
    iv %= lane(q)
    a_part = 1.0 if a_rows is None else np.repeat(a_rows, counts)
    b_part = np.ones(len(mj)) if b_units is None else b_units[mj]
    return iv.astype(np.int64, copy=False), a_part * b_part


def _sampled_values(coeffs) -> int:
    """Distinct values among the first _SAMPLE coefficients.  A run of
    consecutive entries, not a strided sample: a stride would see only
    multiples of itself, where arithmetic coefficients such as Lambda
    look far more uniform than they are."""
    head = np.sort(coeffs[:_SAMPLE])
    return int(np.count_nonzero(head[1:] != head[:-1])) + 1 if len(head) else 0


def _grouping(q: int, ls, alpha, ms, beta, restrict) -> bool | None:
    """The side to group by (True for l, False for m), or None when the pair
    stream is expected to be cheaper.

    A unit side is grouped by, m first; otherwise the side whose first
    _SAMPLE coefficients have fewer values, l on a strict majority only.
    The pairs (with alpha_l != 0 where l is the shorter side) and the rows
    that meet the product window come from the ranges of the shorter side,
    and a side of v sampled values over n integers has about v * min(q, n)
    groups.  Grouping is chosen when _CELL_PAIRS * rows * groups, plus
    _SORT_PAIRS per entry of a grouped side with coefficients, is below
    the pair count.  The estimate decides the cost only, never a value.
    """
    if not (len(ls) and len(ms)):
        return None
    if beta is None:
        by_l = False
    elif alpha is None:
        by_l = True
    else:
        by_l = _sampled_values(alpha) < _sampled_values(beta)
    l_short = len(ls) <= len(ms)
    short, long = (ls, ms) if l_short else (ms, ls)
    start, stop = _row_ranges(_ints(short), long, restrict)
    live = alpha != 0 if l_short and alpha is not None else np.ones(len(short), dtype=bool)
    start, stop = start[live], stop[live]
    pairs = int((stop - start).sum())
    if by_l != l_short:
        rows = len(start)
    else:
        rows = int(stop.max(initial=0)) - int(start.min(initial=0))
    cc, cs = (alpha, ls) if by_l else (beta, ms)
    groups = (1 if cc is None else _sampled_values(cc)) * min(q, len(cs))
    cost = _CELL_PAIRS * rows * groups + (0 if cc is None else _SORT_PAIRS * len(cs))
    return by_l if cost < pairs else None


def _unit_classes(window, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The residue classes mod q of the window (consecutive integers) that are
    units, ascending, and their inverses."""
    classes = np.arange(q) if len(window) >= q else np.sort(_ints(window) % q)
    inv = batch_inverses(classes, q)
    units = np.flatnonzero(inv)
    return classes[units], inv[units]


def _charge_cells(rows: int, groups: int, columns: int, held: int) -> None:
    charge_budget(held + rows * groups * _CELL_BYTES + columns * _COLUMN_BYTES,
                  f"{rows} x {groups} grouped terms need")


def _grouped(q: int, twist: int, ls, alpha, ms, beta, restrict, by_l: bool, held: int = 0):
    """The form grouped by the l side (by_l) or the m side, in chunks: per
    chunk, the residues twist * inv(l*m) mod q, the coefficients
    alpha_l * beta_m and the multiplicities of its distinct terms, as three
    aligned arrays.  The counted sums of the chunks, taken together, are
    the sums of _pair_chunks' stream.

    The rows are the other side: units mod q and, when they are l, with
    alpha_l != 0.  A group is one coefficient value and one unit class c
    mod q of the grouped side (a unit side has one value); with l grouped,
    only nonzero alpha count.  Every pair of a row with an entry of a group
    has the same residue, twist * inv(row) * inv(c), and the same
    coefficient, taken in alpha * beta order as the stream takes it.  A
    unit side counts the integers of class c in each row's range by floor
    arithmetic, without building its window.  A side with coefficients
    sorts its (value, class) keys stably by column, and counts by two
    searches per row and group.

    The grouped side is built once.  A chunk is as many entries of the
    rows' window as fit _CELLS cells against a span of at most _CELLS
    groups: rows that would meet more groups than that take them a span
    at a time.  Only a chunk's slice of the rows, of their inverses and
    of their coefficients (an array or SlicedCoefficients) is built.  The
    byte budget is charged, with held bytes besides, for one chunk's
    cells, the grouped side and any inverse table of the rows
    (arith.inverter), before any chunk or table is built.
    """
    rs, rc, cs, cc = (ms, beta, ls, alpha) if by_l else (ls, alpha, ms, beta)
    if cc is None:
        classes, inv_c = _unit_classes(cs, q)
        values = None
        groups = columns = len(classes)
        # the integers n of class c below a bound t number (t - c + q - 1) // q
        shift = (int(cs[0]) if len(cs) else 0) + q - 1
    else:
        cs, cc = _ints(cs), cc[:]
        distinct, vid = np.unique(cc, return_inverse=True)
        inv_all = batch_inverses(cs, q)
        cols = np.flatnonzero((inv_all > 0) & (cc != 0)) if by_l else np.flatnonzero(inv_all)
        keys = vid[cols] * q + cs[cols] % q
        order = np.argsort(keys, kind="stable")
        keys, cols = keys[order], cols[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        inv_c, values = inv_all[cols[first]], distinct[vid[cols[first]]]
        groups, columns = len(values), len(cs)
        # column j of group g marks g * len(cs) + j: ascending, since the
        # sort is stable and each group's columns ascend
        marks = (np.cumsum(first) - 1) * len(cs) + cols
        base = np.arange(len(values)) * len(cs)
    span = max(1, min(groups, _CELLS))
    size = max(1, _CELLS // span)
    invert, table_bytes = inverter(q, len(rs))
    _charge_cells(min(len(rs), size), span, columns, held + table_bytes)
    lane = _lanes(q)
    inv_c = inv_c.astype(lane)

    def chunk(r0: int, g0: int):
        window = _ints(rs[r0 : r0 + size])
        coeffs = None if rc is None else rc[r0 : r0 + size]
        rows = np.arange(len(window)) if by_l or coeffs is None else np.flatnonzero(coeffs)
        inv_r = invert(window[rows])
        unit = inv_r > 0
        rows, inv_r = rows[unit], inv_r[unit] * (twist % q) % q
        start, stop = _row_ranges(window[rows], cs, restrict)
        if values is None:
            c = classes[g0 : g0 + span] - shift
            counts = (stop[:, None] - c) // q - (start[:, None] - c) // q
        else:
            b = base[g0 : g0 + span]
            counts = np.searchsorted(marks, b + stop[:, None]) - np.searchsorted(marks, b + start[:, None])
        cells = np.flatnonzero(counts)
        r, g = np.divmod(cells, counts.shape[1])
        g += g0
        iv = inv_r[r].astype(lane)
        iv *= inv_c[g]
        iv %= lane(q)
        row_coeff = None if coeffs is None else coeffs[rows][r]
        group_coeff = None if values is None else values[g]
        a_part, b_part = (group_coeff, row_coeff) if by_l else (row_coeff, group_coeff)
        a_part = 1.0 if a_part is None else a_part
        b_part = np.ones(len(cells)) if b_part is None else b_part
        return iv.astype(np.int64, copy=False), a_part * b_part, counts.ravel()[cells]

    return (chunk(r0, g0) for r0 in range(0, len(rs), size) for g0 in range(0, groups, span))


def _term_parts(iv: np.ndarray, coeff: np.ndarray, q: int, table=None) -> np.ndarray:
    """The real and imaginary parts of the terms coeff * e(iv / q), as one
    (2, n) array.  The unit roots are gathered from table, unit_roots(q),
    when it is given; otherwise they are unit_roots_at(iv, q), the table's
    entries bit for bit, with no length-q table built.

    Real coefficients scale the real and imaginary parts of the unit roots
    in place, in one (2, n) buffer: bitwise the real and imaginary parts of
    the complex products, up to the sign of a zero, which no exact sum
    sees.  Complex coefficients take the complex product coeff * root,
    in that order at every length: a fused complex product does not
    commute bit for bit, and the operator form would let numpy reuse a
    long temporary root array with the operands swapped.
    """
    roots = unit_roots_at(iv, q) if table is None else None
    if np.iscomplexobj(coeff):
        terms = np.multiply(coeff, table[iv] if roots is None else roots)
        return np.array((terms.real, terms.imag))
    parts = np.empty((2, len(iv)))
    if roots is None:
        # every residue is in range, so "clip" changes nothing; it only
        # spares take the buffered copy that mode="raise" makes of out
        np.take(table.real, iv, out=parts[0], mode="clip")
        np.take(table.imag, iv, out=parts[1], mode="clip")
    else:
        parts[0], parts[1] = roots.real, roots.imag
    parts *= coeff
    return parts


def _evaluate(q: int, a: int, ls, alpha, ms, beta, restrict, weigh: bool = False, held: int = 0):
    """(value, term count, weight sum) of the form on the windows ls and ms,
    the weight sum of |alpha_l * beta_m| only when weigh is set (else None).

    Windows are consecutive integers, as int64 arrays or ranges; beta may
    be SlicedCoefficients.  The coefficients are taken as given:
    BilinearSpec checks them.  The route, grouped or the pair stream, is
    _grouping's choice; both give the correctly rounded exact sums of the
    same terms, bit for bit.  Either is summed a chunk at a time, its
    level sums carried (with their multiplicities on the grouped route),
    so it never holds more than a chunk of terms, nor, where q exceeds
    twice the product window's pair count or the table would not fit the
    byte budget beside the route's largest chunk, a length-q table of unit
    roots.  The byte charges add held bytes, which the caller holds
    meanwhile, and the table's.
    """
    ls = _ints(ls)
    start, stop = _row_ranges(ls, ms, restrict)
    pairs = int((stop - start).sum())
    if pairs > _TERM_CAP:
        raise CapacityError(f"bilinear form has {pairs} pairs in its product window, cap is {_TERM_CAP}")
    by_l = _grouping(q, ls, alpha, ms, beta, restrict)

    def route(table_bytes: int):
        if by_l is not None:
            return _grouped(q, a, ls, alpha, ms, beta, restrict, by_l, held + table_bytes)
        return ((iv, coeff, None) for iv, coeff in
                _pair_chunks(q, ls, alpha, ms, beta, restrict, a, _CHUNK, held + table_bytes))

    # a product window of q/2 pairs or more shares one table of unit roots
    # among its chunks, which costs about what q/2 roots taken alone do.
    # The table is held beside every chunk, so the route is charged for it
    # first; a shorter window, or a table that does not fit the budget
    # beside the route's largest chunk and the held bytes, takes each
    # chunk's roots by unit_roots_at, bitwise the table's
    table = None
    if q > 2 * pairs:
        chunks = route(0)
    else:
        try:
            chunks = route(q * _ROOTS_BYTES)
        except CapacityError:
            chunks = route(0)
        else:
            table = unit_roots(q)
    carried = CarriedSums(3 if weigh else 2)
    count = 0
    for iv, coeff, counts in chunks:
        count += len(iv) if counts is None else int(counts.sum())
        parts = _term_parts(iv, coeff, q, table)
        if weigh:
            parts = np.vstack((parts, np.abs(coeff)))
        # the terms' rows alone are held while they are summed, and the
        # chunk goes before the next is built
        del iv, coeff
        carried.add(parts, counts)
        del counts, parts
    sums = carried.sums()
    return complex(sums[0], sums[1]), count, sums[2] if weigh else None


def bilinear_sum(spec: BilinearSpec) -> ExpSumValue:
    """Evaluate the bilinear form exactly as defined.

    The value is the correctly rounded sum, in each part, of one term per
    kept pair, whichever route _evaluate takes, so it is deterministic and,
    for matching inputs, bitwise reproducible across equivalent call paths.
    The weight sum of |alpha_l * beta_m| is a second exact sum over the
    same terms.
    """
    value, count, weight_sum = _evaluate(
        spec.q, spec.a, spec.l_values, spec.alpha, spec.m_values, spec.beta,
        spec.restrict_lm, weigh=True,
    )
    return ExpSumValue(
        value=value,
        term_count=count,
        weight_sum=weight_sum,
        accumulation_error_bound=accumulation_bound(weight_sum, value),
    )


def _window_inverses(ns: np.ndarray, qs: np.ndarray, divisors) -> np.ndarray:
    """block_inverses of the window ns mod the moduli qs: by batch_inverses
    at one modulus, where it beats the lanes, and for a window as long as
    the largest modulus, the inverses of 1 .. max q - 1 gathered at n mod q."""
    if len(qs) == 1:
        return batch_inverses(ns, int(qs[0]), divisors[0])[None, :]
    if len(ns) < qs.max():
        return block_inverses(ns, qs, divisors)
    table = np.pad(block_inverses(np.arange(1, qs.max()), qs, divisors), ((0, 0), (1, 0)))
    return np.take_along_axis(table, ns % qs[:, None], axis=1)


def _phase_histograms(qs: np.ndarray, divisors, ls, alpha, ms, beta):
    """The residue histograms of the form mod the moduli qs of a block (row
    j of length qs[j], rows end to end; bin r sums alpha_l * beta_m over the
    pairs with inv(l*m) = r) and numpy's sum of |alpha_l * beta_m| per row.
    A modulus keeps the pairs of the stream in (l, m) order, as the outer
    product of its kept inverses in arith._lanes; one bincount over row
    offsets fills each bin in that order, bitwise its modulus's own."""
    lane = _lanes(int(qs.max()))
    inv_l, inv_m = _window_inverses(ls, qs, divisors), _window_inverses(ms, qs, divisors)
    if alpha is not None:
        inv_l[:, alpha == 0] = 0
    keep_l, keep_m = inv_l != 0, inv_m != 0
    n_l, n_m = keep_l.sum(axis=1), keep_m.sum(axis=1)
    ends = np.cumsum(n_l * n_m).tolist()
    a_side = np.ones(len(ls)) if alpha is None else alpha
    b_side = np.ones(len(ms)) if beta is None else beta
    iv, coeff = np.empty(ends[-1], lane), np.empty(ends[-1], np.result_type(a_side, b_side))
    for j, (q, start, lo, hi) in enumerate(zip(qs.tolist(), _row_starts(qs).tolist(), [0] + ends, ends)):
        part = iv[lo:hi].reshape(n_l[j], n_m[j])
        np.multiply.outer(inv_l[j, keep_l[j]].astype(lane), inv_m[j, keep_m[j]].astype(lane), out=part)
        part -= part // lane(q) * lane(q)  # numpy divides by a scalar faster than it takes a remainder
        part += lane(start)
        if alpha is not None or beta is not None:
            # elementwise: numpy's outer product may round complex products otherwise
            a_part, b_part = np.repeat(a_side[keep_l[j]], n_m[j]), np.tile(b_side[keep_m[j]], n_l[j])
            np.multiply(a_part, b_part, out=coeff[lo:hi])
    if alpha is None and beta is None:
        return np.bincount(iv, minlength=int(qs.sum())).astype(float), (n_l * n_m).astype(float).tolist()
    h = np.bincount(iv, coeff.real, int(qs.sum()))
    if np.iscomplexobj(coeff):
        h = h + 1j * np.bincount(iv, coeff.imag, int(qs.sum()))
    return h, [float(np.abs(coeff[lo:hi]).sum()) for lo, hi in zip([0] + ends, ends)]


def _sweep_block(qs: np.ndarray, divisors, ls, alpha, ms, beta, a) -> tuple[list[float], list[float]]:
    """(sizes, weights) at every modulus of a block, charged to the byte
    budget first.  A row's terms are its nonzero bins r, weighted h[r]:
    |W| maximal over the unit twists (a None) from one _twist_max, E at
    weight sum |h[r]| and s + 1 roundings per term over s terms, or at the
    twist a from one unit_roots_at gather and one exact_sums."""
    pairs = len(ls) * len(ms)
    need = len(qs) * (pairs * _PAIR_BYTES + (len(ls) + len(ms)) * _COLUMN_BYTES) + int(qs.sum()) * _SCAN_BYTES
    charge_budget(need, f"moduli {int(qs[0])} to {int(qs[-1])} with {pairs} (l, m) pairs each need")
    h, weights = _phase_histograms(qs, divisors, ls, alpha, ms, beta)
    support = np.flatnonzero(h)
    row = np.searchsorted(_row_starts(qs), support, side="right") - 1
    terms, counts, vals = support - _row_starts(qs)[row], np.bincount(row, minlength=len(qs)), h[support]
    if a is None:
        err = _twist_error_bound(h, np.bincount(row, np.abs(vals), len(qs)), counts + 1, qs)
        held = h.nbytes + support.nbytes + row.nbytes + terms.nbytes + vals.nbytes
        return [size for _, size in _twist_max(h, qs, terms, counts, vals, err, divisors, held)], weights
    col = qs[row] if len(qs) > 1 else int(qs[0])  # one modulus: its roots from one table
    products = unit_roots_at(np.array([a % q for q in qs.tolist()])[row] * terms % col, col) * vals
    parts = np.zeros((2, len(qs), int(qs.max())))
    parts[0, row, terms], parts[1, row, terms] = products.real, products.imag
    sums = exact_sums(parts.reshape(2 * len(qs), -1))
    return [abs(complex(re, im)) for re, im in zip(sums[: len(qs)], sums[len(qs) :])], weights


def _sweep(L, M, Q, a, alpha, beta) -> tuple[float, float]:
    """(lhs, trivial) over the moduli Q <= q < 2Q: the exact sums of |W| and of
    the weight sum |alpha_l * beta_m|, where |W| is the maximum over twists
    when a is None and the value at the twist a >= 1 otherwise.  The moduli
    are factored a span at a time (arith.factor_spans) and cut into blocks
    by moduli_blocks with a scan's residue cap: a block holds histograms."""
    if a is not None and a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    ls, ms = dyadic_window(L), dyadic_window(M)
    alpha, beta = _check_coeffs("alpha", alpha, ls), _check_coeffs("beta", beta, ms)
    rows = [_sweep_block(np.arange(block.start, block.stop), factors.divisors(block), ls, alpha, ms, beta, a)
            for factors in factor_spans(Q, 2 * Q)
            for block in moduli_blocks(factors.lo, factors.hi, len(ls) * len(ms), scan=True)]
    return exact_sum([s for sizes, _ in rows for s in sizes]), exact_sum([w for _, ws in rows for w in ws])


def _validate_sweep(L, M, Q, require_below_q: bool):
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    if not (L >= 1 and M >= 1):
        raise ValueError(f"need L, M >= 1, got ({L}, {M})")
    if require_below_q and not (L <= Q and M <= Q):
        raise ValueError(f"hypothesis 1 <= L, M <= Q violated: L={L}, M={M}, Q={Q}")


def type2_avg_max_report(
    L: float,
    M: float,
    Q: int,
    k: int,
    alpha=None,
    beta=None,
) -> BoundReport:
    """Sum over q ~ Q of the maximal twisted bilinear form, versus its bound core.

    The core, with the Hoelder parameter k in {1, 2, 3}, is
    Q^(1+1/2k) L^((2k-1)/2k) M^(1/2) + Q L^((2k-1)/2k) M.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"need k in {{1, 2, 3}}, got {k}")
    _validate_sweep(L, M, Q, require_below_q=True)
    lhs, trivial = _sweep(L, M, Q, None, alpha, beta)
    e = (2 * k - 1) / (2 * k)
    return make_report(
        name="type2-avg-max",
        params={"L": L, "M": M, "Q": Q, "k": k},
        lhs=lhs,
        rhs_terms={
            "Q^(1+1/2k)*L^((2k-1)/2k)*M^(1/2)": Q ** (1 + 1 / (2 * k)) * L ** e * M ** 0.5,
            "Q*L^((2k-1)/2k)*M": Q * L ** e * M,
        },
        trivial_bound=trivial,
        extra={"moduli": Q},
    )


def type2_fixed_a_report(
    a: int,
    L: float,
    M: float,
    Q: int,
    alpha=None,
    beta=None,
) -> BoundReport:
    """Sum over q ~ Q of the bilinear form at one fixed twist a > 0.

    The core is (1 + a/(L M Q))^(1/2) * (Q L M^(1/2) + Q^(1/2) L^(5/4) M^(3/2)).
    """
    _validate_sweep(L, M, Q, require_below_q=True)
    lhs, trivial = _sweep(L, M, Q, a, alpha, beta)
    factor = math.sqrt(1.0 + a / (L * M * Q))
    return make_report(
        name="type2-fixed-a",
        params={"a": a, "L": L, "M": M, "Q": Q},
        lhs=lhs,
        rhs_terms={
            "Q*L*M^(1/2)": factor * Q * L * math.sqrt(M),
            "Q^(1/2)*L^(5/4)*M^(3/2)": factor * math.sqrt(Q) * L ** 1.25 * M ** 1.5,
        },
        trivial_bound=trivial,
        extra={"size_factor": factor},
    )


def type1_report(
    L: float,
    M: float,
    Q: int,
    a: int | None = None,
    alpha=None,
) -> BoundReport:
    """Sum over q ~ Q of the Type I form (unit beta), versus L*M + Q^(3/2)*L.

    With a = None the per-modulus maximum over twists is measured; with a
    fixed twist a >= 1 the sum at that twist, against the same core.
    """
    _validate_sweep(L, M, Q, require_below_q=False)
    lhs, trivial = _sweep(L, M, Q, a, alpha, None)
    params = {"L": L, "M": M, "Q": Q}
    if a is not None:
        params["a"] = a
    return make_report(
        name="type1",
        params=params,
        lhs=lhs,
        rhs_terms={"L*M": L * M, "Q^(3/2)*L": Q ** 1.5 * L},
        trivial_bound=trivial,
    )
