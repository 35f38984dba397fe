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
  terms are summed once, times their count, by accumulate.exact_sums.

_grouping takes the grouped route where it expects fewer terms, weighed
by their cost, than the pair stream has pairs: as for a unit-coefficient
side against a small modulus.  The pair stream is built and summed in
chunks of at most _CHUNK pairs from at most _CHUNK consecutive m, whose
exact level sums are carried (accumulate.CarriedSums), so a form holds
one chunk of its stream, never the whole of it or of its m window:
windows may be ranges, and a side's coefficients SlicedCoefficients,
made a slice at a time.  Both routes charge the byte budget before they
build their arrays, the stream for its largest chunk.

The averaged reports sweep q over [Q, 2Q) and compare the measured sums
(maximal or at a fixed twist) with the monomials of the corresponding
square-root cancellation bounds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .accumulate import _CHUNK, CarriedSums, accumulation_bound, exact_sum, exact_sums, fsum_complex, unit_roots
from .arith import _lanes, _prime_divisors, batch_inverses, charge_budget, check_modulus
from .errors import CapacityError
from .expsums import ExpSumValue, _twist_error_bound, _twist_max
from .reports import BoundReport, make_report

#: Pairs in the product window of one form that _evaluate takes on.  The
#: stream is built in chunks, so this bounds time, not memory.
_TERM_CAP = 5 * 10 ** 7
_COEFF_SLACK = 1.0 + 1e-12

#: Peak bytes per pair of a chunk of the pair stream, per cell (row x
#: group) of the grouped route, and per l row, m of a chunk's inverted
#: range or entry of a grouped side with coefficients, charged to the
#: byte budget before either route builds its arrays.  Over the blocks of
#: decompose at x in {10**5, 10**6} and q in {7, 30, 101}, both routes
#: forced, tracemalloc peaks of the route and its sums were at most 0.8
#: of the charge above 10 MB (the stream then built whole); below 1 MB
#: the exact sums' work arrays (two of at most 2 x 2**14 doubles, 0.5 MB)
#: dominate, and peaks stayed below 1.1 MB.  At x = 10**6 and q = 7 a
#: chunk of a3's longest streams peaked at 6.1 MB, charged 8.4 MB.
_PAIR_BYTES = 64
_CELL_BYTES = 256
_COLUMN_BYTES = 64

#: The largest charge of one chunk of a pair stream, besides its rows.
_CHUNK_BYTES = _CHUNK * (_PAIR_BYTES + _COLUMN_BYTES)

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


def _cut(starts: np.ndarray, counts: np.ndarray, size: int | None):
    """Cut the runs [starts[r], starts[r] + counts[r]), taken in order, into
    pieces of at most size entries in all (size None: one piece).  Yields,
    per piece, the slice of the runs it meets and the starts and counts of
    its parts of them."""
    if size is None:
        yield slice(0, len(counts)), starts, counts
        return
    ends = np.cumsum(counts)
    for p0 in range(0, int(ends[-1]) if len(ends) else 0, size):
        p1 = min(p0 + size, int(ends[-1]))
        part = slice(int(np.searchsorted(ends, p0, side="right")), int(np.searchsorted(ends, p1)) + 1)
        begin = ends[part] - counts[part]
        lo, hi = np.maximum(begin, p0), np.minimum(ends[part], p1)
        yield part, starts[part] + (lo - begin), hi - lo


def _pair_chunks(q: int, ls, alpha, ms, beta, restrict, twist: int = 1,
                 size: int | None = _CHUNK, held: int = 0):
    """The pair stream of _pairs in chunks of at most size pairs from at most
    size consecutive m (size None: one chunk, the whole stream in (l, m)
    order): (residues, coefficients) per chunk.

    The m range the rows meet is cut into slices of size m; in each, the
    slice's m are inverted once and its pairs, in (l, m) order, are cut
    into chunks.  Only a chunk's slice of ms and of beta (an array or
    SlicedCoefficients) is built.  Every pair of the stream is in exactly
    one chunk, with the residue and coefficient it has there.  The byte
    budget is charged, with held bytes besides, for the largest chunk
    when this is called, before any chunk is built.
    """
    rows = np.arange(len(ls)) if alpha is None else np.flatnonzero(alpha)
    inv_l = batch_inverses(ls[rows], q)
    unit = inv_l > 0
    rows, inv_l = rows[unit], inv_l[unit] * (twist % q) % q
    start, stop = _row_ranges(ls[rows], ms, restrict)
    lo, hi = (int(start.min()), int(stop.max())) if len(rows) else (0, 0)
    pairs = int((stop - start).sum())
    width = max(hi - lo, 1) if size is None else size
    chunk = pairs if size is None else min(pairs, size)
    charge_budget(held + chunk * _PAIR_BYTES + (min(hi - lo, width) + len(rows)) * _COLUMN_BYTES,
                  f"a stream of {pairs} (l, m) pairs needs")
    lane = _lanes(q)
    inv_l = inv_l.astype(lane)
    a_rows = None if alpha is None else alpha[rows]

    def chunks():
        for k0 in range(lo, hi, width):
            s, e = np.clip(start, k0, k0 + width), np.clip(stop, k0, k0 + width)
            live = np.flatnonzero(e > s)
            if not len(live):
                continue
            s, e = s[live], e[live]
            m_lo, m_hi = int(s.min()), int(e.max())
            inv_m = batch_inverses(_ints(ms[m_lo:m_hi]), q)
            units = np.flatnonzero(inv_m)
            inv_m = inv_m[units].astype(lane)
            b_units = None if beta is None else beta[m_lo:m_hi][units]
            # each row's ends, counted in the slice's unit m
            s, e = np.searchsorted(units, s - m_lo), np.searchsorted(units, e - m_lo)
            for part, first, counts in _cut(s, e - s, size):
                # pair t of a piece sits at offset[r] + t and takes unit m first[r] + t
                offset = np.cumsum(counts) - counts
                mj = np.repeat(first - offset, counts)
                mj += np.arange(len(mj))
                iv = np.repeat(inv_l[live[part]], counts)
                iv *= inv_m[mj]
                iv %= lane(q)
                a_part = 1.0 if a_rows is None else np.repeat(a_rows[live[part]], counts)
                b_part = np.ones(len(mj)) if b_units is None else b_units[mj]
                yield iv.astype(np.int64, copy=False), a_part * b_part

    return chunks()


def _pairs(q: int, ls, alpha, ms, beta, restrict, twist: int = 1):
    """The residues twist * inv(l*m) mod q of the kept pairs, in (l, m)
    order, and their coefficients alpha_l * beta_m, as two aligned arrays.

    A pair is kept when (lm, q) = 1, alpha_l != 0 and, with restrict = x,
    x <= l*m < 2x.  Entries with beta_m = 0 are kept.  The l rows, and
    the m from the smallest start of a row's range to the largest stop,
    are inverted once each, and inv(l*m) = inv(l) * inv(m) mod q: rows
    and m that are not units mod q are dropped before the stream is
    built, which drops exactly the pairs with (lm, q) > 1.  The twist
    scales the l inverses.  The products are taken in arith._lanes(q);
    the residues are int64.
    """
    for chunk in _pair_chunks(q, ls, alpha, ms, beta, restrict, twist, size=None):
        return chunk
    return np.empty(0, dtype=np.int64), np.empty(0)


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
    """The form grouped by the l side (by_l) or the m side: the residues
    twist * inv(l*m) mod q, the coefficients alpha_l * beta_m and the
    multiplicities of its distinct terms, as three aligned arrays whose
    counted sum is the sum of _pairs' stream.

    The rows are the other side: units mod q and, when they are l, with
    alpha_l != 0.  A group is one coefficient value and one unit class c
    mod q of the grouped side (a unit side has one value); with l grouped,
    only nonzero alpha count.  Every pair of a row with an entry of a group
    has the same residue, twist * inv(row) * inv(c), and the same
    coefficient, taken in alpha * beta order as the stream takes it.  A
    unit side counts the integers of class c in each row's range by floor
    arithmetic, without building its window.  A side with coefficients
    sorts its (value, class) keys stably by column, and counts by two
    searches per row and group.  The charges add held bytes.
    """
    rs, rc, cs, cc = (ms, beta, ls, alpha) if by_l else (ls, alpha, ms, beta)
    rs, rc = _ints(rs), None if rc is None else rc[:]
    rows = np.arange(len(rs)) if by_l or rc is None else np.flatnonzero(rc)
    inv_r = batch_inverses(rs[rows], q)
    unit = inv_r > 0
    rows, inv_r = rows[unit], inv_r[unit] * (twist % q) % q
    start, stop = _row_ranges(rs[rows], cs, restrict)
    if cc is None:
        classes, inv_c = _unit_classes(cs, q)
        values = None
        _charge_cells(len(rows), len(classes), 0, held)
        # the integers n of class c below a bound t number (t - c + q - 1) // q
        low = int(cs[0]) if len(cs) else 0
        below = lambda ends: (ends[:, None] + (low + q - 1) - classes) // q
        counts = below(stop) - below(start)
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
        _charge_cells(len(rows), len(values), len(cs), held)
        # column j of group g marks g * len(cs) + j: ascending, since the
        # sort is stable and each group's columns ascend
        marks = (np.cumsum(first) - 1) * len(cs) + cols
        base = np.arange(len(values)) * len(cs)
        counts = np.searchsorted(marks, base + stop[:, None]) - np.searchsorted(marks, base + start[:, None])
    cells = np.flatnonzero(counts)
    r, g = np.divmod(cells, counts.shape[1])
    lane = _lanes(q)
    iv = inv_r[r].astype(lane)
    iv *= inv_c[g].astype(lane)
    iv %= lane(q)
    row_coeff = None if rc is None else rc[rows][r]
    group_coeff = None if values is None else values[g]
    a_part, b_part = (group_coeff, row_coeff) if by_l else (row_coeff, group_coeff)
    a_part = 1.0 if a_part is None else a_part
    b_part = np.ones(len(cells)) if b_part is None else b_part
    return iv.astype(np.int64, copy=False), a_part * b_part, counts.ravel()[cells]


def _term_parts(iv: np.ndarray, coeff: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of the terms coeff * e(iv / q), roots
    being unit_roots(q), as one (2, n) array.

    Real coefficients scale the gathered real and imaginary parts of the
    unit roots in place, in one (2, n) buffer: bitwise the real and
    imaginary parts of the complex products, up to the sign of a zero,
    which no exact sum sees.  Complex coefficients take the complex
    product.
    """
    if np.iscomplexobj(coeff):
        terms = coeff * roots[iv]
        return np.array((terms.real, terms.imag))
    parts = np.empty((2, len(iv)))
    # every residue is in range, so "clip" changes nothing; it only
    # spares take the buffered copy that mode="raise" makes of out
    np.take(roots.real, iv, out=parts[0], mode="clip")
    np.take(roots.imag, iv, out=parts[1], mode="clip")
    parts *= coeff
    return parts


def _terms_value(iv: np.ndarray, coeff: np.ndarray, q: int, counts=None) -> complex:
    """The correctly rounded sum, in each part, of the terms
    coeff * e(iv / q), each taken counts times when counts are given."""
    if len(iv) == 0:
        return 0j
    return complex(*exact_sums(_term_parts(iv, coeff, unit_roots(q)), counts))


def _evaluate(q: int, a: int, ls, alpha, ms, beta, restrict, weigh: bool = False, held: int = 0):
    """(value, term count, weight sum) of the form on the windows ls and ms,
    the weight sum of |alpha_l * beta_m| only when weigh is set (else None).

    Windows are consecutive integers, as int64 arrays or ranges; beta may
    be SlicedCoefficients.  The coefficients are taken as given:
    BilinearSpec checks them.  The route, grouped or the pair stream, is
    _grouping's choice; both give the correctly rounded exact sums of the
    same terms, bit for bit.  The stream is summed a chunk at a time, its
    level sums carried, so it never holds more than a chunk of terms.
    The byte charges add held bytes, which the caller holds meanwhile.
    """
    ls = _ints(ls)
    start, stop = _row_ranges(ls, ms, restrict)
    pairs = int((stop - start).sum())
    if pairs > _TERM_CAP:
        raise CapacityError(f"bilinear form has {pairs} pairs in its product window, cap is {_TERM_CAP}")
    by_l = _grouping(q, ls, alpha, ms, beta, restrict)
    if by_l is not None:
        iv, coeff, counts = _grouped(q, a, ls, alpha, ms, beta, restrict, by_l, held)
        value = _terms_value(iv, coeff, q, counts)
        weight = exact_sums(np.abs(coeff).reshape(1, -1), counts)[0] if weigh else None
        return value, int(counts.sum()), weight
    chunks = _pair_chunks(q, ls, alpha, ms, beta, restrict, a, _CHUNK, held)
    roots = unit_roots(q)
    carried = CarriedSums(3 if weigh else 2)
    count = 0
    for iv, coeff in chunks:
        parts = _term_parts(iv, coeff, roots)
        carried.add(np.vstack((parts, np.abs(coeff))) if weigh else parts)
        count += len(iv)
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


def _phase_histogram(q, ls, alpha, ms, beta, restrict):
    """Bucket the coefficients by the residue class of inv(l*m) modulo q.

    Returns (complex histogram of length q, sum of |alpha_l * beta_m| over
    the included pairs).  One bincount over the whole pair stream, in
    (l, m) order, fills each part.  This is bitwise the former sum of one
    bincount per l whenever no l puts two terms in one residue bin, which
    always holds for integer-valued coefficients and for the Type II
    reports (M <= Q <= q); otherwise the bins may differ in the last bits.
    The weight is one sum over the stream, exact for integer-valued
    coefficients.
    """
    # two real histograms, a bincount and the complex result
    check_modulus(q, bytes_per_entry=32)
    iv, coeff = _pairs(q, ls, alpha, ms, beta, restrict)
    h = np.bincount(iv, weights=coeff.real, minlength=q)
    if np.any(coeff.imag):
        h = h + 1j * np.bincount(iv, weights=coeff.imag, minlength=q)
    return h.astype(np.complex128, copy=False), float(np.abs(coeff).sum())


def _max_abs_over_twists(h: np.ndarray, q: int) -> float:
    """max over units a of |sum_r h[r] e(a r / q)|, bitwise the full direct
    scan's: one complex row of expsums._twist_max.

    E is expsums._twist_error_bound with weight sum |h[r]| and, over the s
    support points, s - 1 additions plus one complex product per term.
    """
    support = np.flatnonzero(h)
    if len(support) == 0:
        return 0.0
    vals = h[support]
    err = _twist_error_bound(h, float(np.abs(vals).sum()), len(support) + 1)
    divisors = [_prime_divisors(q)]
    return _twist_max(h, [q], support, [len(support)], vals, err, divisors)[0][1]


def _abs_at_twist(h: np.ndarray, q: int, a: int) -> float:
    support = np.flatnonzero(h)
    if len(support) == 0:
        return 0.0
    terms = unit_roots(q)[(a % q) * support % q] * h[support]
    return abs(fsum_complex(terms.real, terms.imag))


def _sweep(L, M, Q, a, alpha, beta) -> tuple[float, float]:
    """(lhs, trivial) over the moduli Q <= q < 2Q: the exact sums of |W| and of
    the weight sum |alpha_l * beta_m|, where |W| is the maximum over twists
    when a is None and the value at the twist a otherwise.
    """
    ls, ms = dyadic_window(L), dyadic_window(M)
    alpha = _check_coeffs("alpha", alpha, ls)
    beta = _check_coeffs("beta", beta, ms)
    sizes, weights = [], []
    for q in range(Q, 2 * Q):
        h, weight = _phase_histogram(q, ls, alpha, ms, beta, None)
        sizes.append(_max_abs_over_twists(h, q) if a is None else _abs_at_twist(h, q, a))
        weights.append(weight)
    return exact_sum(sizes), exact_sum(weights)


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
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
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
    fixed twist the sum at that twist is measured against the same core.
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
