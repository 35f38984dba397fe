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
side against a small modulus.  Both routes charge the byte budget before
they build their arrays.

The averaged reports sweep q over [Q, 2Q) and compare the measured sums
(maximal or at a fixed twist) with the monomials of the corresponding
square-root cancellation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import accumulation_bound, exact_sum, exact_sums, fsum_complex, unit_roots
from .arith import _lanes, _prime_divisors, batch_inverses, charge_budget, check_modulus
from .errors import CapacityError
from .expsums import ExpSumValue, _twist_error_bound, _twist_max
from .reports import BoundReport, make_report

_TERM_CAP = 5 * 10 ** 7
_COEFF_SLACK = 1.0 + 1e-12

#: Peak bytes per pair of the pair stream, per cell (row x group) of the
#: grouped route, and per m of the stream's inverted range or entry of a
#: grouped side with coefficients, charged to the byte budget before
#: either route builds its arrays.  Over the blocks of decompose at x in
#: {10**5, 10**6} and q in {7, 30, 101}, both routes forced, tracemalloc
#: peaks of the route and its sums were at most 0.8 of the charge above
#: 10 MB; below 1 MB the exact sums' work arrays (two of at most 2 x 2**14
#: doubles, 0.5 MB) dominate, and peaks stayed below 1.1 MB.
_PAIR_BYTES = 64
_CELL_BYTES = 256
_COLUMN_BYTES = 64

#: Coefficients sampled to judge how many values a side has.
_SAMPLE = 512

#: The cost of a grouped cell, and of each entry of a grouped side with
#: coefficients (its values, classes and sort), in pairs of the stream.
#: Fitted to both routes timed on every block of decompose at x in
#: {10**5, 3*10**5, 10**6} and q in {2, 7, 13, 30, 101} (2-core VM): the
#: rule's total came within 2% of always taking the faster route.
_CELL_PAIRS = 2
_SORT_PAIRS = 20


def dyadic_window(start: float) -> np.ndarray:
    """Integers n with start <= n < 2*start, as an int64 array."""
    if not 0 < start < math.inf:
        raise ValueError(f"need a positive finite range start, got {start}")
    return np.arange(math.ceil(start), math.ceil(2 * start), dtype=np.int64)


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


def _product_window(ls: np.ndarray, ms: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """For each l in ls, the index range [start, stop) of the m in ms with
    x <= l*m < 2x.

    ms ascends, so each range is contiguous.  Each end is estimated from
    the quotient bound / l and then moved down, then up, until the int64
    products l*m compared against the bound agree with it: the products
    decide, never a rounded quotient alone.  They are compared with the
    integer ceil(bound), which an integer l*m reaches exactly when it
    reaches the bound: a float bound would cast them to float64, which
    rounds products past 2**53.
    """
    ends = []
    for bound in (x, 2 * x):
        if not len(ms):
            ends.append(np.zeros(len(ls), dtype=np.intp))
            continue
        # searched as integers, ceil(bound / l) clipped to the window, so
        # that ms is not cast to float on every call
        end = np.searchsorted(ms, np.clip(np.ceil(bound / ls), ms[0], ms[-1] + 1).astype(np.int64))
        least = math.ceil(bound)
        # down while the m below end still reaches the bound, then up
        # while the m at end falls short of it
        while (down := (end > 0) & (ls * ms[np.maximum(end - 1, 0)] >= least)).any():
            end -= down
        while (up := (end < len(ms)) & (ls * ms[np.minimum(end, len(ms) - 1)] < least)).any():
            end += up
        ends.append(end)
    return ends[0], ends[1]


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
    rows = np.arange(len(ls)) if alpha is None else np.flatnonzero(alpha)
    inv_l = batch_inverses(ls[rows], q)
    unit = inv_l > 0
    rows, inv_l = rows[unit], inv_l[unit] * (twist % q) % q
    if restrict is None:
        start = np.zeros(len(rows), dtype=np.int64)
        stop = np.full(len(rows), len(ms), dtype=np.int64)
    else:
        start, stop = _product_window(ls[rows], ms, restrict)
    lo, hi = (int(start.min()), int(stop.max())) if len(rows) else (0, 0)
    inv_m = batch_inverses(ms[lo:hi], q)
    units = np.flatnonzero(inv_m)
    lane = _lanes(q)
    inv_m = inv_m[units].astype(lane)
    cols = units + lo
    # each row's ends, counted in unit m
    start, stop = np.searchsorted(cols, start), np.searchsorted(cols, stop)
    counts = stop - start
    pairs = int(counts.sum())
    charge_budget(pairs * _PAIR_BYTES + (hi - lo) * _COLUMN_BYTES, f"a stream of {pairs} (l, m) pairs needs")
    # pair k of row r sits at first[r] + t and takes unit m start[r] + t
    first = np.cumsum(counts) - counts
    mj = np.repeat(start - first, counts)
    mj += np.arange(len(mj))
    iv = np.repeat(inv_l.astype(lane), counts)
    iv *= inv_m[mj]
    iv %= lane(q)
    a_part = 1.0 if alpha is None else np.repeat(alpha[rows], counts)
    b_part = np.ones(len(mj)) if beta is None else beta[cols][mj]
    return iv.astype(np.int64, copy=False), a_part * b_part


def _sampled_values(coeffs: np.ndarray) -> int:
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
    if restrict is None:
        start = np.zeros(len(short), dtype=np.int64)
        stop = np.full(len(short), len(long), dtype=np.int64)
    else:
        start, stop = _product_window(short, long, restrict)
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


def _unit_classes(window: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The residue classes mod q of the window (consecutive integers) that are
    units, ascending, and their inverses."""
    classes = np.arange(q) if len(window) >= q else np.sort(window % q)
    inv = batch_inverses(classes, q)
    units = np.flatnonzero(inv)
    return classes[units], inv[units]


def _charge_cells(rows: int, groups: int, columns: int) -> None:
    charge_budget(rows * groups * _CELL_BYTES + columns * _COLUMN_BYTES,
                  f"{rows} x {groups} grouped terms need")


def _grouped(q: int, twist: int, ls, alpha, ms, beta, restrict, by_l: bool):
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
    arithmetic.  A side with coefficients sorts its (value, class) keys
    stably by column, and counts by two searches per row and group.
    """
    rs, rc, cs, cc = (ms, beta, ls, alpha) if by_l else (ls, alpha, ms, beta)
    rows = np.arange(len(rs)) if by_l or rc is None else np.flatnonzero(rc)
    inv_r = batch_inverses(rs[rows], q)
    unit = inv_r > 0
    rows, inv_r = rows[unit], inv_r[unit] * (twist % q) % q
    if restrict is None:
        start = np.zeros(len(rows), dtype=np.int64)
        stop = np.full(len(rows), len(cs), dtype=np.int64)
    else:
        start, stop = _product_window(rs[rows], cs, restrict)
    if cc is None:
        classes, inv_c = _unit_classes(cs, q)
        values = None
        _charge_cells(len(rows), len(classes), 0)
        # the integers n of class c below a bound t number (t - c + q - 1) // q
        low = int(cs[0]) if len(cs) else 0
        below = lambda ends: (ends[:, None] + (low + q - 1) - classes) // q
        counts = below(stop) - below(start)
    else:
        distinct, vid = np.unique(cc, return_inverse=True)
        inv_all = batch_inverses(cs, q)
        cols = np.flatnonzero((inv_all > 0) & (cc != 0)) if by_l else np.flatnonzero(inv_all)
        keys = vid[cols] * q + cs[cols] % q
        order = np.argsort(keys, kind="stable")
        keys, cols = keys[order], cols[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        inv_c, values = inv_all[cols[first]], distinct[vid[cols[first]]]
        _charge_cells(len(rows), len(values), len(cs))
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


def _terms_value(iv: np.ndarray, coeff: np.ndarray, q: int, counts=None) -> complex:
    """The correctly rounded sum, in each part, of the terms
    coeff * e(iv / q), each taken counts times when counts are given.

    Real coefficients scale the gathered real and imaginary parts of the
    unit roots in place, in one (2, n) buffer that is summed as it stands:
    bitwise the real and imaginary parts of the complex products, up to
    the sign of a zero, which no exact sum sees.  Complex coefficients
    take the complex product.
    """
    if len(iv) == 0:
        return 0j
    roots = unit_roots(q)
    if np.iscomplexobj(coeff):
        terms = coeff * roots[iv]
        parts = np.array((terms.real, terms.imag))
    else:
        parts = np.empty((2, len(iv)))
        # every residue is in range, so "clip" changes nothing; it only
        # spares take the buffered copy that mode="raise" makes of out
        np.take(roots.real, iv, out=parts[0], mode="clip")
        np.take(roots.imag, iv, out=parts[1], mode="clip")
        parts *= coeff
    return complex(*exact_sums(parts, counts))


def _evaluate(q: int, a: int, ls, alpha, ms, beta, restrict, weigh: bool = False):
    """(value, term count, weight sum) of the form on the windows ls and ms,
    the weight sum of |alpha_l * beta_m| only when weigh is set (else None).

    The coefficients are taken as given: BilinearSpec checks them.  The
    route, grouped or the pair stream, is _grouping's choice; both give
    the correctly rounded exact sums of the same terms, bit for bit.
    """
    if len(ls) * len(ms) > _TERM_CAP:
        raise CapacityError(
            f"bilinear form has {len(ls) * len(ms)} candidate terms, cap is {_TERM_CAP}"
        )
    by_l = _grouping(q, ls, alpha, ms, beta, restrict)
    if by_l is None:
        iv, coeff = _pairs(q, ls, alpha, ms, beta, restrict, twist=a)
        counts, count = None, len(coeff)
    else:
        iv, coeff, counts = _grouped(q, a, ls, alpha, ms, beta, restrict, by_l)
        count = int(counts.sum())
    value = _terms_value(iv, coeff, q, counts)
    weight = exact_sums(np.abs(coeff).reshape(1, -1), counts)[0] if weigh else None
    return value, count, weight


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
