"""Bilinear forms with modular-inverse phases, and their averaged bounds.

A bilinear form here is W = sum over l ~ L, m ~ M with (lm, q) = 1 of
alpha_l * beta_m * e(a * inv(l*m) / q), optionally restricted to the
dyadic product window l*m ~ x.  Coefficients are normalized: construction
rejects |alpha| > 1 or |beta| > 1, so measured values can be compared
against bound cores directly.

The averaged reports sweep q over [Q, 2Q) and compare the measured sums
(maximal or at a fixed twist) with the monomials of the corresponding
square-root cancellation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import accumulation_bound, exact_sum, exact_sums, fsum_complex, unit_roots
from .arith import _lanes, _prime_divisors, batch_inverses, check_modulus
from .errors import CapacityError
from .expsums import ExpSumValue, _twist_error_bound, _twist_max
from .reports import BoundReport, make_report

_TERM_CAP = 5 * 10 ** 7
_COEFF_SLACK = 1.0 + 1e-12


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
    if arr.size and np.abs(arr).max() > _COEFF_SLACK:
        raise ValueError(f"{name} entries must satisfy |coefficient| <= 1")
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
    decide, never a rounded quotient alone.
    """
    ends = []
    for bound in (x, 2 * x):
        end = np.searchsorted(ms, bound / ls)
        if len(ms):
            # down while the m below end still reaches the bound, then up
            # while the m at end falls short of it
            while (down := (end > 0) & (ls * ms[np.maximum(end - 1, 0)] >= bound)).any():
                end -= down
            while (up := (end < len(ms)) & (ls * ms[np.minimum(end, len(ms) - 1)] < bound)).any():
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


def _value_and_coeffs(spec: BilinearSpec) -> tuple[complex, np.ndarray]:
    """The value of the form, correctly rounded in each part, and the
    coefficients of its kept pairs.

    Real coefficients scale the gathered real and imaginary parts of the
    unit roots in place, in one (2, n) buffer that is summed as it stands:
    bitwise the real and imaginary parts of the complex products, up to
    the sign of a zero, which no exact sum sees.  Complex coefficients
    take the complex product.
    """
    ls = spec.l_values
    ms = spec.m_values
    if len(ls) * len(ms) > _TERM_CAP:
        raise CapacityError(
            f"bilinear form has {len(ls) * len(ms)} candidate terms, cap is {_TERM_CAP}"
        )
    q = spec.q
    iv, coeff = _pairs(q, ls, spec.alpha, ms, spec.beta, spec.restrict_lm, twist=spec.a)
    if len(iv) == 0:
        return 0j, coeff
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
    return complex(*exact_sums(parts)), coeff


def bilinear_sum(spec: BilinearSpec) -> ExpSumValue:
    """Evaluate the bilinear form exactly as defined, term by term.

    Terms are accumulated with a correctly rounded sum in (l, m) order,
    so the result is deterministic and, for matching inputs, bitwise
    reproducible across equivalent call paths.  The weight sum of
    |alpha_l * beta_m| is a second exact sum over the stream.
    """
    value, coeff = _value_and_coeffs(spec)
    weight_sum = exact_sum(np.abs(coeff))
    return ExpSumValue(
        value=value,
        term_count=len(coeff),
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
