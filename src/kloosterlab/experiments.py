"""Numerical experiments: bound ratios, exponent roots, ternary counts.

Everything here either measures a sum against its predicted size or pins
down a constant (a root, an exponent) that the size predictions use.

The sweeps over q ~ Q and the ternary counts take the primes of [x, 2x)
from arith.prime_window, once per call; so does the Garaev count, a
prefix question, for the primes up to x: prime_window(2, x + 1).  The
ternary counts flag their rough values with arith.rough_window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accumulate import exact_sum
from .arith import charge_budget, check_modulus, factor_spans, prime_window, rough_window
from .errors import ConsistencyError
from .expsums import (
    check_twist_scan,
    max_prime_sum_block,
    moduli_blocks,
    prime_sum_block,
)
from .parallel import pmap
from .reports import BoundReport, make_report

_REL_SLACK = 1 + 1e-9

#: Peak bytes per pair (p2, p3) of ternary_rough_count beside its flags, in
#: three int64 arrays and one of bools: 25.0-25.2 by tracemalloc, x = 1,000-3,000.
_PAIR_BYTES = 25


def avg_max_report(Q: int, x: float, workers: int = 1) -> BoundReport:
    """sum_{q ~ Q} max_a |S_q(a; x)| against its three-term envelope.

    Every modulus's twist scan is charged to the byte budget
    (expsums.check_twist_scan) before any work; then the window's primes
    are fetched once, and the moduli are factored a span at a time
    (arith.factor_spans) and scanned a block at a time
    (expsums.max_prime_sum_block), each maximum bitwise max_prime_sum's.
    The envelope Q^(5/4) x^(5/8) + Q x^(9/10) + Q^(7/6) x^(13/18) is
    calibrated for Q^(2/3) <= x <= Q^(3/2); outside that window the report
    is still produced but a warning is issued.
    """
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    if not (x >= 2 and math.isfinite(x)):
        raise ValueError(f"need x >= 2, got {x}")
    if not (Q ** (2 / 3) / _REL_SLACK <= x <= Q ** 1.5 * _REL_SLACK):
        warnings.warn(
            f"x = {x} is outside [Q^(2/3), Q^(3/2)] = "
            f"[{Q ** (2/3):.4g}, {Q ** 1.5:.4g}]; the envelope is uncalibrated there",
            stacklevel=2,
        )
    check_twist_scan(range(Q, 2 * Q))
    primes = prime_window(math.ceil(x), math.ceil(2 * x)).primes
    pi_range = len(primes)
    per_block = []
    for factors in factor_spans(Q, 2 * Q):
        per_block += pmap(
            lambda qs: max_prime_sum_block(qs, primes, factors.divisors(qs)),
            moduli_blocks(factors.lo, factors.hi, pi_range, scan=True),
            workers=workers,
        )
    lhs = exact_sum([mag for block in per_block for _, mag in block])
    return make_report(
        name="avg-max",
        params={"Q": Q, "x": x},
        lhs=lhs,
        rhs_terms={
            "Q^(5/4)*x^(5/8)": Q ** 1.25 * x ** 0.625,
            "Q*x^(9/10)": Q * x ** 0.9,
            "Q^(7/6)*x^(13/18)": Q ** (7 / 6) * x ** (13 / 18),
        },
        trivial_bound=float(Q * pi_range),
        extra={"pi_range": pi_range},
    )


def fixed_a_avg_report(a: int, Q: int, x: float, workers: int = 1) -> BoundReport:
    """sum_{q ~ Q} |S_q(a; x)| at one numerator against its envelope.

    The window's primes are fetched once; then the moduli are factored a
    span at a time (arith.factor_spans) and summed a block at a time
    (expsums.prime_sum_block), each sum bitwise prime_sum's.  The
    two-term envelope carries the common factor (1 + a/(xQ))^(1/2) and is
    calibrated for Q^(1/2) <= x <= Q^(4/3).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if Q < 2:
        raise ValueError(f"need Q >= 2, got {Q}")
    if not (x >= 2 and math.isfinite(x)):
        raise ValueError(f"need x >= 2, got {x}")
    if not (Q ** 0.5 / _REL_SLACK <= x <= Q ** (4 / 3) * _REL_SLACK):
        warnings.warn(
            f"x = {x} is outside [Q^(1/2), Q^(4/3)] = "
            f"[{Q ** 0.5:.4g}, {Q ** (4/3):.4g}]; the envelope is uncalibrated there",
            stacklevel=2,
        )
    primes = prime_window(math.ceil(x), math.ceil(2 * x)).primes
    pi_range = len(primes)
    per_block = []
    for factors in factor_spans(Q, 2 * Q):
        per_block += pmap(
            lambda qs: prime_sum_block(a, qs, primes, factors.divisors(qs)),
            moduli_blocks(factors.lo, factors.hi, pi_range),
            workers=workers,
        )
    lhs = exact_sum([abs(value) for block in per_block for value in block])
    factor = math.sqrt(1 + a / (x * Q))
    return make_report(
        name="fixed-a-avg",
        params={"a": a, "Q": Q, "x": x},
        lhs=lhs,
        rhs_terms={
            "Q^(1/2)*x^(11/8)": factor * Q ** 0.5 * x ** 1.375,
            "Q^(7/6)*x^(2/3)": factor * Q ** (7 / 6) * x ** (2 / 3),
        },
        trivial_bound=float(Q * pi_range),
        extra={"pi_range": pi_range, "size_factor": factor},
    )


# --- exponent thresholds ---------------------------------------------------

@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def sieve_threshold_function(theta: float, alpha: float) -> float:
    """g(theta) = 2 theta - alpha - 2 + 2(2 - alpha) log((theta + alpha - 2)/(2 alpha - 2)).

    Increasing in theta on its domain theta > 2 - alpha; its root is the
    exponent threshold for the sieve argument with input exponent alpha.
    """
    if not 1 < alpha < 2:
        raise ValueError(f"need 1 < alpha < 2, got {alpha}")
    if theta + alpha <= 2:
        raise ValueError(f"theta = {theta} is outside the domain theta > 2 - alpha")
    return 2 * theta - alpha - 2 + 2 * (2 - alpha) * math.log(
        (theta + alpha - 2) / (2 * alpha - 2)
    )


def ternary_threshold_function(theta: float) -> float:
    """42 theta - 65 + 38 log((21 theta - 19)/4), for theta > 19/21.

    This is 21 * sieve_threshold_function(theta, 23/21) written with
    cleared denominators; ternary_exponent_root checks that identity
    numerically before trusting either form.
    """
    if theta <= 19 / 21:
        raise ValueError(f"theta = {theta} is outside the domain theta > 19/21")
    return 42 * theta - 65 + 38 * math.log((21 * theta - 19) / 4)


def _bisect(f, lo: float, hi: float, tol: float) -> RootResult:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, (lo, hi))
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, (lo, hi))
    if (flo < 0) == (fhi < 0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo) = {flo:.4g}, f(hi) = {fhi:.4g}"
        )
    iterations = 0
    a, b = lo, hi
    while b - a > tol and iterations < 200:
        mid = 0.5 * (a + b)
        fm = f(mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            break
        if (fm < 0) == (flo < 0):
            a, flo = mid, fm
        else:
            b = mid
    root = 0.5 * (a + b)
    return RootResult(root, abs(f(root)), iterations, (lo, hi))


def sieve_exponent_root(
    alpha: float, bracket: tuple[float, float] | None = None, tol: float = 1e-12
) -> RootResult:
    """Root of sieve_threshold_function(., alpha) by bisection."""
    if not 1 < alpha < 2:
        raise ValueError(f"need 1 < alpha < 2, got {alpha}")
    if bracket is None:
        bracket = (max(19 / 21, 2 - alpha) + 1e-6, 2.0)
    lo, hi = bracket
    if not (2 - alpha < lo < hi):
        raise ValueError(f"bracket {bracket} must sit inside (2 - alpha, inf)")
    return _bisect(lambda t: sieve_threshold_function(t, alpha), lo, hi, tol)


def ternary_exponent_root(tol: float = 1e-12) -> RootResult:
    """Root of the cleared-denominator threshold, near 1.188.

    Before solving, the cleared form is checked against 21 times the
    general form at alpha = 23/21 on a grid; a mismatch would mean the
    two transcriptions have drifted apart.
    """
    alpha = 23 / 21
    # grid kept away from the log singularity at 19/21, where cancellation
    # in theta + alpha - 2 would swamp the comparison
    for i in range(21):
        theta = 1.0 + i / 20
        general = 21 * sieve_threshold_function(theta, alpha)
        special = ternary_threshold_function(theta)
        if abs(general - special) > 1e-12 * max(1.0, abs(special)):
            raise ConsistencyError(
                f"threshold forms disagree at theta = {theta}: "
                f"{general!r} vs {special!r}"
            )
    return _bisect(ternary_threshold_function, 19 / 21 + 1e-6, 2.0, tol)


# --- ternary counts --------------------------------------------------------

@dataclass(frozen=True)
class TernaryCount:
    """Triples of primes p_i ~ x whose pairwise-product sum is x^theta-rough."""

    x: int
    theta: float
    threshold: float
    count: int
    total: int

    @property
    def fraction(self) -> float:
        return self.count / self.total if self.total else 0.0

    @property
    def scaled(self) -> float:
        """count * (log x)^3 / x^3, the natural normalization of the total."""
        return self.count * math.log(self.x) ** 3 / self.x ** 3


def ternary_rough_count(x: int, theta: float) -> TernaryCount:
    """Count ordered prime triples p1, p2, p3 ~ x with
    P(p1 p2 + p1 p3 + p2 p3) > x^theta, P = largest prime factor.

    Exhaustive over all pi(2x)-ish cubed triples, one p1 at a time over the
    pairs (p2, p3), each value looked up in arith.rough_window's flags over
    [3 p_min^2, 3 p_max^2], p_min and p_max the least and largest primes of
    [x, 2x).  Past arith.HARD_SIEVE_CAP, from x = 9,135 on, it is refused.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if theta < 0:
        raise ValueError(f"need theta >= 0, got {theta}")
    # [x, 2x) holds a prime for every x >= 2 (Bertrand's postulate)
    primes = prime_window(math.ceil(x), math.ceil(2 * x)).primes
    n = len(primes)
    threshold = float(x) ** theta
    lo, hi = 3 * int(primes[0]) ** 2, 3 * int(primes[-1]) ** 2 + 1
    charge_budget(hi - lo + n * n * _PAIR_BYTES, f"ternary count at x = {x} needs")
    rough = rough_window(lo, hi, threshold)
    # p1 (p2 + p3) + p2 p3 - lo, one p1 at a time
    pair_sums, offsets = np.add.outer(primes, primes), np.multiply.outer(primes, primes) - lo
    at = np.empty_like(offsets)
    count = 0
    for p1 in primes:
        np.multiply(pair_sums, p1, out=at)
        at += offsets
        count += int(np.count_nonzero(rough[at]))
    return TernaryCount(x=x, theta=theta, threshold=threshold, count=count, total=n ** 3)


# --- residue statistics of prime triples -----------------------------------

def garaev_congruence_count(x: int, q: int, lam: int) -> int:
    """Number of prime triples p1, p2, p3 <= x with p1 p2 p3 = lam (mod q).

    Exact, via the residue histogram of primes up to x: the pair product
    distribution is a cyclic convolution, and the remaining factor is
    solved per residue class (gcd(r, q) classes included, so small prime
    factors of q are handled uniformly).
    """
    return garaev_counts(x, q, lam)[0]


def garaev_counts(x: int, q: int, lam: int) -> tuple[int, int]:
    """garaev_congruence_count(x, q, lam) and pi(x), from one sieve of the
    primes up to x, which runs after q is checked against the byte budget."""
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    lam %= q
    # the prime and pair-product histograms and their work arrays
    check_modulus(q, bytes_per_entry=40)
    primes = prime_window(2, int(x) + 1).primes
    hist = np.bincount(primes % q, minlength=q).astype(np.int64)
    # distribution of p2 * p3 mod q (multiplicative, so no FFT shortcut;
    # this is O(q^2) over the occupied residues)
    res = np.arange(q, dtype=np.int64)
    pair2 = np.zeros(q, dtype=np.int64)
    for r in range(q):
        c = int(hist[r])
        if c:
            np.add.at(pair2, (r * res) % q, c * hist)

    total = 0
    for r in range(q):
        c = int(hist[r])
        if c == 0:
            continue
        g = math.gcd(r, q)
        if lam % g != 0:
            continue
        q2 = q // g
        if q2 == 1:
            total += c * int(pair2.sum())
            continue
        t0 = (lam // g) * pow((r // g) % q2, -1, q2) % q2
        total += c * int(pair2[t0::q2].sum())
    return total, len(primes)


# --- exponent fitting and comparisons --------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual_norm: float
    points: int


def exponent_fit(series) -> ExponentFit:
    """Least-squares slope of log(value) against log(scale).

    series is an iterable of (scale, value) pairs, all positive, at
    least three of them.  The slope estimates the growth exponent; the
    residual norm tells how power-law-like the data actually is.
    """
    pts = [(float(s), float(v)) for s, v in series]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if any(s <= 0 or v <= 0 for s, v in pts):
        raise ValueError("scales and values must be positive")
    ls = np.log([s for s, _ in pts])
    lv = np.log([v for _, v in pts])
    if np.ptp(ls) == 0.0:
        raise ValueError("scales are all equal; no slope to fit")
    slope, intercept = np.polyfit(ls, lv, 1)
    resid = lv - (slope * ls + intercept)
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_norm=float(np.sqrt(np.sum(resid * resid))),
        points=len(pts),
    )


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    exponent: Fraction

    @property
    def exponent_value(self) -> float:
        return float(self.exponent)

    def value(self, Q: float) -> float:
        return Q ** self.exponent_value


_COMPARISON_ROWS = (
    ComparisonRow("avg-max-classical", Fraction(23, 12)),
    ComparisonRow("avg-max-sharpened", Fraction(19, 10)),
    ComparisonRow("fixed-a-bilinear", Fraction(95, 48)),
    ComparisonRow("fixed-a-sharpened", Fraction(15, 8)),
    ComparisonRow("trivial", Fraction(2, 1)),
    ComparisonRow("conjectured", Fraction(3, 2)),
)


def comparison_table(Q: float) -> list[tuple[ComparisonRow, float]]:
    """The competing average bounds at x = Q, as (row, Q^exponent) pairs.

    At x = Q every bound collapses to a single power of Q, which makes
    the exponents directly comparable: trivial is Q^2, the conjectured
    size is Q^(3/2), and the four proved exponents sit in between.
    """
    if Q <= 1:
        raise ValueError(f"need Q > 1, got {Q}")
    return [(row, row.value(Q)) for row in _COMPARISON_ROWS]


_THEOREMS = ("avg-max", "fixed-a-avg")


def choose_U(theorem: str, Q: float, x: float) -> float:
    """Truncation U that balances the bilinear pieces for either average.

    avg-max:     U = min(x^(1/3), x^(5/8) / Q^(1/4)), for Q^(2/3) <= x <= Q^(3/2)
    fixed-a-avg: U = min(x^(1/3), x^(2/3) / Q^(1/3)), for Q^(1/2) <= x <= Q^(4/3)
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"theorem must be one of {_THEOREMS}, got {theorem!r}")
    if Q < 2 or x < 2:
        raise ValueError(f"need Q >= 2 and x >= 2, got Q = {Q}, x = {x}")
    third = x ** (1 / 3)
    if theorem == "avg-max":
        if not (Q ** (2 / 3) / _REL_SLACK <= x <= Q ** 1.5 * _REL_SLACK):
            raise ValueError(
                f"avg-max needs Q^(2/3) <= x <= Q^(3/2); "
                f"got x = {x} for Q = {Q}"
            )
        U = min(third, x ** 0.625 / Q ** 0.25)
        if x / U > Q * _REL_SLACK:
            raise ConsistencyError(f"balanced U = {U} leaves x/U = {x / U} above Q")
    else:
        if not (Q ** 0.5 / _REL_SLACK <= x <= Q ** (4 / 3) * _REL_SLACK):
            raise ValueError(
                f"fixed-a-avg needs Q^(1/2) <= x <= Q^(4/3); "
                f"got x = {x} for Q = {Q}"
            )
        U = min(third, x ** (2 / 3) / Q ** (1 / 3))
    if not 1 <= U <= third * _REL_SLACK:
        raise ConsistencyError(f"balanced U = {U} escaped [1, x^(1/3)]")
    return U
