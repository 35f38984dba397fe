"""Decomposition of von Mangoldt sums into bilinear pieces.

The identity used is the four-term one with both truncations equal:

    Lambda(n) = a1(n) + a2(n) + a3(n) + a4(n),    n > U,

    a1(n) = Lambda(n) for n <= U, else 0
    a2(n) = - sum_{m d r = n, m <= U, d <= U} Lambda(m) mu(d)
    a3(n) = sum_{h d = n, d <= U} mu(d) log h
    a4(n) = - sum_{m k = n, m > U, k > U} Lambda(m) (sum_{d | k, d <= U} mu(d))

Applying this inside sum_{n ~ x} Lambda(n) e(a*nbar/q) and cutting each
product variable into dyadic blocks anchored at U turns the sum into a
signed combination of bilinear forms, each with coefficients normalized
to [-1, 1] and an exact lm ~ x restriction.  Blocks whose l-variable
starts at U or above carry bounded coefficients on both sides and are
labelled type2; the rest keep one unit-or-log side and are type1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .accumulate import exact_sum, fsum_complex
from .arith import MultiplicativeTables, prime_window, shared_tables
from .bilinear import BilinearSpec, _product_window, _value_and_coeffs, dyadic_window
from .errors import ConsistencyError
from .expsums import ExpSumQuery, inverse_phase_sum, prime_sum, window_sum

KIND_TYPE1 = "type1"
KIND_TYPE2 = "type2"

_REL_SLACK = 1 + 1e-9


@dataclass(frozen=True)
class VaughanParams:
    """Window x and truncation U for the four-term identity."""

    x: float
    U: float

    def __post_init__(self):
        if not (self.x >= 2 and math.isfinite(self.x)):
            raise ValueError(f"need x >= 2, got {self.x}")
        if not (1 <= self.U and math.isfinite(self.U)):
            raise ValueError(f"need U >= 1, got {self.U}")
        if self.U > self.x ** (1 / 3) * _REL_SLACK:
            raise ValueError(
                f"need U <= x^(1/3) = {self.x ** (1/3):.6g}, got U = {self.U}"
            )


@dataclass(frozen=True)
class BilinearComponent:
    """One dyadic block of the decomposition.

    The block contributes sign * scale * sum_{l ~ L, m ~ M, lm ~ x}
    alpha_l beta_m e(a * inv(lm) / q); the value is produced by to_spec
    plus bilinear.bilinear_sum (component_value takes the value alone).
    alpha/beta of None mean unit coefficients.
    """

    kind: str
    sign: int
    scale: float
    L: float
    M: float
    alpha: np.ndarray | None
    beta: np.ndarray | None
    restrict: float

    def to_spec(self, a: int, q: int) -> BilinearSpec:
        return BilinearSpec(
            L=self.L, M=self.M, a=a, q=q,
            alpha=self.alpha, beta=self.beta, restrict_lm=self.restrict,
        )


@dataclass(frozen=True)
class VaughanDecomposition:
    params: VaughanParams
    components: tuple[BilinearComponent, ...]

    @property
    def type1_count(self) -> int:
        return sum(1 for c in self.components if c.kind == KIND_TYPE1)

    @property
    def type2_count(self) -> int:
        return sum(1 for c in self.components if c.kind == KIND_TYPE2)


def _anchored_blocks(anchor: float, lo: float, hi: float) -> list[float]:
    """Lower bounds of blocks [L, 2L), L = anchor * 2^j, meeting [lo, hi]."""
    if hi < lo or hi <= 0:
        return []
    lo = max(lo, 0.5)
    L = anchor
    while L > lo:
        L /= 2
    while 2 * L <= lo:
        L *= 2
    out = []
    while L <= hi:
        out.append(L)
        L *= 2
    return out


def _head_coefficients(U: float, mt: MultiplicativeTables) -> np.ndarray:
    """c[t] = sum over m*d = t with m, d <= U of Lambda(m) mu(d)."""
    n = int(U)
    c = np.zeros(int(U * U) + 2)
    ms = np.flatnonzero(mt.vm_prime[: n + 1])
    lam = np.array([mt.lam(m) for m in ms.tolist()])
    ds = np.flatnonzero(mt.mobius[: n + 1])
    # m-major, so each c[t] takes its terms in ascending m, as a loop over m would
    np.add.at(c, np.multiply.outer(ms, ds), np.multiply.outer(lam, mt.mobius[ds]))
    return c


def _mu_divisor_sums(U: float, top: int, mt: MultiplicativeTables) -> np.ndarray:
    """b[n] = sum over d | n with d <= U of mu(d), for n <= top."""
    b = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, int(U) + 1):
        mu = int(mt.mobius[d])
        if mu:
            b[d::d] += mu
    return b


def _has_support(
    ls: np.ndarray, l_ok: np.ndarray, ms: np.ndarray, m_ok: np.ndarray, x: float
) -> bool:
    """Whether some l in ls[l_ok] and m in ms[m_ok] have x <= l*m < 2x."""
    start, stop = _product_window(ls[l_ok], ms, x)
    if m_ok.all():
        return bool((stop > start).any())
    ok_before = np.concatenate(([0], np.cumsum(m_ok)))
    return bool((ok_before[stop] > ok_before[start]).any())


def _window_coefficients(table: np.ndarray, window: np.ndarray, floor: float = 0) -> np.ndarray:
    """table[n] for the n in window with floor < n < len(table), else 0.0."""
    raw = np.zeros(len(window))
    inside = (window > floor) & (window < len(table))
    raw[inside] = table[window[inside]]
    return raw


def _add_block(comps: list, x: float, U: float, sign: int, l: tuple, m: tuple) -> None:
    """Append the block of sides l = (L, window, coefficients) and m = (M, ...),
    coefficients None meaning units, unless a side is all zero or no l*m with
    nonzero coefficients lies in [x, 2x).  It is type2 when L >= U, and each
    side is divided by its largest magnitude, the product of the two being
    the block's scale."""
    (L, ls, lc), (M, ms, mc) = l, m
    lscale, mscale = (1.0 if c is None else float(np.max(np.abs(c), initial=0.0)) for c in (lc, mc))
    if lscale == 0.0 or mscale == 0.0:
        return
    l_ok = np.ones(len(ls), bool) if lc is None else lc != 0.0
    m_ok = np.ones(len(ms), bool) if mc is None else mc != 0.0
    if not _has_support(ls, l_ok, ms, m_ok, x):
        return
    comps.append(BilinearComponent(
        kind=KIND_TYPE2 if L >= U else KIND_TYPE1, sign=sign, scale=lscale * mscale,
        L=L, M=M, alpha=None if lc is None else lc / lscale,
        beta=None if mc is None else mc / mscale, restrict=x,
    ))


def _a4_blocks(x: float, U: float) -> list[tuple[float, list[float]]]:
    """a4's blocks: each Lambda block Lm >= U that meets a k block Lk >= U
    with lm ~ x possible, and those Lk, by ascending lower bound."""
    lam_blocks = _anchored_blocks(U, U, 2 * x / U)
    pairs = ((Lm, [Lk for Lk in lam_blocks if x < 4 * Lm * Lk and Lm * Lk < 2 * x])
             for Lm in lam_blocks)
    return [(Lm, partners) for Lm, partners in pairs if partners]


def decomposition_limit(params: VaughanParams) -> int:
    """The largest n whose mu(n) or Lambda(n) decompose reads: int(U) for a2,
    a3 and the mu-divisor sums, and the top of a4's Lambda windows, below
    about 4x/U."""
    x, U = params.x, params.U
    return max([int(U), 2] + [math.ceil(2 * Lm) - 1 for Lm, _ in _a4_blocks(x, U)])


def decompose(params: VaughanParams, tables: MultiplicativeTables | None = None) -> VaughanDecomposition:
    """Cut the Lambda-weighted window sum into dyadic bilinear components.

    Each identity term builds only the two sides of its blocks; one rule,
    _add_block, drops, labels and normalizes every block.  The result is
    independent of any modulus; evaluate_decomposition attaches a phase
    (a, q) afterwards.  Component order is fixed (identity term by term,
    blocks by ascending lower bound) so sums over components are
    reproducible run to run.  tables must cover decomposition_limit(params),
    not 2x; the shared tables are asked for that much when omitted.
    """
    x, U = params.x, params.U
    limit = decomposition_limit(params)
    mt = tables if tables is not None else shared_tables(limit)
    mt.prime_table.require_coverage(limit + 1)

    comps: list[BilinearComponent] = []

    # a2: l carries the double sum of Lambda * mu over products up to U^2,
    # m is a free unit-coefficient variable.  a3: l carries mu(d) for
    # d <= U, m carries log h.  An L block meets about three M blocks, two
    # of them shared with the L block before it, so the logs of the last
    # four M windows are kept.  Every block keeps the M of its own loop:
    # an int M and a float one of equal value share logs, not a repr.
    log_window = functools.lru_cache(maxsize=4)(lambda M: np.log(dyadic_window(M).astype(float)))
    terms = (
        (-1, _head_coefficients(U, mt), min(U * U, x), lambda M: None),
        (1, mt.mobius[: int(U) + 1], min(U, x), log_window),
    )
    for sign, table, hi, m_coefficients in terms:
        for L in _anchored_blocks(U, 1, hi):
            ls = dyadic_window(L)
            raw = _window_coefficients(table, ls)
            if not raw.any():
                continue
            for M in _anchored_blocks(U, x / (2 * L), 2 * x / L):
                _add_block(comps, x, U, sign, (L, ls, raw), (M, dyadic_window(M), m_coefficients(M)))

    # a4: Lambda(m) for m > U against the truncated mu-divisor sum for
    # k > U.  Both blocks start at U or above, so every block is type2; the
    # side with the smaller block is used as l, which keeps L <= x/U.
    bsums = _mu_divisor_sums(U, int(2 * x / U) + 1, mt)
    for Lm, partners in _a4_blocks(x, U):
        # the Lambda window depends on Lm alone, so it is built once per Lm
        ms_lam = dyadic_window(Lm)
        # Lambda(m) = log p for m = p**j: one math.log per distinct p
        stamps, where = np.unique(mt.vm_prime[ms_lam], return_inverse=True)
        logs = np.array([math.log(p) if p else 0.0 for p in stamps.tolist()])
        lam = (Lm, ms_lam, np.where(ms_lam > U, logs[where], 0.0))
        if not lam[2].any():
            continue
        for Lk in partners:
            ks = dyadic_window(Lk)
            b = (Lk, ks, _window_coefficients(bsums, ks, U))
            _add_block(comps, x, U, -1, *((lam, b) if Lm <= Lk else (b, lam)))

    decomp = VaughanDecomposition(params=params, components=tuple(comps))
    validate_decomposition(decomp)
    return decomp


def validate_decomposition(decomp: VaughanDecomposition) -> None:
    """Structural invariants every decomposition must satisfy."""
    x, U = decomp.params.x, decomp.params.U
    for i, c in enumerate(decomp.components):
        if c.kind not in (KIND_TYPE1, KIND_TYPE2):
            raise ConsistencyError(f"component {i}: unknown kind {c.kind!r}")
        if c.sign not in (-1, 1):
            raise ConsistencyError(f"component {i}: sign must be +-1, got {c.sign}")
        if not (c.scale > 0 and math.isfinite(c.scale)):
            raise ConsistencyError(f"component {i}: bad scale {c.scale}")
        if c.restrict != x:
            raise ConsistencyError(f"component {i}: restriction {c.restrict} != x")
        for arr, side in ((c.alpha, "alpha"), (c.beta, "beta")):
            if arr is not None and np.max(np.abs(arr)) > 1 + 1e-12:
                raise ConsistencyError(f"component {i}: {side} not normalized")
        if c.kind == KIND_TYPE2:
            if not (U / _REL_SLACK <= c.L <= x / U * _REL_SLACK):
                raise ConsistencyError(
                    f"component {i}: type2 block L={c.L} outside [U, x/U]"
                )


def component_value(comp: BilinearComponent, a: int, q: int) -> complex:
    value, _ = _value_and_coeffs(comp.to_spec(a, q))
    return comp.sign * comp.scale * value


def evaluate_decomposition(
    decomp: VaughanDecomposition, a: int, q: int
) -> tuple[complex, list[complex]]:
    """Total and per-component values of the decomposed sum at phase a/q."""
    vals = [component_value(c, a, q) for c in decomp.components]
    parts = np.array(vals, dtype=np.complex128)
    total = fsum_complex(parts.real, parts.imag)
    return total, vals


@dataclass(frozen=True)
class DecompositionCheck:
    params: VaughanParams
    a: int
    q: int
    direct: complex
    decomposed: complex
    abs_error: float
    rel_error: float
    components: int


def compare_decomposition(
    params: VaughanParams, a: int, q: int, tables: MultiplicativeTables | None = None
) -> DecompositionCheck:
    """Evaluate the Lambda-weighted sum directly and through the blocks.

    The two must agree up to accumulated rounding; the relative error is
    measured against max(|direct|, 1) so near-cancelling sums do not blow
    it up artificially.  tables, when given, serve decompose and must cover
    decomposition_limit(params); the direct sum takes its window from
    arith.prime_window.
    """
    direct = prime_sum(ExpSumQuery(a=a, q=q, x=params.x), weight="von_mangoldt")
    decomp = decompose(params, tables=tables)
    total, _ = evaluate_decomposition(decomp, a, q)
    abs_err = abs(total - direct.value)
    rel_err = abs_err / max(abs(direct.value), 1.0)
    return DecompositionCheck(
        params=params, a=a, q=q,
        direct=direct.value, decomposed=total,
        abs_error=abs_err, rel_error=rel_err,
        components=len(decomp.components),
    )


def reconstruct_lambda(n: int, U: float, tables: MultiplicativeTables | None = None) -> float:
    """Evaluate a1 + a2 + a3 + a4 at a single integer by direct divisor sums.

    For n > U the result must equal Lambda(n); for 2 <= n <= U the a1 term
    makes the identity hold there too.  This is the scalar ground truth the
    block decomposition is tested against.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mt = tables if tables is not None else shared_tables(int(n) + 1)
    if n == 1:
        return 0.0
    mt.prime_table.require_coverage(n + 1)
    divisors = mt.prime_table.divisors

    terms = []
    if n <= U:
        terms.append(mt.lam(n))

    for m in divisors(n):
        if m < 2 or m > U:
            continue
        lam = mt.lam(m)
        if lam == 0.0:
            continue
        for d in divisors(n // m):
            if d <= U:
                mu = int(mt.mobius[d])
                if mu:
                    terms.append(-lam * mu)

    for d in divisors(n):
        if d <= U:
            mu = int(mt.mobius[d])
            if mu:
                terms.append(mu * math.log(n // d))

    for m in divisors(n):
        if m <= U:
            continue
        lam = mt.lam(m)
        if lam == 0.0:
            continue
        k = n // m
        if k <= U:
            continue
        b = sum(int(mt.mobius[d]) for d in divisors(k) if d <= U)
        if b:
            terms.append(-lam * b)

    return exact_sum(terms)


@dataclass(frozen=True)
class PrimePowerGap:
    """Distance between the Lambda-weighted and prime-only window sums."""

    gap: float
    envelope: float
    prime_power_terms: int


def prime_power_gap(a: int, q: int, x: float, tables: MultiplicativeTables | None = None) -> PrimePowerGap:
    """|Lambda-weighted sum minus log-weighted prime sum| over n ~ x.

    The difference is exactly the contribution of prime powers p^j, j >= 2,
    in the window, so its magnitude is at most the envelope sum of log p
    over those terms (roughly sqrt(x) log x in size).  The window comes
    from arith.prime_window, sliced from tables when they are given.
    """
    ExpSumQuery(a=a, q=q, x=x)  # checks q and x
    window = prime_window(math.ceil(x), math.ceil(2 * x), None if tables is None else tables.prime_table)
    lam = window_sum(window, a, q, weight="von_mangoldt")
    primes = window.primes
    direct = inverse_phase_sum(primes, a, q, weights=np.log(primes.astype(float)))
    # the prime powers p^j, j >= 2, whose p does not divide q
    _, bases = window.prime_powers
    ps = bases[q % bases != 0]
    return PrimePowerGap(
        gap=abs(lam.value - direct.value),
        envelope=exact_sum(np.log(ps.astype(float))),
        prime_power_terms=len(ps),
    )
