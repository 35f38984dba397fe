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

Each side is normalized once and shared by all the blocks it belongs
to.  The blocks come from one generator, _blocks, in a fixed order.
decompose collects them with every side built whole and read-only;
compare_decomposition evaluates each block as it comes and keeps only its
value, so it holds the sides of one block at a time, and a3's log
windows, the longest, are never built whole: they are
bilinear.SlicedCoefficients, made a chunk of the pair stream (or of a
grouped block's rows) at a time.  A block is evaluated by
bilinear._evaluate, grouped by residue class where that has fewer terms
than its pair stream: a2's unit side and most of a4's few-valued
mu-divisor sums at small q, while a3's log windows keep the stream.
Both routes give the same bits, and each holds one chunk of its work at
a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import CarriedSums, exact_sum, fsum_complex
from .arith import (
    MultiplicativeTables,
    _check_capacity,
    _prime_divisors,
    build_multiplicative_tables,
    charge_budget,
    prime_window,
)
from .bilinear import (
    _CHUNK,
    _CHUNK_BYTES,
    BilinearSpec,
    SlicedCoefficients,
    _evaluate,
    _product_window,
    dyadic_range,
    dyadic_window,
)
from .errors import ConsistencyError
from .expsums import ExpSumQuery, _add_terms, _window_bytes, prime_sum

KIND_TYPE1 = "type1"
KIND_TYPE2 = "type2"

_REL_SLACK = 1 + 1e-9

#: Peak bytes per entry of building one coefficient window (its integers,
#: raw and normalized coefficients and masks), and of a4's Lambda windows,
#: whose prime stamps are sorted and gathered too: charged to the byte
#: budget on top of what is held, which for decompose is 8 bytes per
#: entry of every window built so far.  tracemalloc peaks of decompose
#: were 0.78-0.92 of the largest charge at x = 10**5 to 4*10**6 and U
#: from 1 to x**(1/3).
_WINDOW_BYTES = 32
_LAMBDA_BYTES = 80


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
    plus bilinear.bilinear_sum (component_value takes the value alone,
    from the same evaluator).  alpha/beta of None mean unit coefficients.
    Coefficient arrays are read-only and may be shared between blocks;
    the blocks that compare_decomposition streams may carry a3's log side
    as bilinear.SlicedCoefficients, which to_spec builds whole.
    """

    kind: str
    sign: int
    scale: float
    L: float
    M: float
    alpha: np.ndarray | None
    beta: np.ndarray | SlicedCoefficients | None
    restrict: float

    def to_spec(self, a: int, q: int) -> BilinearSpec:
        return BilinearSpec(
            L=self.L, M=self.M, a=a, q=q, alpha=self.alpha,
            beta=None if self.beta is None else self.beta[:], restrict_lm=self.restrict,
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


def _has_support(ls: np.ndarray, l_ok: np.ndarray, ms, m_ok: np.ndarray | None, x: float) -> bool:
    """Whether some l in ls[l_ok] and m in ms[m_ok] (every m of the window
    ms, an array or a range, when m_ok is None) have x <= l*m < 2x."""
    start, stop = _product_window(ls[l_ok], ms, x)
    if m_ok is None or m_ok.all():
        return bool((stop > start).any())
    ok_before = np.concatenate(([0], np.cumsum(m_ok)))
    return bool((ok_before[stop] > ok_before[start]).any())


def _window_coefficients(table: np.ndarray, window: np.ndarray, floor: float = 0) -> np.ndarray:
    """table[n] for the n in window with floor < n < len(table), else 0.0."""
    raw = np.zeros(len(window))
    inside = (window > floor) & (window < len(table))
    raw[inside] = table[window[inside]]
    return raw


def _side(L: float, window, coefficients: np.ndarray | None) -> tuple:
    """A block side (L, window, coefficients / scale, scale), the scale being
    the largest |coefficient|: 1.0 for unit coefficients (None), and 0.0
    for an all-zero side, which no block keeps.  The normalized array is
    read-only, so the blocks of one side can share it."""
    if coefficients is None:
        return L, window, None, 1.0
    scale = float(np.max(np.abs(coefficients), initial=0.0))
    if scale:
        coefficients = coefficients / scale
        coefficients.setflags(write=False)
    return L, window, coefficients, scale


def _log_side(M: float, sliced: bool) -> tuple:
    """a3's side log h on h ~ M, from _side, or with sliced the same side as
    SlicedCoefficients: each slice is the logs of its integers over the
    scale, and the scale, the largest log (log h >= 0), the max of a
    first pass over slices of bilinear._CHUNK, which is exact, so bitwise
    _side's np.max.  Logs and quotients are taken entry by entry, so a
    slice is bitwise that slice of the whole side."""
    window = dyadic_range(M)
    logs = lambda lo, hi: np.log(np.arange(window.start + lo, window.start + hi, dtype=np.int64).astype(float))
    if not sliced:
        return _side(M, window, logs(0, len(window)))
    scale = max(float(logs(lo, min(lo + _CHUNK, len(window))).max()) for lo in range(0, len(window), _CHUNK))
    return M, window, SlicedCoefficients(len(window), lambda lo, hi: logs(lo, hi) / scale), scale


def _block(x: float, U: float, sign: int, l: tuple, m: tuple) -> BilinearComponent | None:
    """The block of sides l = (L, window, coefficients, scale) and
    m = (M, ...), from _side or _log_side, or None when a side is all zero
    or no l*m with nonzero coefficients lies in [x, 2x).  It is type2 when
    L >= U, and the product of the two side scales is the block's scale.
    Sliced sides, logs of h >= 2, have no zero entry."""
    (L, ls, lc, lscale), (M, ms, mc, mscale) = l, m
    if lscale == 0.0 or mscale == 0.0:
        return None
    l_ok = np.ones(len(ls), bool) if lc is None else lc != 0.0
    m_ok = None if mc is None or isinstance(mc, SlicedCoefficients) else mc != 0.0
    if not _has_support(ls, l_ok, ms, m_ok, x):
        return None
    return BilinearComponent(
        kind=KIND_TYPE2 if L >= U else KIND_TYPE1, sign=sign, scale=lscale * mscale,
        L=L, M=M, alpha=lc, beta=mc, restrict=x,
    )


def _meets(ls: np.ndarray, M: float, x: float) -> bool:
    """Whether some l in ls and some m ~ M can have x <= l*m < 2x, judged
    from the window ends alone: a block failing this has no support."""
    lo, hi = math.ceil(M), math.ceil(2 * M) - 1
    return bool(len(ls)) and lo <= hi and int(ls[0]) * lo < 2 * x and int(ls[-1]) * hi >= x


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


def _blocks(params: VaughanParams, keep: bool):
    """Yield (block, held) for every block of the decomposition, in
    decompose's order, held being the bytes of the sides and tables live
    while the block is used.

    mu and Lambda come from tables built for this call, to
    decomposition_limit(params), and dropped with the generator.  Each
    identity term builds only the two sides of its blocks, each
    normalized once (a3's logs once per M); one rule, _block, drops and
    labels every block.  Every window is charged to the byte budget before
    it is built.  With keep, for a caller that keeps every block, the
    sides are built whole and a window is charged with every window built
    before it.  Otherwise a3's log sides are sliced, and a window is
    charged with the sides live beside it and the largest chunk of either
    route of bilinear._evaluate: held counts only those sides.
    """
    x, U = params.x, params.U
    mt = build_multiplicative_tables(decomposition_limit(params))
    kept = 0
    live: dict = {}

    def held() -> int:
        return kept + sum(arr.nbytes for arrays in live.values() for arr in arrays if arr is not None)

    def hold(role: str, *arrays) -> None:
        if not keep:
            live[role] = arrays

    def charge(entries: int, per_entry: int = _WINDOW_BYTES) -> None:
        """Refuse a window of this many entries, before it is built, if it
        and what is held pass the byte budget."""
        nonlocal kept
        charge_budget(held() + per_entry * entries + (0 if keep else _CHUNK_BYTES),
                      f"coefficient windows of the decomposition at x = {x} need")
        if keep:
            kept += 8 * entries

    # a2: l carries the double sum of Lambda * mu over products up to U^2,
    # m is a free unit-coefficient variable.  a3: l carries mu(d) for
    # d <= U, m carries log h; the log side of each M is made once, when
    # a block first meets it, and shared by every block with that M.
    # Every block keeps the M of its own loop: an int M and a float one of
    # equal value share a side, not a repr.
    log_sides: dict = {}

    def log_side(M):
        if M not in log_sides:
            entries = math.ceil(2 * M) - math.ceil(M)
            sliced = not keep and math.ceil(M) >= 2
            charge(min(entries, _CHUNK) if sliced else entries)
            log_sides[M] = _log_side(M, sliced)
        return (M, *log_sides[M][1:])

    terms = (
        (-1, _head_coefficients(U, mt), min(U * U, x), lambda M: (M, dyadic_range(M), None, 1.0)),
        (1, mt.mobius[: int(U) + 1], min(U, x), log_side),
    )
    for sign, table, hi, m_side in terms:
        hold("table", table)
        for L in _anchored_blocks(U, 1, hi):
            charge(math.ceil(2 * L) - math.ceil(L))
            ls = dyadic_window(L)
            l_side = _side(L, ls, _window_coefficients(table, ls))
            if l_side[3] == 0.0:
                continue
            hold("l", ls, l_side[2])
            for M in _anchored_blocks(U, x / (2 * L), 2 * x / L):
                if _meets(ls, M, x) and (block := _block(x, U, sign, l_side, m_side(M))):
                    yield block, held()
    live.clear()

    # a4: Lambda(m) for m > U against the truncated mu-divisor sum for
    # k > U.  Both blocks start at U or above, so every block is type2; the
    # side with the smaller block is used as l, which keeps L <= x/U.
    top = int(2 * x / U) + 1
    charge(top)
    bsums = _mu_divisor_sums(U, top, mt)
    hold("bsums", bsums)
    for Lm, partners in _a4_blocks(x, U):
        # the Lambda side depends on Lm alone, so it is built once per Lm
        charge(math.ceil(2 * Lm) - math.ceil(Lm), _LAMBDA_BYTES)
        ms_lam = dyadic_window(Lm)
        # Lambda(m) = log p for m = p**j: one math.log per distinct p
        stamps, where = np.unique(mt.vm_prime[ms_lam], return_inverse=True)
        logs = np.array([math.log(p) if p else 0.0 for p in stamps.tolist()])
        lam = _side(Lm, ms_lam, np.where(ms_lam > U, logs[where], 0.0))
        if lam[3] == 0.0:
            continue
        hold("lambda", ms_lam, lam[2])
        for Lk in partners:
            charge(math.ceil(2 * Lk) - math.ceil(Lk))
            ks = dyadic_window(Lk)
            b = _side(Lk, ks, _window_coefficients(bsums, ks, U))
            hold("k", ks, b[2])
            if block := _block(x, U, -1, *((lam, b) if Lm <= Lk else (b, lam))):
                yield block, held()


def decompose(params: VaughanParams) -> VaughanDecomposition:
    """Cut the Lambda-weighted window sum into dyadic bilinear components.

    The blocks of _blocks, every side built whole, normalized once and
    read-only.  Every window is charged to the byte budget, with every
    window built before it, before it is built.  The result is
    independent of any modulus; evaluate_decomposition attaches a phase
    (a, q) afterwards.  Component order is fixed (identity term by term,
    blocks by ascending lower bound) so sums over components are
    reproducible run to run.  mu and Lambda are read up to
    decomposition_limit(params), not 2x, from tables built for the call.
    """
    blocks = tuple(block for block, _ in _blocks(params, keep=True))
    decomp = VaughanDecomposition(params=params, components=blocks)
    validate_decomposition(decomp)
    return decomp


def validate_decomposition(decomp: VaughanDecomposition) -> None:
    """Structural invariants every decomposition must satisfy, block by
    block (_check_block)."""
    normalized: set = set()
    for i, c in enumerate(decomp.components):
        _check_block(i, c, decomp.params, normalized)


def _check_block(i: int, c: BilinearComponent, params: VaughanParams, normalized: set) -> None:
    """The invariants of block i.  Blocks share coefficient arrays (a3's log
    sides once per M), so each distinct array is checked once, at the
    first block that holds it, and its id is added to normalized.  Sliced
    coefficients are normalized by construction: each entry is divided by
    the largest magnitude of the whole window."""
    x, U = params.x, params.U
    if c.kind not in (KIND_TYPE1, KIND_TYPE2):
        raise ConsistencyError(f"component {i}: unknown kind {c.kind!r}")
    if c.sign not in (-1, 1):
        raise ConsistencyError(f"component {i}: sign must be +-1, got {c.sign}")
    if not (c.scale > 0 and math.isfinite(c.scale)):
        raise ConsistencyError(f"component {i}: bad scale {c.scale}")
    if c.restrict != x:
        raise ConsistencyError(f"component {i}: restriction {c.restrict} != x")
    for arr, side in ((c.alpha, "alpha"), (c.beta, "beta")):
        if arr is None or isinstance(arr, SlicedCoefficients) or id(arr) in normalized:
            continue
        if np.max(np.abs(arr)) > 1 + 1e-12:
            raise ConsistencyError(f"component {i}: {side} not normalized")
        normalized.add(id(arr))
    if c.kind == KIND_TYPE2:
        if not (U / _REL_SLACK <= c.L <= x / U * _REL_SLACK):
            raise ConsistencyError(
                f"component {i}: type2 block L={c.L} outside [U, x/U]"
            )


def component_value(comp: BilinearComponent, a: int, q: int, held: int = 0) -> complex:
    """sign * scale * the block's value, bitwise bilinear_sum(comp.to_spec(a,
    q)).value so scaled: the same evaluator, without the spec's checks of
    coefficients that decompose built and validated.  held bytes, which
    the caller holds meanwhile, are added to the evaluator's charges."""
    value, _, _ = _evaluate(q, a, dyadic_window(comp.L), comp.alpha, dyadic_range(comp.M),
                            comp.beta, comp.restrict, held=held)
    return comp.sign * comp.scale * value


def _total(vals: list[complex]) -> complex:
    parts = np.array(vals, dtype=np.complex128)
    return fsum_complex(parts.real, parts.imag)


def evaluate_decomposition(
    decomp: VaughanDecomposition, a: int, q: int
) -> tuple[complex, list[complex]]:
    """Total and per-component values of the decomposed sum at phase a/q."""
    vals = [component_value(c, a, q) for c in decomp.components]
    return _total(vals), vals


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


def compare_decomposition(params: VaughanParams, a: int, q: int) -> DecompositionCheck:
    """Evaluate the Lambda-weighted sum directly and through the blocks.

    The two must agree up to accumulated rounding; the relative error is
    measured against max(|direct|, 1) so near-cancelling sums do not blow
    it up artificially.  The blocks are those of decompose, streamed: each
    is checked and evaluated as _blocks yields it, and only its value is
    kept, so the decomposed total is bitwise evaluate_decomposition's.
    The direct sum's window (arith.prime_window) is capped before any block.
    """
    query = ExpSumQuery(a=a, q=q, x=params.x)
    _check_capacity(math.ceil(2 * params.x) - 1, 0, "prime window")
    vals = []
    for i, (block, held) in enumerate(_blocks(params, keep=False)):
        # streamed arrays are freed and their ids reused: check every block's
        _check_block(i, block, params, set())
        vals.append(component_value(block, a, q, held))
    total = _total(vals)
    direct = prime_sum(query, weight="von_mangoldt")
    abs_err = abs(total - direct.value)
    rel_err = abs_err / max(abs(direct.value), 1.0)
    return DecompositionCheck(
        params=params, a=a, q=q,
        direct=direct.value, decomposed=total,
        abs_error=abs_err, rel_error=rel_err,
        components=len(vals),
    )


def reconstruct_lambda(n: int, U: float) -> float:
    """Evaluate a1 + a2 + a3 + a4 at a single integer by direct divisor sums.

    For n > U the result must equal Lambda(n); for 2 <= n <= U the a1 term
    makes the identity hold there too.  This is the scalar ground truth the
    block decomposition is tested against.  Every divisor sum runs over
    the divisors of n, whose mu and Lambda follow from n's own
    factorization, so no table is built.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 0.0
    # mu(d) and Lambda(d) for every divisor d of n, extended one prime p of
    # n at a time to the d * p**k, k up to the exponent of p in n
    mu, lam = {1: 1}, {1: 0.0}
    for p in _prime_divisors(n):
        e = 1
        while n % p ** (e + 1) == 0:
            e += 1
        for d in list(mu):
            for k in range(1, e + 1):
                mu[d * p ** k] = -mu[d] if k == 1 else 0
                lam[d * p ** k] = math.log(p) if d == 1 else 0.0
    divisors = list(mu)

    terms = []
    if n <= U:
        terms.append(lam[n])

    for m in divisors:
        if m > U or not lam[m]:
            continue
        for d in divisors:
            if d <= U and mu[d] and (n // m) % d == 0:
                terms.append(-lam[m] * mu[d])

    for d in divisors:
        if d <= U and mu[d]:
            terms.append(mu[d] * math.log(n // d))

    for m in divisors:
        k = n // m
        if m <= U or k <= U or not lam[m]:
            continue
        b = sum(mu[d] for d in divisors if d <= U and k % d == 0)
        if b:
            terms.append(-lam[m] * b)

    return exact_sum(terms)


@dataclass(frozen=True)
class PrimePowerGap:
    """Distance between the Lambda-weighted and prime-only window sums."""

    gap: float
    envelope: float
    prime_power_terms: int


def prime_power_gap(a: int, q: int, x: float) -> PrimePowerGap:
    """|Lambda-weighted sum minus log-weighted prime sum| over n ~ x.

    The difference is exactly the contribution of prime powers p^j, j >= 2,
    in the window, so its magnitude is at most the envelope sum of log p
    over those terms (roughly sqrt(x) log x in size).  The window comes
    from arith.prime_window.
    """
    ExpSumQuery(a=a, q=q, x=x)  # checks q and x
    window = prime_window(math.ceil(x), math.ceil(2 * x))
    # Lambda(n) e(a inv(n) / q) for n = p, which is also the term of the
    # log-weighted prime sum, then for n = p**j, j >= 2.  Exact sums do not
    # depend on order, so the two sums, the primes' and all terms', are
    # bitwise the prime sum alone and window_sum(..., "von_mangoldt").
    carried = CarriedSums(2)
    held = _window_bytes(window, True)
    powers, bases = window.prime_powers
    _add_terms(carried, window.primes, a, q, window.primes, log=True, held=held)
    direct = complex(*carried.sums())
    _add_terms(carried, powers, a, q, bases, log=True, held=held)
    lam = complex(*carried.sums())
    # the prime powers p^j, j >= 2, whose p does not divide q
    ps = bases[q % bases != 0]
    return PrimePowerGap(
        gap=abs(lam - direct),
        envelope=exact_sum(np.log(ps.astype(float))),
        prime_power_terms=len(ps),
    )
