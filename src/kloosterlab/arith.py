"""Integer and multiplicative-function infrastructure.

Sieves (smallest and largest prime factor), modular inverses (single and
vectorized over int64 arrays), Mobius and von Mangoldt tables with the
prime-power structure kept exact, square-full testing and counting support.

Vectorized inverses take one of two routes, by how densely a request
covers the residues mod q (batch_inverses):

- a dense request, with at least q / _DENSE_RATIO values, gathers from a
  length-q table that costs O(q): Fermat below _TABLE_HEAD and at the
  primes up to q/2, complete multiplicativity over the smallest prime
  factor for the rest up to q/2, and inv(q - m) = q - inv(m) above.  The
  table is built per request and not kept; inverse_table(q) is the
  cached one;
- a sparse request runs square-and-multiply v**(phi(q) - 1) mod q, about
  2 * log2(q) array operations whatever its length.

Both work in _lanes(q), uint32 below q = 2**16 and int64 above; the
output is int64 either way.  pow(v, -1, q) is their twin in the tests.

Two kinds of question take primes.  Window questions, over the primes or
the prime powers of [x, 2x), take them from prime_window and from nowhere
else: it sieves the window alone, in blocks, over the primes up to the
square root of its top.  Prefix questions build what they need per call
and keep nothing: build_multiplicative_tables for mu and Lambda up to a
truncation (vaughan.decompose), prime_window(2, x + 1) for the primes up
to x (experiments.garaev_congruence_count).

Tables are not modified after construction, so threads may share them.
Sizes are checked against a byte budget before anything is allocated,
so oversized requests fail fast instead of thrashing.

Importing this module, which every other module does, pins glibc's mmap
threshold at 8 MiB and its trim threshold at 16 MiB for the whole process
(pin_malloc_thresholds): the sweeps free and reallocate work arrays of
0.1-8 MB per block, which glibc would otherwise map afresh or return to
the kernel, to be page-faulted back in by the next block.  At most 16 MiB
of freed heap is kept; larger arrays are still returned.  Nothing is
pinned without glibc's mallopt, or where the environment sets one of
these parameters itself.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, NotInvertibleError

HARD_SIEVE_CAP = 10 ** 9
DEFAULT_MEMORY_BYTES = 2 * 1024 ** 3

#: Environment variable naming the maximum memory budget, in bytes, for
#: table construction.  Unset means DEFAULT_MEMORY_BYTES.
MEMORY_ENV_VAR = "KLOOSTERLAB_MAX_BYTES"

#: Bytes a prime sieve charges per entry on top of its spf entry.
_SIEVE_SCRATCH_BYTES = 1.5

#: Bytes per entry of largest_prime_factor_table: its own entry and the
#: sieve's spf entry, both int32 below HARD_SIEVE_CAP, and the sieve scratch.
LPF_TABLE_BYTES = 2 * 4 + _SIEVE_SCRATCH_BYTES

#: Moduli must stay below this, so that a product of two residues fits in
#: int64.
MODULUS_CAP = 2 ** 31

#: Block length of the vectorized steps of build_multiplicative_tables and
#: of the inverse-table builds, so their work arrays stay small next to the
#: tables.
_TABLE_BLOCK = 1 << 16

#: batch_inverses gathers from an O(q) table once a request has at least
#: q / _DENSE_RATIO values, and runs square-and-multiply below that.  A
#: table costs about 17-22 ns per residue for q >= 10**4 (2-core VM), and
#: square-and-multiply 50-140 ns per value.  Replayed over the 1,800
#: requests of two seeded benchmark query streams, ratio 2 cost least:
#: 0.262 s, against 0.263 s at 1.5, 0.265 s at 3, 0.273 s at 4 and 0.446 s
#: without tables.  Sending q < 2048 to square-and-multiply whatever the
#: length cost more (0.277 s).
_DENSE_RATIO = 2

#: An inverse-table build runs Fermat at every residue below this, and
#: needs no sieve while q/2 is below it.  Of 256, 512, 1024 and 2048, 1024
#: built tables fastest from q = 101 to 200003.
_TABLE_HEAD = 1024

#: Peak bytes per residue of an inverse-table build, measured with
#: tracemalloc at every q in [1000, 2300) and at powers of two up to 10**6:
#: at most 21.5, at q = 2050, where the sieve first joins the Fermat head.
_TABLE_BYTES = 22

#: Peak bytes per value of batch_inverses' square-and-multiply route, input
#: aside: tracemalloc measured 25-29 over 10**3 to 10**6 values, q from 1009
#: to 2**31 - 1.  The trial division for phi(q) adds one _TRIAL_CHUNK pass,
#: a 70 KB peak at q = 2**31 - 1 by tracemalloc, uncharged.
_SPARSE_BYTES = 29

#: Candidates per pass of _prime_divisors' trial division: one pass for
#: every q below 2**24, and a bounded peak above it.
_TRIAL_CHUNK = 1 << 12

#: Values per lane of block_inverses: each lane chains this many residues
#: into prefix products and inverts only their product.  Of 4, 8, 10, 12,
#: 16, 24 and 32, 8 inverted fastest both the window primes of the
#: Q = x = 4096 sweep (49.5 ms against 54 ms at 16) and the values 1..256
#: mod q in [1024, 2048) (9.4 ms against 11.0), in blocks of 32 moduli
#: (2-core VM, best of 3, four rounds).
_LANE_VALUES = 8

#: Peak bytes per n of factor_window: its cofactor, prime count, bound and
#: slot, its primes, and the pass over the multiples of 2.
_FACTOR_BYTES = 80

#: n per window of factor_spans: 5.2 MB at _FACTOR_BYTES, whatever the
#: length of the sweep.
_FACTOR_SPAN = 1 << 16

#: Flags per block of prime_window's segmented sieve: 1 MB of bools.
_WINDOW_BLOCK = 1 << 20

#: mallopt parameters (glibc's malloc.h) and the values pin_malloc_thresholds
#: sets.  Below 8 MiB an array is reused from the heap, and up to 16 MiB of
#: freed heap is kept: the 0.1-8 MB work arrays of one block are then not
#: page-faulted back in by the next.  32/64 MiB raised the peak RSS of
#: `ternary 2000 0.5` from 399.2 to 441.5 MB; 4/8 MiB maps the complex
#: p x p arrays of kloosterman_grid (7.6 MB at p = 691) again, and the
#: grid sweep of the benchmark then took 22-27k minor faults against 7.7k.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 8 << 20
_TRIM_THRESHOLD = 16 << 20

#: Environment settings of these parameters that pin_malloc_thresholds
#: leaves alone.
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")
_MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold",
                    "glibc.malloc.top_pad")


def memory_budget() -> int:
    """Byte budget for table construction; override with KLOOSTERLAB_MAX_BYTES."""
    raw = os.environ.get(MEMORY_ENV_VAR)
    if raw is None:
        return DEFAULT_MEMORY_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MEMORY_ENV_VAR} must be an integer byte count, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{MEMORY_ENV_VAR} must be positive, got {value}")
    return value


def pin_malloc_thresholds() -> bool:
    """Keep freed work arrays in the process: set glibc's mmap threshold to
    _MMAP_THRESHOLD and its trim threshold to _TRIM_THRESHOLD, once, at
    import.  True when set; False, doing nothing, where mallopt cannot be
    found (not glibc) or the environment already sets one of these
    parameters (_MALLOC_ENV, or a _MALLOC_TUNABLES entry of
    GLIBC_TUNABLES)."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(name in os.environ for name in _MALLOC_ENV) or any(
            entry.partition("=")[0] in _MALLOC_TUNABLES for entry in tunables.split(":")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


pin_malloc_thresholds()


def charge_budget(need: float, subject: str, budget: int | None = None) -> None:
    """Refuse, before allocating, work whose peak need in bytes exceeds the
    byte budget; subject names the work and its verb ("tables mod 7 need").
    budget, when given, is memory_budget() as the caller read it."""
    if budget is None:
        budget = memory_budget()
    if int(need) > budget:
        raise CapacityError(f"{subject} about {int(need)} bytes, budget is {budget} "
                            f"(set {MEMORY_ENV_VAR} to raise it)")


def _check_capacity(limit: int, bytes_per_entry: float, what: str) -> None:
    if limit > HARD_SIEVE_CAP:
        raise CapacityError(f"{what} limit {limit} exceeds hard cap {HARD_SIEVE_CAP}")
    charge_budget(limit * bytes_per_entry, f"{what} to {limit} needs")


def check_modulus(q: int, bytes_per_entry: float = 0, budget: int | None = None) -> None:
    """Refuse a modulus q >= MODULUS_CAP, or one whose length-q arrays, at
    their peak bytes_per_entry bytes per residue, would exceed the byte
    budget (charge_budget, which takes budget as given)."""
    if q >= MODULUS_CAP:
        raise CapacityError(f"modulus {q} is not below {MODULUS_CAP}")
    charge_budget(q * bytes_per_entry, f"tables mod {q} need", budget)


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to a limit together with a smallest-prime-factor table.

    spf[n] is the least prime dividing n for 2 <= n <= limit, with
    spf[0] = spf[1] = 0.  An integer n >= 2 is prime exactly when
    spf[n] == n, which is what the factorization helpers rely on.
    """

    limit: int
    primes: np.ndarray
    spf: np.ndarray

    def is_prime(self, n: int) -> bool:
        if n < 2:
            return False
        if n > self.limit:
            raise ValueError(f"{n} is beyond the table limit {self.limit}")
        return int(self.spf[n]) == n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as (p, exponent) pairs, p ascending."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if n > self.limit:
            raise ValueError(f"{n} is beyond the table limit {self.limit}")
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def divisors(self, n: int) -> list[int]:
        """All positive divisors of n, ascending."""
        divs = [1]
        for p, e in self.factorize(n):
            pk = 1
            extended = list(divs)
            for _ in range(e):
                pk *= p
                extended.extend(d * pk for d in divs)
            divs = extended
        return sorted(divs)

    def pi(self, x: float) -> int:
        """Number of primes <= x."""
        if x > self.limit:
            raise ValueError(f"{x} is beyond the table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_between(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo <= p < hi, as an int64 array."""
        if hi - 1 > self.limit:
            raise ValueError(f"{hi - 1} is beyond the table limit {self.limit}")
        i = int(np.searchsorted(self.primes, lo, side="left"))
        j = int(np.searchsorted(self.primes, hi, side="left"))
        return self.primes[i:j]


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve the primes up to limit (inclusive) and their smallest prime factors.

    Args:
        limit: upper bound for the table, 2 <= limit <= 10**9, further
            constrained by the byte budget (see memory_budget).

    Returns:
        A PrimeTable whose primes array is ascending int64.
    """
    if limit < 2:
        raise ValueError(f"need limit >= 2, got {limit}")
    dtype = np.int32 if limit < 2 ** 31 else np.int64
    _check_capacity(limit, bytes_per_entry=dtype().itemsize + _SIEVE_SCRATCH_BYTES,
                    what="prime sieve")

    spf = np.zeros(limit + 1, dtype=dtype)
    # the primes up to sqrt(limit) mark their multiples from p*p on, the
    # largest first, so each entry keeps the smallest prime written to it
    root = math.isqrt(limit)
    small = sieve_primes(root).primes.tolist() if root >= 2 else []
    for p in reversed(small):
        spf[p * p :: p] = p
    # everything still unmarked from 2 on is prime, the small ones included
    primes = np.flatnonzero(spf[2:] == 0).astype(np.int64) + 2
    spf[primes] = primes
    return PrimeTable(limit=limit, primes=primes, spf=spf)


def mod_inverse(n: int, q: int) -> int:
    """Inverse of n modulo q in [1, q-1]; raises NotInvertibleError otherwise."""
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    try:
        return pow(n, -1, q)
    except ValueError:
        raise NotInvertibleError(n, q, math.gcd(n, q)) from None


def _lanes(q: int) -> type:
    """Products mod q in uint32 below 2**16, where they stay below 2**32, else int64."""
    return np.uint32 if q < 1 << 16 else np.int64


def _prime_divisors(q: int) -> list[int]:
    """The distinct primes dividing q >= 1, ascending, by trial division,
    _TRIAL_CHUNK candidates at a time, up to the square root of the part
    of q not yet factored."""
    primes, n, lo = [], q, 2
    while lo * lo <= n:
        d = np.arange(lo, min(lo + _TRIAL_CHUNK, math.isqrt(n) + 1), dtype=np.int64)
        for p in d[n % d == 0].tolist():
            # a composite divisor no longer divides n once its primes are out
            if n % p == 0:
                primes.append(p)
                while n % p == 0:
                    n //= p
        lo += _TRIAL_CHUNK
    if n > 1:
        primes.append(n)
    return primes


def _totient(q: int, divisors: list[int] | None = None) -> int:
    """Euler's phi(q), from the primes dividing q (found when not given)."""
    phi = q
    for p in _prime_divisors(q) if divisors is None else divisors:
        phi -= phi // p
    return phi


def _fermat_inverses(vals: np.ndarray, q: int, divisors=None) -> np.ndarray:
    """v**(phi(q) - 1) mod q for residues 0 <= v < q, as int64, 0 at non-units;
    divisors, when given, are the primes of q.

    About 2 * log2(q) array operations whatever the length, in _lanes(q).
    Every step names its dtype and writes into an out= array, so the
    result does not depend on numpy's scalar promotion rules (NEP 50).
    """
    dtype = _lanes(q)
    mod = dtype(q)
    v = vals.astype(dtype, copy=False)
    base = v.copy()
    out = np.ones_like(base)
    e = _totient(q, divisors) - 1
    while e:
        if e & 1:
            np.multiply(out, base, out=out)
            np.remainder(out, mod, out=out)
        e >>= 1
        if e:
            np.multiply(base, base, out=base)
            np.remainder(base, mod, out=base)
    # v * v**(phi(q) - 1) is 1 for a unit v; for any other v it shares a
    # prime with q, so it is not 1 (and cheaper to test than a gcd)
    check = np.multiply(v, out, out=base)
    np.remainder(check, mod, out=check)
    out[check != 1] = 0
    return out.astype(np.int64, copy=False)


def _build_inverse_table(q: int, divisors=None) -> np.ndarray:
    """Array t of length q >= 2 with t[r] = inverse of r mod q for units, 0
    elsewhere; divisors, when given, are the primes of q.

    Fermat runs below _TABLE_HEAD and at the primes up to q/2.  The other
    entries up to q/2 follow from complete multiplicativity, inv(n) =
    inv(spf(n)) * inv(n / spf(n)), over the chunks of _cofactor_chunks
    from _TABLE_HEAD on, whose cofactors always lie below the chunk.  Above
    q/2, inv(q - m) = q - inv(m).  A prime dividing q gets 0 from Fermat,
    and the 0 carries to every multiple and through the mirror.  The work
    is in _lanes(q), like _fermat_inverses.  The sieve is local and freed
    on return.  Not cached: inverse_table is the cached entry point.
    """
    dtype = _lanes(q)
    mod = dtype(q)
    table = np.empty(q, dtype=dtype)
    # [0, half) is filled by Fermat and the chunks, [half, q) by the mirror
    half = q // 2 + 1
    head = min(half, _TABLE_HEAD)
    seeds = np.arange(head)
    if half > head:
        sieve = sieve_primes(half - 1)
        seeds = np.concatenate((seeds, sieve.primes[np.searchsorted(sieve.primes, head) :]))
    table[seeds] = _fermat_inverses(seeds, q, divisors)
    if half > head:
        for lo, hi, p, cof in _cofactor_chunks(sieve.spf, half - 1, start=head):
            chunk = table[lo:hi]
            np.take(table, p, out=chunk)
            chunk *= table[cof]
            np.remainder(chunk, mod, out=chunk)
        # free the sieve (p is a view of it) before the int64 copy below
        del sieve, p
    up = table[half:]
    np.subtract(mod, table[q - half : 0 : -1], out=up)
    up[up == mod] = 0
    return table.astype(np.int64, copy=False)


def batch_inverses(values, q: int, divisors=None) -> np.ndarray:
    """Inverses modulo q of a sequence of integers, as int64, 0 where not invertible.
    divisors, when given, are the primes of q, so that a sweep that has
    factored its moduli does not factor q again (for phi(q)).

    Two routes, chosen by how densely the request covers the residues:

    - dense, with at least q / _DENSE_RATIO values: one gather from a
      length-q table built in O(q) by _build_inverse_table, which is not
      cached, so a long-lived process keeps no table per modulus.  A
      table over the byte budget sends the request to the sparse route;
    - sparse: one vectorized square-and-multiply v**(phi(q) - 1) mod q
      (_fermat_inverses), charged at _SPARSE_BYTES per value first.

    Values must fit in int64 and q must be below MODULUS_CAP, so that
    every product fits in int64.  Output order matches the input order.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    check_modulus(q)
    vals = np.asarray(values, dtype=np.int64)
    if _DENSE_RATIO * vals.size >= q and q * _TABLE_BYTES <= memory_budget():
        return _build_inverse_table(q, divisors)[np.remainder(vals, q)]
    charge_budget(vals.size * _SPARSE_BYTES, f"inverses of {vals.size} values mod {q} need")
    return _fermat_inverses(np.remainder(vals, q), q, divisors)


def _lane_powers(base: np.ndarray, exps: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exps mod mod by square-and-multiply, with one exponent >= 0 and
    one modulus per row (exps and mod are columns), in base's dtype."""
    # the bits of every exponent, lowest first, at once
    bits = (exps >> np.arange(max(int(exps.max(initial=0)).bit_length(), 1))[:, None, None]) & 1
    out = np.ones_like(base)
    base = base.copy()
    step = np.empty_like(base)
    for i, odd in enumerate(bits.astype(bool)):
        if i:
            np.multiply(base, base, out=base)
            np.remainder(base, mod, out=base)
        np.multiply(out, base, out=step)
        np.remainder(step, mod, out=step)
        np.copyto(out, step, where=odd)
    return out


def _nonunit_cells(vals: np.ndarray, divisors) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every value of vals that shares a prime with its
    row's modulus, divisors[j] holding the primes of row j's.  vals is a
    run of consecutive integers, where each prime p marks its multiples, or
    a set of primes, where p marks itself if it is one of them.  Either way
    the cost is the number of cells marked plus one step per prime."""
    lens = [len(d) for d in divisors]
    rows = np.repeat(np.arange(len(divisors)), lens)
    ps = np.fromiter((p for d in divisors for p in d), dtype=np.int64, count=sum(lens))
    n = len(vals)
    if not n:
        return rows[:0], rows[:0]
    lo, hi = int(vals[0]), int(vals[-1])
    if hi - lo == n - 1:
        first = -(-lo // ps)
        count = np.maximum(hi // ps - first + 1, 0)
        step = np.arange(int(count.sum())) - np.repeat(count.cumsum() - count, count)
        return np.repeat(rows, count), (np.repeat(first, count) + step) * np.repeat(ps, count) - lo
    at = np.minimum(np.searchsorted(vals, ps), n - 1)
    hit = vals[at] == ps
    return rows[hit], at[hit]


def block_inverses(values, moduli, divisors=None) -> np.ndarray:
    """Inverses of ascending values v >= 1 modulo each of a block of moduli:
    a run of consecutive integers, or distinct primes.

    Returns an int64 array of shape (len(moduli), len(values)) whose entry
    [j, i] is the inverse of values[i] mod moduli[j], and 0 where the two
    share a prime.  divisors, when given, holds the distinct primes of each
    modulus (_prime_divisors, or FactorWindow.divisors for a sweep), so that a
    caller that needs them too factors each modulus once; the non-units are
    marked from them (_nonunit_cells).

    Montgomery's batch inversion ("Speeding the Pollard and elliptic curve
    methods of factorization", Math. Comp. 48, 1987), with lanes of
    _LANE_VALUES consecutive values under one modulus: the prefix products
    of every lane advance together, one array operation per step; each
    lane's product is inverted once, by square-and-multiply with exponent
    phi(q) - 1; a backward pass then gives every inverse.  That is about
    three products per inverse in place of 2 * log2(q).  A non-unit enters
    its lane as the factor 1, so the lane product stays a unit.  The lanes
    are _lanes of the largest modulus.  pow(v, -1, q) is the twin in the
    tests.
    """
    vs = np.asarray(values, dtype=np.int64)
    qs = np.asarray(moduli, dtype=np.int64)
    if qs.size and int(qs.min()) < 2:
        raise ValueError(f"need moduli >= 2, got {int(qs.min())}")
    if np.any(vs[1:] <= vs[:-1]):
        raise ValueError("values must be distinct and ascending")
    if vs.size and int(vs[0]) < 1:
        raise ValueError(f"need values >= 1, got {int(vs[0])}")
    top = int(qs.max(initial=2))
    check_modulus(top)
    if divisors is None:
        divisors = [_prime_divisors(q) for q in qs.tolist()]
    dtype = _lanes(top)
    k, n = len(qs), len(vs)
    lanes = -(-n // _LANE_VALUES)
    col = qs[:, None]
    mod = col.astype(dtype)
    # residues, padded with 1 to whole lanes, and 1 at the non-units
    grid = np.ones((k, lanes * _LANE_VALUES), dtype=dtype)
    grid[:, :n] = vs % col
    phi = np.array([_totient(q, d) for q, d in zip(qs.tolist(), divisors)], dtype=np.int64)
    rows, cols = _nonunit_cells(vs, divisors)
    grid[rows, cols] = 1
    grid = grid.reshape(k, lanes, _LANE_VALUES)
    prefix = np.empty_like(grid)
    prefix[:, :, 0] = grid[:, :, 0]
    for t in range(1, _LANE_VALUES):
        np.multiply(prefix[:, :, t - 1], grid[:, :, t], out=prefix[:, :, t])
        np.remainder(prefix[:, :, t], mod, out=prefix[:, :, t])
    # cur runs through the inverses of the prefix products, last to first
    cur = _lane_powers(prefix[:, :, -1], (phi - 1)[:, None], mod)
    out = np.empty_like(grid)
    for t in range(_LANE_VALUES - 1, 0, -1):
        np.multiply(cur, prefix[:, :, t - 1], out=out[:, :, t])
        np.remainder(out[:, :, t], mod, out=out[:, :, t])
        np.multiply(cur, grid[:, :, t], out=cur)
        np.remainder(cur, mod, out=cur)
    out[:, :, 0] = cur
    inverses = out.reshape(k, -1)[:, :n].astype(np.int64)
    inverses[rows, cols] = 0
    return inverses


@dataclass(frozen=True)
class FactorWindow:
    """The distinct primes of every n in [lo, hi), from factor_window: those
    of n are primes[bounds[n - lo] : bounds[n - lo + 1]], ascending."""

    lo: int
    hi: int
    primes: np.ndarray
    bounds: np.ndarray

    def divisors(self, moduli: range) -> list[list[int]]:
        """The lists of primes of the n of moduli, a range inside the window,
        in the form _prime_divisors gives them."""
        cut = self.bounds[moduli.start - self.lo : moduli.stop - self.lo + 1].tolist()
        primes = self.primes[cut[0] : cut[-1]].tolist()
        return [primes[a - cut[0] : b - cut[0]] for a, b in zip(cut[:-1], cut[1:])]


def factor_window(lo: int, hi: int) -> FactorWindow:
    """The distinct primes of every n in [lo, hi), 1 <= lo, by one sieve over
    the window.

    Every prime p up to sqrt(hi - 1) is taken at its multiples in [lo, hi),
    whose cofactors drop every power of p; what is left above 1 is the one
    prime factor above sqrt(hi - 1).  The cost is O((hi - lo) log log hi)
    in array passes, with no trial division per n.  A sweep over the moduli
    q ~ Q factors them a span at a time here (factor_spans).
    _prime_divisors is the twin in the tests.
    """
    if lo < 1:
        raise ValueError(f"need lo >= 1, got {lo}")
    check_modulus(hi - 1)
    size = max(hi - lo, 0)
    charge_budget(size * _FACTOR_BYTES, f"factor window [{lo}, {hi}) needs")
    root = math.isqrt(max(hi - 1, 1))
    small = _small_primes(max(2, 1 << root.bit_length()))
    base = small[: int(np.searchsorted(small, root, side="right"))].tolist()
    # first pass: how many primes each n has, and its cofactor free of them
    rest = np.arange(lo, lo + size, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)
    for p in base:
        count[(-lo) % p :: p] += 1
        cof = rest[(-lo) % p :: p]
        cof //= p
        again = np.flatnonzero(cof % p == 0)
        while len(again):
            cof[again] //= p
            again = again[cof[again] % p == 0]
    big = np.flatnonzero(rest > 1)
    count[big] += 1
    big_primes = rest[big]
    del rest
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(count, out=bounds[1:])
    del count
    # second pass: each n's primes in ascending order, the large one last
    primes = np.empty(int(bounds[-1]), dtype=np.int64)
    slot = bounds[:-1].copy()
    for p in base:
        at = slot[(-lo) % p :: p]
        primes[at] = p
        at += 1
    primes[slot[big]] = big_primes
    return FactorWindow(lo, hi, primes, bounds)


def factor_spans(lo: int, hi: int):
    """factor_window over [lo, hi) in consecutive spans of at most
    _FACTOR_SPAN n, one at a time, so that a sweep holds one span's
    factors whatever its length."""
    for start in range(lo, hi, _FACTOR_SPAN):
        yield factor_window(start, min(start + _FACTOR_SPAN, hi))


@lru_cache(maxsize=32)
def inverse_table(q: int) -> np.ndarray:
    """Array t with t[r] = inverse of r mod q for units, 0 elsewhere (len q)."""
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    check_modulus(q, bytes_per_entry=_TABLE_BYTES)
    table = _build_inverse_table(q)
    table.setflags(write=False)
    return table


def is_squarefull(n: int) -> bool:
    """True when every prime in n divides it at least twice (1 counts)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e < 2:
                return False
        d += 1
    # A leftover factor would be prime to the first power only.
    return n == 1


def largest_prime_factor_table(limit: int) -> np.ndarray:
    """Array g with g[n] = largest prime factor of n for 2 <= n <= limit.

    g[0] = g[1] = 0.  Memory use is checked against the byte budget.  Built
    by recursion on the cofactor c = n / p, p = spf(n): g[n] = max(g[c], p).
    """
    if limit < 2:
        raise ValueError(f"need limit >= 2, got {limit}")
    _check_capacity(limit, bytes_per_entry=LPF_TABLE_BYTES, what="largest-factor table")
    spf = sieve_primes(limit).spf
    g = np.zeros(limit + 1, dtype=spf.dtype)
    for lo, hi, p, cof in _cofactor_chunks(spf, limit):
        np.maximum(g[cof], p, out=g[lo:hi])
    return g


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_deterministic(n: int) -> bool:
    """Miller-Rabin with a fixed base set, exact far beyond 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n; deterministic parameter walk."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor walk exhausted for {n}")


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of n >= 2, without a sieve table."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    best = 1
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
            best = max(best, p)
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 10 ** 4:
        while n % d == 0:
            n //= d
            best = max(best, d)
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_deterministic(m):
            best = max(best, m)
            continue
        f = _pollard_brent(m)
        stack.extend((f, m // f))
    return best


@dataclass(frozen=True)
class MultiplicativeTables:
    """Mobius and von Mangoldt data up to prime_table.limit.

    The von Mangoldt function is kept exact: vm_prime[n] = p when n is a
    power of the prime p and 0 otherwise, so Lambda(n) = log(vm_prime[n])
    is evaluated lazily from the integer p rather than stored as a float.
    """

    prime_table: PrimeTable
    mobius: np.ndarray
    vm_prime: np.ndarray

    @property
    def limit(self) -> int:
        return self.prime_table.limit

    def lam(self, n: int) -> float:
        """Von Mangoldt Lambda(n): log p when n = p**a, else 0."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"{n} outside [1, {self.limit}]")
        p = int(self.vm_prime[n])
        return math.log(p) if p else 0.0

    def prime_power(self, n: int) -> tuple[int, int] | None:
        """(p, a) when n = p**a with a >= 1, else None."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"{n} outside [1, {self.limit}]")
        p = int(self.vm_prime[n])
        if p == 0:
            return None
        a = 0
        while n > 1:
            n //= p
            a += 1
        return (p, a)

    def tau_k(self, n: int, k: int) -> int:
        """Number of ordered k-factorizations of n (tau_2 is the divisor count)."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        out = 1
        for _, e in self.prime_table.factorize(n):
            out *= math.comb(e + k - 1, k - 1)
        return out


def _cofactor_chunks(spf: np.ndarray, limit: int, start: int = 2):
    """Yield (lo, hi, p, c) over chunks [lo, hi) of start <= n <= limit, with
    p = spf[n] and the cofactor c = n / p, for tables built by recursion on c.

    hi <= 2 lo keeps every c <= n/2 below its chunk, so a chunk reads only
    finished entries, and hi - lo <= _TABLE_BLOCK keeps the work arrays small
    next to the tables.  n / p is an exact quotient below 2**31, so the
    float64 division is exact, and cheaper than an integer one.
    """
    lo = start
    while lo <= limit:
        hi = min(limit + 1, 2 * lo, lo + _TABLE_BLOCK)
        p = spf[lo:hi]
        yield lo, hi, p, np.divide(np.arange(lo, hi, dtype=np.float64), p).astype(np.intp)
        lo = hi


def build_multiplicative_tables(limit_or_table) -> MultiplicativeTables:
    """Mobius and exact von Mangoldt data up to a limit (or reuse a PrimeTable).

    By recursion on the cofactor c = n / p, p = spf(n) (_cofactor_chunks):
    mobius[n] is 0 when spf(c) == p and -mobius[c] otherwise; vm_prime[n] is
    p when c = 1 or vm_prime[c] == p, else 0.
    """
    if isinstance(limit_or_table, PrimeTable):
        table = limit_or_table
    else:
        table = sieve_primes(int(limit_or_table))
    limit = table.limit
    _check_capacity(limit, bytes_per_entry=5, what="multiplicative tables")

    spf = table.spf
    mobius = np.empty(limit + 1, dtype=np.int8)
    mobius[:2] = (0, 1)
    # primes are their own stamps; the chunks stamp the prime powers
    vm_prime = np.zeros(limit + 1, dtype=np.int32 if limit < 2 ** 31 else np.int64)
    vm_prime[table.primes] = table.primes
    for lo, hi, p, cof in _cofactor_chunks(spf, limit):
        chunk = mobius[lo:hi]
        np.negative(mobius[cof], out=chunk)
        chunk[spf[cof] == p] = 0
        stamped = vm_prime[cof] == p
        vm_prime[lo:hi][stamped] = p[stamped]
    return MultiplicativeTables(prime_table=table, mobius=mobius, vm_prime=vm_prime)


#: No package caller.  bench/tracer.py binds this name and inverse_table's
#: cache_info by name, so both stay until tracing moves into the package.
shared_tables = build_multiplicative_tables


@dataclass(frozen=True)
class PrimeWindow:
    """The primes of a window [lo, hi), as an ascending int64 array, and its
    prime powers p**j, j >= 2, found on first use from base, the primes up
    to sqrt(hi - 1)."""

    lo: int
    hi: int
    primes: np.ndarray
    base: np.ndarray

    @cached_property
    def prime_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """The p**j, j >= 2, in the window, ascending, and their p."""
        found = []
        # a plain loop: about pi(sqrt(hi)) steps, where array passes would
        # take log2(hi) steps of several calls each
        for p in self.base.tolist():
            pw = p * p
            while pw < self.hi:
                if pw >= self.lo:
                    found.append((pw, p))
                pw *= p
        # prime powers are distinct integers, so the order is unique
        found.sort()
        pairs = np.array(found, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()


def _window_count_bound(y: int) -> float:
    """At most this many primes lie in any interval of length y:
    pi(t + y) - pi(t) <= 2 y / log y for y > 1 (Montgomery and Vaughan,
    "The large sieve", Mathematika 20, 1973)."""
    return min(y, 2 * y / math.log(y)) if y > 1 else y


@lru_cache(maxsize=None)
def _small_primes(limit: int) -> np.ndarray:
    """The primes up to limit, a power of two, read-only: the base primes of
    prime_window.  Below the hard cap's square root that is at most 16
    tables of at most 3,512 primes."""
    primes = sieve_primes(limit).primes
    primes.setflags(write=False)
    return primes


def _sieve_window(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi), 2 <= lo, given every prime up to sqrt(hi - 1) in
    base: each block of _WINDOW_BLOCK flags is crossed off from p*p on."""
    base = base.tolist()
    found = [np.empty(0, dtype=np.int64)]
    for start in range(lo, hi, _WINDOW_BLOCK):
        stop = min(start + _WINDOW_BLOCK, hi)
        composite = np.zeros(stop - start, dtype=bool)
        for p in base:
            if p * p >= stop:
                break
            composite[max(p * p, -(-start // p) * p) - start :: p] = True
        found.append(np.flatnonzero(~composite) + start)
    return np.concatenate(found)


def prime_window(lo: int, hi: int) -> PrimeWindow:
    """The primes and the prime powers of [lo, hi), without building a table
    to hi.

    [lo, hi) is sieved in blocks of _WINDOW_BLOCK flags over the primes up
    to sqrt(hi - 1), from a small cached sieve_primes, after the byte
    budget is charged.  The window keeps those base primes, from which
    PrimeWindow.prime_powers finds the p**j, j >= 2, when asked.
    """
    lo, hi = max(int(lo), 2), int(hi)
    if hi <= lo:
        empty = np.empty(0, dtype=np.int64)
        return PrimeWindow(lo, hi, empty, empty)
    if hi - 1 > HARD_SIEVE_CAP:
        raise CapacityError(f"prime window limit {hi - 1} exceeds hard cap {HARD_SIEVE_CAP}")
    block = min(hi - lo, _WINDOW_BLOCK)
    # the output and its concatenation, and per block the flags, their
    # negation, and the block's primes before and after the offset
    charge_budget(2 * block + 16 * (_window_count_bound(hi - lo) + _window_count_bound(block)),
                  f"prime window [{lo}, {hi}) needs")
    root = math.isqrt(hi - 1)
    small = _small_primes(max(2, 1 << root.bit_length()))
    base = small[: int(np.searchsorted(small, root, side="right"))]
    return PrimeWindow(lo, hi, _sieve_window(lo, hi, base), base)
