"""Integer and multiplicative-function infrastructure.

Sieves (smallest and largest prime factor), modular inverses (single and
vectorized over int64 arrays), Mobius and von Mangoldt tables with the
prime-power structure kept exact, square-full testing and counting support.

All tables are immutable after construction and safe to share between
threads; construction itself is serialized behind a lock.  Sizes are
checked against a byte budget before anything is allocated, so oversized
requests fail fast instead of thrashing.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, CoverageError, NotInvertibleError

HARD_SIEVE_CAP = 10 ** 9
DEFAULT_MEMORY_BYTES = 2 * 1024 ** 3

#: Environment variable naming the maximum memory budget, in bytes, for
#: table construction.  Unset means DEFAULT_MEMORY_BYTES.
MEMORY_ENV_VAR = "KLOOSTERLAB_MAX_BYTES"

#: Bytes a prime sieve charges per entry on top of its spf entry.
_SIEVE_SCRATCH_BYTES = 1.5

#: Moduli must stay below this, so that a product of two residues fits in
#: int64.
MODULUS_CAP = 2 ** 31

#: Block length of the vectorized steps of build_multiplicative_tables, so
#: their boolean masks stay small next to the tables.
_TABLE_BLOCK = 1 << 16


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


def _check_capacity(limit: int, bytes_per_entry: float, what: str) -> None:
    if limit > HARD_SIEVE_CAP:
        raise CapacityError(f"{what} limit {limit} exceeds hard cap {HARD_SIEVE_CAP}")
    need = int(limit * bytes_per_entry)
    budget = memory_budget()
    if need > budget:
        raise CapacityError(
            f"{what} to {limit} needs about {need} bytes, budget is {budget} "
            f"(set {MEMORY_ENV_VAR} to raise it)"
        )


def check_modulus(q: int, bytes_per_entry: float = 0) -> None:
    """Refuse a modulus q >= MODULUS_CAP, or one whose length-q arrays, at
    their peak bytes_per_entry bytes per residue, would exceed the byte budget."""
    if q >= MODULUS_CAP:
        raise CapacityError(f"modulus {q} is not below {MODULUS_CAP}")
    need = int(q * bytes_per_entry)
    budget = memory_budget()
    if need > budget:
        raise CapacityError(
            f"tables mod {q} need about {need} bytes, budget is {budget} "
            f"(set {MEMORY_ENV_VAR} to raise it)"
        )


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

    def require_coverage(self, needed: float) -> None:
        if self.limit < needed - 1:
            raise CoverageError(
                f"table covers up to {self.limit}, need at least {needed - 1:.0f}"
            )

    def is_prime(self, n: int) -> bool:
        if n < 2:
            return False
        if n > self.limit:
            raise CoverageError(f"{n} is beyond the table limit {self.limit}")
        return int(self.spf[n]) == n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as (p, exponent) pairs, p ascending."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if n > self.limit:
            raise CoverageError(f"{n} is beyond the table limit {self.limit}")
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
            raise CoverageError(f"{x} is beyond the table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_between(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo <= p < hi, as an int64 array."""
        self.require_coverage(hi)
        i = int(np.searchsorted(self.primes, lo, side="left"))
        j = int(np.searchsorted(self.primes, hi, side="left"))
        return self.primes[i:j]

    def count_dyadic(self, x: float) -> int:
        """Number of primes in the dyadic window [x, 2x)."""
        return len(self.primes_between(x, 2 * x))


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
    small_primes = []
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            small_primes.append(p)
            spf[p] = p
            block = spf[p * p :: p]
            block[block == 0] = p
    # Everything still unmarked above 1 is a prime larger than sqrt(limit).
    large = np.flatnonzero(spf[2:] == 0).astype(np.int64) + 2
    spf[large] = large
    primes = np.concatenate([np.asarray(small_primes, dtype=np.int64), large])
    return PrimeTable(limit=limit, primes=primes, spf=spf)


def mod_inverse(n: int, q: int) -> int:
    """Inverse of n modulo q in [1, q-1]; raises NotInvertibleError otherwise."""
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    try:
        return pow(n, -1, q)
    except ValueError:
        raise NotInvertibleError(n, q, math.gcd(n, q)) from None


def _prime_divisors(q: int) -> list[int]:
    """The distinct primes dividing q >= 1, ascending, by trial division up to sqrt(q)."""
    primes, n = [], q
    d = np.arange(2, math.isqrt(q) + 1, dtype=np.int64)
    for p in d[q % d == 0].tolist():
        # a composite divisor no longer divides n once its primes are out
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        primes.append(n)
    return primes


def _totient(q: int) -> int:
    """Euler's phi(q), from the primes dividing q."""
    phi = q
    for p in _prime_divisors(q):
        phi -= phi // p
    return phi


def batch_inverses(values, q: int) -> np.ndarray:
    """Inverses modulo q of a sequence of integers, as int64, 0 where not invertible.

    One vectorized square-and-multiply v**(phi(q) - 1) mod q, about
    2 * log2(q) array operations whatever the length; entries sharing a
    factor with q are set to 0.  Values must fit in int64 and q must be
    below MODULUS_CAP, so that every product fits in int64.  Output order
    matches the input order.
    """
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    check_modulus(q)
    vals = np.remainder(np.asarray(values, dtype=np.int64), q)
    base = vals.copy()
    out = np.ones_like(vals)
    e = _totient(q) - 1
    while e:
        if e & 1:
            np.multiply(out, base, out=out)
            np.remainder(out, q, out=out)
        e >>= 1
        if e:
            np.multiply(base, base, out=base)
            np.remainder(base, q, out=base)
    # v * v**(phi(q) - 1) is 1 for a unit v; for any other v it shares a
    # prime with q, so it is not 1 (and cheaper to test than a gcd)
    np.multiply(vals, out, out=vals)
    np.remainder(vals, q, out=vals)
    out[vals != 1] = 0
    return out


@lru_cache(maxsize=32)
def inverse_table(q: int) -> np.ndarray:
    """Array t with t[r] = inverse of r mod q for units, 0 elsewhere (len q)."""
    if q < 2:
        raise ValueError(f"need modulus >= 2, got {q}")
    # the int64 table plus four int64 work arrays and a mask
    check_modulus(q, bytes_per_entry=33)
    table = batch_inverses(np.arange(q, dtype=np.int64), q)
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

    g[0] = g[1] = 0.  Memory use is checked against the byte budget.
    """
    if limit < 2:
        raise ValueError(f"need limit >= 2, got {limit}")
    dtype = np.int32 if limit < 2 ** 31 else np.int64
    _check_capacity(limit, bytes_per_entry=2 * dtype().itemsize + 1.5, what="largest-factor table")
    table = sieve_primes(limit)
    g = np.zeros(limit + 1, dtype=dtype)
    for p in table.primes:
        g[p::p] = p
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
            raise CoverageError(f"{n} outside [1, {self.limit}]")
        p = int(self.vm_prime[n])
        return math.log(p) if p else 0.0

    def prime_power(self, n: int) -> tuple[int, int] | None:
        """(p, a) when n = p**a with a >= 1, else None."""
        if not 1 <= n <= self.limit:
            raise CoverageError(f"{n} outside [1, {self.limit}]")
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


def build_multiplicative_tables(limit_or_table) -> MultiplicativeTables:
    """Sieve Mobius and exact von Mangoldt data up to a limit (or reuse a PrimeTable)."""
    if isinstance(limit_or_table, PrimeTable):
        table = limit_or_table
    else:
        table = sieve_primes(int(limit_or_table))
    limit = table.limit
    _check_capacity(limit, bytes_per_entry=5, what="multiplicative tables")

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    vm_dtype = np.int32 if limit < 2 ** 31 else np.int64
    # vm_prime first holds the cofactor of n left after dividing out every
    # prime p <= sqrt(limit); what remains above 1 is one larger prime
    vm_prime = np.arange(limit + 1, dtype=vm_dtype)
    n_small = int(np.searchsorted(table.primes, math.isqrt(limit), side="right"))
    small_powers = []
    for p in table.primes[:n_small].tolist():
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
        pk = p
        while pk <= limit:
            vm_prime[pk::pk] //= p
            small_powers.append((pk, p))
            pk *= p
    for lo in range(0, limit + 1, _TABLE_BLOCK):
        block = slice(lo, lo + _TABLE_BLOCK)
        # -1 where a larger prime is left, else +1
        sign = (vm_prime[block] <= 1).view(np.int8)
        sign *= 2
        sign -= 1
        mobius[block] *= sign
    vm_prime.fill(0)
    large = table.primes[n_small:]
    vm_prime[large] = large
    for pk, p in small_powers:
        vm_prime[pk] = p
    return MultiplicativeTables(prime_table=table, mobius=mobius, vm_prime=vm_prime)


_shared_lock = threading.Lock()
_shared_mult: MultiplicativeTables | None = None


def shared_tables(min_limit: int, max_limit: int = HARD_SIEVE_CAP) -> MultiplicativeTables:
    """Process-wide multiplicative tables covering at least min_limit.

    Grows geometrically so repeated calls with slowly increasing limits do
    not resieve from scratch each time.  The growth stops at max_limit and
    at the largest limit the byte budget admits; min_limit itself is never
    cut, so a request beyond either still fails in the capacity checks.
    The old table is dropped before the larger one is built, so the peak
    is the new table alone, as the capacity checks charge it; a refused
    growth leaves no cached table.
    """
    global _shared_mult
    min_limit = max(int(min_limit), 2)
    with _shared_lock:
        if _shared_mult is None or _shared_mult.limit < min_limit:
            target = max(min_limit, 1 << 16)
            if _shared_mult is not None:
                target = max(target, 2 * _shared_mult.limit)
            # the sieve costs the most per entry; its spf entries are int32 below
            # HARD_SIEVE_CAP
            admitted = int(memory_budget() // (4 + _SIEVE_SCRATCH_BYTES))
            target = max(min_limit, min(target, max_limit, admitted))
            # the capacity checks charge the new table alone
            _shared_mult = None
            _shared_mult = build_multiplicative_tables(target)
        return _shared_mult


def shared_prime_table(min_limit: int) -> PrimeTable:
    return shared_tables(min_limit).prime_table
