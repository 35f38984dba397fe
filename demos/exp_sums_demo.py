#!/usr/bin/env python3
"""Tour of the exponential sum primitives.

Evaluates a prime sum with inverse phases, scans for the worst twist,
and checks complete Kloosterman sums against the square root barrier.
"""

import math

import numpy as np

import kloosterlab as kl
from kloosterlab.arith import prime_window

# A single sum: primes p with 1000 <= p < 2000, phase e(a * pbar / q).
q, x = 101, 1000.0
for a in (1, 2, 50):
    res = kl.prime_sum(kl.ExpSumQuery(a=a, q=q, x=x))
    print(f"q={q} a={a:3d}: S = {res.value:.6f}  |S| = {res.magnitude:.4f} "
          f"({res.term_count} primes, err <= {res.accumulation_error_bound:.2e})")

# The twist that maximises |S| for this modulus and window.
a_star, peak = kl.max_prime_sum(q, x)
count = len(prime_window(int(x), int(2 * x)).primes)
print(f"\nworst twist a* = {a_star}, |S| = {peak:.4f} "
      f"out of a trivial {count} (ratio {peak / count:.3f})")

# Complete Kloosterman sums at a prime: real, and below 2*sqrt(p).
p = 199
grid = kl.kloosterman_grid(p)
mags = np.abs(grid[1:, 1:].real)
print(f"\nK(a,b;{p}) over all nonzero a,b:")
print(f"  max |K| = {mags.max():.4f}   2*sqrt(p) = {2 * math.sqrt(p):.4f}")
print(f"  max |Im K| = {np.abs(grid.imag).max():.2e} (should be ~0)")
print(f"  K(1,1;5) = {kl.kloosterman(1, 1, 5):.6f}  exact (3-sqrt(5))/2 = "
      f"{(3 - math.sqrt(5)) / 2:.6f}")

# Short sums of e(a*nbar/q) over a fragment of the period, with the
# completion style bound for scale.
rep = kl.weil_ratio(3, 997, 100.0, 400.0)
print(f"\nshort inverse sum, q=997, window (100, 400]:")
print(f"  |sum| = {rep.lhs:.4f}")
for key, val in rep.rhs_terms.items():
    print(f"  {key} = {val:.4f}")
print(f"  ratio against the sqrt term = {rep.lhs / rep.rhs_terms['sqrt(q)']:.4f}")
