#!/usr/bin/env python3
"""Threshold exponents and rough-value counts for prime triples.

Finds the root of the sieve threshold function (the exponent where
the lower bound machinery stops paying), checks the special ternary
case against the general family, and measures how often
p1*p2 + p1*p3 + p2*p3 carries a large prime factor.
"""

from fractions import Fraction

import kloosterlab as kl

# The special ternary threshold and its place in the general family.
res = kl.ternary_exponent_root()
print(f"ternary threshold root: theta = {res.root:.10f} "
      f"(residual {res.residual:.1e}, {res.iterations} bisection steps)")

print("\ngeneral family g(theta; alpha):")
for alpha in (Fraction(21, 20), Fraction(23, 21), Fraction(13, 10),
              Fraction(3, 2)):
    r = kl.sieve_exponent_root(alpha)
    print(f"  alpha = {str(alpha):5s}: root = {r.root:.10f}")
print("(roots increase with alpha; alpha = 23/21 is the ternary case)")

# Empirical rough counts: fraction of prime triples p_i ~ x whose
# pairwise-product sum has a prime factor above x^theta.
print("\nrough triple fractions:")
print("   x   theta   count   total   fraction")
for x in (50, 100):
    for theta in (1.0, 1.1, 1.1881538363793755, 1.3):
        t = kl.ternary_rough_count(x, theta)
        print(f"  {x:3d}  {theta:.3f}  {t.count:6d}  {t.total:6d}"
              f"   {t.fraction:.4f}")

# The congruence histogram behind the triple counts: how the products
# p1*p2*p3 distribute over residues mod q.
x, q = 200, 12
pt = kl.sieve_primes(x)
print(f"\nproduct residue histogram, primes <= {x}, mod {q}:")
total = 0
for lam in range(q):
    c = kl.garaev_congruence_count(x, q, lam)
    total += c
    bar = "#" * (c * 40 // 6000 or (1 if c else 0))
    print(f"  {lam:2d}: {c:6d} {bar}")
pi_x = int(pt.pi(x))
print(f"  total {total} = pi(x)^3 = {pi_x ** 3}")
