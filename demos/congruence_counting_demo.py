#!/usr/bin/env python3
"""Counting solutions of inverse congruences and unit fraction splits.

The demo prints exact congruence counts for a few moduli, then averages
the counts over a range of moduli and compares against the two-term
envelope that controls that average.
"""

import kloosterlab as kl

# J_k(M, q): tuples m_1..m_2k <= M of units mod q whose inverse sums
# balance mod q.  With few units the k-fold sums are enumerated, otherwise
# the residue histogram is folded; the last modulus has no room for a
# histogram at all.
print("congruence counts, k=2:")
print("   M           q    count")
for M, q in [(8, 5), (8, 13), (16, 7), (16, 31), (10, 1_000_000_007)]:
    print(f"  {M:2d}  {q:10d}  {kl.count_congruence_solutions(2, M, q):7d}")

# The identity solutions (equal multisets) survive every modulus; the
# classifier tells apart identity tuples from accidental congruences.
print("\ntuple classification (k=2):")
for ms in ([2, 6, 3, 3], [3, 5, 4, 4], [2, 3, 6, 1]):
    f = kl.classify_tuple(ms)
    kind = "identity" if f == 0 else f"F = {f}"
    print(f"  {ms}: {kind}")

# Averaging J_k(M, q) over q ~ Q shows which of the two envelope terms
# (diagonal Q*M^k versus off-diagonal M^2k) is in charge.
print("\naverage over moduli, k=2, M=16:")
print("  Q     total        Q*M^k      M^(2k)   ratio")
for Q in (16, 64, 256):
    rep = kl.sum_congruence_counts(2, 16, Q)
    print(f"  {Q:3d}  {rep.extra['total']:8d}  {rep.rhs_terms['Q*M^k']:11.0f}"
          f"  {rep.rhs_terms['M^(2k)']:10.0f}  {rep.ratio:6.3f}")

# Unit fractions: number of ways n/m = 1/m_1 + ... with all parts <= N.
print("\nunit fraction pair counts (k=1) and quadruple counts (k=2):")
for k in (1, 2):
    for N in (2, 6, 12):
        print(f"  k={k} N={N:2d}: {kl.count_unit_fraction_solutions(k, N)}")

# Squarefull numbers (every prime factor repeated) are the diagonal
# obstruction in these counts; their density is x^(1/2) flavoured.
print("\nsquarefull counts:")
for x in (100, 10_000, 1_000_000):
    c = kl.count_squarefull(x)
    print(f"  x = {x:7d}: {c:5d}  (x^0.5 = {x ** 0.5:.0f})")
