#!/usr/bin/env python3
"""Decomposing a von Mangoldt weighted sum into bilinear blocks.

The four-term combinatorial identity splits Lambda(n) into ranges
that are either "type I" (one smooth coefficient) or "type II"
(both coefficients rough).  The demo reconstructs Lambda pointwise,
then decomposes a full window sum and reconciles it against the
direct evaluation.
"""

import math

import kloosterlab as kl

tables = kl.shared_tables(100_000)

# Pointwise: the four terms recombine to Lambda(n) exactly.
print("pointwise reconstruction, U = n^(1/3):")
for n in (97, 128, 243, 1000, 1024):
    got = kl.reconstruct_lambda(n, n ** (1 / 3), tables)
    want = tables.lam(n)
    print(f"  n={n:5d}: rebuilt {got:.12f}  Lambda {want:.12f}")

# Window sum over primes-and-powers x <= n < 2x, twisted by e(a*nbar/q).
a, q, x = 2, 11, 2000.0
params = kl.VaughanParams(x=x, U=x ** (1 / 3))
dec = kl.decompose(params, tables)
print(f"\ndecomposition at x={x:.0f}, U={params.U:.2f}: "
      f"{dec.type1_count} type I blocks, {dec.type2_count} type II blocks")

total, pieces = kl.evaluate_decomposition(dec, a, q)
print(f"\nper component (a={a}, q={q}):")
print("  kind   sign  scale      L        M      value")
for comp, val in zip(dec.components, pieces):
    print(f"  {comp.kind:6s} {comp.sign:+d}  {comp.scale:9.3f} "
          f"{comp.L:8.1f} {comp.M:8.1f}  {val:+.6f}")

chk = kl.compare_decomposition(params, a, q, tables)
print(f"\nassembled  = {chk.decomposed:.10f}")
print(f"direct     = {chk.direct:.10f}")
print(f"rel error  = {chk.rel_error:.2e}")

# The prime powers p^j, j >= 2, are the (tiny) gap between the Lambda
# weighted sum and the log weighted sum over primes alone.
gap = kl.prime_power_gap(a, q, x)
print(f"\nprime power gap at x={x:.0f}: {gap.gap:.6f} "
      f"<= envelope {gap.envelope:.6f} "
      f"({gap.prime_power_terms} prime power terms)")

# Truncation choices used by the averaged bounds.
for theorem in ("avg-max", "fixed-a-avg"):
    Q = 64
    U = kl.choose_U(theorem, Q, float(Q))
    print(f"choose_U({theorem!r}, Q={Q}, x={Q}) = {U:.4f} "
          f"(x^(1/3) = {Q ** (1 / 3):.4f})")
