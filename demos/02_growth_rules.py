#!/usr/bin/env python3
"""The two local growth rules, grown over a matrix, against brute force.

Each rule transports (kappa, g) to an output partition nu conserving
|kappa| + |nu| = |alpha| + |beta| + g.  Grown over a weight matrix, the
corner shape's partial sums are maxima over families of k vertex-disjoint
monotone lattice paths, which a small exhaustive oracle confirms.
"""

import random

from lppqs import (
    Partition,
    col_rsk_local,
    greene_oracle,
    grow_grid,
    invert_local,
    row_rsk_local,
)

alpha, beta, kappa, g = Partition([2]), Partition([1]), Partition([1]), 3
print("Inputs: alpha", alpha, "beta", beta, "kappa", kappa, "g =", g)
nu_row = row_rsk_local(alpha, beta, kappa, g)
nu_col = col_rsk_local(alpha, beta, kappa, g)
print("row rule output:", nu_row)
print("col rule output:", nu_col)
print("both conserve size:", kappa.size() + nu_row.size(),
      "=", alpha.size() + beta.size() + g)
print("and both invert:", invert_local("row", alpha, beta, nu_row),
      invert_local("col", alpha, beta, nu_col))

print()
w = [[1, 2], [0, 3]]
print("Matrix (first index east, second north):", w)
for rule in ("row", "col"):
    print(f"{rule} rule corner shape: {grow_grid(w, rule)[2, 2]}")
print("longest up-right path  (row rule, k=1):", greene_oracle(w, 1, "up_right"))
print("longest down-right path (col rule, k=1):", greene_oracle(w, 1, "down_right"))

print()
print("Random 5x5 check of all partial sums against the path oracle:")
rng = random.Random(0)
mat = [[rng.randint(0, 4) for _ in range(5)] for _ in range(5)]
lam = grow_grid(mat, "row")[5, 5]
mu = grow_grid(mat, "col")[5, 5]
for k in range(1, 6):
    up = greene_oracle(mat, k, "up_right")
    down = greene_oracle(mat, k, "down_right")
    print(f"  k={k}: row partial sum {sum(lam[i] for i in range(k))} = {up}, "
          f"col partial sum {sum(mu[i] for i in range(k))} = {down}")
    assert sum(lam[i] for i in range(k)) == up
    assert sum(mu[i] for i in range(k)) == down
print("all matched.")
