#!/usr/bin/env python3
"""The two fill-to-pattern bijections, step by step on small inputs.

Quarter square: grow with the row rule (the reflecting diagonal reuses the
west neighbour), read the boundary chain, and subtract each partition,
reversed, from the bound u.  The result is a half pattern
whose monomial recovers the filling's weight.

Point to line: flip the triangle onto the point-to-point triangle, double
the hypotenuse, and grow with the column rule, the diagonal reflecting as
in the quarter square; the chain along the top row is an ordinary pattern
with an all-even shape whose first part is twice the passage time.
"""

from lppqs import (
    Filling,
    Geometry,
    bz_map,
    gt_type,
    lpp_time,
    oscillating_tableau,
    p2l_map,
    weight_of,
)

geo = Geometry("p2hlr", 2)
f = Filling(geo, {(1, 1): 1, (1, 2): 0, (2, 2): 1, (1, 3): 0, (2, 3): 1, (1, 4): 0})
u = 4
print("Quarter-square filling (text form, top row first):")
print(f.to_text())
print("passage time:", lpp_time(f), "<= u =", u)

print("boundary chain (the oscillating tableau):")
for k, part in enumerate(oscillating_tableau(f)):
    print(f"  chain[{k}] = {part}")

z = bz_map(f, u, "forward")
print("half pattern rows (after subtracting from u):")
for row in z.rows:
    print("  ", list(row))

ty = gt_type(z)
exps = tuple(u - (ty[2 * i] - ty[2 * i + 1]) for i in range(geo.n))
print("weight of the filling:", weight_of(f).canonical_text())
print("weight read off the pattern type:", exps)
assert bz_map(z, u, "inverse") == f
print("inverse returns the original filling.")

print()
geo_l = Geometry("p2l", 2)
fl = Filling(geo_l, {(1, 1): 2, (2, 1): 1, (1, 2): 0})
print("Point-to-line filling:")
print(fl.to_text())
zl = p2l_map(fl, "forward")
print("pattern rows:", [list(r) for r in zl.rows])
print("shape:", zl.shape(), "--- all parts even, first part =",
      zl.shape()[0], "= 2 x passage time", lpp_time(fl))
assert p2l_map(zl, "inverse") == fl
print("inverse returns the original filling.")
