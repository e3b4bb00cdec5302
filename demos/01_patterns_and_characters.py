#!/usr/bin/env python3
"""Patterns and characters computed two independent ways.

Summing a monomial over all interlacing patterns of a fixed shape gives a
character, and the same character comes out of a determinant of complete
homogeneous symmetric functions.  This script walks through both routes.
"""

from lppqs import (
    Partition,
    character_jt,
    character_tab,
    enumerate_patterns,
    gt_type,
)

lam = Partition([2, 1])

print("Shape:", lam)
print()
print("All height-2 patterns of that shape, with their types:")
for z in enumerate_patterns("ordinary", 2, lam):
    print(f"  rows {list(map(list, z.rows))}  type {gt_type(z)}")

print()
print("Generating series over those patterns (pattern route):")
tab = character_tab("schur", lam, 2)
print("  ", tab.canonical_text())
print("Determinant route gives the same polynomial:")
det = character_jt("schur", lam, 2)
print("  ", det.canonical_text())
assert det == tab

print()
print("The symplectic character of shape (1) with one variable pair:")
sp = character_jt("symplectic", Partition([1]), 1)
print("  ", sp.canonical_text())
print("Its two monomials match the two height-2 half patterns:")
for z in enumerate_patterns("symplectic", 2, Partition([1])):
    print("  rows", list(map(list, z.rows)))

print()
print("The odd orthogonal character of shape lam sums the symplectic patterns")
print("of every nu with lam/nu a vertical strip.  For lam = (1,1) and two")
print("variables, their count is the character at all ones:")
walk = character_tab("odd_orthogonal", Partition([1, 1]), 2).specialize([1, 1])
count = character_jt("odd_orthogonal", Partition([1, 1]), 2).specialize([1, 1])
print(f"  pattern walk = {walk}, determinant = {count}")
assert walk == count

print()
print("The pattern walk and the determinant agree on the full polynomial, not")
print("only at all ones; for the odd orthogonal character of shape (2,1):")
so_walk = character_tab("odd_orthogonal", Partition([2, 1]), 2)
so_det = character_jt("odd_orthogonal", Partition([2, 1]), 2)
assert so_walk == so_det
print(f"  {len(so_det.terms)} terms each, {so_det.specialize([1, 1])} at all ones.")
