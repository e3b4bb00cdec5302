#!/usr/bin/env python3
"""The chain of exact identities behind the product structure.

For bounded polymers with multiplicative square weights, the quarter-square
generating series equals (product of variables)^u times a bounded sum of
symplectic characters; that sum factors into two rectangular characters;
each factor is a bounded sum of Schur polynomials; and those bounded sums
are the generating series of the two smaller geometries.  Composing the
four gives the product identity checked at the end.
"""

from lppqs import (
    Geometry,
    Partition,
    bounded_character_sum,
    character_jt,
    generating_series,
    okada_product,
    product_of_variables,
)

n, u = 2, 4
v = u // 2

hlr = generating_series(Geometry("p2hlr", n), u)
pr = generating_series(Geometry("p2pr", n), u)
pl = generating_series(Geometry("p2l", n), v)

print(f"n = {n}, bound u = {u} (so v = {v})")
print()

sp_sum = bounded_character_sum("symplectic", u, n)
step1 = product_of_variables(n, u) * sp_sum
print("1. quarter-square series = (x1...xn)^u * bounded symplectic sum:",
      hlr == step1)

lhs, rhs = okada_product(u, n)
print("2. bounded symplectic sum = product of two rectangular characters:",
      lhs == rhs)

rect = Partition([v] * n)
s3a = bounded_character_sum("schur", u, n) == product_of_variables(
    n, v
) * character_jt("odd_orthogonal", rect, n)
s3b = bounded_character_sum(
    "schur", u, n, even_rows_only=True
) == product_of_variables(n, v) * character_jt("symplectic", rect, n)
print("3. rectangular characters = bounded Schur sums (all / even rows):",
      s3a and s3b)

s4a = pr == bounded_character_sum("schur", u, n)
s4b = pl == bounded_character_sum("schur", u, n, even_rows_only=True)
print("4. bounded Schur sums = the two smaller generating series:", s4a and s4b)

print()
print("product identity:", hlr == pr * pl)
print()
print("with n = 1, u = 2 the three series are:")
one = Geometry("p2hlr", 1), Geometry("p2pr", 1), Geometry("p2l", 1)
a, b, c = (generating_series(one[0], 2), generating_series(one[1], 2),
           generating_series(one[2], 1))
print("  quarter square:", a.canonical_text())
print("  half space:    ", b.canonical_text())
print("  point to line: ", c.canonical_text())
assert a == b * c
