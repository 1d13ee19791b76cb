"""Lattice paths and the product-expansion identity.

Walks through the combinatorial layer: the family A_n of exponent vectors,
its bijection with diagonal-dominated lattice paths, and the exact
polynomial identity x1 * prod_k (x_k + x_{k-1}) = sum_{a in A_n} prod x^a.
"""

from fractions import Fraction

from pam_moments import (
    diagonal_touch_points,
    enumerate_exponent_vectors,
    expand_and_verify_identity,
    move_down,
    path_of,
)

print("The eight exponent vectors at n = 4, with their path heights:")
for a in enumerate_exponent_vectors(4):
    heights = path_of(a)
    print(f"  a = {''.join(map(str, a))}   heights = {heights}")

print("\nCardinalities |A_n| = 2^(n-1):")
for n in range(1, 11):
    print(f"  n = {n:2d}: {len(enumerate_exponent_vectors(n))}")

print("\nExact identity check with rational inputs (n = 5):")
xs = [Fraction(1, 2), Fraction(3), Fraction(2, 7), Fraction(5, 3), Fraction(1, 4)]
lhs, rhs = expand_and_verify_identity(xs)
print(f"  lhs = {lhs}")
print(f"  rhs = {rhs}")
print(f"  equal: {lhs == rhs}")

print("\nDownward moves from the all-ones (diagonal) path at n = 5:")
a = (1, 1, 1, 1, 1)
print(f"  start {a}, touch points {diagonal_touch_points(a)}")
for i in diagonal_touch_points(a):
    print(f"  move at i = {i}: -> {tuple(move_down(a, i))}")
