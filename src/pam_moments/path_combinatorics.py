"""Exact combinatorics of the exponent-vector family A_n.

A_n is the set of multi-indices appearing in the expansion

    S_n = x_1 * prod_{k=2..n} (x_k + x_{k-1}) = sum_{a in A_n} prod_j x_j^{a_j},

with card(A_n) = 2^{n-1}.  Each a in A_n is in bijection with a lattice
path from (1,1) to (n,n) or (n,n-1) pinched between the diagonal and the
diagonal shifted one unit down; a_k counts the path points on horizontal
line k.  The downward move of a diagonal touch point (the operation that
drives the gamma-product monotonicity argument) acts on a by
a_i -> a_i + 1, a_{i+1} -> a_{i+1} - 1.

Equivalently, a is the bit string of its offsets

    d_k = (a_1 + ... + a_k) - k in {0, 1},  k = 1..n-1,  d_0 = d_n = 0,

with a_k = 1 + d_k - d_{k-1}; every choice of the n-1 bits gives a member
of A_n.  Lexicographic order on a is the binary order of d_1...d_{n-1}
read with d_1 as the most significant bit, so row i of `exponent_matrix`
is the vector whose offsets spell i in binary.  A diagonal touch point i
is a position with d_i = 0, and `move_down` sets that bit to 1.

All arithmetic here is exact (integers / fractions.Fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeError, ValidationError

__all__ = [
    "ExponentVector",
    "LatticePath",
    "enumerate_exponent_vectors",
    "exponent_matrix",
    "expand_and_verify_identity",
    "path_of",
    "exponent_of",
    "diagonal_touch_points",
    "move_down",
]

# 2^19 rows at n = 20 (the largest n any check enumerates) peak near
# 250 MB; every further n doubles that
MAX_ENUM_N = 20


def _validate_exponents(a: Sequence[int]) -> None:
    """Check every defining clause of A_n; raise naming the first violated one."""
    n = len(a)
    if n < 1:
        raise ValidationError("exponent vector must have length >= 1")
    if n == 1:
        if tuple(a) != (1,):
            raise ValidationError("for n=1 the only admissible vector is (1,)")
        return
    if a[0] not in (1, 2):
        raise ValidationError(f"a_1 must be in {{1,2}}, got {a[0]}")
    if a[-1] not in (0, 1):
        raise ValidationError(f"a_n must be in {{0,1}}, got {a[-1]}")
    for j in range(1, n - 1):
        if a[j] not in (0, 1, 2):
            raise ValidationError(
                f"a_{j + 1} must be in {{0,1,2}}, got {a[j]}"
            )
    partial = 0
    for i in range(n - 1):
        partial += a[i]
        if partial not in (i + 1, i + 2):
            raise ValidationError(
                f"partial sum a_1+...+a_{i + 1} must be in "
                f"{{{i + 1},{i + 2}}}, got {partial}"
            )
    if partial + a[-1] != n:
        raise ValidationError(
            f"total sum must equal n={n}, got {partial + a[-1]}"
        )
    for i in range(1, n - 2):  # pairs a_i + a_{i+1}, 2 <= i <= n-2 (1-based)
        if a[i] + a[i + 1] not in (1, 2, 3):
            raise ValidationError(
                f"a_{i + 1}+a_{i + 2} must be in {{1,2,3}}, "
                f"got {a[i] + a[i + 1]}"
            )
    if a[0] + a[1] not in (2, 3):
        raise ValidationError(f"a_1+a_2 must be in {{2,3}}, got {a[0] + a[1]}")
    if a[-2] + a[-1] not in (1, 2):
        raise ValidationError(
            f"a_(n-1)+a_n must be in {{1,2}}, got {a[-2] + a[-1]}"
        )


@dataclass(frozen=True, order=True)
class ExponentVector:
    """An element of A_n, validated at construction."""

    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        _validate_exponents(self.a)

    @property
    def n(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(self.a)

    def __len__(self):
        return len(self.a)

    def __getitem__(self, j):
        return self.a[j]


@dataclass(frozen=True)
class LatticePath:
    """Heights h_k of the path point on column k (h_1 = 1).

    h_{k+1} - h_k = 2 - a_k, so the path climbs 2/1/0 units per step for
    exponent 0/1/2; it must stay between the diagonal and the diagonal
    shifted one unit down: h_k in {k-1, k}.
    """

    heights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "heights", tuple(int(v) for v in self.heights)
        )
        h = self.heights
        n = len(h)
        if n < 1:
            raise ValidationError("path must have length >= 1")
        if h[0] != 1:
            raise ValidationError(f"path must start at height 1, got {h[0]}")
        for k in range(n):
            if h[k] not in (k, k + 1):  # 1-based column k+1: heights k or k+1
                raise ValidationError(
                    f"height at column {k + 1} must be in "
                    f"{{{k},{k + 1}}}, got {h[k]}"
                )
        for k in range(n - 1):
            if h[k + 1] - h[k] not in (0, 1, 2):
                raise ValidationError(
                    f"step {k + 1} rises by {h[k + 1] - h[k]}, "
                    "must be 0, 1 or 2"
                )

    @property
    def n(self) -> int:
        return len(self.heights)


def enumerate_exponent_vectors(n: int) -> list[ExponentVector]:
    """All of A_n in lexicographic order; card(A_n) = 2^{n-1}."""
    return [ExponentVector(tuple(row)) for row in exponent_matrix(n).tolist()]


def exponent_matrix(n: int) -> np.ndarray:
    """A_n as a (2^{n-1}, n) int array, rows in lexicographic order.

    Row i has offsets d_1...d_{n-1} = the n-1 binary digits of i, most
    significant first, and entries a_k = 1 + d_k - d_{k-1}.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise SizeError(f"n must be in [1, {MAX_ENUM_N}], got {n}")
    rows = np.arange(1 << (n - 1), dtype=np.int64)[:, None]
    offsets = np.zeros((rows.shape[0], n + 1), dtype=np.int64)  # d_0..d_n
    offsets[:, 1:n] = (rows >> np.arange(n - 2, -1, -1)) & 1
    a = np.diff(offsets, axis=1)
    a += 1
    return a


def expand_and_verify_identity(
    xs: Sequence[Fraction | int],
) -> tuple[Fraction, Fraction]:
    """Both sides of S_n = sum over A_n, in exact rational arithmetic.

    Returns (lhs, rhs); callers assert lhs == rhs.  lhs is the direct
    product x_1 * prod (x_k + x_{k-1}); rhs sums the enumerated monomials.
    Every monomial has degree n, so with D the common denominator of the
    x_j the sum is taken over the integers X_j = D x_j and divided by D^n.
    """
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    if not 2 <= n <= 16:
        raise SizeError(f"identity check supports 2 <= n <= 16, got {n}")
    if any(x <= 0 for x in xs):
        raise DomainError("all inputs must be positive")
    lhs = xs[0]
    for k in range(1, n):
        lhs *= xs[k] + xs[k - 1]
    D = math.lcm(*(x.denominator for x in xs))
    powers = []  # powers[j][e] = X_j^e for the exponents e in {0, 1, 2}
    for x in xs:
        X = x.numerator * (D // x.denominator)
        powers.append((1, X, X * X))
    total = 0
    for row in exponent_matrix(n).tolist():
        total += math.prod(p[e] for p, e in zip(powers, row))
    return lhs, Fraction(total, D**n)


def path_of(a: ExponentVector | Sequence[int]) -> LatticePath:
    """The lattice path of a: heights h_1 = 1, h_{k+1} = h_k + 2 - a_k."""
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    heights = [1]
    for k in range(a.n - 1):
        heights.append(heights[-1] + 2 - a[k])
    return LatticePath(tuple(heights))


def exponent_of(path: LatticePath | Sequence[int]) -> ExponentVector:
    """Inverse of path_of: a_k = number of path points on horizontal line k."""
    if not isinstance(path, LatticePath):
        path = LatticePath(tuple(path))
    n = path.n
    counts = [0] * n
    for h in path.heights:
        counts[h - 1] += 1
    return ExponentVector(tuple(counts))


def diagonal_touch_points(a: ExponentVector | Sequence[int]) -> list[int]:
    """Indices i (1-based, i < n) where the path passes through (i+1, i+1).

    These are exactly the points where a downward move is legal; the
    bottom path (2,1,...,1,0) never returns to the diagonal and gets [].
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    h = path_of(a).heights
    return [i for i in range(1, a.n) if h[i] == i + 1]


def move_down(a: ExponentVector | Sequence[int], i: int) -> ExponentVector:
    """Move the diagonal touch point (i+1, i+1) one unit down.

    Acts on exponents as a_i -> a_i + 1, a_{i+1} -> a_{i+1} - 1
    (1-based i); the result is validated as a member of A_n.
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    if i not in diagonal_touch_points(a):
        raise DomainError(
            f"i={i} is not a diagonal touch point of {a.a}; "
            f"legal moves: {diagonal_touch_points(a)}"
        )
    new = list(a.a)
    new[i - 1] += 1
    new[i] -= 1
    return ExponentVector(tuple(new))
