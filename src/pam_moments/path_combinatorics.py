"""Exact combinatorics of the exponent-vector family A_n.

A_n is the set of multi-indices appearing in the expansion

    S_n = x_1 * prod_{k=2..n} (x_k + x_{k-1}) = sum_{a in A_n} prod_j x_j^{a_j},

with card(A_n) = 2^{n-1}.  Each a in A_n is in bijection with a lattice
path from (1,1) to (n,n) or (n,n-1) pinched between the diagonal and the
diagonal shifted one unit down; a_k counts the path points on horizontal
line k.  The downward move of a diagonal touch point (the operation that
drives the gamma-product monotonicity argument) acts on a by
a_i -> a_i + 1, a_{i+1} -> a_{i+1} - 1.

Every function here works on the one model of A_n: the bit string of
offsets

    d_k = (a_1 + ... + a_k) - k in {0, 1},  k = 1..n-1,  d_0 = d_n = 0,

with a_k = 1 + d_k - d_{k-1}; every choice of the n-1 bits gives a member
of A_n.  Validation checks just these offsets (the entry ranges and pair
sums of the definition follow from them), the path heights are
h_k = k - d_{k-1}, a diagonal touch point i is a position with d_i = 0,
and `move_down` sets that bit to 1.  Lexicographic order on a is the
binary order of d_1...d_{n-1} read with d_1 as the most significant bit,
so row i of `exponent_matrix` is the vector whose offsets spell i in
binary.

All arithmetic here is exact (integers / fractions.Fraction).
"""

from __future__ import annotations

import itertools
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


def _offsets(a: Sequence[int]) -> list[int]:
    """The offsets d_1..d_n of a, d_k = (a_1 + ... + a_k) - k."""
    return [s - k for k, s in enumerate(itertools.accumulate(a), start=1)]


def _validate_exponents(a: Sequence[int]) -> None:
    """Check a in A_n by its offsets; raise naming the first bad one.

    a is in A_n exactly when d_k in {0, 1} for k < n and d_n = 0 (the
    total is n).  The entry ranges and pair sums of the definition follow
    from a_k = 1 + d_k - d_{k-1} with d_0 = 0.
    """
    n = len(a)
    if n < 1:
        raise ValidationError("exponent vector must have length >= 1")
    d = _offsets(a)
    for k in range(1, n):
        if d[k - 1] not in (0, 1):
            raise ValidationError(
                f"partial sum a_1+...+a_{k} must be in "
                f"{{{k},{k + 1}}}, got {d[k - 1] + k}"
            )
    if d[-1] != 0:
        raise ValidationError(f"total sum must equal n={n}, got {d[-1] + n}")


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

    The path stays between the diagonal and the diagonal shifted one unit
    down, h_k in {k-1, k}: its offsets k - h_k = d_{k-1} lie in {0, 1}.
    Steps h_{k+1} - h_k = 2 - a_k in {0, 1, 2} then hold automatically.
    """

    heights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "heights", tuple(int(v) for v in self.heights)
        )
        h = self.heights
        if len(h) < 1:
            raise ValidationError("path must have length >= 1")
        if h[0] != 1:
            raise ValidationError(f"path must start at height 1, got {h[0]}")
        for k, hk in enumerate(h, start=1):
            if k - hk not in (0, 1):
                raise ValidationError(
                    f"height at column {k} must be in {{{k - 1},{k}}}, got {hk}"
                )

    @property
    def n(self) -> int:
        return len(self.heights)


def enumerate_exponent_vectors(n: int) -> list[ExponentVector]:
    """All of A_n in lexicographic order; card(A_n) = 2^{n-1}."""
    return [ExponentVector(tuple(row)) for row in exponent_matrix(n).tolist()]


def _offset_matrix(n: int) -> np.ndarray:
    """The offsets d_0..d_n of every row of `exponent_matrix(n)`, as a
    (2^{n-1}, n+1) int array: d_1...d_{n-1} of row i are the n-1 binary
    digits of i, most significant first, and d_0 = d_n = 0."""
    if not 1 <= n <= MAX_ENUM_N:
        raise SizeError(f"n must be in [1, {MAX_ENUM_N}], got {n}")
    rows = np.arange(1 << (n - 1), dtype=np.int64)[:, None]
    offsets = np.zeros((rows.shape[0], n + 1), dtype=np.int64)
    offsets[:, 1:n] = (rows >> np.arange(n - 2, -1, -1)) & 1
    return offsets


def exponent_matrix(n: int) -> np.ndarray:
    """A_n as a (2^{n-1}, n) int array, rows in lexicographic order: row
    i has the offsets of `_offset_matrix(n)` row i, a_k = 1 + d_k - d_{k-1}."""
    a = np.diff(_offset_matrix(n), axis=1)
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
    powers = np.empty((n, 3), dtype=object)  # powers[j, e] = X_j^e, e in {0, 1, 2}
    for j, x in enumerate(xs):
        X = x.numerator * (D // x.denominator)
        powers[j] = (1, X, X * X)
    # one row of exact Python-int powers per member of A_n
    monomials = powers[np.arange(n), exponent_matrix(n)].prod(axis=1)
    return lhs, Fraction(monomials.sum(), D**n)


def path_of(a: ExponentVector | Sequence[int]) -> LatticePath:
    """The lattice path of a: heights h_k = k - d_{k-1}, d_0 = 0."""
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    d = [0] + _offsets(a)
    return LatticePath(tuple(k - d[k - 1] for k in range(1, a.n + 1)))


def exponent_of(path: LatticePath | Sequence[int]) -> ExponentVector:
    """Inverse of path_of: offsets d_{k-1} = k - h_k, a_k = 1 + d_k - d_{k-1}."""
    if not isinstance(path, LatticePath):
        path = LatticePath(tuple(path))
    d = [k - h for k, h in enumerate(path.heights, start=1)] + [0]
    return ExponentVector(tuple(1 + d[k] - d[k - 1] for k in range(1, path.n + 1)))


def diagonal_touch_points(a: ExponentVector | Sequence[int]) -> list[int]:
    """Indices i (1-based, i < n) where the path passes through (i+1, i+1).

    These are the offsets d_i = 0, exactly the points where a downward
    move is legal; the bottom path (2,1,...,1,0) has every d_i = 1 and
    gets [].
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    d = _offsets(a)
    return [i for i in range(1, a.n) if d[i - 1] == 0]


def move_down(a: ExponentVector | Sequence[int], i: int) -> ExponentVector:
    """Move the diagonal touch point (i+1, i+1) one unit down.

    Legal iff d_i = 0 (1-based i < n); the move sets d_i = 1, which acts
    on exponents as a_i -> a_i + 1, a_{i+1} -> a_{i+1} - 1.
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    touch = diagonal_touch_points(a)
    if i not in touch:
        raise DomainError(
            f"i={i} is not a diagonal touch point of {a.a}; legal moves: {touch}"
        )
    new = list(a.a)
    new[i - 1] += 1
    new[i] -= 1
    return ExponentVector(tuple(new))
