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
of A_n.  `ExponentVector` computes these offsets once, keeps them as its
`d` and validates just them (the entry ranges and pair sums of the
definition follow from them); the path heights are
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeError, ValidationError, _check_int

__all__ = [
    "ExponentVector",
    "enumerate_exponent_vectors",
    "exponent_matrix",
    "expand_and_verify_identity",
    "path_of",
    "exponent_of",
    "diagonal_touch_points",
    "move_down",
]

# exponent_matrix(20), 2^19 rows (the largest n any check enumerates),
# peaks at 95 MB (tracemalloc); every further n doubles that
MAX_ENUM_N = 20


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints, each an int, a numpy integer or an integral float."""
    values = tuple(values)
    if not all(type(v) is int or isinstance(v, np.integer)
               or isinstance(v, (float, np.floating)) and float(v).is_integer()
               for v in values):
        raise ValidationError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True, order=True)
class ExponentVector:
    """An element of A_n, validated at construction by its integral entries
    and its offsets d_0..d_n, which it keeps in `d`; a bad vector raises
    ValidationError naming its entries or its first bad offset."""

    a: tuple[int, ...]
    d: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = _integers(self.a, "exponent entries")
        object.__setattr__(self, "a", a)
        n = len(a)
        if n < 1:
            raise ValidationError("exponent vector must have length >= 1")
        d = (0, *(s - k for k, s in enumerate(itertools.accumulate(a), start=1)))
        for k in range(1, n):
            if d[k] not in (0, 1):
                raise ValidationError(
                    f"partial sum a_1+...+a_{k} must be in "
                    f"{{{k},{k + 1}}}, got {d[k] + k}"
                )
        if d[n] != 0:
            raise ValidationError(f"total sum must equal n={n}, got {d[n] + n}")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(self.a)

    def __len__(self):
        return len(self.a)

    def __getitem__(self, j):
        return self.a[j]


def enumerate_exponent_vectors(n: int) -> list[ExponentVector]:
    """All of A_n in lexicographic order; card(A_n) = 2^{n-1}."""
    return [ExponentVector(tuple(row)) for row in exponent_matrix(n).tolist()]


def _check_enum_n(n) -> None:
    """Raise ValidationError unless n is an integer (`_check_int`) and
    SizeError unless 1 <= n <= MAX_ENUM_N: the orders A_n is enumerated at."""
    _check_int("n", n)
    if not 1 <= n <= MAX_ENUM_N:
        raise SizeError(f"n must be in [1, {MAX_ENUM_N}], got {n}")


def _offset_matrix(n: int) -> np.ndarray:
    """Offsets d_0..d_n of each row of `exponent_matrix(n)`, a (2^{n-1}, n+1)
    int8 array: A_n's one array form, n+1 bytes a row, from which callers
    form a_k = 1 + d_k - d_{k-1} and the heights k - d_{k-1}.  Row i's
    d_1..d_{n-1} are i's n-1 binary digits, high first, d_0 = d_n = 0."""
    _check_enum_n(n)
    rows = np.arange(1 << (n - 1), dtype=">u4").view(np.uint8).reshape(-1, 4)
    offsets = np.zeros((rows.shape[0], n + 1), dtype=np.int8)
    offsets[:, 1:n] = np.unpackbits(rows, axis=1)[:, 33 - n:]
    return offsets


def exponent_matrix(n: int) -> np.ndarray:
    """A_n as a (2^{n-1}, n) int64 array, rows in lexicographic order: row
    i is a_k = 1 + d_k - d_{k-1} of `_offset_matrix(n)` row i."""
    d = _offset_matrix(n)
    a = np.subtract(d[:, 1:], d[:, :-1], dtype=np.int64)
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

    The monomials are built level by level over the offsets: s0 and s1
    hold the products X_1^{a_1}...X_k^{a_k} of the prefixes d_1..d_k that
    end in d_k = 0 and in d_k = 1, from (X_1) and (X_1^2) at k = 1.  As
    a_{k+1} = 1 + d_{k+1} - d_k, appending d_{k+1} multiplies by X_{k+1}
    or X_{k+1}^2 after d_k = 0 and by 1 or X_{k+1} after d_k = 1, and
    a_n = 1 - d_{n-1} ends it.  All 2^{n-1} monomials are formed and only
    then summed, in about 2^n multiplications of exact ints.
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
    X = [x.numerator * (D // x.denominator) for x in xs]
    s0 = np.array([X[0]], dtype=object)
    s1 = np.array([X[0] * X[0]], dtype=object)
    for Xk in X[1:-1]:
        s0, s1 = np.concatenate((s0 * Xk, s1)), np.concatenate((s0 * (Xk * Xk), s1 * Xk))
    monomials = np.concatenate((s0 * X[-1], s1))
    return lhs, Fraction(monomials.sum(), D**n)


def path_of(a: ExponentVector | Sequence[int]) -> tuple[int, ...]:
    """The lattice path of a as its heights h_k = k - d_{k-1}, d_0 = 0."""
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    return tuple(k - a.d[k - 1] for k in range(1, a.n + 1))


def exponent_of(heights: Sequence[int]) -> ExponentVector:
    """Inverse of path_of, a_k = 1 + d_k - d_{k-1} with d_{k-1} = k - h_k; it
    rejects heights that are not integers or not a path (ValidationError)."""
    d = [k - h for k, h in enumerate(_integers(heights, "heights"), start=1)] + [0]
    return ExponentVector(tuple(1 + d[k] - d[k - 1] for k in range(1, len(d))))


def diagonal_touch_points(a: ExponentVector | Sequence[int]) -> list[int]:
    """Indices i (1-based, i < n) where the path passes through (i+1, i+1).

    These are the offsets d_i = 0, exactly the points where a downward
    move is legal; the bottom path (2,1,...,1,0) has every d_i = 1 and
    gets [].
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    return [i for i in range(1, a.n) if a.d[i] == 0]


def move_down(a: ExponentVector | Sequence[int], i: int) -> ExponentVector:
    """Move the diagonal touch point (i+1, i+1) one unit down.

    Legal iff d_i = 0 (1-based i < n); the move sets d_i = 1, which acts
    on exponents as a_i -> a_i + 1, a_{i+1} -> a_{i+1} - 1; i must be an int.
    """
    _check_int("i", i)
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    touch = diagonal_touch_points(a)
    if i not in touch:
        raise DomainError(
            f"i={i} is not a diagonal touch point of {a.a}; legal moves: {touch}"
        )
    return ExponentVector(a.a[:i - 1] + (a.a[i - 1] + 1, a.a[i] - 1) + a.a[i + 1:])
