import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam_moments.errors import DomainError, SizeError, ValidationError
from pam_moments.path_combinatorics import (
    ExponentVector,
    _offset_matrix,
    diagonal_touch_points,
    enumerate_exponent_vectors,
    expand_and_verify_identity,
    exponent_matrix,
    exponent_of,
    move_down,
    path_of,
)


def _inductive_enumeration(n):
    """Reference for exponent_matrix: A_n in lexicographic order, built by
    the inductive rule behind the product expansion (each a in A_{n-1}
    extends to (..., a_{n-1} + 1, 0) and to (..., a_{n-1}, 1))."""
    vectors = [(1,)]
    for _ in range(n - 1):
        nxt = []
        for a in vectors:
            nxt.append(a[:-1] + (a[-1] + 1, 0))
            nxt.append(a + (1,))
        vectors = nxt
    return sorted(vectors)


def _eight_clause_validate(a):
    """Reference for the offset check: every defining clause of A_n in
    turn (entry ranges, partial sums, total, pair sums)."""
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
            raise ValidationError(f"a_{j + 1} must be in {{0,1,2}}, got {a[j]}")
    partial = 0
    for i in range(n - 1):
        partial += a[i]
        if partial not in (i + 1, i + 2):
            raise ValidationError(f"bad partial sum {partial} at {i + 1}")
    if partial + a[-1] != n:
        raise ValidationError(f"total sum must equal n={n}")
    for i in range(1, n - 2):
        if a[i] + a[i + 1] not in (1, 2, 3):
            raise ValidationError(f"bad pair sum at {i + 1}")
    if a[0] + a[1] not in (2, 3):
        raise ValidationError("bad a_1+a_2")
    if a[-2] + a[-1] not in (1, 2):
        raise ValidationError("bad a_(n-1)+a_n")


def _height_and_step_check(h):
    """Reference for the heights exponent_of accepts: start at 1, h_k in
    {k-1, k}, and every step rises by 0, 1 or 2."""
    n = len(h)
    if n < 1:
        raise ValidationError("path must have length >= 1")
    if h[0] != 1:
        raise ValidationError("path must start at height 1")
    for k in range(n):
        if h[k] not in (k, k + 1):
            raise ValidationError(f"bad height at column {k + 1}")
    for k in range(n - 1):
        if h[k + 1] - h[k] not in (0, 1, 2):
            raise ValidationError(f"bad step {k + 1}")


def _rejects(check, x):
    try:
        check(x)
    except ValidationError:
        return True
    return False


def test_cardinality_is_2_pow_n_minus_1():
    for n in range(1, 17):
        assert len(enumerate_exponent_vectors(n)) == 2 ** (n - 1)


def test_n1_convention():
    assert [tuple(a) for a in enumerate_exponent_vectors(1)] == [(1,)]


def test_n4_digit_strings():
    got = ["".join(map(str, a)) for a in enumerate_exponent_vectors(4)]
    assert got == ["1111", "1120", "1201", "1210", "2011", "2020", "2101", "2110"]


def test_enumeration_sorted_and_unique():
    for n in (3, 6, 9):
        vecs = [tuple(a) for a in enumerate_exponent_vectors(n)]
        assert vecs == sorted(set(vecs))


def test_structural_invariants():
    # entries in {0,1,2}, first entry >= 1, total sum n, partial sums
    # stay ahead of the diagonal
    for n in (2, 5, 8, 11):
        for a in enumerate_exponent_vectors(n):
            t = tuple(a)
            assert all(v in (0, 1, 2) for v in t)
            assert t[0] >= 1
            assert sum(t) == n
            run = 0
            for k, v in enumerate(t, start=1):
                run += v
                assert run >= k


def test_validation_rejects_outsiders():
    for bad in [(0, 2), (1, 1, 2), (3, 0, 0), (2, 2, -1), (1, 0, 2)]:
        with pytest.raises(ValidationError):
            ExponentVector(bad)


def test_size_cap():
    with pytest.raises(SizeError):
        enumerate_exponent_vectors(25)


def test_exponent_matrix_memory_guard():
    # n = 20 (2^19 rows, 95 MB at peak) is the largest n admitted;
    # the guard raises before anything is allocated
    with pytest.raises(SizeError):
        exponent_matrix(21)
    with pytest.raises(SizeError):
        enumerate_exponent_vectors(21)


def test_orders_that_are_not_integers_are_validation_errors():
    # 2.0 and 2.5 once raised a bare TypeError from 1 << (n - 1)
    for n in (2.0, 2.5, True, "3", None):
        with pytest.raises(ValidationError, match="n must be an integer"):
            exponent_matrix(n)
        with pytest.raises(ValidationError, match="n must be an integer"):
            enumerate_exponent_vectors(n)
    assert exponent_matrix(np.int64(3)).tolist() == exponent_matrix(3).tolist()


def test_identity_exact_small_cases():
    # n = 2: x1 (x2 + x1) = x1 x2 + x1^2 <-> A_2 = {(1,1), (2,0)}
    lhs, rhs = expand_and_verify_identity([Fraction(3, 7), Fraction(5, 2)])
    assert lhs == rhs == Fraction(3, 7) * Fraction(5, 2) + Fraction(9, 49)


def test_identity_rejects_orders_and_inputs_outside_its_range():
    for xs in ([Fraction(1, 2)], [], [1] * 17):
        with pytest.raises(SizeError, match="2 <= n <= 16"):
            expand_and_verify_identity(xs)
    for xs in ([1, 0, 2], [Fraction(-1, 3), 1]):
        with pytest.raises(DomainError, match="positive"):
            expand_and_verify_identity(xs)


def test_identity_random_rationals():
    rng = random.Random(99)
    for n in range(2, 13):
        for _ in range(25):
            xs = [Fraction(rng.randint(1, 15), rng.randint(1, 15)) for _ in range(n)]
            lhs, rhs = expand_and_verify_identity(xs)
            assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
        min_size=2,
        max_size=9,
    )
)
def test_identity_property(xs):
    lhs, rhs = expand_and_verify_identity(xs)
    assert lhs == rhs


def test_identity_rhs_matches_fraction_monomial_sum():
    rng = random.Random(7)
    for n in range(2, 9):
        for _ in range(3):
            xs = [Fraction(rng.randint(1, 15), rng.randint(1, 15)) for _ in range(n)]
            want = Fraction(0)
            for a in _inductive_enumeration(n):
                term = Fraction(1)
                for x, e in zip(xs, a):
                    term *= x**e
                want += term
            assert expand_and_verify_identity(xs)[1] == want


def _per_row_identity_rhs(xs):
    """Reference for expand_and_verify_identity's rhs: the monomial sum
    over the integers X_j = D x_j, one math.prod per row of A_n, divided
    by D^n."""
    n = len(xs)
    D = math.lcm(*(x.denominator for x in xs))
    powers = []
    for x in xs:
        X = x.numerator * (D // x.denominator)
        powers.append((1, X, X * X))
    total = 0
    for row in exponent_matrix(n).tolist():
        total += math.prod(p[e] for p, e in zip(powers, row))
    return Fraction(total, D**n)


def test_identity_rhs_equals_the_per_row_sum():
    rng = random.Random(2024)
    cases = [[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
             for n in range(2, 17) for _ in range(2)]
    for n in (2, 3, 9, 16):
        cases.append([rng.randint(1, 10**6) for _ in range(n)])  # integers, D = 1
        # one shared denominator, so every X_j is a numerator and D = 7^k
        cases.append([Fraction(rng.choice((1, 2, 3, 4, 5, 6)), 7**3) for _ in range(n)])
        cases.append([Fraction(1)] * n)
    for xs in cases:
        lhs, rhs = expand_and_verify_identity(xs)
        assert rhs == _per_row_identity_rhs([Fraction(x) for x in xs]) == lhs
        assert type(rhs.numerator) is int


def test_exponent_matrix_matches_inductive_enumeration():
    for n in range(1, 17):
        m = exponent_matrix(n)
        assert m.dtype == np.int64
        assert [tuple(r) for r in m.tolist()] == _inductive_enumeration(n)


def _offset_matrix_broadcast(n):
    """Reference for _offset_matrix: the n-1 bits of each row number by one
    broadcast shift of an int64 column."""
    rows = np.arange(1 << (n - 1), dtype=np.int64)[:, None]
    offsets = np.zeros((rows.shape[0], n + 1), dtype=np.int64)
    offsets[:, 1:n] = (rows >> np.arange(n - 2, -1, -1)) & 1
    return offsets


def test_offsets_and_exponents_equal_the_broadcast_construction():
    for n in (*range(1, 17), 20):
        want = _offset_matrix_broadcast(n)
        got = _offset_matrix(n)
        assert got.dtype == np.int8 and np.array_equal(got, want), n
        del got
        want = np.diff(want, axis=1) + 1
        got = exponent_matrix(n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n
        del got, want


def test_exponent_matrix_matches_enumeration():
    m = exponent_matrix(6)
    vecs = enumerate_exponent_vectors(6)
    assert m.shape == (32, 6)
    assert [tuple(r) for r in m.tolist()] == [tuple(a) for a in vecs]


def test_path_bijection_roundtrip_n8():
    for a in enumerate_exponent_vectors(8):
        p = path_of(a)
        assert type(p) is tuple and all(type(h) is int for h in p)
        assert tuple(exponent_of(p)) == tuple(a)


def test_path_heights_law():
    # h_1 = 1 and h_{k+1} = h_k + 2 - a_k, with h_k in {k, k+1}
    for a in enumerate_exponent_vectors(7):
        h = path_of(a)
        assert h[0] == 1
        for k in range(1, len(h)):
            assert h[k] == h[k - 1] + 2 - a[k - 1]
            assert h[k] in (k, k + 1)


def test_touch_points_example():
    assert diagonal_touch_points((2, 0, 1, 1)) == [2, 3]
    # the all-ones path runs along the diagonal, every interior index works
    assert diagonal_touch_points((1,) * 6) == [1, 2, 3, 4, 5]
    # the bottom path never returns to the diagonal
    assert diagonal_touch_points((2, 1, 1, 0)) == []


def test_move_down_endpoint_rule():
    # touching at i = n-1 moves mass from the last slot to the previous one
    a = (2, 0, 1, 1)
    assert tuple(move_down(a, 3)) == (2, 0, 2, 0)
    assert tuple(move_down(a, 2)) == (2, 1, 0, 1)


def test_move_down_stays_in_family():
    for n in range(2, 11):
        members = {tuple(a) for a in enumerate_exponent_vectors(n)}
        for a in enumerate_exponent_vectors(n):
            for i in diagonal_touch_points(a):
                assert tuple(move_down(a, i)) in members


def test_move_down_rejects_non_touch_points():
    with pytest.raises(DomainError):
        move_down((2, 1, 1, 0), 2)


def test_move_down_rejects_an_index_that_is_not_an_integer():
    # True once moved touch point 1, and 1.0 passed the touch test and then
    # raised a bare TypeError as a list index
    for i in (True, 1.0, 2.5, "1", None):
        with pytest.raises(ValidationError, match="i must be an integer"):
            move_down((1, 1, 1, 1), i)
    assert move_down((1, 1, 1, 1), np.int64(1)) == move_down((1, 1, 1, 1), 1)


def test_all_ones_reachable_to_everything():
    # repeatedly undoing moves: every member is reachable from all-ones by
    # a chain of legal moves (BFS over the move graph)
    for n in range(2, 11):
        members = {tuple(a) for a in enumerate_exponent_vectors(n)}
        seen = {(1,) * n}
        frontier = [(1,) * n]
        while frontier:
            nxt = []
            for a in frontier:
                for i in diagonal_touch_points(a):
                    b = tuple(move_down(a, i))
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        assert seen == members


def test_offset_checks_accept_exactly_what_the_clauses_accept():
    # exhaustive over short vectors and paths, including out-of-range
    # entries and heights
    for n in range(1, 7):
        members = []
        for a in itertools.product(range(-2, 4), repeat=n):
            rejected = _rejects(ExponentVector, a)
            assert rejected == _rejects(_eight_clause_validate, a), a
            if not rejected:
                members.append(a)
        assert members == [tuple(r) for r in exponent_matrix(n).tolist()]
    for n in range(1, 6):
        for h in itertools.product(range(-1, 8), repeat=n):
            assert _rejects(exponent_of, h) == _rejects(_height_and_step_check, h), h


def test_entries_that_are_not_integers_are_rejected():
    # int() once truncated fractional entries, so (1.9, 1.2) became (1, 1),
    # and let bools and digit strings through
    for bad in ((1.9, 1.2), (1.0, 1.5), (True, True), ("1", "1"), (np.bool_(True),),
                (1, math.nan), (1, math.inf), (Fraction(1), 1)):
        with pytest.raises(ValidationError, match="must be integers"):
            ExponentVector(bad)
    good = ExponentVector((np.int64(2), np.int32(0), 1, np.float64(1.0)))
    assert good.a == (2, 0, 1, 1) and all(type(v) is int for v in good.a)
    # heights follow the same rule: (True,) once gave ExponentVector(a=(1,)),
    # and digit strings a bare TypeError from k - h
    for bad in ((True,), ("1", "2"), (1, 1.5), (np.bool_(True),), (1, math.nan),
                (Fraction(1),)):
        with pytest.raises(ValidationError, match="heights must be integers"):
            exponent_of(bad)
    assert exponent_of((np.int64(1), 2.0, np.float64(3.0))) == exponent_of((1, 2, 3))


def test_bit_set_move_equals_move_down():
    # row r's move at touch point i is row r | 1 << (n-1-i), legal iff
    # that bit is clear
    for n in range(2, 11):
        rows = [tuple(r) for r in exponent_matrix(n).tolist()]
        for r, a in enumerate(rows):
            touch = diagonal_touch_points(a)
            for i in range(1, n):
                bit = 1 << (n - 1 - i)
                if r & bit:
                    assert i not in touch
                    with pytest.raises(DomainError):
                        move_down(a, i)
                else:
                    assert i in touch
                    assert tuple(move_down(a, i)) == rows[r | bit]


def test_offsets_are_kept_and_ignored_by_comparison():
    a = ExponentVector((2, 0, 1, 1))
    assert a.d == (0, 1, 0, 0, 0)
    assert repr(a) == "ExponentVector(a=(2, 0, 1, 1))"
    b = ExponentVector([2.0, 0, 1, 1])
    assert a == b and hash(a) == hash(b) and not a < b
    with pytest.raises(TypeError):
        ExponentVector((1,), (0, 0))
    # the offsets are the rows of the offset matrix behind exponent_matrix
    for n in range(1, 8):
        d = [ExponentVector(tuple(r)).d for r in exponent_matrix(n).tolist()]
        assert d == [tuple(r) for r in np.cumsum(
            np.pad(exponent_matrix(n) - 1, ((0, 0), (1, 0))), axis=1).tolist()]
