import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special as _sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from pam_moments import chaos_bounds
from pam_moments.chaos_bounds import (
    DEFAULT_P_GRID,
    MomentBoundResult,
    DEFAULT_T_GRID,
    FractionalParams,
    admissible_param_grid,
    fit_envelope_constants,
    fit_p_exponent,
    fit_time_exponent,
    gamma_n,
    gamma_n_matrix,
    log_chaos_series,
    moment_bound,
    spatial_exponents,
    stirling_lb_check,
    term_bound,
    verify_ab_condition,
)
from pam_moments.chaos_bounds import (
    _envelope_exponent,
    _fit_log_envelope,
    MAX_EXACT_N,
    _finish_term_sum,
    _log_gamma_rows,
    _log_term_sums,
    _logsumexp,
    _min_ab_margins,
    _term_log_gammas,
    _theta,
    _tilde_matrix,
)
from pam_moments.errors import DomainError, EstimationError, SizeError, ValidationError
from pam_moments.initial_data import DiracAt, LebesgueConstant
from pam_moments.path_combinatorics import (
    ExponentVector,
    _offset_matrix,
    diagonal_touch_points,
    enumerate_exponent_vectors,
    exponent_matrix,
    move_down,
)
from pam_moments.simplex_integrals import SimplexIntegralSpec, _sigma, log_closed_form

P_REF = FractionalParams(0.75, 0.3)


def test_params_validation():
    with pytest.raises(ValidationError):
        FractionalParams(0.5, 0.3)  # H0 must exceed 1/2
    with pytest.raises(ValidationError):
        FractionalParams(0.75, 0.6)  # H must be below 1/2
    with pytest.raises(ValidationError):
        FractionalParams(0.6, 0.1)  # H0 + H must exceed 3/4
    p = FractionalParams(0.75, 0.3)
    assert p.alpha_H0 == pytest.approx(0.75 * 0.5)
    assert p.time_growth_exponent == pytest.approx(0.8)


def test_c_H_constant():
    # c = Gamma(2H+1) sin(pi H) / (2 pi); at H = 1/2 this is 1 / (2 pi)
    # times Gamma(2) sin(pi/2) = 1, recovering the white-noise constant
    p = FractionalParams(0.9, 0.49999999)
    assert p.c_H == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)


def test_admissible_grid():
    grid = admissible_param_grid()
    assert len(grid) > 0
    for p in grid:
        assert 0.5 < p.H0 < 1.0 and 0.0 < p.H < 0.5 and p.H0 + p.H > 0.75


def test_admissible_grid_size_must_be_an_integer():
    # 2.5 and '3' once raised a bare TypeError, and True gave an empty grid
    for size in (2.5, "3", True, None, 3.0):
        with pytest.raises(ValidationError, match="size must be an integer"):
            admissible_param_grid(size)
    assert admissible_param_grid(np.int64(3)) == admissible_param_grid(3)


def test_tilde_exponents_worked_example():
    p = FractionalParams(0.75, 0.25)
    at, bt = _tilde_matrix(np.array([0.5, 0.5]), p)
    assert at == pytest.approx((-0.5, 0.0))
    assert bt == pytest.approx((-0.5, -0.5))


def test_theta_closed_form_matches_cumulative_definition():
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        c = (1.0 - 2.0 * p.H) / (4.0 * p.H0)
        for a in enumerate_exponent_vectors(6):
            at, bt = _tilde_matrix(spatial_exponents(a, p), p)
            sums = np.cumsum(at + bt)
            for k in range(1, 7):
                direct = sums[k - 1] + k + 1
                assert _theta(k, a.d[k - 1], p) == pytest.approx(direct, rel=1e-12)


def test_ab_condition_over_family():
    # the whole family in one batch; a few rows per n through the
    # per-vector path as its oracle
    for p in admissible_param_grid():
        for n in (1, 4, 8, 12):
            a = exponent_matrix(n)
            alpha = spatial_exponents(a, p)
            ok = verify_ab_condition(*_tilde_matrix(alpha, p), alpha)
            assert ok.shape == (len(a),) and ok.all()
            for i in sorted({0, len(a) // 3, len(a) // 2, len(a) - 1}):
                alpha_i = spatial_exponents(ExponentVector(tuple(a[i])), p)
                at, bt = _tilde_matrix(alpha_i, p)
                assert verify_ab_condition(at, bt, alpha_i) is True


def test_ab_condition_batch_matches_row_by_row():
    # the exponent family (every row holds) and a random batch with rows
    # on both sides of the condition
    rng = np.random.default_rng(5)
    batches = []
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        for n in (1, 2, 5, 8):
            alpha = spatial_exponents(exponent_matrix(n), p)
            batches.append((*_tilde_matrix(alpha, p), alpha))
    batches.append(tuple(rng.uniform(-1.5, 0.5, size=(3, 200, 6))))
    for at, bt, alpha in batches:
        got = verify_ab_condition(at, bt, alpha)
        assert got.shape == (alpha.shape[0],)
        want = [verify_ab_condition(*row) for row in zip(at, bt, alpha)]
        assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    with pytest.raises(ValidationError):
        verify_ab_condition(at, bt[:, :-1], alpha)


def _enumerated_margins(n, params):
    """Oracle for `_min_ab_margins`: sigma_k + alpha_{k+1}, k < n, on every
    row of exponent_matrix(n), from the cumulative tilde sums (acceptance
    check 8 enumerated these before its closed form), with the spatial
    and tilde exponents it fed to verify_ab_condition.  The spatial
    exponents are written out: params may be one of OUTSIDE_PARAMS, which
    `spatial_exponents` refuses as not a FractionalParams."""
    alpha = (1.0 - 2.0 * params.H) * exponent_matrix(n).astype(float)
    at, bt = _tilde_matrix(alpha, params)
    return _sigma(at, bt)[:, :-1] + alpha[:, 1:], (at, bt, alpha)


# (H0, H) outside the admissible region, where the least margin can sit at
# any k and be negative; the closed form reads only H0 and H
OUTSIDE_PARAMS = [SimpleNamespace(H0=h0, H=h) for h0, h in
                  ((0.55, 0.1), (0.6, 0.05), (0.52, 0.2), (0.7, 0.6), (0.9, 0.9), (0.3, 0.2))]


def test_min_ab_margins_are_the_enumerated_minimum():
    for p in admissible_param_grid() + EDGE_PARAMS + OUTSIDE_PARAMS:
        closed = _min_ab_margins(12, p)
        assert closed.shape == (11,)
        for n in range(2, 13):
            margins, (at, bt, alpha) = _enumerated_margins(n, p)
            want = float(margins.min())
            assert abs(closed[n - 2] - want) <= 1e-12 * (1.0 + abs(want))
            # the sweep check 8 ran: verify_ab_condition on every row
            if isinstance(p, FractionalParams):
                assert verify_ab_condition(at, bt, alpha).all() and closed[n - 2] > 0
    assert _min_ab_margins(1, P_REF).shape == (0,)
    # at (0.3, 0.2) the condition fails at every n, where check 8 would say False
    assert np.all(_min_ab_margins(12, OUTSIDE_PARAMS[-1]) < 0)


def test_least_margin_over_a_n_is_theta_1():
    # for n >= 2 the least sigma_k + alpha_{k+1} over A_n is theta_1 =
    # (2H0+H-1)/H0, at d_1 = 1, d_2 = 0: by enumeration to n = 14, and by
    # the closed form to n = 10^4
    for p in admissible_param_grid() + EDGE_PARAMS:
        theta_1 = (2.0 * p.H0 + p.H - 1.0) / p.H0
        for n in range(2, 15):
            margins, _ = _enumerated_margins(n, p)
            assert abs(margins.min() - theta_1) <= 1e-14 * (1.0 + theta_1)
            # its row has d_1 = 1 (row index 2^{n-2} and up), its k is 1
            r, k = np.unravel_index(np.argmin(margins), margins.shape)
            assert r >= 2 ** (n - 2) and k == 0
        closed = _min_ab_margins(10**4, p)
        assert closed.shape == (10**4 - 1,)
        assert np.all(closed == _theta(1, 0.0, p))
        assert abs(closed[0] - theta_1) <= 1e-14 * (1.0 + theta_1)


def test_gamma_all_ones_is_exactly_one():
    for p in admissible_param_grid():
        for n in (2, 5, 9, 12):
            assert gamma_n((1,) * n, p) == pytest.approx(1.0, abs=1e-12)


def test_term_bound_gamma_equals_gamma_matrix_max():
    # both read one factor table and add its entries in the same order
    for p in admissible_param_grid():
        for n in range(2, 17):
            assert term_bound(n, 1.0, p).gamma_n == gamma_n_matrix(n, p).max()


def test_gamma_matrix_agrees_with_scalar():
    # both add the table entries a path picks, in k order from 0.0
    grid = admissible_param_grid()
    for n in range(1, 11):
        vecs = enumerate_exponent_vectors(n)
        for p in grid:
            assert gamma_n_matrix(n, p).tolist() == [gamma_n(a, p) for a in vecs]


def _array_factor_table(n: int, params: FractionalParams) -> np.ndarray:
    """The log gamma factor table as numpy arrays built it: theta_k over
    index arrays of k and d_{k-1}, the arguments by one broadcast, two
    gammaln calls (the formulation the scalar arguments replaced)."""
    c = (1.0 - 2.0 * params.H) / (4.0 * params.H0)
    d = np.array([0.0, 1.0])
    th = _theta(np.arange(1, n)[:, None, None], d[:, None], params)
    return _sp.gammaln(th + c * (d[None, :] - d[:, None])) - _sp.gammaln(th)


def _gather_log_gamma(n: int, params: FractionalParams) -> np.ndarray:
    """Oracle for the prefix recursion: log gamma_n per row of A_n by one
    gather from the factor table per k over the offset matrix, added in k
    order from 0.0 (the formulation the recursion replaced)."""
    d = _offset_matrix(n)
    g = _array_factor_table(n, params)
    log_g = np.zeros(d.shape[0])
    for k in range(1, n):
        log_g += g[k - 1, d[:, k - 1], d[:, k + 1]]
    return log_g


# within 1e-7 of the edges H0 = 1/2, H0 = 1, H = 0, H = 1/2, H0 + H = 3/4
EDGE_PARAMS = [
    FractionalParams(0.5 + 1e-7, 0.5 - 1e-7),
    FractionalParams(1.0 - 1e-7, 1e-7),
    FractionalParams(0.6, 0.15 + 1e-7),
    FractionalParams(1.0 - 1e-7, 0.5 - 1e-7),
]


def test_gamma_matrix_is_the_gather_oracle_bit_for_bit():
    for p in admissible_param_grid(9) + EDGE_PARAMS:
        for n in range(1, 17):
            assert np.array_equal(gamma_n_matrix(n, p), np.exp(_gather_log_gamma(n, p)))


def test_log_gamma_rows_yield_every_order_up_to_n_max():
    for p in admissible_param_grid():
        ys = list(_log_gamma_rows(12, p))
        assert len(ys) == 12
        for n, log_g in enumerate(ys, start=1):
            assert log_g.shape == (2 ** (n - 1),)
            assert np.array_equal(log_g, _gather_log_gamma(n, p))
            assert np.array_equal(np.exp(log_g), gamma_n_matrix(n, p))


def test_gamma_matrix_matches_the_tilde_exponent_oracle():
    # _log_gamma_n_rows builds theta_k from the cumulative tilde exponents
    for p in admissible_param_grid() + EDGE_PARAMS:
        for n in range(1, 13):
            want = np.exp(_log_gamma_n_rows(exponent_matrix(n), p))
            np.testing.assert_allclose(gamma_n_matrix(n, p), want, rtol=1e-12, atol=0)


def test_bad_order_or_params_raise_library_errors():
    for n in (2.0, 2.5, True, "3", None):
        with pytest.raises(ValidationError, match="n must be an integer"):
            gamma_n_matrix(n, P_REF)
    for n in (0, -1, 21):
        with pytest.raises(SizeError, match=r"n must be in \[1, 20\]"):
            gamma_n_matrix(n, P_REF)
    assert gamma_n_matrix(np.int64(3), P_REF).tolist() == gamma_n_matrix(3, P_REF).tolist()
    for params in ("x", None, (0.75, 0.3)):
        with pytest.raises(ValidationError, match="params must be a FractionalParams"):
            gamma_n_matrix(3, params)
        with pytest.raises(ValidationError, match="params must be a FractionalParams"):
            gamma_n((1, 1), params)
        with pytest.raises(ValidationError, match="params must be a FractionalParams"):
            term_bound(3, 1.0, params)


def test_gamma_matches_simplex_integral_ratio():
    # gamma_n is the ratio of the ordered-simplex integral at the tilde
    # exponents to the same integral at the all-ones exponents, up to the
    # explicit first-slot and beta-slot gamma factors shared by both; the
    # closed form of each integral provides an independent check
    p = P_REF
    for a in [(1, 2, 0, 1), (2, 0, 1, 1), (1, 1, 2, 0), (2, 0, 2, 0, 1)]:
        n = len(a)
        at, bt = (tuple(v.tolist()) for v in _tilde_matrix(spatial_exponents(a, p), p))
        spec = SimplexIntegralSpec(1.0, at, bt)
        total = sum(at) + sum(bt) + n + 1
        log_g = (
            log_closed_form(spec)
            - math.lgamma(at[0] + 1.0)
            - sum(math.lgamma(b + 1.0) for b in bt)
            + math.lgamma(total)
        )
        assert math.exp(log_g) == pytest.approx(gamma_n(a, p), rel=1e-10)


def test_gamma_exceeds_one_for_endpoint_heavy_vectors():
    # regression pin: the gamma product is NOT bounded by 1; vectors whose
    # final move touches the endpoint push it above 1 on the whole
    # admissible region (see gamma_n docs)
    assert gamma_n((1, 1, 2, 0), P_REF) == pytest.approx(1.0244671924, rel=1e-8)
    assert gamma_n((2, 0, 1), FractionalParams(0.56, 0.25)) > 1.09


def test_interior_moves_are_monotone():
    # the decrease claim does hold for moves at interior touch points
    # 2 <= i <= n-2
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        for n in (4, 6, 8):
            for a in enumerate_exponent_vectors(n):
                for i in diagonal_touch_points(a):
                    if i < 2 or i > n - 2:
                        continue
                    b = move_down(a, i)
                    assert gamma_n(b, p) <= gamma_n(a, p) + 1e-12


def test_move_ratio_arguments_are_ordered():
    # the two shifted theta arguments entering consecutive factors of the
    # gamma product are ordered, z1 <= z2, at every interior touch point
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        c = (1.0 - 2.0 * p.H) / (4.0 * p.H0)
        for n in (5, 6, 8):
            for a in enumerate_exponent_vectors(n):
                at = tuple(a)
                for i in diagonal_touch_points(a):
                    if i < 2 or i > n - 2:
                        continue
                    z1 = _theta(i, a.d[i - 1], p) + c * (at[i - 1] + at[i] - 2.0)
                    z2 = _theta(i + 1, a.d[i], p) + c * (at[i] + at[i + 1] - 2.0)
                    assert z2 >= z1 - 1e-12


def test_term_bound_modes_and_time_exponent():
    tb = term_bound(4, 2.0, P_REF)
    assert tb.time_exponent == pytest.approx(4 * P_REF.time_growth_exponent)
    assert tb.gamma_n > 1.0  # max over the family at these params
    assert term_bound(4, 2.0, P_REF, mode="exact-constants") == tb
    with pytest.raises(DomainError, match="unknown mode 'asymptotic'"):
        term_bound(4, 2.0, P_REF, mode="asymptotic")
    # monotone in t (positive time exponent)
    for n in (1, 3, 6):
        lo = term_bound(n, 0.5, P_REF).log_bound
        hi = term_bound(n, 1.5, P_REF).log_bound
        assert hi > lo


def test_term_bound_time_power_is_uniform_over_family():
    # every exponent vector contributes the same total power of t, so the
    # whole bound scales as t^{n (2 H0 + H - 1)}
    for n in (2, 3, 5):
        b1 = term_bound(n, 1.0, P_REF).log_bound
        b2 = term_bound(n, 3.0, P_REF).log_bound
        assert b2 - b1 == pytest.approx(
            n * P_REF.time_growth_exponent * math.log(3.0), rel=1e-10
        )


def test_term_bound_b_homogeneity():
    pb = FractionalParams(0.75, 0.3, 2.0)
    for n in (1, 2, 4):
        base = term_bound(n, 1.0, P_REF).log_bound
        scaled = term_bound(n, 1.0, pb).log_bound
        assert scaled - base == pytest.approx(n * math.log(2.0), rel=1e-12)


def test_term_bound_size_cap():
    for n, match in ((31, "n <= 30"), (0, "n must be >= 1"), (-2, "n must be >= 1")):
        with pytest.raises(SizeError, match=match):
            term_bound(n, 1.0, P_REF)


def _log_term_sums_finished(n_max, params):
    """(log sum, max gamma_n) for n = 1..n_max from one pass of the generator."""
    log_entry, log_first, table, _, _ = _term_log_gammas(n_max, params)
    return [_finish_term_sum(n, *state, _term_log_gammas(n, params)[3], params)
            for n, state in enumerate(_log_term_sums(log_entry, log_first, table), start=1)]


def test_log_term_sum_small_n_by_hand():
    # n = 1: single vector (1,), the sum is one explicit term
    (log_sum, max_g), = _log_term_sums_finished(1, P_REF)
    assert max_g == pytest.approx(1.0)
    assert math.isfinite(log_sum)
    # a (1,): alpha = 1-2H, alpha~_1 = (4H-3+alpha)/(4H0), beta~_1 =
    # -(alpha+1)/(4H0), |alpha~|+|beta~| = (2(H-1)-1-alpha)/(4H0)
    H, H0 = P_REF.H, P_REF.H0
    al = 1.0 - 2.0 * H
    at, bt = (4.0 * H - 3.0 + al) / (4.0 * H0), -(al + 1.0) / (4.0 * H0)
    want = (math.lgamma(at + 1.0) + math.lgamma(bt + 1.0) - math.lgamma(at + bt + 2.0)
            + (math.lgamma((1.0 + al) / 2.0) + math.log(P_REF.c_H)) / (2.0 * H0))
    assert log_sum == pytest.approx(want, rel=1e-13)


def _log_term_sum_per_n(n: int, params: FractionalParams) -> tuple[float, float]:
    """Oracle for `_log_term_sums`: the per-order pass on 2x2 numpy arrays it
    replaced, which restarts at k = 1 for each n over the factor table for
    n itself and takes each ln Gamma in its own gammaln call."""
    H, H0 = params.H, params.H0
    q = 4.0 * H0
    d = np.array([0.0, 1.0])
    alpha = spatial_exponents(1.0 + d[None, :] - d[:, None], params)
    at, bt = (x[..., 0] for x in _tilde_matrix(alpha[..., None], params))
    log_entry = _sp.gammaln(bt + 1.0) + _sp.gammaln((1.0 + alpha) / 2.0) / (2.0 * H0)
    log_sum = np.full((2, 2), -np.inf)
    log_sum[0] = _sp.gammaln(at[0] + 1.0) + log_entry[0]
    log_gam = np.full((2, 2), -np.inf)
    log_gam[0] = 0.0
    for g_k in _array_factor_table(n, params):
        log_sum = (
            np.logaddexp(log_sum[0][:, None] + g_k[0], log_sum[1][:, None] + g_k[1])
            + log_entry
        )
        log_gam = np.maximum(
            log_gam[0][:, None] + g_k[0], log_gam[1][:, None] + g_k[1]
        )
    alpha_n = spatial_exponents(1.0 - d, params)
    s_ab = (2.0 * n * (H - 1.0) - 1.0 - alpha_n) / q
    log_last = -_sp.gammaln(s_ab + n + 1.0)
    log_total = _logsumexp(log_sum[:, 0] + log_last) + n / (2.0 * H0) * math.log(
        params.c_H
    )
    return float(log_total), float(np.exp(np.max(log_gam[:, 0])))


def test_log_term_sums_are_the_per_order_pass_bit_for_bit():
    for p in admissible_param_grid(9) + EDGE_PARAMS:
        got = _log_term_sums_finished(60, p)
        assert got == [_log_term_sum_per_n(n, p) for n in range(1, 61)]
    # a shorter pass yields the same states as the first orders of a longer one
    short, long = (_term_log_gammas(n, P_REF)[:3] for n in (7, 30))
    for n, (a, b) in enumerate(zip(_log_term_sums(*short), _log_term_sums(*long))):
        assert a == b
    assert n == 6


def _hurst_in(lo, hi):
    """Floats in (lo, hi) at least 1e-12 inside, a third within 1e-6 of each
    end (an H of a few ulps above 0 underflows c_H to 0, see CHANGES.md)."""
    near = st.floats(1e-12, 1e-6)
    return st.one_of(st.floats(lo + 1e-12, hi - 1e-12),
                     near.map(lambda e: lo + e), near.map(lambda e: hi - e))


@st.composite
def _admissible_params(draw):
    H0 = draw(_hurst_in(0.5, 1.0))
    H = draw(_hurst_in(max(0.0, 0.75 - H0), 0.5).filter(lambda H: H0 + H > 0.75))
    return FractionalParams(H0, H, draw(st.floats(1e-3, 1e3)))


@settings(max_examples=400, deadline=None)
@given(_admissible_params(), st.integers(1, MAX_EXACT_N), st.floats(1e-3, 1e3))
def test_term_bound_is_the_numpy_oracle_bit_for_bit(p, n, t):
    log_sum, max_g = _log_term_sum_per_n(n, p)
    want = (n * math.log(p.b_H0) + (2.0 * p.H0 - 1.0) * _sp.gammaln(n + 1.0)
            + 2.0 * p.H0 * log_sum + n * p.time_growth_exponent * math.log(t))
    got = term_bound(n, t, p)
    assert (got.log_bound, got.gamma_n) == (float(want), max_g)
    # the factor table too, where a changed bit need not reach the sum
    assert _term_log_gammas(n, p)[2] == _array_factor_table(n, p).tolist()


def _theta_matrix(a_mat: np.ndarray, params: FractionalParams) -> np.ndarray:
    """theta_k for k = 1..n, per row of an exponent matrix."""
    alpha = spatial_exponents(a_mat, params)
    at, bt = _tilde_matrix(alpha, params)
    n = a_mat.shape[-1]
    return np.cumsum(at + bt, axis=-1) + np.arange(1, n + 1) + 1


def _log_gamma_n_rows(a_mat: np.ndarray, params: FractionalParams) -> np.ndarray:
    """log gamma_n for each row of a (m, n) exponent matrix."""
    n = a_mat.shape[-1]
    if n == 1:
        return np.zeros(a_mat.shape[0])
    th = _theta_matrix(a_mat, params)[..., :-1]
    shift = (
        (1.0 - 2.0 * params.H)
        / (4.0 * params.H0)
        * (a_mat[..., :-1] + a_mat[..., 1:] - 2.0)
    )
    args = th + shift
    if np.any(args <= 0) or np.any(th <= 0):
        raise EstimationError(
            "non-positive gamma argument in gamma_n; parameter validation bug"
        )
    return np.sum(_sp.gammaln(args) - _sp.gammaln(th), axis=-1)


def _log_term_sum_by_rows(n, t, params):
    """Reference for `_log_term_sums`: the summand evaluated row by row
    over all of A_n, then log-sum-exp and the max of gamma_n."""
    a = exponent_matrix(n).astype(float)
    alpha = spatial_exponents(a, params)
    at, bt = _tilde_matrix(alpha, params)
    s_ab = np.sum(at + bt, axis=-1)
    log_gam = _log_gamma_n_rows(a, params)
    log_terms = (
        (alpha[:, -1] + 1.0) / (4.0 * params.H0) * math.log(t)
        + _sp.gammaln(at[:, 0] + 1.0)
        + np.sum(_sp.gammaln(bt + 1.0), axis=-1)
        - _sp.gammaln(s_ab + n + 1.0)
        + log_gam
        + (s_ab + n) * math.log(t)
        + (n / (2.0 * params.H0)) * math.log(params.c_H)
        + np.sum(_sp.gammaln((1.0 + alpha) / 2.0), axis=-1) / (2.0 * params.H0)
    )
    return float(logsumexp(log_terms)), math.exp(float(np.max(log_gam)))


@pytest.mark.parametrize(
    "grid, n_max",
    [
        (admissible_param_grid(), 10),
        ([FractionalParams(0.75, 0.3), FractionalParams(0.85, 0.2)], 16),
    ],
)
def test_log_term_sum_matches_row_by_row_sum(grid, n_max):
    for params in grid:
        for n, (log_unit, max_g) in enumerate(_log_term_sums_finished(n_max, params), start=1):
            # every summand carries the same power t^{n(2H0+H-1)/(2H0)}
            power = n * params.time_growth_exponent / (2.0 * params.H0)
            for t in (0.3, 1.0, 7.0):
                log_sum = log_unit + power * math.log(t)
                ref_sum, ref_g = _log_term_sum_by_rows(n, t, params)
                assert abs(log_sum - ref_sum) <= 1e-12
                assert abs(max_g - ref_g) <= 1e-12 * ref_g


def test_stirling_bound_search():
    a = P_REF.time_growth_exponent / (2.0 * P_REF.H0)
    thr = stirling_lb_check(a, 0.3)
    assert 1 <= thr <= 500
    with pytest.raises(EstimationError):
        stirling_lb_check(a, 50.0)
    # inf once returned 2 with an "invalid value" warning, 1e308 returned 1
    # with an overflow warning
    for a, C in ((math.inf, 0.5), (math.nan, 0.5), (0.0, 0.5), (0.5, math.inf),
                 (0.5, math.nan), (0.5, 0.0)):
        with pytest.raises(DomainError, match="finite and > 0"):
            stirling_lb_check(a, C)
    # a n + 1 past the floats at n = 500, and ln Gamma(a n + 1) past them
    # while a n + 1 is finite
    for a in (1e308, 1e304):
        with pytest.raises(EstimationError, match="leaves the floats"):
            stirling_lb_check(a, 0.5)
    assert stirling_lb_check(1e300, 0.5) == 1


def test_series_direct_vs_laplace_agree_at_crossover(monkeypatch):
    # moderately sized peaks can be summed directly; the saddle-point
    # branch, taken under a term budget of 1, must agree there to a
    # fraction of a percent
    p = P_REF
    for pp, t in [(2.0, 30.0), (4.0, 20.0)]:
        direct, peak = log_chaos_series(pp, t, p, C=4.0)
        monkeypatch.setattr(chaos_bounds, "MAX_SERIES_TERMS", 1)
        lap, _ = log_chaos_series(pp, t, p, C=4.0)
        monkeypatch.undo()
        assert peak > 100
        assert lap == pytest.approx(direct, rel=2e-3)


def test_series_monotone_in_p_and_t():
    vals_t = [log_chaos_series(2.0, t, P_REF, C=4.0)[0] for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(vals_t, vals_t[1:]))
    vals_p = [log_chaos_series(p, 2.0, P_REF, C=4.0)[0] for p in (2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(vals_p, vals_p[1:]))


def test_fitted_time_exponent():
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        target = p.time_growth_exponent / p.H
        assert abs(fit_time_exponent(p) - target) / target <= 0.05


def test_fitted_p_exponent():
    for p in (P_REF, FractionalParams(0.85, 0.2)):
        target = (p.H + 1.0) / p.H
        assert abs(fit_p_exponent(p) - target) / target <= 0.10


def test_envelope_dominates_series_on_grid():
    c1, c2 = fit_envelope_constants(P_REF, C=4.0)
    assert c1 > 0 and c2 > 0
    tight = math.inf
    for p in (2.0, 4.0, 8.0, 16.0, 32.0):
        for t in np.logspace(0.0, 2.0, 9):
            ls, _ = log_chaos_series(p, float(t), P_REF, C=4.0)
            env = math.log(c1) + c2 * _envelope_exponent(p, float(t), P_REF) / p
            assert env >= ls - 1e-8 * (1.0 + abs(ls))
            tight = min(tight, (env - ls) / (1.0 + abs(ls)))
    assert tight <= 1e-6  # the witness pair is tight somewhere


def test_fit_returns_the_series_values_it_was_fitted_to():
    # check_10 and bound-table read these in place of calling the series
    # and the envelope exponent again per point
    c1_log, c2, log_sums, log_env = _fit_log_envelope(
        P_REF, 4.0, DEFAULT_P_GRID, DEFAULT_T_GRID
    )
    ts = np.logspace(0.0, 2.0, 9)
    ps = (2.0, 4.0, 8.0, 16.0, 32.0)
    want = [[log_chaos_series(p, float(t), P_REF, C=4.0)[0] for t in ts] for p in ps]
    assert np.array_equal(log_sums, want)
    want_env = [
        [c1_log + c2 * _envelope_exponent(p, float(t), P_REF) / p for t in ts]
        for p in ps
    ]
    assert np.array_equal(log_env, want_env)


def test_moment_bound_composition():
    res = moment_bound(4.0, 2.0, 0.0, P_REF, LebesgueConstant(1.0), C=4.0,
                       constants=fit_envelope_constants(P_REF, 4.0))
    assert res.log_envelope_value >= res.log_series_value
    assert res.series_value == math.inf or res.series_value > 0


def test_inputs_beyond_the_float_range_raise_library_errors():
    # p^{(H+1)/H} at p = 1e75 exceeds the float range
    with pytest.raises(EstimationError):
        _envelope_exponent(1e75, 1.0, P_REF)
    with pytest.raises(EstimationError):
        moment_bound(1e75, 1.0, 0.0, FractionalParams(0.75, 0.3), DiracAt(0.0), C=4.0,
                     constants=(1.0, 1.0))
    # far from a point mass J0(t, x) underflows to 0, which has no log
    with pytest.raises(DomainError, match="J0"):
        moment_bound(2.0, 1.0, 100.0, P_REF, DiracAt(0.0), C=4.0, constants=(1.0, 1.0))
    for p_grid, t_grid in (((), (1.0,)), ((2.0,), ())):
        with pytest.raises(ValidationError):
            _fit_log_envelope(P_REF, 4.0, p_grid, t_grid)
    with pytest.raises(SizeError):
        admissible_param_grid(-1)
    assert admissible_param_grid(0) == []
    # non-finite inputs are domain errors, not overflows deep in the series
    for p in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="p must be"):
            log_chaos_series(p, 1.0, P_REF, C=4.0)
        with pytest.raises(ValidationError, match="b_H0"):
            FractionalParams(0.75, 0.3, p)


def test_an_H_whose_constants_underflow_is_a_validation_error():
    # at H = 5e-324, c_H and H/2 are 0.0: term_bound once raised a bare
    # ValueError (math domain error) and log_chaos_series a ZeroDivisionError
    with pytest.raises(ValidationError, match="too small: c_H or H/2 underflows"):
        FractionalParams(0.999999999999, 5e-324)
    params = FractionalParams(0.999999999999, 1e-323)
    assert params.c_H > 0.0 and params.H / 2.0 > 0.0
    assert math.isfinite(term_bound(2, 1.0, params).log_bound)


def test_bound_and_envelope_past_the_float_range_are_inf():
    # exp(log_bound) once raised a bare OverflowError
    tb = term_bound(30, 1e300, FractionalParams(0.75, 0.3))
    assert math.isfinite(tb.log_bound) and tb.bound == math.inf
    assert term_bound(4, 2.0, P_REF).bound == math.exp(term_bound(4, 2.0, P_REF).log_bound)
    res = moment_bound(2.0, 1.0, 0.0, P_REF, LebesgueConstant(1.0), C=1.0,
                       constants=fit_envelope_constants(P_REF, 1.0))
    assert res.envelope_value == math.exp(res.log_envelope_value)
    assert math.isfinite(res.envelope_value) and res.envelope_value >= res.series_value
    res = moment_bound(4.0, 2.0, 0.0, P_REF, LebesgueConstant(1.0), C=4.0,
                       constants=fit_envelope_constants(P_REF, 4.0))
    assert res.log_envelope_value > 710.0 and res.envelope_value == math.inf
    big = MomentBoundResult(1e4, 2e4)
    assert big.series_value == math.inf and big.envelope_value == math.inf


def test_inputs_that_once_got_past_validation():
    with pytest.raises(ValidationError, match="integer"):
        term_bound(1.5, 1.0, P_REF)
    with pytest.raises(ValidationError, match="integer"):
        term_bound(True, 1.0, P_REF)
    assert term_bound(np.int64(3), 1.0, P_REF) == term_bound(3, 1.0, P_REF)
    # (1.9, 1.2) was once truncated to (1, 1), where gamma_n is 1.0
    with pytest.raises(ValidationError, match="integers"):
        gamma_n((1.9, 1.2), P_REF)
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            term_bound(3, t, P_REF)
    # (1.0,) and the other values that are not a pair once raised a bare
    # ValueError or TypeError from unpacking or comparing
    for constants in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.nan),
                      (1.0,), (1.0, 2.0, 3.0), (), 1.0, None):
        with pytest.raises(DomainError, match="constants must be a pair"):
            moment_bound(2.0, 1.0, 0.0, P_REF, DiracAt(0.0), 4.0, constants=constants)
    # polyfit on one point, or on two equal ones, warns instead of fitting
    for t_grid in ((1.0,), (2.0, 2.0), ()):
        with pytest.raises(ValidationError, match="two distinct"):
            fit_time_exponent(P_REF, t_grid=t_grid)
    with pytest.raises(ValidationError, match="two distinct"):
        fit_p_exponent(P_REF, p_grid=(4.0,))


def test_ab_condition_rejects_non_finite_partial_sums():
    # a non-finite sum once compared as a margin: [inf] passed as True
    for at, bt in (([math.inf], [0.0]), ([1e308, 1e308], [0.0, 0.0]),
                   ([0.0, math.nan], [0.0, 0.0])):
        with pytest.raises(DomainError, match="finite partial sums"):
            verify_ab_condition(at, bt, [0.0] * len(at))
    with pytest.raises(DomainError, match="at k=2"):
        verify_ab_condition([[0.0, 0.0], [0.0, math.inf]], [[0.0] * 2] * 2, [[0.0] * 2] * 2)


def test_inputs_that_are_not_real_numbers_are_validation_errors():
    # each once raised a bare TypeError from a comparison, or ValueError
    calls = [
        lambda: FractionalParams("x", 0.3),
        lambda: FractionalParams(0.75, 0.3, "x"),
        lambda: FractionalParams(0.75, 1j),
        lambda: term_bound(3, "1", P_REF),
        # an array t once raised numpy's bare ValueError from a comparison
        lambda: term_bound(3, np.array([1.0, 2.0]), P_REF),
        lambda: stirling_lb_check("a", 1.0),
        lambda: stirling_lb_check(0.5, None),
        lambda: log_chaos_series("2", 1.0, P_REF, 4.0),
        lambda: log_chaos_series(2.0, "1", P_REF, 4.0),
        lambda: log_chaos_series(2.0, 1.0, P_REF, [4.0]),
        # a bool compares as 0 or 1, but is not taken for a number
        lambda: FractionalParams(0.75, 0.3, True),
        lambda: term_bound(3, True, P_REF),
        lambda: stirling_lb_check(True, 1.0),
        lambda: log_chaos_series(2, True, P_REF, 4.0),
        # so is a numpy bool, which each of these once took for 0 or 1
        lambda: FractionalParams(0.75, 0.3, np.True_),
        lambda: FractionalParams(np.False_, 0.3),
        lambda: term_bound(2, np.True_, P_REF),
        lambda: stirling_lb_check(0.5, np.True_),
        lambda: log_chaos_series(2.0, np.True_, P_REF, 4.0),
        lambda: log_chaos_series(2.0, 1.0, P_REF, np.True_),
        # an x that is not real once ended in a bare TypeError from J0
        lambda: moment_bound(2.0, 1.0, "0", P_REF, DiracAt(0.0), 4.0,
                             constants=(1.0, 1.0)),
        # an int past the float range was once kept as a 401-digit b_H0
        lambda: FractionalParams(0.75, 0.3, 10**400),
        # a constant that is not a number: (True, 1.0) once ran with C1 = 1,
        # and the others raised a DomainError that called them not a pair
        lambda: moment_bound(2.0, 1.0, 0.0, P_REF, DiracAt(0.0), 4.0,
                             constants=(True, 1.0)),
        lambda: moment_bound(2.0, 1.0, 0.0, P_REF, DiracAt(0.0), 4.0,
                             constants=("a", 1.0)),
        lambda: moment_bound(2.0, 1.0, 0.0, P_REF, DiracAt(0.0), 4.0,
                             constants=[[1.0], 2.0]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be real"):
            call()
    # a grid that is not a sequence once ended in a bare TypeError, and a
    # string entry was read as a number by numpy
    for call in (lambda: fit_envelope_constants(P_REF, 4.0, p_grid=5),
                 lambda: fit_envelope_constants(P_REF, 4.0, t_grid=None),
                 lambda: fit_time_exponent(P_REF, t_grid=5),
                 lambda: fit_p_exponent(P_REF, p_grid=5)):
        with pytest.raises(ValidationError, match="_grid must be a sequence"):
            call()
    with pytest.raises(ValidationError, match=r"t_grid\[1\] must be real"):
        fit_time_exponent(P_REF, t_grid=(1.0, "2"))
    with pytest.raises(ValidationError, match=r"p_grid\[0\] must be real"):
        fit_envelope_constants(P_REF, 4.0, p_grid=(True,))
    # a params that is not a FractionalParams once ended in AttributeError
    with pytest.raises(ValidationError, match="params must be a FractionalParams"):
        log_chaos_series(2.0, 1.0, (0.75, 0.3), 4.0)
    # an entry numpy cannot read once raised numpy's bare ValueError
    with pytest.raises(ValidationError, match="exponents must be arrays of real numbers"):
        verify_ab_condition(["a"], [1.0], [1.0])
    for a in ("x", [[1.0, 2.0], "x"], [[1.0, 2.0], [3.0]],
              # these once gave nan or numbers: numpy reads None, a string
              # and a bool as floats
              None, "1", True, [1, "2"]):
        with pytest.raises(ValidationError, match="a must be an array of real numbers"):
            spatial_exponents(a, P_REF)
    # a params that is not a FractionalParams once ended in AttributeError
    with pytest.raises(ValidationError, match="params must be a FractionalParams"):
        spatial_exponents((1, 1), "x")
    # a string and a bool once passed as the numbers 1
    for args in ((["1"], [True], [1.0]), ([1.0], [True], [1.0]), ([None], [1.0], [1.0])):
        with pytest.raises(ValidationError, match="exponents must be arrays of real numbers"):
            verify_ab_condition(*args)
    # numbers of every real type still pass, and nan is a domain error
    assert FractionalParams(np.float64(0.75), 0.3, 2) == FractionalParams(0.75, 0.3, 2.0)
    assert np.array_equal(spatial_exponents(np.array([2, 0]), P_REF),
                          spatial_exponents([2.0, 0.0], P_REF))
    with pytest.raises(DomainError):
        log_chaos_series(math.nan, 1.0, P_REF, 4.0)
