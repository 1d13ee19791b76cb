import math

import numpy as np
import pytest
from scipy import special as _sp
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
    _log_term_sum_exact,
    _theta,
    _tilde_matrix,
)
from pam_moments.errors import DomainError, EstimationError, SizeError, ValidationError
from pam_moments.initial_data import DiracAt, LebesgueConstant
from pam_moments.path_combinatorics import (
    ExponentVector,
    diagonal_touch_points,
    enumerate_exponent_vectors,
    exponent_matrix,
    move_down,
)
from pam_moments.simplex_integrals import SimplexIntegralSpec, log_closed_form

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
    g = gamma_n_matrix(5, P_REF)
    vecs = enumerate_exponent_vectors(5)
    for a, gv in zip(vecs, g):
        assert gv == pytest.approx(gamma_n(a, P_REF), rel=1e-13)


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
    assert tb.mode == "exact-constants"
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
    with pytest.raises(SizeError):
        term_bound(31, 1.0, P_REF)


def test_log_term_sum_small_n_by_hand():
    # n = 1: single vector (1,), the sum is one explicit term
    log_sum, max_g = _log_term_sum_exact(1, P_REF)
    assert max_g == pytest.approx(1.0)
    assert math.isfinite(log_sum)


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
    """Reference for _log_term_sum_exact: the summand evaluated row by row
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
        for n in range(1, n_max + 1):
            log_unit, max_g = _log_term_sum_exact(n, params)
            # every summand carries the same power t^{n(2H0+H-1)/(2H0)}
            power = n * params.time_growth_exponent / (2.0 * params.H0)
            for t in (0.3, 1.0, 7.0):
                log_sum = log_unit + power * math.log(t)
                ref_sum, ref_g = _log_term_sum_by_rows(n, t, params)
                assert abs(log_sum - ref_sum) <= 1e-12
                assert abs(max_g - ref_g) <= 1e-12 * ref_g


def test_stirling_bound_search():
    a = P_REF.time_growth_exponent / (2.0 * P_REF.H0)
    thr = stirling_lb_check(a, 0.0, 0.3, range(1, 501))
    assert 1 <= thr <= 500
    with pytest.raises(EstimationError):
        stirling_lb_check(a, 0.0, 50.0, range(1, 501))


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
    res = moment_bound(4.0, 2.0, 0.0, P_REF, LebesgueConstant(1.0), C=4.0)
    assert res.log_envelope_value >= res.log_series_value
    assert res.truncation_index > 0
    assert res.series_value == math.inf or res.series_value > 0


def test_inputs_beyond_the_float_range_raise_library_errors():
    # p^{(H+1)/H} at p = 1e75 exceeds the float range
    with pytest.raises(EstimationError):
        _envelope_exponent(1e75, 1.0, P_REF)
    with pytest.raises(EstimationError):
        moment_bound(1e75, 1.0, 0.0, FractionalParams(0.75, 0.3), DiracAt(0.0), C=4.0)
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


def test_bound_and_envelope_past_the_float_range_are_inf():
    # exp(log_bound) once raised a bare OverflowError
    tb = term_bound(30, 1e300, FractionalParams(0.75, 0.3))
    assert math.isfinite(tb.log_bound) and tb.bound == math.inf
    assert term_bound(4, 2.0, P_REF).bound == math.exp(term_bound(4, 2.0, P_REF).log_bound)
    res = moment_bound(2.0, 1.0, 0.0, P_REF, LebesgueConstant(1.0), C=1.0)
    assert res.envelope_value == math.exp(res.log_envelope_value)
    assert math.isfinite(res.envelope_value) and res.envelope_value >= res.series_value
    res = moment_bound(4.0, 2.0, 0.0, P_REF, LebesgueConstant(1.0), C=4.0)
    assert res.log_envelope_value > 710.0 and res.envelope_value == math.inf
    big = MomentBoundResult(2.0, 1.0, 0.0, 1e4, 2e4, 3, 1.0, 1.0)
    assert big.series_value == math.inf and big.envelope_value == math.inf


def test_inputs_that_once_got_past_validation():
    with pytest.raises(ValidationError, match="integer"):
        term_bound(1.5, 1.0, P_REF)
    with pytest.raises(ValidationError, match="integer"):
        term_bound(True, 1.0, P_REF)
    assert term_bound(np.int64(3), 1.0, P_REF) == term_bound(3, 1.0, P_REF)
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            term_bound(3, t, P_REF)
    # (1.0,) and the other values that are not a pair of numbers once
    # raised a bare ValueError or TypeError from unpacking or comparing
    for constants in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.nan),
                      (1.0,), (1.0, 2.0, 3.0), (), 1.0, ("a", 1.0), [[1.0], 2.0]):
        with pytest.raises(DomainError, match="constants must be a pair"):
            moment_bound(2.0, 1.0, 0.0, P_REF, DiracAt(0.0), constants=constants)
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
