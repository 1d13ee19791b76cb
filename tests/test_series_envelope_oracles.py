"""The moment series' trapezoid rule, its saddle solve and curvature, the
inline log-sum-exp and the block vertex search against the straightforward
computations they replace, kept here as test-only oracles.

The saddle solve, the curvature, the log-sum-exp and the vertex search
keep every arithmetic operation that decides the result, so those
comparisons are exact (``==``).  The moment series samples its terms on a
coarser grid than the integer one, so its value is compared within a
stated number of ulps, and against a 30-digit mpmath sum; its peak index
and its integer sum from n = 0 stay exact.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize as _optimize
from scipy import special as _sp
from scipy.special import logsumexp

from pam_moments import chaos_bounds
from pam_moments.chaos_bounds import (
    DEFAULT_P_GRID,
    DEFAULT_T_GRID,
    FractionalParams,
    admissible_param_grid,
    fit_envelope_constants,
    log_chaos_series,
)
from pam_moments.chaos_bounds import (
    _envelope_exponent, _logsumexp, _lowest_vertex, _saddle,
)
from pam_moments.errors import EstimationError

P_REF = FractionalParams(0.75, 0.3)


_true_gammaln = _sp.gammaln


def _series_rate(p, t, params, C):
    """(a, L): the terms of the moment series are exp(n L - a ln n!)."""
    a = params.H / 2.0
    L = 0.5 * math.log(max(p - 1.0, 1e-300) * C) + (
        params.time_growth_exponent / 2.0
    ) * math.log(t)
    return a, L


def _brentq_saddle(L, a, hi):
    return float(_optimize.brentq(lambda v: L - a * _sp.psi(v + 1.0), 1e-9, hi))


def _log_chaos_series_full_range(p, t, params, C=1.0, max_terms=2_000_000):
    """log_chaos_series with the direct sum over every n in [0, n_end],
    n_end doubled from n* + 9 widths + 50 until its term lies below the
    e^-40 cutoff."""
    a, L = _series_rate(p, t, params, C)
    n_star = math.exp(L / a) if L / a < 700 else float("inf")
    if math.isfinite(n_star) and n_star > 2:
        try:
            n_star = _brentq_saddle(L, a, max(4.0 * n_star, 10.0))
        except ValueError:
            pass
    if not math.isfinite(n_star):
        raise EstimationError("series peak location overflows")
    width = math.sqrt(max(n_star, 1.0) / a)
    n_hi = n_star + 9.0 * width + 50.0
    if n_hi <= max_terms:
        n_end = n_hi
        while True:
            ns = np.arange(0.0, n_end + 1.0)
            log_terms = ns * L - a * _sp.gammaln(ns + 1.0)
            peak = float(np.max(log_terms))
            if log_terms[-1] <= peak - 40.0:
                break
            n_end *= 2.0
        keep = log_terms > peak - 40.0
        return float(logsumexp(log_terms[keep])), int(np.argmax(log_terms))
    f_star = n_star * L - a * float(_sp.gammaln(n_star + 1.0))
    curvature = a * float(_sp.polygamma(1, n_star + 1.0))
    return f_star + 0.5 * math.log(2.0 * math.pi / curvature), int(n_star)


def _lowest_vertex_one_by_one(u, v):
    """The vertex search testing each candidate with its own numpy call."""
    mean_u = float(np.mean(u))

    def feasible(c1_log, c2):
        return np.all(c1_log + c2 * u >= v - 1e-9 * np.abs(v))

    cands = []
    for i in range(len(u)):
        cands.append((v[i], 0.0))
        cands.append((0.0, v[i] / u[i] if u[i] > 0 else 0.0))
        for k in range(i + 1, len(u)):
            if abs(u[i] - u[k]) < 1e-12:
                continue
            c2 = (v[i] - v[k]) / (u[i] - u[k])
            cands.append((v[i] - c2 * u[i], c2))
    best = None
    for c1_log, c2 in cands:
        if c2 < 0 or not feasible(c1_log, c2):
            continue
        obj = c1_log + c2 * mean_u
        if best is None or obj < best[0]:
            best = (obj, c1_log, c2)
    if best is None:
        raise EstimationError("envelope fit found no feasible witness")
    _, c1_log, c2 = best
    c1_log += 1e-9 * (1.0 + abs(c1_log))
    return float(c1_log), float(c2)


def _lowest_vertex_block_by_block(u, v):
    """The block vertex search without the three-constraint pre-test."""
    rhs = v - 1e-9 * np.abs(v)
    mean_u = float(np.mean(u))
    best = None
    for i in range(len(u)):
        k = np.arange(i + 1, len(u))
        k = k[~(np.abs(u[i] - u[k]) < 1e-12)]
        pair_c2 = (v[i] - v[k]) / (u[i] - u[k])
        c2 = np.concatenate(([0.0, v[i] / u[i] if u[i] > 0 else 0.0], pair_c2))
        c1_log = np.concatenate(([v[i], 0.0], v[i] - pair_c2 * u[i]))
        obj = c1_log + c2 * mean_u
        test = c2 >= 0
        test[test] = np.all(c1_log[test, None] + c2[test, None] * u >= rhs, axis=1)
        hits = np.flatnonzero(test)
        if hits.size:
            j = hits[np.argmin(obj[hits])]
            if best is None or obj[j] < best[0]:
                best = (obj[j], c1_log[j], c2[j])
    if best is None:
        raise EstimationError("envelope fit found no feasible witness")
    _, c1_log, c2 = best
    c1_log += 1e-9 * (1.0 + abs(c1_log))
    return float(c1_log), float(c2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EstimationError as exc:
        return type(exc)


def _grid_lines(params, C, p_grid=DEFAULT_P_GRID, t_grid=DEFAULT_T_GRID):
    u, v = [], []
    for p in p_grid:
        for t in t_grid:
            u.append(_envelope_exponent(p, t, params) / p)
            v.append(log_chaos_series(p, t, params, C)[0])
    return np.asarray(u), np.asarray(v)


def _series_cases(n_t):
    # 22 params x 5 p x n_t t in [1e-2, 1e3] x 2 C
    return [
        (p, float(t), params, C)
        for params in admissible_param_grid()
        for p in (2.0, 3.0, 8.0, 32.0, 100.0)
        for t in np.logspace(-2.0, 3.0, n_t)
        for C in (1.0, 4.0)
    ]


def test_windowed_series_equals_full_range_sum():
    # 2420 cases, every 2nd one checked (all of them take about 4 s); about
    # 500 of them take the Laplace branch, where both sides are the same
    # code.  The node values n L and a ln n! are about ln n* times larger
    # than log S and each is rounded, so the trapezoid rule and the integer
    # sum may differ in the last few bits: 12 ulps at most over all 2420
    # cases, 389 of which differ at all.  The peak index is exact.  At
    # small H the terms near n = 0 fall slower than the width says, and
    # the integer sum doubles its right edge (twice at H = 0.05, p = 2,
    # t = 1, C = 1, seven times at H = 1e-5)
    small_h = [(2.0, 1.0, FractionalParams(0.8, H), 1.0) for H in (1e-3, 1e-4, 1e-5)]
    for case in _series_cases(11)[::2] + small_h:
        got, want = log_chaos_series(*case), _log_chaos_series_full_range(*case)
        assert got[1] == want[1], case
        assert abs(got[0] - want[0]) <= 16 * math.ulp(want[0]), case


def test_poor_saddle_estimate_raises_or_sums_from_zero(monkeypatch):
    # a saddle estimate three times too large puts the left edge right of
    # the peak, and one three times too small puts the right edge left of
    # it, inside the kept terms; the trapezoid rule must then raise rather
    # than return a short sum.  Where the wrong estimate moves the left
    # edge below 0 (650 / 3 at H = 0.3), the integer sum from n = 0 runs
    # and must still equal the full-range sum.  The true peaks lie at
    # about 650 and 45000
    true_saddle = chaos_bounds._saddle
    small, large = (2.0, 2.0, P_REF, 4.0), (3.0, 5.0, FractionalParams(0.85, 0.2), 1.0)
    for case, peak in [(small, 650), (large, 45_000)]:
        assert abs(_log_chaos_series_full_range(*case)[1] - peak) < 0.05 * peak
    for factor, case, raises in [
        (3.0, small, True), (3.0, large, True), (1.0 / 3.0, small, False),
        (1.0 / 3.0, large, True),
    ]:
        monkeypatch.setattr(
            chaos_bounds, "_saddle", lambda *args: factor * true_saddle(*args)
        )
        if raises:
            with pytest.raises(EstimationError, match="trapezoid edge"):
                log_chaos_series(*case)
        else:
            assert log_chaos_series(*case) == _log_chaos_series_full_range(*case)


def test_saddle_equals_brentq_on_the_series_grid():
    # every case of the 17820-case grid (81 t) whose saddle is solved for
    solved = 0
    for case in _series_cases(81):
        a, L = _series_rate(*case)
        if L / a >= 700 or math.exp(L / a) <= 2:
            continue
        hi = max(4.0 * math.exp(L / a), 10.0)
        assert _saddle(L, a, hi) == _brentq_saddle(L, a, hi), case
        solved += 1
    assert solved > 10_000


def test_saddle_equals_brentq_on_random_rates():
    # a in [1e-6, 0.25] and L / a in (ln 2, 700), up to n* = e^700
    rng = np.random.default_rng(20261019)
    a_all = rng.uniform(1e-6, 0.25, 40_000).tolist()
    r_all = rng.uniform(math.log(2.0), 699.99, 40_000).tolist()
    for a, r in zip(a_all, r_all):
        L = r * a
        hi = max(4.0 * math.exp(L / a), 10.0)
        assert _saddle(L, a, hi) == _brentq_saddle(L, a, hi), (L, a)


def test_laplace_curvature_zeta_equals_polygamma():
    # scipy's polygamma(1, x) is (-1)^2 Gamma(2) zeta(2, x): the same bits
    xs = np.concatenate([np.linspace(1.0, 100.0, 2_000), np.geomspace(1.0, 1e300, 4_000)])
    for x in xs.tolist():
        assert float(_sp.zeta(2.0, x)) == float(_sp.polygamma(1, x)), x


def test_saddle_that_does_not_converge_raises(monkeypatch):
    # the trapezoid case with its peak near 650 needs about ten steps
    a, L = _series_rate(2.0, 2.0, P_REF, 4.0)
    monkeypatch.setattr(chaos_bounds, "_SADDLE_MAXITER", 2)
    with pytest.raises(EstimationError, match="did not converge in 2 steps"):
        _saddle(L, a, 4.0 * math.exp(L / a))
    with pytest.raises(EstimationError, match="did not converge"):
        log_chaos_series(2.0, 2.0, P_REF, 4.0)


def test_series_and_fit_call_no_scipy_python_wrappers(monkeypatch):
    # brentq's and polygamma's Python wrappers cost more than the series
    # point itself; the saddle and the curvature are computed without them
    def forbidden(*args, **kw):
        raise AssertionError("called on the moment-series path")

    monkeypatch.setattr(_optimize, "brentq", forbidden)
    monkeypatch.setattr(_sp, "polygamma", forbidden)
    # the integer sum (n* = 1), the trapezoid rule (650) and Laplace (1e8)
    for case, lo, hi in [((2.0, 1.0, P_REF, 1.0), 0, 2),
                         ((2.0, 2.0, P_REF, 4.0), 600, 700),
                         ((2.0, 1e3, P_REF, 1.0), 2_000_000, math.inf)]:
        assert lo <= log_chaos_series(*case)[1] < hi, case
    c1, c2 = fit_envelope_constants(P_REF, C=4.0)
    assert c1 > 0 and c2 > 0


def test_series_outlasting_the_term_budget_raises():
    # at H = 1e-6 the terms stay within e^-40 of the first one up to
    # n ~ 1e7, past MAX_SERIES_TERMS = 2e6; the integer sum once stopped at
    # n* + 9 widths + 50 and returned a value short by orders of magnitude
    with pytest.raises(EstimationError, match="2000000 terms"):
        log_chaos_series(2.0, 1.0, FractionalParams(0.8, 1e-6), 1.0)


@pytest.mark.parametrize("H", [1e-12, 1e-6, 1e-4, 1e-3])
def test_tiny_h_series_below_the_geometric_bound(H):
    # with L = ln(C)/2 < 0 (p = 2, t = 1) every term is at most e^{n L},
    # so log S <= -ln(1 - e^L).  At H = 1e-12 the bump sits at n = 0 with
    # a width past the term budget; Laplace's formula once answered 14.83
    # there
    params = FractionalParams(0.8, H)
    L = 0.5 * math.log(0.5)
    got, peak_index = log_chaos_series(2.0, 1.0, params, 0.5)
    assert peak_index == 0
    assert 0.0 < got <= -math.log1p(-math.exp(L))


def test_tiny_h_series_with_flat_terms_raises():
    # with C = 1 (L = 0) every term up to the budget is within e^-40 of
    # the first, as at H = 1e-6 above, but the width alone passes the
    # budget; Laplace's formula once answered (15.30, 1)
    with pytest.raises(EstimationError, match="2000000 terms"):
        log_chaos_series(2.0, 1.0, FractionalParams(0.8, 1e-12), 1.0)


def _log_series_mpmath(p, t, params, C):
    """log S to 30 digits for the float L the library computes: the terms
    exp(n L - a ln n!) summed over n* -+ 14 widths, by the recurrence
    f(n) = f(n - 1) + L - a ln n."""
    a, L = _series_rate(p, t, params, C)
    with mpmath.workdps(30):
        am, Lm = mpmath.mpf(a), mpmath.mpf(L)
        q = math.exp(L / a)
        width = math.sqrt(q / a)
        lo, hi = max(0, int(q - 14.0 * width)), int(q + 14.0 * width)
        f = [lo * Lm - am * mpmath.loggamma(lo + 1)]
        for n in range(lo + 1, hi + 1):
            f.append(f[-1] + Lm - am * mpmath.log(n))
        peak = max(f)
        return peak + mpmath.log(mpmath.fsum(mpmath.exp(v - peak) for v in f))


@pytest.mark.parametrize("H0, H, n_peak", [
    (0.75, 0.3, 2e3), (0.75, 0.3, 2e4), (0.75, 0.3, 4.5e4),
    (0.85, 0.2, 1.2e3), (0.85, 0.2, 3e4), (0.6, 0.4, 9e3), (0.94, 0.05, 5e3),
])
def test_trapezoid_series_against_mpmath(H0, H, n_peak):
    # t puts the saddle near n_peak; the rounding of L sets the error floor
    # of both sums (d log S / dL = n*), so the trapezoid rule must be as
    # accurate as the integer sum up to 4 ulps of log S
    params = FractionalParams(H0, H)
    a = H / 2.0
    t = math.exp(2.0 * a * math.log(n_peak + 0.5) / params.time_growth_exponent)
    case = (2.0, t, params, 1.0)
    got, peak_index = log_chaos_series(*case)
    integer_sum, want_index = _log_chaos_series_full_range(*case)
    assert peak_index == want_index and abs(peak_index - n_peak) < 0.01 * n_peak
    ref = _log_series_mpmath(*case)
    ulp = math.ulp(integer_sum)
    assert abs(float(got - ref)) <= abs(float(integer_sum - ref)) + 4 * ulp


@pytest.fixture
def gammaln_calls(monkeypatch):
    """The arguments of every scipy.special.gammaln call, in order."""
    calls = []

    def spy(x):
        calls.append(np.array(x, dtype=float))
        return _true_gammaln(x)

    monkeypatch.setattr(_sp, "gammaln", spy)
    return calls


def test_series_edges_lie_past_the_cutoff(gammaln_calls):
    # 17820 cases (81 t).  In each direct sum the last node, and on the
    # trapezoid path also the first, lies at least e^-40 below the largest
    # node, so the cutoff alone decides which terms count and no trapezoid
    # case raises; the trapezoid evaluates its grid and the two-point peak
    # index only, and the integer sum may double its right edge
    on_saddle = 0
    for case in _series_cases(81):
        gammaln_calls.clear()
        log_chaos_series(*case)
        grids = [call - 1.0 for call in gammaln_calls]
        if grids[0].ndim == 0:  # the Laplace branch
            continue
        a, L = _series_rate(*case)
        if grids[0][0] == 0.0 and grids[0][1] == 1.0:  # the integer sum
            f = grids[-1] * L - a * _true_gammaln(grids[-1] + 1.0)
            assert f[-1] <= f.max() - 40.0, case
            continue
        on_saddle += 1
        f = grids[0] * L - a * _true_gammaln(grids[0] + 1.0)
        assert f[0] <= f.max() - 40.0 and f[-1] <= f.max() - 40.0, case
        assert len(grids) == 2 and grids[1].shape == (2,), case
    assert on_saddle == 3948


def test_trapezoid_evaluates_at_most_128_nodes(gammaln_calls):
    # saddles n* from where the left tail leaves the cutoff (n* > 9 widths
    # + 50) up to the end of the direct branch (n* + 9 widths + 50 =
    # 2e6), on every admissible (H0, H)
    for params in admissible_param_grid():
        a = params.H / 2.0

        def edge(n, sign):
            return n + sign * (9.0 * math.sqrt(n / a) + 50.0)

        n_lo = _optimize.brentq(edge, 1.0, 2e6, args=(-1.0,))
        n_hi = _optimize.brentq(lambda n: edge(n, 1.0) - 2e6, 1.0, 2e6)
        for n_peak in np.geomspace(1.01 * n_lo, 0.999 * n_hi, 40):
            t = math.exp(2.0 * a * math.log(n_peak + 0.5) / params.time_growth_exponent)
            gammaln_calls.clear()
            log_chaos_series(2.0, t, params, 1.0)
            sizes = [call.size for call in gammaln_calls]
            assert sizes[0] > 2 and sum(sizes) <= 128, (params, n_peak, sizes)


def _searched_blocks(u, v):
    """_lowest_vertex's outcome and the number of blocks it searched (one
    np.arange call each)."""
    calls = []
    arange = np.arange

    def spy(*args, **kwargs):
        calls.append(args)
        return arange(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "arange", spy)
        outcome = _outcome(_lowest_vertex, u, v)
    return outcome, len(calls)


# three points on v = 1 at u = 1, 1.5, 2, the middle one lowered by the
# key; the prune's margin there is Q (2e-9 + 1e-14 u / (u - u_0)) with
# Q = 5, u = 1.5 and u_0 = 1, about 1.0e-8
_FLAT_HULL = {d: [(1.0, 1.0), (1.5, 1.0 - d), (2.0, 1.0)] for d in (0.99e-9, 0.99e-8, 1.01e-8)}


def test_prune_keeps_points_within_its_margin_and_drops_the_rest():
    outcomes = {}
    for d, blocks in ((0.99e-9, 3), (0.99e-8, 3), (1.01e-8, 2)):
        u, v = (np.array(column) for column in zip(*_FLAT_HULL[d]))
        outcomes[d], searched = _searched_blocks(u, v)
        assert searched == blocks, d
        assert outcomes[d] == _lowest_vertex_one_by_one(u, v), d
    # within the slack the lowered point's (1 - d, 0) is the optimum, so
    # dropping it would change the result; past the slack (1, 0) is
    assert outcomes[0.99e-9][0] < outcomes[0.99e-8][0] == outcomes[1.01e-8][0]


# a small pool makes duplicate u, tied objectives and slopes near the
# 1e-12 cut-off common
_pool = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 5e-13, 2.0, 3.0])
_u = st.one_of(_pool, st.floats(0.0, 1e3, allow_nan=False))
_v = st.one_of(_pool, st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_u, _v), min_size=1, max_size=14))
# slopes 5e-13 apart are parallel: their intersection (objective 5e-13)
# is not a candidate, so (0, v_1 / u_1) wins with objective 1e-12
@example([(1.0, 0.0), (1.0 + 5e-13, 1e-12)])
# a point below the flat hull v = 1 on [1, 2]: within the 1e-9 slack its
# (v, 0) wins; just inside and just outside the prune's margin (1.0e-8)
@example(_FLAT_HULL[0.99e-9])
@example(_FLAT_HULL[0.99e-8])
@example(_FLAT_HULL[1.01e-8])
# duplicate u on the hull and below it, points at u = 0, all-negative v
@example([(1.0, 2.0), (1.0, 1.0), (2.0, 3.0), (2.0, 3.0), (3.0, 1.0), (3.0, 3.5)])
@example([(0.0, 1.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
@example([(0.5, -1.0), (1.0, -3.0), (2.0, -2.0), (3.0, -10.0), (0.0, -4.0)])
# u < 0, outside the prune's derivation, keeps every point: dropping the
# leftmost (margin < 0 at u_0 < 0) would lose the winning pair (0.5, 0.5)
@example([(-1.0, 0.0), (1.0, 1.0), (0.0, -5.0)])
def test_block_vertex_search_equals_one_by_one(lines):
    u = np.array([x for x, _ in lines])
    v = np.array([y for _, y in lines])
    # a subnormal u makes v / u overflow to inf, and inf * 0, in both searches
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(_lowest_vertex, u, v) == _outcome(_lowest_vertex_one_by_one, u, v)


def test_fit_equals_one_by_one_search_on_default_grids():
    # the README parameters first, then every admissible (H0, H) at C in
    # {1, 4} on the default 45-point grid; where C1 = exp(ln C1) leaves the
    # positive floats (6 of the 44 grids) the fit raises instead
    u, v = _grid_lines(P_REF, 4.0)
    c1_log, c2 = _lowest_vertex_one_by_one(u, v)
    assert fit_envelope_constants(P_REF, C=4.0) == (math.exp(c1_log), c2)
    raised = 0
    for params in admissible_param_grid():
        for C in (1.0, 4.0):
            c1_log, c2 = _lowest_vertex_one_by_one(*_grid_lines(params, C))
            c1 = math.exp(c1_log) if c1_log < 709.0 else math.inf
            if 0.0 < c1 < math.inf:
                assert fit_envelope_constants(params, C) == (c1, c2)
            else:
                raised += 1
                with pytest.raises(EstimationError):
                    fit_envelope_constants(params, C)
    assert 0 < raised < 44


# values drawn from a few fixed ones repeat the maximum often
_lse_values = st.one_of(
    st.sampled_from([-1e3, -1.0, 0.0, 1.0, 37.5, 1e6]),
    st.floats(-1e3, 1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_lse_values, min_size=1, max_size=400))
@example([5.0])
@example([2.0, 2.0, 2.0, -1e3])
def test_inline_logsumexp_equals_scipy(values):
    a = np.array(values)
    assert _logsumexp(a) == logsumexp(a)


def test_inline_logsumexp_equals_scipy_off_the_finite_range():
    # where scipy's shifted sum is not finite it falls back to
    # log(sum(exp(a))); the helper does the same
    with np.errstate(invalid="ignore"):
        for values in ([-np.inf], [-np.inf, -np.inf], [np.inf, 1.0], [1e308, 1e308],
                       [np.nan, 1.0], [-np.inf, 3.0]):
            a = np.array(values)
            want, got = logsumexp(a), _logsumexp(a)
            assert got == want or (math.isnan(got) and math.isnan(want)), values


# the benchmark's (0.75, 0.3), (0.85, 0.2) and (0.94, 0.45), then every
# other point of admissible_param_grid(9)
_DENSE_GRID_PARAMS = [(0.75, 0.3), (0.85, 0.2), (0.94, 0.45)]
_DENSE_GRID_PARAMS += [
    (p.H0, p.H) for p in admissible_param_grid(9) if (p.H0, p.H) not in _DENSE_GRID_PARAMS
]


@pytest.mark.parametrize("H0, H", _DENSE_GRID_PARAMS)
@pytest.mark.parametrize("C", [1.0, 4.0])
def test_pretested_vertex_search_equals_block_search_on_dense_grid(H0, H, C):
    # the 15 x 20 grid of the benchmark: the hull pre-test keeps 21 or 22
    # of its 300 points on every grid here, and only their blocks are
    # searched; more than 60 would mean the prune had stopped working
    p_grid = tuple(float(v) for v in np.geomspace(2.0, 32.0, 15))
    t_grid = tuple(float(v) for v in np.logspace(0.0, 2.0, 20))
    u, v = _grid_lines(FractionalParams(H0, H), C, p_grid, t_grid)
    outcome, searched = _searched_blocks(u, v)
    assert searched <= 60
    assert outcome == _outcome(_lowest_vertex_block_by_block, u, v)


def test_fit_raises_where_c1_leaves_the_float_range():
    # ln C1 is about -1.4e4 here: C1 underflows to 0
    with pytest.raises(EstimationError):
        fit_envelope_constants(FractionalParams(0.75, 0.05), C=1.0)
    # a single point at t = 1e3 puts ln C1 near 1e6: C1 overflows
    with pytest.raises(EstimationError):
        fit_envelope_constants(P_REF, C=4.0, p_grid=(2.0,), t_grid=(1e3,))
