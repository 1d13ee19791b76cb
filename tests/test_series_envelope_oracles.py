"""The windowed moment series, the inline log-sum-exp and the block vertex
search against the straightforward computations they replace, kept here as
test-only oracles.

Each rewrite keeps every arithmetic operation that decides the result, so
the comparisons are exact (``==``), not within a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize as _optimize
from scipy import special as _sp
from scipy.special import logsumexp

from pam_moments.chaos_bounds import (
    DEFAULT_P_GRID,
    DEFAULT_T_GRID,
    FractionalParams,
    admissible_param_grid,
    fit_envelope_constants,
    log_chaos_series,
)
from pam_moments.chaos_bounds import _envelope_exponent, _logsumexp, _lowest_vertex
from pam_moments.errors import EstimationError

P_REF = FractionalParams(0.75, 0.3)


def _log_chaos_series_full_range(p, t, params, C=1.0, max_terms=2_000_000):
    """log_chaos_series with the direct sum over every n in [0, n_hi]."""
    a = params.H / 2.0
    L = 0.5 * math.log(max(p - 1.0, 1e-300) * C) + (
        params.time_growth_exponent / 2.0
    ) * math.log(t)
    n_star = math.exp(L / a) if L / a < 700 else float("inf")
    if math.isfinite(n_star) and n_star > 2:
        try:
            n_star = float(
                _optimize.brentq(
                    lambda v: L - a * _sp.psi(v + 1.0),
                    1e-9,
                    max(4.0 * n_star, 10.0),
                )
            )
        except ValueError:
            pass
    if not math.isfinite(n_star):
        raise EstimationError("series peak location overflows")
    width = math.sqrt(max(n_star, 1.0) / a)
    n_hi = n_star + 9.0 * width + 50.0
    if n_hi <= max_terms:
        ns = np.arange(0.0, n_hi + 1.0)
        log_terms = ns * L - a * _sp.gammaln(ns + 1.0)
        peak = float(np.max(log_terms))
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


def test_windowed_series_equals_full_range_sum():
    # 22 params x 5 p x 11 t x 2 C = 2420 cases, every 2nd one checked
    # (all of them take about 4 s); about 500 of them take the Laplace
    # branch and about 260 sum a window far from n = 0
    cases = [
        (p, float(t), params, C)
        for params in admissible_param_grid()
        for p in (2.0, 3.0, 8.0, 32.0, 100.0)
        for t in np.logspace(-2.0, 3.0, 11)
        for C in (1.0, 4.0)
    ][::2]
    for case in cases:
        assert log_chaos_series(*case) == _log_chaos_series_full_range(*case), case


def test_windowed_series_falls_back_to_full_range(monkeypatch):
    # a saddle estimate three times too large puts the window's left edge
    # right of the peak, inside the kept terms; the sum must then run over
    # the full range.  The direct sum reports the true peak index (about
    # 650 and 45000), not the inflated saddle.
    true_brentq = _optimize.brentq
    monkeypatch.setattr(
        _optimize, "brentq", lambda *args, **kw: 3.0 * true_brentq(*args, **kw)
    )
    for case, peak in [
        ((2.0, 2.0, P_REF, 4.0), 650),
        ((3.0, 5.0, FractionalParams(0.85, 0.2), 1.0), 45_000),
    ]:
        want = _log_chaos_series_full_range(*case)
        assert abs(want[1] - peak) < 0.05 * peak
        assert log_chaos_series(*case) == want


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


@pytest.mark.parametrize("H0, H", [(0.75, 0.3), (0.85, 0.2), (0.94, 0.45)])
@pytest.mark.parametrize("C", [1.0, 4.0])
def test_pretested_vertex_search_equals_block_search_on_dense_grid(H0, H, C):
    # the 15 x 20 grid of the benchmark, where the pre-test drops all but
    # a few hundred of the ~44,000 candidates with C2 >= 0
    p_grid = tuple(float(v) for v in np.geomspace(2.0, 32.0, 15))
    t_grid = tuple(float(v) for v in np.logspace(0.0, 2.0, 20))
    u, v = _grid_lines(FractionalParams(H0, H), C, p_grid, t_grid)
    assert _outcome(_lowest_vertex, u, v) == _outcome(_lowest_vertex_block_by_block, u, v)


def test_fit_raises_where_c1_leaves_the_float_range():
    # ln C1 is about -1.4e4 here: C1 underflows to 0
    with pytest.raises(EstimationError):
        fit_envelope_constants(FractionalParams(0.75, 0.05), C=1.0)
    # a single point at t = 1e3 puts ln C1 near 1e6: C1 overflows
    with pytest.raises(EstimationError):
        fit_envelope_constants(P_REF, C=4.0, p_grid=(2.0,), t_grid=(1e3,))
