"""The moment-bound chain: exponents, gamma products, per-term bounds.

Starting from an exponent vector a in A_n and a Hurst pair (H0, H), the
chain runs

    a  ->  alpha_j = (1-2H) a_j                  (spatial exponents)
       ->  (alpha~, beta~)                       (tilde exponents)
       ->  theta_k, gamma_n                      (simplex gamma factors)
       ->  per-order bound on E|J_n(t,x)|^2      (term_bound)
       ->  moment series / exponential envelope  (moment_bound)

gamma_n is a product of gamma-function ratios.  It equals 1 exactly at
the all-ones vector, but vectors whose path leaves the diagonal at the
right end can exceed 1, so gamma_n <= 1 and
its monotonicity under downward path moves do not hold over all of A_n
(acceptance checks 5 and 6 report this).  All products of gamma factors
are accumulated in log space.

In the offsets d_k of a (see path_combinatorics), theta_k depends on
d_{k-1} alone and the k-th gamma factor on (d_{k-1}, d_{k+1}), so one
table of 4(n-1) log factors serves `gamma_n`, `gamma_n_matrix` and the
exact sum of `term_bound`, which all add the entries a path picks.

The final p-th moment bound has existential constants; here every
constant in the chain is carried explicitly, with the single external
inequality constant b_H0 exposed as a configuration input (default 1),
and envelope witnesses (C1, C2) fitted on an evaluation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as _optimize
from scipy import special as _sp

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .initial_data import InitialMeasure, j0 as _j0
from .path_combinatorics import ExponentVector, _offset_matrix
from .simplex_integrals import _sigma

__all__ = [
    "FractionalParams",
    "ChaosTermBound",
    "spatial_exponents",
    "verify_ab_condition",
    "gamma_n",
    "gamma_n_matrix",
    "term_bound",
    "stirling_lb_check",
    "log_chaos_series",
    "moment_bound",
    "MomentBoundResult",
    "fit_envelope_constants",
    "fit_time_exponent",
    "fit_p_exponent",
    "admissible_param_grid",
]

MAX_EXACT_N = 30
MAX_SERIES_TERMS = 2_000_000


@dataclass(frozen=True)
class FractionalParams:
    """Hurst pair (H0, H) with the derived noise constants.

    Requires H0 in (1/2, 1), H in (0, 1/2) and H0 + H > 3/4.  b_H0 is
    the constant of the external convolution inequality, never pinned by
    the theory, and is configurable (default 1).
    """

    H0: float
    H: float
    b_H0: float = 1.0

    def __post_init__(self):
        if not (0.5 < self.H0 < 1.0):
            raise ValidationError(f"H0 must be in (1/2, 1), got {self.H0}")
        if not (0.0 < self.H < 0.5):
            raise ValidationError(f"H must be in (0, 1/2), got {self.H}")
        if not (self.H0 + self.H > 0.75):
            raise ValidationError(
                f"H0 + H must exceed 3/4, got {self.H0 + self.H}"
            )
        if not (0 < self.b_H0 < math.inf):
            raise ValidationError(f"b_H0 must be finite and > 0, got {self.b_H0}")

    @property
    def alpha_H0(self) -> float:
        """Temporal covariance constant H0 (2 H0 - 1)."""
        return self.H0 * (2.0 * self.H0 - 1.0)

    @property
    def c_H(self) -> float:
        """Spectral density constant Gamma(2H+1) sin(pi H) / (2 pi)."""
        return (
            math.gamma(2.0 * self.H + 1.0)
            * math.sin(math.pi * self.H)
            / (2.0 * math.pi)
        )

    @property
    def time_growth_exponent(self) -> float:
        """(2 H0 + H - 1), the per-order power of t in the bound."""
        return 2.0 * self.H0 + self.H - 1.0


def admissible_param_grid(size: int = 5) -> list[FractionalParams]:
    """A size x size grid of (H0, H) strictly inside the admissible region;
    raises SizeError for a negative size."""
    if size < 0:
        raise SizeError(f"grid size must be >= 0, got {size}")
    out = []
    for H0 in np.linspace(0.56, 0.94, size):
        for H in np.linspace(0.05, 0.45, size):
            if H0 + H > 0.75 + 1e-9:
                out.append(FractionalParams(float(H0), float(H)))
    return out


def spatial_exponents(a, params: FractionalParams) -> np.ndarray:
    """alpha_j = (1 - 2H) a_j."""
    if isinstance(a, ExponentVector):
        a = a.a
    return (1.0 - 2.0 * params.H) * np.asarray(a, dtype=float)


def _tilde_matrix(alpha: np.ndarray, params: FractionalParams):
    """The tilde exponents (alpha~, beta~) along the last axis of the
    spatial exponents alpha: alpha~_1 = (4H-3+alpha_1)/(4H0),
    alpha~_j = (4H-2+alpha_{j-1}+alpha_j)/(4H0), beta~_j = -(alpha_j+1)/(4H0)."""
    H, H0 = params.H, params.H0
    at = np.empty_like(alpha)
    at[..., 0] = (4.0 * H - 3.0 + alpha[..., 0]) / (4.0 * H0)
    at[..., 1:] = (4.0 * H - 2.0 + alpha[..., :-1] + alpha[..., 1:]) / (4.0 * H0)
    bt = -(alpha + 1.0) / (4.0 * H0)
    return at, bt


def verify_ab_condition(
    alpha_tilde: Sequence[float],
    beta_tilde: Sequence[float],
    alpha: Sequence[float],
) -> bool | np.ndarray:
    """sigma_k + alpha_{k+1} > 0 for all k < n, with sigma_k =
    sum_{i<=k}(alpha~_i + beta~_i) + k + 1 (`simplex_integrals._sigma`).

    Vectors run along the last axis: one vector gives a bool, an (m, n)
    batch gives a bool array of shape (m,).  A partial sum of the tilde
    exponents that is not finite raises DomainError.
    """
    at = np.atleast_1d(np.asarray(alpha_tilde, dtype=float))
    bt = np.atleast_1d(np.asarray(beta_tilde, dtype=float))
    al = np.atleast_1d(np.asarray(alpha, dtype=float))
    if bt.shape != at.shape or al.shape != at.shape:
        raise ValidationError("inconsistent lengths")
    with np.errstate(over="ignore"):  # a margin past the floats is +-inf
        margins = _sigma(at, bt)[..., :-1] + al[..., 1:]
    ok = np.all(margins > 0, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def _theta(k, d_prev, params: FractionalParams):
    """theta_k = sum_{i<=k}(alpha~_i + beta~_i) + k + 1 in closed form, from
    the offset d_prev = d_{k-1} (k, d_prev may be arrays): theta_1 =
    (H-1)/H0 + 2, and for k >= 2 the increments are (4H0+4H-3)/(4H0) +
    a_{k-1} (1-2H)/(4H0)."""
    q = 4.0 * params.H0
    c = (1.0 - 2.0 * params.H) / q
    return 1.0 - 1.0 / q + k * (q + 4.0 * params.H - 3.0) / q + c * (k - 1 + d_prev)


def _gamma_factor_table(n: int, params: FractionalParams) -> np.ndarray:
    """g[k-1, d_{k-1}, d_{k+1}] = ln Gamma(theta_k + c (d_{k+1} - d_{k-1}))
    - ln Gamma(theta_k), k = 1..n-1, c = (1-2H)/(4H0): the log gamma
    factors of gamma_n, shape (n-1, 2, 2)."""
    c = (1.0 - 2.0 * params.H) / (4.0 * params.H0)
    d = np.array([0.0, 1.0])
    th = _theta(np.arange(1, n)[:, None, None], d[:, None], params)
    args = th + c * (d[None, :] - d[:, None])
    if np.any(args <= 0):
        raise EstimationError(
            "non-positive gamma argument in gamma_n; parameter validation bug"
        )
    return _sp.gammaln(args) - _sp.gammaln(th)


def _log_gamma_n(d: np.ndarray, params: FractionalParams) -> np.ndarray:
    """log gamma_n per row of a (m, n+1) matrix of offsets d_0..d_n: the
    table entries added in k order from 0.0, as the max-plus pass does."""
    n = d.shape[1] - 1
    g = _gamma_factor_table(n, params)
    log_g = np.zeros(d.shape[0])
    for k in range(1, n):
        log_g += g[k - 1, d[:, k - 1], d[:, k + 1]]
    return log_g


def gamma_n(a, params: FractionalParams) -> float:
    """The gamma-ratio product gamma_n(a), computed in log space.

    Its log is the sum of the factor-table entries the offsets of a pick.
    gamma_n(1, ..., 1) = 1; other vectors can give values above 1.
    """
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    return float(np.exp(_log_gamma_n(np.array([a.d]), params))[0])


def gamma_n_matrix(n: int, params: FractionalParams) -> np.ndarray:
    """gamma_n over all of A_n (rows in lexicographic order), by lookups
    in one factor table; the maximum equals `term_bound`'s gamma_n."""
    return np.exp(_log_gamma_n(_offset_matrix(n), params))


@dataclass(frozen=True)
class ChaosTermBound:
    """Bound on E|J_n(t,x)|^2 with the J0^2 prefactor stripped.

    gamma_n records the maximum of the gamma product over A_n.  The
    diagonal path gives exactly 1, but paths dropping off the diagonal at
    the right end can exceed 1, so this field is only guaranteed positive.
    mode is "exact-constants", the one mode `term_bound` has.
    """

    n: int
    gamma_n: float
    log_bound: float
    time_exponent: float
    mode: str

    @property
    def bound(self) -> float:
        """exp(log_bound), inf where that exceeds the float range."""
        return _exp_or_inf(self.log_bound)

    def __post_init__(self):
        if not (self.gamma_n > 0.0):
            raise ValidationError(
                f"gamma_n must be positive, got {self.gamma_n}"
            )


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-d float array, with the bits of
    scipy.special.logsumexp (scipy 1.17.1) for real input, without its
    array-API dispatch.

    It repeats scipy's steps: the max m_a; the mask of entries equal to
    it and their count m; exp of the other entries shifted by m_a, the
    tied entries set to -inf; their sum s, divided by m when s != 0; and
    log1p(s) + log(m) + m_a.  Where that is not finite (an entry +inf,
    all entries -inf, a nan), scipy returns log(sum(exp(a))) instead, and
    so does this.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        tied = a == a_max
        m = np.float64(np.count_nonzero(tied))
        s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _log_term_sum_exact(n: int, params: FractionalParams) -> tuple[float, float]:
    """log of the sum over A_n inside the per-order bound (before the 2H0
    power) at t = 1, and the largest gamma_n over A_n.

    Written in the offsets d_k of a (see path_combinatorics), with
    c = (1-2H)/(4H0), the summand of a is a product of factors that each
    see at most three neighbouring offsets:
      - per entry a_k = 1 + d_k - d_{k-1}: Gamma(beta~_k + 1) and
        Gamma((1+alpha_k)/2)^{1/(2H0)}; for k = 1 also Gamma(alpha~_1 + 1);
      - gamma factor k < n: Gamma(theta_k + c (d_{k+1} - d_{k-1})) /
        Gamma(theta_k), theta_k depending on d_{k-1} only (the table);
      - |alpha~| + |beta~| = (2n(H-1) - 1 - alpha_n) / (4H0), so
        Gamma(|alpha~|+|beta~|+n+1) depends on a_n only.
    The two powers of t, t^{(alpha_n+1)/(4H0)} and t^{|alpha~|+|beta~|+n},
    multiply to t^{n(2H0+H-1)/(2H0)} for every a, so they leave the sum
    and `term_bound` adds the one power.
    One forward pass over the states (d_{k-1}, d_k) then sums all
    2^{n-1} summands by log-sum-exp and maximizes the gamma factors alone
    by max-plus, in O(n) work.
    """
    H, H0 = params.H, params.H0
    q = 4.0 * H0
    d = np.array([0.0, 1.0])
    alpha = spatial_exponents(1.0 + d[None, :] - d[:, None], params)  # [d_{k-1}, d_k]
    # each state's alpha as a vector of length 1: its alpha~_1 and beta~
    at, bt = (x[..., 0] for x in _tilde_matrix(alpha[..., None], params))
    log_entry = _sp.gammaln(bt + 1.0) + _sp.gammaln((1.0 + alpha) / 2.0) / (2.0 * H0)
    # state arrays are indexed [d_{k-1}, d_k]; after k = 1, d_0 = 0
    log_sum = np.full((2, 2), -np.inf)
    log_sum[0] = _sp.gammaln(at[0] + 1.0) + log_entry[0]
    log_gam = np.full((2, 2), -np.inf)
    log_gam[0] = 0.0
    for g_k in _gamma_factor_table(n, params):
        # [d_k, d_{k+1}], through d_{k-1} = 0 or 1
        log_sum = (
            np.logaddexp(log_sum[0][:, None] + g_k[0], log_sum[1][:, None] + g_k[1])
            + log_entry
        )
        log_gam = np.maximum(
            log_gam[0][:, None] + g_k[0], log_gam[1][:, None] + g_k[1]
        )
    # d_n = 0, so a_n = 1 - d_{n-1}
    alpha_n = spatial_exponents(1.0 - d, params)
    s_ab = (2.0 * n * (H - 1.0) - 1.0 - alpha_n) / q  # |alpha~| + |beta~|
    log_last = -_sp.gammaln(s_ab + n + 1.0)
    log_total = _logsumexp(log_sum[:, 0] + log_last) + n / (2.0 * H0) * math.log(
        params.c_H
    )
    return float(log_total), float(np.exp(np.max(log_gam[:, 0])))


def term_bound(
    n: int,
    t: float,
    params: FractionalParams,
    mode: str = "exact-constants",
) -> ChaosTermBound:
    """Per-order bound on E|J_n(t,x)|^2 / J0^2(t,x).

    The bound sums over all 2^{n-1} members of A_n, carrying every gamma
    and spectral constant of the chain (n <= 30); the sum is taken by a
    transfer-matrix recursion over the path offsets in O(n) work, without
    enumerating A_n, over the gamma factor table behind `gamma_n`; its
    gamma_n is `gamma_n_matrix(n, params).max()` exactly.  mode must be
    "exact-constants" (DomainError otherwise).  The asymptotic form
    C^n (n!)^{-H} t^{n(2H0+H-1)} of this bound enters the moment series
    through its square root, the term that `log_chaos_series` sums.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise SizeError(f"n must be >= 1, got {n}")
    if not (0 < t < math.inf):
        raise DomainError(f"t must be finite and > 0, got {t}")
    time_exp = n * params.time_growth_exponent
    if mode != "exact-constants":
        raise DomainError(f"unknown mode {mode!r}")
    if n > MAX_EXACT_N:
        raise SizeError(
            f"exact-constants mode supports n <= {MAX_EXACT_N}, got {n}"
        )
    log_sum, max_gamma = _log_term_sum_exact(n, params)
    log_b = (
        n * math.log(params.b_H0)
        + (2.0 * params.H0 - 1.0) * _sp.gammaln(n + 1.0)
        + 2.0 * params.H0 * log_sum
        + time_exp * math.log(t)
    )
    return ChaosTermBound(n, max_gamma, float(log_b), time_exp, mode)


def stirling_lb_check(
    a: float,
    b: float,
    C: float,
    n_range: Sequence[int] | range = range(1, 501),
) -> int:
    """First n where Gamma(a n + 1 + b) >= C^n (n!)^a holds through the range.

    Checked in log space.  Raises if the inequality fails for every
    suffix of the range (C chosen too large).
    """
    if not (a > 0):
        raise DomainError(f"a must be > 0, got {a}")
    if not (C > 0):
        raise DomainError(f"C must be > 0, got {C}")
    ns = np.asarray(sorted(n_range), dtype=float)
    if ns.size == 0 or ns[0] < 1:
        raise DomainError("n_range must contain integers >= 1")
    if np.any(a * ns + 1 + b <= 0):
        raise DomainError("a n + 1 + b must stay positive over the range")
    lhs = _sp.gammaln(a * ns + 1.0 + b)
    rhs = ns * math.log(C) + a * _sp.gammaln(ns + 1.0)
    holds = lhs >= rhs
    # first index from which the inequality holds through the end
    suffix_ok = np.flip(np.cumprod(np.flip(holds.astype(bool))))
    idx = np.nonzero(suffix_ok)[0]
    if idx.size == 0:
        raise EstimationError(
            f"Gamma(a n+1+b) >= C^n (n!)^a fails through the whole range "
            f"for a={a}, b={b}, C={C}"
        )
    return int(ns[idx[0]])


def log_chaos_series(
    p: float,
    t: float,
    params: FractionalParams,
    C: float = 1.0,
) -> tuple[float, int]:
    """log of sum_{n>=0} (p-1)^{n/2} C^{n/2} (n!)^{-H/2} t^{n(2H0+H-1)/2}.

    Terms have the form exp(f(n)), f(x) = x L - a ln Gamma(x+1), a = H/2,
    a log-concave bump around the saddle n* (f'(n*) = 0) of width
    w = sqrt(max(n*, 1)/a).  Returns (log_sum, peak_index), the peak index
    being the integer n of the largest term.  The sums keep the terms
    within e^-40 (about 1e-16) of the largest.  Where the bump lies
    decides the rule, with edges n* - 9w - 50 (left) and n* + 12w + 50:
      - Left edge <= 0: the integer sum from n = 0 to the first integer
        past the right edge.  Near n = 0 the terms can fall slower than
        the width says, so while the last term is within the cutoff the
        right edge is doubled, up to `MAX_SERIES_TERMS` (EstimationError
        past it, as at H = 1e-6, p = 2, t = 1, C = 1).
      - Left edge > 0 and n* + 9w + 50 <= `MAX_SERIES_TERMS`: the
        trapezoid rule on the nodes n* + j h, h = w/4, from the first node
        past the left edge (or the last one >= 0) to the first past the
        right edge, 86 to 95 nodes: log S = logsumexp(f(nodes)) + log h.
        By Poisson summation the integer sum equals the integral to within
        e^{-2 pi^2 w^2} (w >= 40 here), and the trapezoid rule gets the
        integral to within about e^{-2 pi^2 (w/h)^2} = e^{-316}.  The peak
        index is the larger of f at floor(n*) and floor(n*) + 1.  Both
        edges lie past the cutoff: left of n*, f' >= a (n* - x)/(n* + 1)
        (psi is concave, psi' > 1/x), so f falls by 40 within 8.95 widths;
        right of q = n* + 1, f falls by at least a q phi(x/q),
        phi(r) = r ln r - r + 1 >= (r-1)^2/(r+1), which reaches 40 within
        11.45 widths, as a left edge > 0 means a w > 9.  An edge within
        the cutoff (a poor saddle estimate) raises EstimationError.
      - Left edge > 0 beyond that: Laplace's method around the saddle,
        whose relative error is O(1/n*) and far below the fit tolerances
        it feeds.
    What remains is rounding: the node values n L and a ln n! are about
    ln n* times larger than log S, and log S moves by n* ulp(L) with the
    rounding of L (d log S / dL = n*).  Against a 30-digit sum both rules
    err by a few ulps of log S, and they agree to 12 ulps on 17,820
    cases of the admissible grid.
    """
    if not (2 <= p < math.inf):
        raise DomainError(f"p must be finite and >= 2, got {p}")
    if not (t > 0 and C > 0):
        raise DomainError("t and C must be > 0")
    a = params.H / 2.0
    L = 0.5 * math.log((p - 1.0) * C) + (
        params.time_growth_exponent / 2.0
    ) * math.log(t)

    def f(x):
        return x * L - a * _sp.gammaln(x + 1.0)

    # saddle: L = a psi(n+1).  For n* = e^{L/a} > 2 the bracket changes
    # sign: L > a ln 2 > a psi(1 + 1e-9), and at its upper end v >= 4 n*,
    # psi(v+1) > ln(v + 1/2) > L/a
    n_star = math.exp(L / a) if L / a < 700 else float("inf")
    if not math.isfinite(n_star):
        raise EstimationError("series peak location overflows; t or p too large")
    if n_star > 2:
        n_star = float(
            _optimize.brentq(
                lambda v: L - a * _sp.psi(v + 1.0),
                1e-9,
                max(4.0 * n_star, 10.0),
            )
        )
    width = math.sqrt(max(n_star, 1.0) / a)
    left = n_star - 9.0 * width - 50.0
    right = n_star + 12.0 * width + 50.0
    if left <= 0:
        right = min(right, float(MAX_SERIES_TERMS))
        while True:
            ns = np.arange(math.ceil(right) + 1.0)
            log_terms = f(ns)
            peak = float(np.max(log_terms))
            if log_terms[-1] <= peak - 40.0:
                break
            if right >= MAX_SERIES_TERMS:
                raise EstimationError(
                    f"the series terms stay within e^-40 of the peak past "
                    f"{MAX_SERIES_TERMS} terms; H too small")
            right = min(2.0 * right, float(MAX_SERIES_TERMS))
        keep = log_terms > peak - 40.0  # 1e-16 relative cutoff
        return _logsumexp(log_terms[keep]), int(np.argmax(log_terms))
    if n_star + 9.0 * width + 50.0 > MAX_SERIES_TERMS:
        # Laplace approximation for the sum around the saddle
        f_star = float(f(n_star))
        curvature = a * float(_sp.polygamma(1, n_star + 1.0))
        return f_star + 0.5 * math.log(2.0 * math.pi / curvature), int(n_star)
    # nodes x0, x0 + h, ... through n*, from the first node past the left
    # edge (or the last one >= 0) up to the first one past the right edge
    h = width / 4.0
    steps = min(math.ceil((n_star - left) / h), math.floor(n_star / h))
    x0 = n_star - h * steps
    xs = x0 + h * np.arange(math.ceil((right - x0) / h) + 1.0)
    log_terms = f(xs)
    peak = float(np.max(log_terms))
    if max(log_terms[0], log_terms[-1]) > peak - 40.0:
        raise EstimationError("a trapezoid edge of the moment series lies within "
                              "e^-40 of the peak; the saddle estimate is off")
    keep = log_terms > peak - 40.0  # 1e-16 relative cutoff
    ms = np.array([math.floor(n_star), math.floor(n_star) + 1.0])
    peak_index = int(ms[np.argmax(f(ms))])
    return _logsumexp(log_terms[keep]) + math.log(h), peak_index


@dataclass(frozen=True)
class MomentBoundResult:
    """Series value of the p-th moment bound and its exponential envelope.

    Values are carried in logs; the plain fields overflow to inf for
    large (p, t), which is expected.
    """

    p: float
    t: float
    x: float
    log_series_value: float
    log_envelope_value: float
    truncation_index: int
    C1: float
    C2: float

    @property
    def series_value(self) -> float:
        return _exp_or_inf(self.log_series_value)

    @property
    def envelope_value(self) -> float:
        return _exp_or_inf(self.log_envelope_value)


DEFAULT_P_GRID = (2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_T_GRID = tuple(np.logspace(0.0, 2.0, 9))


def _envelope_exponent(p: float, t: float, params: FractionalParams) -> float:
    """g(p, t) = p^{(H+1)/H} t^{(2H0+H-1)/H}; raises EstimationError where
    g leaves the float range."""
    H = params.H
    try:
        g = p ** ((H + 1.0) / H) * t ** (params.time_growth_exponent / H)
    except OverflowError:
        g = math.inf
    if not math.isfinite(g):
        raise EstimationError(f"envelope exponent g(p={p!r}, t={t!r}) is not finite")
    return g


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf where that exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _lowest_vertex(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(ln C1, C2) minimising ln C1 + C2 * mean(u) s.t. ln C1 + C2 u_i >= v_i.

    Candidates are the vertices of the constraint lines: for each i, in
    order, (v_i, 0), (0, v_i / u_i) and the intersections with every
    line k > i of a different slope.  Each i's block of candidates is
    tested in one numpy pass (relative feasibility slack 1e-9) and its
    first minimum replaces the best so far only if strictly lower, so the
    result is that of testing the candidates one by one.

    Before the full test, the candidates with C2 >= 0 are tested against
    three constraints alone: the largest right-hand side and the smallest
    and largest u, which most infeasible vertices violate.  The pre-test
    makes the same float comparisons as those columns of the full test,
    so a candidate it drops fails the full test too, and the survivors,
    still in block order, get the full test.  On a 15 x 20 (p, t) grid at
    (H0, H) = (0.75, 0.3), C = 4, it leaves 231 of 44,637 candidates for
    the full test, 83 of them feasible.
    """
    rhs = v - 1e-9 * np.abs(v)
    mean_u = float(np.mean(u))
    probe = np.array([np.argmax(rhs), np.argmin(u), np.argmax(u)])
    u_probe, rhs_probe = u[probe], rhs[probe]
    best = None
    for i in range(len(u)):
        k = np.arange(i + 1, len(u))
        k = k[~(np.abs(u[i] - u[k]) < 1e-12)]
        pair_c2 = (v[i] - v[k]) / (u[i] - u[k])
        c2 = np.concatenate(([0.0, v[i] / u[i] if u[i] > 0 else 0.0], pair_c2))
        c1_log = np.concatenate(([v[i], 0.0], v[i] - pair_c2 * u[i]))
        hits = np.flatnonzero(c2 >= 0)
        for cols, bound in ((u_probe, rhs_probe), (u, rhs)):
            hits = hits[np.all(c1_log[hits, None] + c2[hits, None] * cols >= bound,
                               axis=1)]
        if hits.size:
            obj = c1_log[hits] + c2[hits] * mean_u
            j = np.argmin(obj)
            if best is None or obj[j] < best[0]:
                best = (obj[j], c1_log[hits[j]], c2[hits[j]])
    if best is None:
        raise EstimationError("envelope fit found no feasible witness")
    _, c1_log, c2 = best
    # lift the intercept clear of the vertex-solve slack; domination can
    # only be meant up to relative rounding once the log-values reach 1e18
    c1_log += 1e-9 * (1.0 + abs(c1_log))
    return float(c1_log), float(c2)


def _fit_log_envelope(
    params: FractionalParams,
    C: float,
    p_grid: Sequence[float],
    t_grid: Sequence[float],
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(ln C1, C2) of the envelope witnesses (see `fit_envelope_constants`),
    the log series values they were fitted to and the log envelope
    ln C1 + C2 * g(p, t) / p, each grid of shape (len(p_grid),
    len(t_grid)).  Raises ValidationError for an empty grid."""
    if not (len(p_grid) and len(t_grid)):
        raise ValidationError("p_grid and t_grid must be nonempty")
    g, v = [], []
    for p in p_grid:
        for t in t_grid:
            log_sum, _ = log_chaos_series(p, t, params, C)
            g.append(_envelope_exponent(p, t, params))
            v.append(log_sum)
    shape = (len(p_grid), len(t_grid))
    g, v = np.reshape(g, shape), np.reshape(v, shape)
    p_col = np.asarray(p_grid, dtype=float)[:, None]
    c1_log, c2 = _lowest_vertex((g / p_col).ravel(), v.ravel())
    with np.errstate(over="ignore"):  # an envelope past the floats is inf
        log_env = c1_log + c2 * g / p_col
    return c1_log, c2, v, log_env


def fit_envelope_constants(
    params: FractionalParams,
    C: float = 1.0,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> tuple[float, float]:
    """Witness constants (C1, C2) with envelope >= series on the grid.

    The constraint set is ln C1 + C2 g(p,t)/p >= log_sum(p,t), linear in
    (ln C1, C2); the returned pair minimizes ln C1 + C2 * mean(g/p) over
    the vertices of the feasible region, so the envelope is tight
    somewhere on the grid rather than inflated.  The vertex search tests
    one block of candidate vertices per grid point in a single numpy
    pass, N passes for N grid points.  Each block is first tested against
    three of the N constraints (the largest log_sum, the smallest and the
    largest g/p) and only its survivors against all N; the pre-test makes
    the same float comparisons as those three columns of the full test,
    so it drops only candidates the full test rejects, and the fit is
    the one without it, bit for bit.

    C1 is ill-conditioned where C2 * mean(g/p) dominates the objective:
    at the README parameters (C = 4) on the default grid C2 * mean(g/p)
    is about 1e10, and the exact optimum of the linear program moves
    ln C1 from 10.51 to 11.64 while moving the objective by 1.6e-10
    relative.  Raises
    EstimationError where no vertex is feasible or C1 leaves the range
    of positive floats.
    """
    c1_log, c2, _, _ = _fit_log_envelope(params, C, p_grid, t_grid)
    c1 = _exp_or_inf(c1_log)
    if not 0.0 < c1 < math.inf:
        raise EstimationError(
            f"envelope constant C1 = exp({c1_log!r}) is not a positive finite float"
        )
    return c1, c2


def moment_bound(
    p: float,
    t: float,
    x: float,
    params: FractionalParams,
    measure: InitialMeasure,
    C: float = 1.0,
    constants: tuple[float, float] | None = None,
) -> MomentBoundResult:
    """The p-th moment bound: series value and exponential envelope.

    series_value = [J0(t,x) * sum_n ((p-1)C)^{n/2} (n!)^{-H/2}
    t^{n(2H0+H-1)/2}]^p; the envelope is C1^p J0^p exp(C2 p^{(H+1)/H}
    t^{(2H0+H-1)/H}) with (C1, C2) either supplied (a pair, C1 finite
    and > 0, C2 finite; DomainError otherwise) or fitted on the default
    evaluation grid.
    """
    log_sum, trunc = log_chaos_series(p, t, params, C)
    if constants is None:
        constants = fit_envelope_constants(params, C)
    try:
        C1, C2 = constants
        ok = 0 < C1 < math.inf and math.isfinite(C2)
    except (TypeError, ValueError):  # not a pair, or not of numbers
        ok = False
    if not ok:
        raise DomainError("constants must be a pair (C1, C2), C1 finite and > 0, "
                          f"C2 finite; got {constants}")
    j0_val = _j0(t, x, measure)
    if not (j0_val > 0):
        raise DomainError("J0(t, x) must be positive for the bound")
    log_j0 = math.log(j0_val)
    log_series = p * (log_j0 + log_sum)
    log_env = p * math.log(C1) + p * log_j0 + C2 * _envelope_exponent(
        p, t, params
    )
    return MomentBoundResult(p, t, x, log_series, log_env, trunc, C1, C2)


def _log_log_slope(xs: np.ndarray, ys: Sequence[float]) -> float:
    """Least-squares slope of ln ys against ln xs.  Raises ValidationError
    for fewer than two distinct xs and EstimationError where a y is not
    positive."""
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise ValidationError("the slope fit needs at least two distinct grid values")
    if np.any(ys <= 0):
        raise EstimationError("series log-values must be positive for the slope fit")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def fit_time_exponent(
    params: FractionalParams,
    p: float = 2.0,
    C: float = 4.0,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> float:
    """Least-squares slope of ln(log-series-sum) against ln t.

    For t deep enough in the growth regime this approaches
    (2H0+H-1)/H, the t-exponent inside the exponential envelope.
    """
    ts = np.asarray(t_grid, dtype=float)
    return _log_log_slope(ts, [log_chaos_series(p, t, params, C)[0] for t in ts])


def fit_p_exponent(
    params: FractionalParams,
    t: float = 10.0,
    C: float = 4.0,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
) -> float:
    """Growth exponent of the full p-th power bound in p.

    The hypercontractive weights enter through (p-1)^{n/2}, so the
    regression runs ln(ln series_value) = ln(p * log-sum) against
    ln(p-1); the fitted slope estimates (H+1)/H, the p-exponent after
    the final power p is taken.
    """
    ps = np.asarray(p_grid, dtype=float)
    return _log_log_slope(
        ps - 1.0, [p * log_chaos_series(p, t, params, C)[0] for p in ps]
    )
