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
right end can exceed 1, so gamma_n <= 1 and its monotonicity under
downward path moves do not hold over all of A_n (acceptance checks 5 and
6).  All products of gamma factors are accumulated in log space.

In the offsets d_k of a (see path_combinatorics), theta_k depends on
d_{k-1} alone and the k-th gamma factor on (d_{k-1}, d_{k+1}), so one
table of 4(n-1) log factors serves `gamma_n`, `gamma_n_matrix` and the
exact sum of `term_bound`, which all add the entries a path picks.  Its
rows do not depend on n, so one pass over the table for n_max gives every
order n <= n_max: log gamma_n over A_n by a prefix recursion in about 2^n
adds (`_log_gamma_rows`), and the exact sums in O(n_max) (`_log_term_sums`).

A `term_bound` call at order n needs 6n + 5 values of ln Gamma: the entry
factors, the factor table, the finish and n!.  Their arguments come from
the owners of the formulas, on Python floats, and one gammaln call
evaluates them all (`_term_log_gammas`); the pass then runs on floats.  On
2x2 arrays nearly all of a call was fixed numpy dispatch: a call at
n = 2 / 18 took 80 / 204 us and takes 48 / 139 us in a warm loop, and
221 / 372 us, now 117 / 259 us, right after a 24 MB buffer is written
(medians over six alternating processes; 2-core Xeon, Python 3.11.7,
numpy 2.4.6).

The final p-th moment bound has existential constants; here every
constant in the chain is explicit: b_H0 of the external inequality (in
`term_bound` alone), the series constant C and envelope witnesses (C1, C2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as _sp

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .errors import _check_int, _check_real, _exp_or_inf, _real_array, _real_sequence
from .initial_data import InitialMeasure, j0 as _j0
from .path_combinatorics import ExponentVector, _check_enum_n
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
_SADDLE_MAXITER = 100


@dataclass(frozen=True)
class FractionalParams:
    """Hurst pair (H0, H) with the derived noise constants.

    Requires H0 in (1/2, 1), H in (0, 1/2), H0 + H > 3/4, and c_H and H/2
    above 0 (H >= 1e-323).  b_H0 is the constant of the external
    convolution inequality, never pinned by the theory (default 1); only
    `term_bound` reads it, as a factor b_H0^n.
    """

    H0: float
    H: float
    b_H0: float = 1.0

    def __post_init__(self):
        _check_real(H0=self.H0, H=self.H, b_H0=self.b_H0)
        if not (0.5 < self.H0 < 1.0):
            raise ValidationError(f"H0 must be in (1/2, 1), got {self.H0}")
        if not (0.0 < self.H < 0.5):
            raise ValidationError(f"H must be in (0, 1/2), got {self.H}")
        if not (self.H0 + self.H > 0.75):
            raise ValidationError(f"H0 + H must exceed 3/4, got {self.H0 + self.H}")
        if not (0 < self.b_H0 < math.inf):
            raise ValidationError(f"b_H0 must be finite and > 0, got {self.b_H0}")
        # at H = 5e-324 both underflow, and the logs and divisions of the
        # chain would end in bare math errors
        if self.c_H == 0.0 or self.H / 2.0 == 0.0:
            raise ValidationError(f"H={self.H!r} is too small: c_H or H/2 underflows to 0")

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
    a size that is not an int is a ValidationError, a negative one a SizeError."""
    _check_int("size", size)
    if size < 0:
        raise SizeError(f"grid size must be >= 0, got {size}")
    return [FractionalParams(float(H0), float(H)) for H0 in np.linspace(0.56, 0.94, size)
            for H in np.linspace(0.05, 0.45, size) if H0 + H > 0.75 + 1e-9]


def spatial_exponents(a, params: FractionalParams) -> np.ndarray:
    """alpha_j = (1 - 2H) a_j, for a vector (or ExponentVector) or a matrix."""
    _check_params(params)
    return (1.0 - 2.0 * params.H) * _real_array(a, "a must be an array of real numbers")


def _alpha_tilde_first(alpha_1, params: FractionalParams):
    """alpha~_1 = (4H-3+alpha_1)/(4H0), for a float or elementwise."""
    return (4.0 * params.H - 3.0 + alpha_1) / (4.0 * params.H0)


def _beta_tilde(alpha, params: FractionalParams):
    """beta~_j = -(alpha_j+1)/(4H0), for a float or elementwise."""
    return -(alpha + 1.0) / (4.0 * params.H0)


def _tilde_matrix(alpha: np.ndarray, params: FractionalParams):
    """The tilde exponents (alpha~, beta~) along the last axis of the
    spatial exponents alpha: alpha~_1 and beta~_j by `_alpha_tilde_first`
    and `_beta_tilde`, alpha~_j = (4H-2+alpha_{j-1}+alpha_j)/(4H0) for j >= 2."""
    at = np.empty_like(alpha)
    at[..., 0] = _alpha_tilde_first(alpha[..., 0], params)
    at[..., 1:] = (4.0 * params.H - 2.0 + alpha[..., :-1] + alpha[..., 1:]) / (4.0 * params.H0)
    return at, _beta_tilde(alpha, params)


def verify_ab_condition(
    alpha_tilde: Sequence[float],
    beta_tilde: Sequence[float],
    alpha: Sequence[float],
) -> bool | np.ndarray:
    """sigma_k + alpha_{k+1} > 0 for all k < n, with sigma_k =
    sum_{i<=k}(alpha~_i + beta~_i) + k + 1 (`simplex_integrals._sigma`).

    Vectors run along the last axis: one vector gives a bool, an (m, n)
    batch gives a bool array of shape (m,).  An input that is not an array
    of real numbers (`errors._real_array`) raises ValidationError, a
    partial sum of the tilde exponents that is not finite DomainError.

    On the exponents of every a in A_n it holds, for every n: sigma_k =
    theta_k(d_{k-1}) rises with k, by (4H0+4H-3)/(4H0) + a_{k-1}(1-2H)/(4H0)
    > 0 as H0 + H > 3/4 (`_theta`), and alpha_{k+1} >= 0, so for n >= 2 the
    least margin over A_n is theta_1 = (2H0+H-1)/H0 > 0, at d_1 = 1,
    d_2 = 0 (`_min_ab_margins` gives it in closed form).
    """
    at, bt, al = (np.atleast_1d(_real_array(v, "exponents must be arrays of real numbers"))
                  for v in (alpha_tilde, beta_tilde, alpha))
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


def _min_ab_margins(n_max: int, params: FractionalParams) -> np.ndarray:
    """min over a in A_n and k < n of sigma_k + alpha_{k+1}, n = 2..n_max,
    in O(n_max): the margin theta_k(d_{k-1}) + (1-2H)(1 + d_{k+1} - d_k)
    sees three offsets, each triple legal but d_0 = 1 and, at k = n-1, d_n = 1."""
    d = np.array([0.0, 1.0])
    k = np.arange(1, n_max)[:, None, None, None]
    # axes (k, d_{k-1}, d_k, d_{k+1}), with d_0 = 0
    m = _theta(k, d[:, None, None], params) + (1.0 - 2.0 * params.H) * (1.0 + d - d[:, None])
    m = np.where((k == 1) & (d[:, None, None] == 1.0), np.inf, m)
    inner = np.minimum.accumulate(m.min(axis=(1, 2, 3)))  # over k' <= k
    return np.minimum(np.concatenate(([np.inf], inner[:-1])), m[..., 0].min(axis=(1, 2)))


def _gamma_factor_args(n: int, params: FractionalParams) -> list[float]:
    """The ln Gamma arguments of the gamma factors k = 1..n-1, c = (1-2H)/(4H0):
    theta_k and theta_k + c (d_{k+1} - d_{k-1}) for d_{k+1} = 0, 1, flat in
    the order [k-1, d_{k-1}, (theta_k, at d_{k+1} = 0, at d_{k+1} = 1)]."""
    c = (1.0 - 2.0 * params.H) / (4.0 * params.H0)
    args = []
    for k in range(1, n):
        for d_prev in (0, 1):
            th = _theta(k, d_prev, params)
            args += (th, th + c * (0 - d_prev), th + c * (1 - d_prev))
    if min(args, default=1.0) <= 0:
        raise EstimationError(
            "non-positive gamma argument in gamma_n; parameter validation bug"
        )
    return args


def _gamma_factor_table(log_gammas: list[float]) -> list:
    """g[k-1][d_{k-1}][d_{k+1}] = ln Gamma(theta_k + c (d_{k+1} - d_{k-1}))
    - ln Gamma(theta_k), k = 1..n-1, from the list of ln Gamma at
    `_gamma_factor_args(n, .)`: the log gamma factors of gamma_n, as
    (n-1) x 2 x 2 nested lists of floats."""
    lg = log_gammas
    return [[[lg[i + 1] - lg[i], lg[i + 2] - lg[i]] for i in (j, j + 3)]
            for j in range(0, len(lg), 6)]


def _check_params(params) -> None:
    if not isinstance(params, FractionalParams):
        raise ValidationError(
            f"params must be a FractionalParams, got {type(params).__name__}"
        )


def _log_gamma_rows(n_max: int, params: FractionalParams):
    """Yield log gamma_n over A_n for n = 1..n_max, each a 1-d array in
    the row order of `exponent_matrix(n)`, from one factor table g.

    s holds the sums of factors 1..n-1 over the prefixes d_1..d_n, with
    axes (d_1..d_{n-2}, d_{n-1}, d_n); factor n adds g[n-1, d_{n-1},
    d_{n+1}] as it appends d_{n+1}.  The rows of A_n are the prefixes
    with d_n = 0, and every row is 0.0 + g_1 + g_2 + ... in k order.
    """
    g = np.array(_gamma_factor_table(_sp.gammaln(_gamma_factor_args(n_max, params)).tolist()))
    s = np.zeros((1, 1, 2))  # n = 1: the middle axis is d_0 = 0 alone
    for n in range(1, n_max + 1):
        yield s[..., 0].ravel()
        if n < n_max:
            s = (s[..., None] + g[n - 1, :s.shape[1], None, :]).reshape(-1, 2, 2)


def gamma_n(a, params: FractionalParams) -> float:
    """The gamma-ratio product gamma_n(a), computed in log space.

    Its log is the sum of the factor-table entries the offsets of a pick,
    added in k order from 0.0 as `gamma_n_matrix` adds them.
    gamma_n(1, ..., 1) = 1; other vectors can give values above 1.
    """
    _check_params(params)
    if not isinstance(a, ExponentVector):
        a = ExponentVector(tuple(a))
    g = _gamma_factor_table(_sp.gammaln(_gamma_factor_args(a.n, params)).tolist())
    log_g = 0.0
    for k in range(1, a.n):
        log_g += g[k - 1][a.d[k - 1]][a.d[k + 1]]
    return float(np.exp(log_g))


def gamma_n_matrix(n: int, params: FractionalParams) -> np.ndarray:
    """gamma_n over all of A_n (rows in lexicographic order), the last yield
    of `_log_gamma_rows`; the maximum equals `term_bound`'s gamma_n."""
    _check_enum_n(n)
    _check_params(params)
    for log_g in _log_gamma_rows(n, params):
        pass
    return np.exp(log_g)


@dataclass(frozen=True)
class ChaosTermBound:
    """Bound on E|J_n(t,x)|^2 with the J0^2 prefactor stripped.

    gamma_n records the maximum of the gamma product over A_n.  The
    diagonal path gives exactly 1, but paths dropping off the diagonal at
    the right end can exceed 1, so this field is only guaranteed positive.
    """

    n: int
    gamma_n: float
    log_bound: float
    time_exponent: float

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
    """log(sum(exp(a))) of a 1-d float array with a finite maximum, as
    the largest value a_max plus log m plus log1p of s / m, where m
    entries equal a_max and s is the sum of exp(a_j - a_max) over the
    others: the largest terms leave the sum, so a sum that is mostly
    those terms keeps its low digits.  Where the maximum is unique (m = 1,
    log m = 0) these are the steps of scipy.special.logsumexp, so the
    bits are its bits; where it is tied, the error stays within scipy's
    plus an ulp of the larger of a_max and the result.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    e = np.exp(a - a_max)
    e[top] = 0.0
    return float(a_max + math.log(m) + np.log1p(np.sum(e) / m))


def _term_log_gammas(n: int, params: FractionalParams):
    """ln Gamma at every argument of `term_bound` at order n, from one
    gammaln evaluation, as Python floats (the factors are listed in
    `_log_term_sums`): log_entry[d_{k-1}][d_k] = ln Gamma(beta~_k + 1)
    + ln Gamma((1+alpha_k)/2) / (2H0), log_first[d_1] = ln Gamma(alpha~_1
    + 1), the factor table, log_last[d_{n-1}] = ln Gamma(|alpha~| + |beta~|
    + n + 1) with a_n = 1 - d_{n-1}, and log_fact = ln Gamma(n + 1).  The
    arguments come from their owners (`spatial_exponents` for a_k = 0, 1,
    2, `_beta_tilde`, `_alpha_tilde_first`, `_gamma_factor_args`); the
    finish's |alpha~| + |beta~| is written here alone.
    """
    alpha = spatial_exponents((0.0, 1.0, 2.0), params).tolist()  # by a_k
    lg = _sp.gammaln(
        [_beta_tilde(al, params) + 1.0 for al in alpha]  # [0:3], by a_k
        + [(1.0 + al) / 2.0 for al in alpha]  # [3:6], by a_k
        + [_alpha_tilde_first(alpha[a], params) + 1.0 for a in (1, 2)]  # [6:8], by d_1
        + [(2.0 * n * (params.H - 1.0) - 1.0 - alpha[a]) / (4.0 * params.H0) + n + 1.0
           for a in (1, 0)]  # [8:10], by d_{n-1}
        + [n + 1.0]  # [10]
        + _gamma_factor_args(n, params)  # [11:]
    ).tolist()
    entry = [b + g / (2.0 * params.H0) for b, g in zip(lg[:3], lg[3:6])]
    log_entry = [[entry[1], entry[2]], [entry[0], entry[1]]]
    return log_entry, lg[6:8], _gamma_factor_table(lg[11:]), lg[8:10], lg[10]


def _log_term_sums(log_entry, log_first, table):
    """Yield, for n = 1..len(table) + 1, the state of one forward pass that
    `_finish_term_sum` turns into the log of the sum over A_n inside the
    per-order bound (before the 2H0 power) at t = 1 and the largest
    gamma_n over A_n, from the ln Gamma values of `_term_log_gammas`.

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
    The pass over the states (d_{k-1}, d_k) sums all 2^{n-1} summands by
    log-sum-exp and maximizes the gamma factors alone by max-plus; order
    n's state, (log sums, log gamma maxima) indexed [d_{n-1}][d_n], comes
    after n-1 steps.  A finish (one `_logsumexp`) costs about three steps,
    so callers finish only the orders they take.

    The states are 2x2 nested lists of Python floats: on 2x2 arrays each
    numpy call costs about 1 us of dispatch for four additions, and a step
    took about 13 us, now about 3 us (2-core Xeon, Python 3.11.7, numpy
    2.4.6).  Each step makes one `np.logaddexp` call on the four pairs,
    the elementwise function the array pass called, so the sums keep
    numpy's bits by construction; a max of two floats that are not nan
    is the same float in Python and in numpy.
    """
    (e00, e01), (e10, e11) = log_entry
    inf = math.inf
    log_sum = [[log_first[0] + e00, log_first[1] + e01], [-inf, -inf]]  # d_0 = 0
    log_gam = [[0.0, 0.0], [-inf, -inf]]
    yield log_sum, log_gam
    for (g00, g01), (g10, g11) in table:
        # [d_k][d_{k+1}], through d_{k-1} = 0 or 1: order k+1's state
        (a0, a1), (b0, b1) = log_sum
        s00, s01, s10, s11 = np.logaddexp((a0 + g00, a0 + g01, a1 + g00, a1 + g01),
                                          (b0 + g10, b0 + g11, b1 + g10, b1 + g11)).tolist()
        log_sum = [[s00 + e00, s01 + e01], [s10 + e10, s11 + e11]]
        (a0, a1), (b0, b1) = log_gam
        log_gam = [[max(a0 + g00, b0 + g10), max(a0 + g01, b0 + g11)],
                   [max(a1 + g00, b1 + g10), max(a1 + g01, b1 + g11)]]
        yield log_sum, log_gam


def _finish_term_sum(n: int, log_sum, log_gam, log_last, params: FractionalParams):
    """(log sum, max gamma_n) of order n from its state in `_log_term_sums`
    and log_last of `_term_log_gammas(n, .)`: d_n = 0, so the last factor
    reads d_{n-1} alone."""
    log_total = (_logsumexp(np.array([log_sum[0][0] - log_last[0], log_sum[1][0] - log_last[1]]))
                 + n / (2.0 * params.H0) * math.log(params.c_H))
    return log_total, float(np.exp(max(log_gam[0][0], log_gam[1][0])))


def term_bound(
    n: int,
    t: float,
    params: FractionalParams,
    mode: str = "exact-constants",
) -> ChaosTermBound:
    """Per-order bound on E|J_n(t,x)|^2 / J0^2(t,x).

    The bound sums over all 2^{n-1} members of A_n, carrying every gamma
    and spectral constant of the chain (n <= 30); the sum is the O(n) pass
    of `_log_term_sums` over the gamma factor table behind `gamma_n`, so
    its gamma_n is `gamma_n_matrix(n, params).max()` exactly.  mode must be
    "exact-constants" (DomainError otherwise).  The asymptotic form
    C^n (n!)^{-H} t^{n(2H0+H-1)} of this bound enters the moment series
    through its square root, the term that `log_chaos_series` sums.
    """
    _check_int("n", n)
    _check_real(t=t)
    _check_params(params)
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
    log_entry, log_first, table, log_last, log_fact = _term_log_gammas(n, params)
    *_, state = _log_term_sums(log_entry, log_first, table)  # order n's state, the last
    log_sum, max_gamma = _finish_term_sum(n, *state, log_last, params)
    log_b = (
        n * math.log(params.b_H0)
        + (2.0 * params.H0 - 1.0) * log_fact
        + 2.0 * params.H0 * log_sum
        + time_exp * math.log(t)
    )
    return ChaosTermBound(n, max_gamma, log_b, time_exp)


def stirling_lb_check(a: float, C: float) -> int:
    """First n where Gamma(a n + 1) >= C^n (n!)^a holds through n = 500.

    Checked in log space over n = 1..500 for finite a, C > 0.  Raises
    EstimationError where a side's log leaves the floats (a above about
    5e302) or the inequality fails for every suffix (C chosen too large).
    """
    _check_real(a=a, C=C)
    if not (0 < a < math.inf):
        raise DomainError(f"a must be finite and > 0, got {a}")
    if not (0 < C < math.inf):
        raise DomainError(f"C must be finite and > 0, got {C}")
    ns = np.arange(1.0, 501.0)
    with np.errstate(over="ignore"):  # past the floats is inf, first at n = 500
        lhs = _sp.gammaln(a * ns + 1.0)
        rhs = ns * math.log(C) + a * _sp.gammaln(ns + 1.0)
    if not (np.isfinite(lhs[-1]) and np.isfinite(rhs[-1])):
        raise EstimationError(f"a side leaves the floats by n = 500 for a={a}")
    holds = lhs >= rhs
    # first index from which the inequality holds through the end
    suffix_ok = np.flip(np.cumprod(np.flip(holds.astype(bool))))
    idx = np.nonzero(suffix_ok)[0]
    if idx.size == 0:
        raise EstimationError(
            f"Gamma(a n+1) >= C^n (n!)^a fails through the whole range "
            f"for a={a}, C={C}"
        )
    return int(ns[idx[0]])


def _saddle(L: float, a: float, hi: float) -> float:
    """The root of L - a psi(v+1) on [1e-9, hi], with the bits of
    scipy.optimize.brentq (scipy 1.17.1) at xtol 2e-12, rtol 4 eps and 100
    iterations, without its Python wrapper.

    It repeats the steps of scipy's brentq.c in Python floats: from the
    best point xcur, the previous point xpre and the contrapoint xblk
    across the sign change, an inverse quadratic or linear step where it
    is short enough, and bisection otherwise.  Where C divides by zero,
    its step is +-inf or nan, which fails the step test, so this bisects
    there too.  A bracket without a sign change, or no convergence within
    the iterations, raises EstimationError.
    """
    xtol, rtol = 2e-12, 4.0 * sys.float_info.epsilon
    psi = _sp.psi  # the function is inlined as L - a * psi(v + 1)
    xpre, xcur = 1e-9, hi
    fpre, fcur = L - a * float(psi(xpre + 1.0)), L - a * float(psi(xcur + 1.0))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise EstimationError("the moment series' saddle bracket has no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_SADDLE_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.nan
            limit = 3 * abs(sbis) - delta  # C's MIN(|spre|, 3 |sbis| - delta)
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = L - a * float(psi(xcur + 1.0))
    raise EstimationError(
        f"the saddle of the moment series did not converge in {_SADDLE_MAXITER} steps")


def log_chaos_series(
    p: float,
    t: float,
    params: FractionalParams,
    C: float,
) -> tuple[float, int]:
    """log of sum_{n>=0} (p-1)^{n/2} C^{n/2} (n!)^{-H/2} t^{n(2H0+H-1)/2}.

    Terms have the form exp(f(n)), f(x) = x L - a ln Gamma(x+1), a = H/2,
    a log-concave bump around the saddle n* (f'(n*) = 0) of width
    w = sqrt(max(n*, 1)/a).  Where e^{L/a} > 2, n* solves L = a psi(n*+1)
    on [1e-9, max(4 e^{L/a}, 10)] by `_saddle`, which repeats the steps of
    scipy's brentq in Python floats and returns its bits; otherwise
    n* = e^{L/a}.  Returns (log_sum, peak_index), the peak index being the
    integer n of the largest term, but in Laplace's branch int(n*), within 1
    of that n (floor(n*) or floor(n*) + 1).  The sums keep the terms
    within e^-40 (about 1e-16) of the largest and add them by `_logsumexp`,
    the largest term plus log1p of the others relative to it.  Where the
    bump lies decides the rule, with edges n* - 9w - 50 (left) and
    n* + 12w + 50:
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
        f(n*) + ln(2 pi / k) / 2 with the curvature k = -f''(n*) =
        a psi'(n*+1) = a zeta(2, n*+1) (the bits of scipy's polygamma(1, .),
        which computes that zeta), and a relative error O(1/n*), far below
        the fit tolerances it feeds.
    What remains is rounding: the node values n L and a ln n! are about
    ln n* times larger than log S, and log S moves by n* ulp(L) with the
    rounding of L (d log S / dL = n*).  Against a 30-digit sum both rules
    err by a few ulps of log S, and they agree to 12 ulps on 17,820
    cases of the admissible grid.
    """
    _check_real(p=p, t=t, C=C)
    _check_params(params)
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
        n_star = _saddle(L, a, max(4.0 * n_star, 10.0))
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
        curvature = a * float(_sp.zeta(2.0, n_star + 1.0))  # a psi'(n* + 1)
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

    Values are carried in logs; the plain properties overflow to inf for
    large (p, t).
    """

    log_series_value: float
    log_envelope_value: float

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


def _lowest_vertex(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(ln C1, C2) minimising ln C1 + C2 * mean(u) s.t. ln C1 + C2 u_i >= v_i.

    Candidates are the vertices of the constraint lines: for each i, in
    order, (v_i, 0), (0, v_i / u_i) and the intersections with every
    line k > i of a different slope.  Each i's block of candidates is
    tested in one numpy pass (relative feasibility slack 1e-9) and its
    first minimum replaces the best so far only if strictly lower, so the
    result is that of testing the candidates one by one.

    Blocks come only from points near the upper hull h of the points
    (monotone chain), partners k from all.  For u >= 0 (else all points
    stay) and e = 2^-53, a candidate of block j meets (u_j, v_j) up to
    e|v_j| + 2.01e C2 u_j.  Passing the test (rounding 2.01e(|ln C1| +
    C2 u_k)) puts it above each chord of h less slack and rounding, and
    bounds C2 <= 2(|v_j| + |v_0|) / (u_j - u_0) by the leftmost vertex.
    With np.interp's rounding, v_j >= h(u_j) - Q_j (2e-9 + 1e-14 u_j /
    (u_j - u_0)) with twofold room, Q_j = M_j + |v_a| + |v_j| + |v_0| + 1
    (M_j the chord's |v| at u_j, v_a its left end, 1 for underflow); the
    points below are dropped (at (0.75, 0.3), C = 4, 279 of the bench
    grid's 300).  An infinite C2 never wins: (max v, 0) is feasible.
    """
    hull = []
    for pt in sorted(zip(u.tolist(), v.tolist()), key=lambda pt: (pt[0], -pt[1])):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        if not hull or hull[-1][0] < pt[0]:
            hull.append(pt)
    hu, hv = np.array(hull).T
    a = np.maximum(np.searchsorted(hu, u) - 1, 0)
    q = np.interp(u, hu, np.abs(hv)) + np.abs(hv[a]) + np.abs(v) + abs(hv[0]) + 1.0
    du = u - hu[0]
    far = (np.interp(u, hu, hv) - v) * du > q * (2e-9 * du + 1e-14 * u)
    rhs = v - 1e-9 * np.abs(v)
    mean_u = float(np.mean(u))
    best = None
    for i in np.flatnonzero(~far | (hu[0] < 0)):
        k = np.arange(i + 1, len(u))
        k = k[~(np.abs(u[i] - u[k]) < 1e-12)]
        pair_c2 = (v[i] - v[k]) / (u[i] - u[k])
        c2 = np.concatenate(([0.0, v[i] / u[i] if u[i] > 0 else 0.0], pair_c2))
        c1_log = np.concatenate(([v[i], 0.0], v[i] - pair_c2 * u[i]))
        hits = np.flatnonzero(c2 >= 0)
        hits = hits[np.all(c1_log[hits, None] + c2[hits, None] * u >= rhs, axis=1)]
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
    len(t_grid)).  Raises ValidationError for an empty grid or one that is
    not a sequence of real numbers."""
    p_grid, t_grid = _real_sequence("p_grid", p_grid), _real_sequence("t_grid", t_grid)
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
    C: float,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> tuple[float, float]:
    """Witness constants (C1, C2) with envelope >= series on the grid.

    The constraint set is ln C1 + C2 g(p,t)/p >= log_sum(p,t), linear in
    (ln C1, C2); the returned pair minimizes ln C1 + C2 * mean(g/p) over
    the vertices of the feasible region (`_lowest_vertex`), so the
    envelope is tight somewhere on the grid rather than inflated.

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
    C: float,
    *,
    constants: tuple[float, float],
) -> MomentBoundResult:
    """The p-th moment bound: series value and exponential envelope.

    series_value = [J0(t,x) * sum_n ((p-1)C)^{n/2} (n!)^{-H/2}
    t^{n(2H0+H-1)/2}]^p; the envelope is C1^p J0^p exp(C2 p^{(H+1)/H}
    t^{(2H0+H-1)/H}) with the witness constants (C1, C2) of
    `fit_envelope_constants` (a tuple or list of two real numbers, C1
    finite and > 0, C2 finite; DomainError or ValidationError otherwise).
    """
    log_sum, _ = log_chaos_series(p, t, params, C)
    if not (isinstance(constants, (tuple, list)) and len(constants) == 2):
        raise DomainError(f"constants must be a pair (C1, C2), got {constants}")
    C1, C2 = constants
    _check_real(C1=C1, C2=C2)
    if not (0 < C1 < math.inf and math.isfinite(C2)):
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
    return MomentBoundResult(log_series, log_env)


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
    C: float = 4.0,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> float:
    """Least-squares slope of ln(log-series-sum) against ln t, at p = 2.

    For t deep enough in the growth regime this approaches
    (2H0+H-1)/H, the t-exponent inside the exponential envelope.
    """
    ts = np.asarray(_real_sequence("t_grid", t_grid), dtype=float)
    return _log_log_slope(ts, [log_chaos_series(2.0, t, params, C)[0] for t in ts])


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
    ps = np.asarray(_real_sequence("p_grid", p_grid), dtype=float)
    return _log_log_slope(
        ps - 1.0, [p * log_chaos_series(p, t, params, C)[0] for p in ps]
    )
