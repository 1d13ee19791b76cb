"""Ordered-simplex power integrals and the Gaussian spectral integral.

The central object is

    I_n(t, alpha, beta) = int_{0<t_1<...<t_n<t} prod_i t_i^{alpha_i}
                          (t_{i+1}-t_i)^{beta_i} dt,   t_{n+1} = t,

which has a closed form as a ratio of gamma factors times a product of
gamma ratios, valid when alpha_1 > -1, beta_i > -1 and the cumulative
positivity conditions hold.  Everything is evaluated in log space (scipy's
gammaln).  Its ln Gamma terms can cancel, as can the two of the Gaussian
spectral integral, so both raise where their rounding bound exceeds 1e-6.

Two independent brute-force oracles (nested quadrature, importance-
sampled Monte Carlo) are provided for verification; neither touches the
gamma-function closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln, psi

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .errors import _check_int, _check_real, _exp_or_inf, _in_float_range

__all__ = [
    "SimplexIntegralSpec",
    "ConditionReport",
    "check_conditions",
    "closed_form",
    "log_closed_form",
    "gaussian_spectral_integral",
    "brute_force",
    "BruteForceResult",
]

# the rounding allowance per quadrature factor, relative (4 ulps)
_ROUNDING_EPS = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SimplexIntegralSpec:
    """(t, alpha-vector, beta-vector) describing one integral I_n; each
    value must be a real number (ValidationError), kept as a float."""

    t: float
    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        _check_real(t=self.t)
        object.__setattr__(self, "t", float(self.t))
        for name in ("alphas", "betas"):
            given = getattr(self, name)
            try:
                values = tuple(given)
            except TypeError:
                raise ValidationError(f"{name} must be a sequence, got {given!r}") from None
            _check_real(**{f"{name}[{i}]": v for i, v in enumerate(values)})
            object.__setattr__(self, name, tuple(map(float, values)))
        if len(self.alphas) != len(self.betas) or not self.alphas:
            raise ValidationError(
                "alphas and betas must be nonempty and of equal length"
            )
        if not (math.isfinite(self.t) and self.t > 0):
            raise DomainError(f"t must be finite and > 0, got {self.t}")

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class ConditionReport:
    """Diagnosis of the closed-form validity conditions."""

    ok: bool
    clause: str | None = None
    k: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_conditions(spec: SimplexIntegralSpec) -> ConditionReport:
    """Check alpha_1 > -1, beta_i > -1, and the cumulative conditions.

    Returns the first violated clause (with its index k where relevant)
    rather than raising.
    """
    a, b = spec.alphas, spec.betas
    if a[0] <= -1:
        return ConditionReport(False, f"alpha_1 > -1 fails (alpha_1={a[0]})")
    for i, bi in enumerate(b):
        if bi <= -1:
            return ConditionReport(
                False, f"beta_{i + 1} > -1 fails (beta_{i + 1}={bi})", i + 1
            )
    with np.errstate(over="ignore"):  # a margin past the floats is +-inf
        margins = _sigma(a, b)[:-1] + a[1:]  # sigma_k + alpha_(k+1), k < n
    bad = np.flatnonzero(margins <= 0)
    if bad.size:
        k = int(bad[0]) + 1
        return ConditionReport(
            False,
            f"cumulative condition fails at k={k}: "
            f"sum_(i<=k)(alpha_i+beta_i)+k+1+alpha_(k+1) = "
            f"{margins[k - 1]:.6g} <= 0",
            k,
        )
    return ConditionReport(True)


def _sigma(alphas, betas) -> np.ndarray:
    """sigma_k = sum_{i<=k}(alpha_i+beta_i) + k + 1, k = 1..n, along the
    last axis of the (alphas, betas) arrays; raises DomainError where a
    sum leaves the finite floats."""
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas, dtype=float)
    k = np.arange(1, a.shape[-1] + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.cumsum(a + b, axis=-1) + k + 1
    # a partial sum past the floats leaves every later one inf or nan, so
    # the last one tells whether any is
    if not np.isfinite(sigma[..., -1]).all():
        bad = tuple(np.argwhere(~np.isfinite(sigma))[0])
        raise DomainError(
            f"alphas and betas must have finite partial sums: "
            f"sum_(i<=k)(alpha_i+beta_i) is {sigma[bad]} at k={bad[-1] + 1}"
        )
    return sigma


def _log_closed_form(spec: SimplexIntegralSpec) -> tuple[float, float]:
    """(log I_n, a first-order bound on its rounding error) from
    log I_n = ln G(alpha_1+1) + sum_i ln G(beta_i+1) - ln G(A+1) + A ln t
    + sum_{k<n} [ln G(sigma_k+alpha_{k+1}) - ln G(sigma_k)], A = sigma_n - 1.
    With u = eps/2 and S the sum of the |ln G| terms and |A ln t|,
    u (3n+12) (S+2n+2) covers the rounding of the sum, of t's power, of each
    ln G value (8u |ln G| + 4u, which the tests check) and of each argument
    made by one addition.  The rounding of the sigma_k, below u (n+3)
    (sum |alpha_i| + |beta_i| + n + 1), is carried through |psi| of the ln G
    terms that take them and |ln t|."""
    report = check_conditions(spec)
    if not report:
        raise ValidationError(report.clause)
    a = np.asarray(spec.alphas)
    b = np.asarray(spec.betas)
    sigma = _sigma(a, b)
    total_exp = float(sigma[-1] - 1)  # |alpha| + |beta| + n
    n, log_t = spec.n, math.log(spec.t)
    cumulative = np.concatenate((sigma[:-1] + a[1:], sigma[:-1], [total_exp + 1.0]))
    # ln Gamma is inf past about 2.5e305, and inf - inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        lg = gammaln(np.concatenate(([a[0] + 1.0], b + 1.0, cumulative)))
        val = float(lg[0] + np.sum(lg[1:n + 1]) - lg[-1]
                    + np.sum(lg[n + 1:2 * n] - lg[2 * n:-1]) + total_exp * log_t)
        size = np.sum(np.abs(lg)) + abs(total_exp * log_t) + 2 * n + 2
        carried = ((n + 3) * (np.sum(np.abs(a) + np.abs(b)) + n + 1)
                   * (np.sum(np.abs(psi(cumulative))) + abs(log_t)))
    return val, float(np.finfo(float).eps / 2 * ((3 * n + 12) * size + carried))


def _checked(val: float, bound: float, what: str = "log I_n") -> float:
    """val, or EstimationError where it is not finite or its bound exceeds 1e-6."""
    if not math.isfinite(val):
        raise EstimationError(f"{what} is not finite ({val}): an exponent is past "
                              "the range of ln Gamma")
    if not bound <= 1e-6:
        raise EstimationError(f"{what} = {val!r} has a rounding bound of {bound:.3g} "
                              "> 1e-6: its ln Gamma terms cancel")
    return val


def log_closed_form(spec: SimplexIntegralSpec) -> float:
    """log I_n(t, alpha, beta) via the gamma-factor closed form; EstimationError
    where it is not finite or its rounding bound exceeds 1e-6."""
    return _checked(*_log_closed_form(spec))


def closed_form(spec: SimplexIntegralSpec) -> float:
    """I_n(t, alpha, beta); see log_closed_form.  Where every log value
    within the rounding bound is below -746 or above 710, it is 0.0 or an
    EstimationError for the float range, whatever the bound."""
    val, bound = _log_closed_form(spec)
    if not (val + bound < -746.0 or val - bound > 710.0):
        val = _checked(val, bound)
    return _in_float_range(_exp_or_inf(val), f"I_n = exp({val})")


def _log_spectral_integral(alpha: float, t: float) -> tuple[float, float]:
    """(ln Gamma(z) - z ln t, z = (1+alpha)/2, and a first-order bound on its
    rounding), as in `_log_closed_form` with u = eps/2: 8u|ln G| + 4u, then
    u(|ln G| + |z ln t|) for the difference, 3u|z ln t| for ln t and the
    product, and u z (|psi(z)| + |ln t|) for z."""
    z = (1.0 + alpha) / 2.0
    lg, z_log_t = float(gammaln(z)), z * math.log(t)
    size = 9.0 * abs(lg) + 4.0 + 5.0 * abs(z_log_t) + z * abs(float(psi(z)))
    return lg - z_log_t, np.finfo(float).eps / 2 * size


def gaussian_spectral_integral(alpha: float, t: float) -> float:
    """int_R e^{-t xi^2} |xi|^alpha dxi = Gamma((1+alpha)/2) t^{-(1+alpha)/2}.

    Raises EstimationError where the value exceeds the float range or, as
    `closed_form` does, where its log's rounding bound exceeds 1e-6.
    """
    _check_real(alpha=alpha, t=t)
    if not (-1 < alpha < math.inf):
        raise DomainError(f"alpha must be finite and > -1, got {alpha}")
    if not (0 < t < math.inf):
        raise DomainError(f"t must be finite and > 0, got {t}")
    val, bound = _log_spectral_integral(alpha, t)
    if math.isfinite(val) and not (val + bound < -746.0 or val - bound > 710.0):
        val = _checked(val, bound, "the log spectral integral")
    return _in_float_range(_exp_or_inf(val), f"the spectral integral = exp({val})")


@dataclass(frozen=True)
class BruteForceResult:
    estimate: float
    error_bound: float
    evaluations: int


def _one(s: float) -> float:
    """The constant integrand 1: against any weight it integrates to the
    weight's mass."""
    return 1.0


def _weighted_constant(
    upper: float, wvar: tuple[float, float], rtol: float
) -> tuple[float, float, int]:
    """(int_0^upper s^wvar[0] (upper - s)^wvar[1] ds, |error estimate|,
    evaluations) by one QUADPACK QAWS call on the constant integrand.
    A QUADPACK message (roundoff, subdivision limit, bad integrand) says
    the error estimate cannot be trusted, so it raises EstimationError."""
    from scipy import integrate as _integrate  # loaded on first use: it is slow
    value, err, info, *message = _integrate.quad(
        _one,
        0.0,
        upper,
        weight="alg",
        wvar=wvar,
        epsabs=0.0,
        epsrel=rtol,
        limit=200,
        full_output=1,
    )
    if message:
        raise EstimationError("QUADPACK: " + " ".join(message[0].split()))
    return value, abs(err), info["neval"]


def _nested_quadrature(spec: SimplexIntegralSpec, rtol: float):
    """I_n as a product of n one-dimensional QAWS integrals.

    A change of variables gives I_{k-1}(u) = I_{k-1}(1) u^{e_{k-1}},
    e_{k-1} = sum_{i<k}(alpha_i+beta_i) + k - 1, so level k contributes
    v_k = int_0^{T_k} u^{alpha_k+e_{k-1}} (T_k-u)^{beta_k} du, with T_k = 1
    for k < n and T_n = t: one QAWS call on `_one`, and no gamma function.
    With d_k QUADPACK's estimate for v_k, the product P_k = P_{k-1} v_k
    has the bound E_k = E_{k-1} (v_k + d_k) + |P_{k-1}| d_k + 4 eps |P_k|.
    The 4 eps covers rounding, which QUADPACK's estimate leaves out: at
    n = 1, on 3000 seeded specs, the error against a 40-digit reference
    reached 3.2 eps relative where the estimate was 0.94 eps.
    """
    value, err, evals, e_prev = 1.0, 0.0, 0, 0.0
    for k, (a, b) in enumerate(zip(spec.alphas, spec.betas), start=1):
        upper = spec.t if k == spec.n else 1.0
        v, d, neval = _weighted_constant(upper, (a + e_prev, b), rtol)
        err = err * (v + d) + abs(value) * d
        value *= v
        err += _ROUNDING_EPS * abs(value)
        evals += neval
        e_prev += a + b + 1.0
    return value, err, evals


def _monte_carlo(spec: SimplexIntegralSpec, samples: int, seed: int):
    """Importance-sampled Monte Carlo on the ordered simplex.

    Parametrizes the simplex by nested ratios s_j = t_j / t_{j+1} in
    (0,1), under which the integrand times the Jacobian factorizes into
    beta-like factors s_j^{p_j-1} (1-s_j)^{q_j-1}.  Each s_j is drawn
    from Beta(min(p_j,1), min(q_j,1)) so every endpoint singularity is
    absorbed into the proposal and the weights stay bounded.
    """
    a = np.asarray(spec.alphas)
    b = np.asarray(spec.betas)
    n = spec.n
    p = np.cumsum(a) + np.concatenate(([0.0], np.cumsum(b)[:-1])) + np.arange(
        1, n + 1
    )
    q = b + 1.0
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValidationError("integrability conditions fail; see check_conditions")
    p_prop = np.minimum(p, 1.0)
    q_prop = np.minimum(q, 1.0)
    rng = np.random.Generator(np.random.Philox(seed))
    s = rng.beta(p_prop, q_prop, size=(samples, n))
    s = np.clip(s, 1e-300, 1.0 - 1e-16)
    log_norm = float(np.sum(betaln(p_prop, q_prop)))
    total_exp = float(np.sum(a) + np.sum(b) + n)
    scale = total_exp * math.log(spec.t) + log_norm
    # a weight or square past the floats is inf or nan; brute_force raises
    with np.errstate(over="ignore", invalid="ignore"):
        # residual exponents after the proposal absorbs the singular parts
        log_w = np.sum(
            (p - p_prop) * np.log(s) + (q - q_prop) * np.log1p(-s), axis=1
        )
        w = np.exp(log_w + scale)
        est = float(np.mean(w))
        stderr = float(np.std(w, ddof=1) / math.sqrt(samples))
    return est, stderr


def brute_force(
    spec: SimplexIntegralSpec,
    method: str = "nested-quadrature",
    budget: int = 200_000,
    rtol: float = 1e-8,
    seed: int = 0,
) -> BruteForceResult:
    """Independent numerical estimate of I_n with an error report.

    ``nested-quadrature`` supports n <= 3; ``monte-carlo`` supports
    n <= 5 with ``budget`` samples.  An estimate whose reported error
    bound misses the target is returned as-is (the error_bound field is
    the contract), never silently tightened.  The seed must be a
    nonnegative integer and quadrature's rtol above 50 machine epsilons.

    error_bound is, for ``nested-quadrature``, an absolute bound on the
    error of the estimate, the product of n QAWS integrals, assembled as
    `_nested_quadrature` states; on 600 seeded specs with n <= 3 (rtol
    1e-8 to 1e-10) it stayed below 7.5e-13 relative and above the error
    against a 40-digit product of Beta functions, which reached 1.5e-15
    relative.  For ``monte-carlo`` it is three standard errors.  Where
    QUADPACK reports a failure, or the estimate or its error bound leaves
    the float range (a weight or its square past it), it raises
    EstimationError.
    """
    _check_int("budget", budget)
    _check_int("seed", seed)
    _check_real(rtol=rtol)
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    report = check_conditions(spec)
    if not report:
        raise ValidationError(report.clause)
    if method == "nested-quadrature":
        if spec.n > 3:
            raise SizeError("nested-quadrature supports n <= 3")
        if not rtol > 50 * np.finfo(float).eps:
            raise ValidationError(f"rtol must exceed 50 machine epsilons, got {rtol}")
        est, err, evals = _nested_quadrature(spec, rtol)
    elif method == "monte-carlo":
        if spec.n > 5:
            raise SizeError("monte-carlo supports n <= 5")
        if budget < 2:
            raise EstimationError("monte-carlo budget must be >= 2")
        est, stderr = _monte_carlo(spec, budget, seed)
        err, evals = 3.0 * stderr, budget
    else:
        raise DomainError(f"unknown method {method!r}")
    if not (math.isfinite(est) and math.isfinite(err)):
        raise EstimationError(f"{method} estimate or error bound leaves the "
                              f"float range: {est}, {err}")
    return BruteForceResult(est, err, evals)
