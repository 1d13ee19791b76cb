"""Monte-Carlo verification of the chaos-norm machinery.

The n-th chaos coefficient of the mild solution, viewed as a function of the
unordered time variables, is supported on the simplex, so its symmetrization
satisfies ``f_tilde(t) = (1/n!) f(sort t)``.  The second moment of the n-th
chaos term is therefore

    E[J_n^2] = n! ||f_tilde||^2
             = n! (1/n!)^2 alpha^n int_{[0,t]^{2n}}
                   prod_j |t_j - s_j|^{2 H0 - 2} psi(sort t, sort s) dt ds
             = (1/n!) alpha^n int_{[0,t]^{2n}} ...,

where ``alpha = H0 (2 H0 - 1)`` is the temporal covariance constant and

    psi(tau, sigma) = int_{R^n} Ff(tau)(xi) conj(Ff(sigma)(xi)) mu^n(dxi),

with ``mu(dxi) = c_H |xi|^{1 - 2H} dxi`` the spectral measure.  The factor
``n!`` from the isometry cancels one ``1/n!`` of the symmetrization square;
only the single ``1/n!`` prefactor above survives.  This bookkeeping is done
once here, in `chaos_norm_estimate`, and nowhere else.

For the initial measures handled here the spatial Fourier transform of the
chaos kernel at sorted times ``tau_1 <= ... <= tau_n`` is an explicit
complex Gaussian,

    Ff(tau)(xi) = A exp(i xi . m - xi^T S xi / 2),

with amplitude A, mean vector m and covariance S depending only on the
measure (Markov/bridge algebra for the heat semigroup):

  * point mass at y0:   A = G(t, x - y0), m_j = y0 + (x - y0) tau_j / t,
                        S_jk = tau_min (t - tau_max) / t   (Brownian bridge);
  * c * Lebesgue:       A = c, m_j = x, S_jk = t - tau_max;
  * Gaussian density N(m0, v0): the point-mass formulas with the time origin
    moved back by v0, i.e. t -> t + v0 and tau_j -> tau_j + v0.

Everything is estimated by importance sampling with explicit densities:

  * t_j uniform on (0, t);
  * s_j | t_j with density proportional to |t_j - s_j|^{2 H0 - 2} on (0, t),
    drawn by inverse CDF (integrable since 2 H0 - 2 > -1);
  * xi_j with density proportional to |xi|^{1 - 2H} exp(-r xi^2), i.e.
    xi^2 ~ Gamma(1 - H, rate r) with a random sign; the rate is adapted per
    sample to r = lambda_min(S_t + S_s) / 4 so the weight
    exp(r |xi|^2 - xi^T (S_t + S_s) xi / 2) stays bounded by
    exp(-r |xi|^2) and the estimator has finite variance.

The smallest eigenvalue that sets the rate is computed by `_lambda_min`.
For n = 1 it is the single entry.  For n = 2 it repeats, in numpy, the
arithmetic LAPACK does for a 2x2 symmetric matrix on the path that
``np.linalg.eigvalsh`` takes (``dsyevd``, whose tridiagonal reduction
leaves a 2x2 matrix as it is, then ``dsterf``): ``dsterf``'s two split
tests, after which the eigenvalues are the diagonal, and otherwise
``dlae2`` on the squared and re-rooted off-diagonal entry.  Each step is
the same correctly rounded IEEE operation on the same operands, in the
same order, so the result is LAPACK's bit for bit, as long as LAPACK is
built without fused multiply-adds there (the tests compare it with
``eigvalsh`` on the sampler's own matrices).  Blocks whose largest entry lies outside
[2^-405, 2^485], where ``dsyevd`` or ``dsterf`` would rescale, and larger n
go to ``eigvalsh`` itself.  The sorts, row sums and the quadratic form are
likewise written as the short column operations that give numpy's bits
for n <= 2.

Draws first, then fixed chunks: each worker stream first draws all its
blocks, in the order the stream has always used them: the uniform times,
the side and distance uniforms of the rough times, the Gamma(1 - H) block
and the sign uniforms.  No draw depends on a computed value (the rate
only rescales the gamma draws afterwards), so the stream is unchanged.
The arithmetic then runs over chunks of a fixed `_CHUNK_ROWS` rows, each
writing its values into one array per worker, which is summed once.
Every step in between acts row by row (ufuncs, the column folds above,
`_lambda_min`), so a row's value has the same bits in whatever chunk it
falls, and ``np.sum`` sees the same array: no result depends on the
chunking.  ``np.einsum`` itself would not do here; it was seen to round
differently on batches of one or two rows, which a last chunk can be.
Memory is the five (samples, n) draw blocks and the value array, so
O(samples * n), plus a chunk working set of about 1.3 MiB at n = 2.

Reproducibility: a single integer seed is expanded through
``SeedSequence(seed).spawn(workers)`` into independent Philox streams, one
per worker; the per-worker batches are always accumulated in worker order,
so the result depends only on (seed, workers, samples), never on timing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .chaos_bounds import FractionalParams, _exp_or_inf, term_bound
from .initial_data import (
    DiracAt,
    GaussianDensity,
    InitialMeasure,
    LebesgueConstant,
)

MAX_MC_N = 2


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte-Carlo estimate with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int
    workers: int


@dataclass(frozen=True)
class KernelGaussian:
    """Amplitude / mean / covariance of the Fourier-transformed kernel.

    Batched: ``amp`` has shape (m,), ``mean`` (m, n), ``cov`` (m, n, n).
    """

    amp: np.ndarray
    mean: np.ndarray
    cov: np.ndarray


def _check_inputs(n: int, t: float, params: FractionalParams) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if n > MAX_MC_N:
        raise SizeError(f"n={n} exceeds the Monte-Carlo limit {MAX_MC_N}")
    if not (0 < t < math.inf):
        raise DomainError(f"t must be finite and > 0, got {t}")
    if not isinstance(params, FractionalParams):
        raise ValidationError("params must be a FractionalParams instance")


def kernel_fourier_gaussian(
    sorted_times: np.ndarray, t: float, x: float, measure: InitialMeasure
) -> KernelGaussian:
    """Closed-form Gaussian data of Ff at sorted time rows.

    sorted_times: (m, n) array with nondecreasing rows in (0, t).
    Raises ValidationError for measures without a closed-form transform.
    """
    tau = np.asarray(sorted_times, dtype=float)
    if tau.ndim != 2:
        raise ValidationError("sorted_times must be a 2-d array")
    m, n = tau.shape
    # rows are sorted, so min(tau_j, tau_k) = tau_min(j, k): gathers, no compares
    ar = np.arange(n)
    tmin = tau[:, np.minimum.outer(ar, ar)]
    tmax = tau[:, np.maximum.outer(ar, ar)]
    if isinstance(measure, DiracAt):
        amp = np.full(m, measure.j0(t, x))
        mean = measure.x0 + (x - measure.x0) * tau / t
        cov = tmin * (t - tmax) / t
    elif isinstance(measure, LebesgueConstant):
        amp = np.full(m, measure.c)
        mean = np.full((m, n), float(x))
        cov = t - tmax
    elif isinstance(measure, GaussianDensity):
        v0 = measure.variance
        amp = np.full(m, measure.j0(t, x))
        mean = measure.mean + (x - measure.mean) * (tau + v0) / (t + v0)
        cov = (tmin + v0) * (t - tmax) / (t + v0)
    else:
        raise ValidationError(
            f"no closed-form Fourier kernel for {type(measure).__name__}; "
            "use DiracAt, LebesgueConstant or GaussianDensity"
        )
    return KernelGaussian(amp=amp, mean=mean, cov=cov)


def _rough_times(
    t_cols: np.ndarray, side_u: np.ndarray, dist_u: np.ndarray, t: float, q: float
) -> tuple:
    """s ~ |t_j - s|^{q-1} / Z on (0, t), entrywise; return (s, Z).

    side_u and dist_u are uniform blocks shaped like t_cols: the first picks
    the side of t_j, the second the distance by inverse CDF.  q = 2 H0 - 1
    in (0, 1); Z is the normalizing constant per entry, the weight needed to
    unbias integrals of |t_j - s|^{q-1} against uniform.
    """
    left_mass = t_cols**q
    right_mass = (t - t_cols) ** q
    z = (left_mass + right_mass) / q
    go_left = side_u * (left_mass + right_mass) < left_mass
    dist = dist_u ** (1.0 / q)
    s = np.where(go_left, t_cols * (1.0 - dist), t_cols + (t - t_cols) * dist)
    return s, z


def _spectral_draws(rng, m: int, n: int, H: float) -> tuple:
    """The Gamma(1 - H) block and the sign uniforms behind m rows of xi."""
    return rng.gamma(shape=1.0 - H, scale=1.0, size=(m, n)), rng.random((m, n))


def _spectral_xi(g: np.ndarray, sign_u: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """xi with density |xi|^{1-2H} e^{-r xi^2} / (Gamma(1-H) r^{H-1}), batched.

    g, sign_u: (m, n) blocks from `_spectral_draws`; rate: (m,) per-row
    proposal rate r, which only rescales the gamma draws.
    """
    sign = np.where(sign_u < 0.5, -1.0, 1.0)
    return sign * np.sqrt(g / rate[:, None])


def _sort_rows(x: np.ndarray) -> np.ndarray:
    """np.sort(x, axis=1); a 2-wide row takes one compare-exchange."""
    if x.shape[1] != 2:
        return np.sort(x, axis=1)
    a, b = x[:, 0], x[:, 1]
    return np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Row sums folded left to right over the columns (np.sum's bits, n <= 2)."""
    return functools.reduce(np.add, x.T)


def _quadform(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """vec_i^T mat_i vec_i per row, summed over (j, k) in row-major order.

    The terms (v_j M_jk) v_k and their order are einsum's, so for n <= 2
    the result is np.einsum("ij,ijk,ik->i", vec, mat, vec) bit for bit.
    """
    n = vec.shape[1]
    return functools.reduce(np.add, (vec[:, j] * mat[:, j, k] * vec[:, k]
                                     for j in range(n) for k in range(n)))


# LAPACK's dlamch('E'): the unit roundoff 2^-53
_EPS = 2.0**-53
# dsyevd rescales a matrix whose largest entry is outside [2^-485, 2^485],
# dsterf a 2x2 block outside [2^-405, 2^511 / 3]
_UNSCALED = (2.0**-405, 2.0**485)


def _lambda_min(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric (n, n) matrix in the batch.

    Bit for bit np.linalg.eigvalsh(mats)[:, 0]: see the module docstring.
    The lower triangle is read, as eigvalsh does.
    """
    n = mats.shape[1]
    if n == 1:
        return mats[:, 0, 0]
    if n > 2:
        return np.linalg.eigvalsh(mats)[:, 0]
    a, b, c = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
    abs_a, abs_c = np.abs(a), np.abs(c)
    anorm = np.maximum(np.maximum(abs_a, np.abs(b)), abs_c)
    # a 0 / 0 below falls on a split block (b = 0) or on a row out of range
    # (zero, huge, nan), which eigvalsh recomputes
    with np.errstate(all="ignore"):
        # dsterf: off-diagonal negligible before, or after squaring it
        e = b * b
        split = (np.abs(b) <= np.sqrt(abs_a) * np.sqrt(abs_c) * _EPS) | (
            e <= _EPS**2 * np.abs(a * c)
        )
        # dlae2(a, sqrt(e), c), its arguments swapped when |c| < |a|
        rte = np.sqrt(e)
        sm = a + c
        adf = np.abs(a - c)
        ab = np.abs(rte + rte)
        big, small = np.maximum(adf, ab), np.minimum(adf, ab)
        rt = big * np.sqrt(1.0 + (small / big) ** 2)
        rt1 = np.where(sm < 0.0, 0.5 * (sm - rt), 0.5 * (sm + rt))
        a_first = abs_a > abs_c
        acmx, acmn = np.where(a_first, a, c), np.where(a_first, c, a)
        rt2 = np.where(
            sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (rte / rt1) * rte
        )
        lam = np.where(split, np.minimum(a, c), np.minimum(rt1, rt2))
    rescaled = ~((anorm >= _UNSCALED[0]) & (anorm <= _UNSCALED[1]))
    if rescaled.any():
        lam[rescaled] = np.linalg.eigvalsh(mats[rescaled])[:, 0]
    return lam


def _spawn_streams(seed: int, workers: int) -> list:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers}")
    children = np.random.SeedSequence(int(seed)).spawn(int(workers))
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _worker_counts(samples: int, workers: int) -> list:
    base, extra = divmod(int(samples), int(workers))
    return [base + (1 if i < extra else 0) for i in range(workers)]


# rows per chunk of the per-sample arithmetic (about 1.3 MiB of temporaries
# at n = 2); every step is row by row, so the chunking cannot change a bit
_CHUNK_ROWS = 4096


def _sample_values(
    tt, side_u, dist_u, g, sign_u, t, x, measure, q, h, log_const
) -> np.ndarray:
    """The weighted integrand of `chaos_norm_estimate` at the rows drawn.

    Near the top of the float range (t or x about 1e300) a kernel entry or
    a weight overflows to inf, and inf - inf or inf * 0 downstream gives
    nan.  Such a row's value is inf or nan, which the accumulator check
    reports, or the exact limit exp(-inf) = 0; numpy's overflow and
    invalid flags are therefore silenced here.
    """
    n = tt.shape[1]
    ss, z = _rough_times(tt, side_u, dist_u, t, q)
    with np.errstate(over="ignore", invalid="ignore"):
        gt = kernel_fourier_gaussian(_sort_rows(tt), t, x, measure)
        gs = kernel_fourier_gaussian(_sort_rows(ss), t, x, measure)
        big_s = gt.cov + gs.cov
        rate = np.maximum(0.25 * _lambda_min(big_s), 1e-300)
        xi = _spectral_xi(g, sign_u, rate)
        log_weight = (
            _row_sum(np.log(z))
            + n * (h - 1.0) * np.log(rate)
            + rate * _row_sum(xi**2)
            - 0.5 * _quadform(big_s, xi)
        )
        return (
            gt.amp
            * gs.amp
            * np.cos(_row_sum(xi * (gt.mean - gs.mean)))
            * np.exp(log_const + log_weight)
        )


def chaos_norm_estimate(
    n: int,
    t: float,
    x: float,
    measure: InitialMeasure,
    params: FractionalParams,
    samples: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> EstimatorResult:
    """Importance-sampling estimate of E[J_n^2] = n! ||f_tilde_n||^2.

    One spectral draw per time sample; see the module docstring for the
    densities and weights.  Deterministic in (seed, workers, samples).
    The ``workers`` streams run one after another in this process, so
    ``workers`` changes the result, not the speed.
    """
    _check_inputs(n, t, params)
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    h0, h = params.H0, params.H
    q = 2.0 * h0 - 1.0
    log_const = n * (
        math.log(params.alpha_H0)
        + math.log(params.c_H)
        + math.lgamma(1.0 - h)
        + math.log(t)
    ) - math.lgamma(n + 1.0)

    total = 0.0
    total_sq = 0.0
    count = 0
    for rng, m in zip(_spawn_streams(seed, workers), _worker_counts(samples, workers)):
        if m == 0:
            continue
        # every draw first, in the stream's order: no draw depends on a value
        draws = (
            rng.uniform(0.0, t, size=(m, n)),  # the times
            rng.random((m, n)),  # the side and distance of each rough time
            rng.random((m, n)),
            *_spectral_draws(rng, m, n, h),
        )
        vals = np.empty(m)
        for lo in range(0, m, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            vals[rows] = _sample_values(
                *(d[rows] for d in draws), t, x, measure, q, h, log_const
            )
        del draws  # freed before the next stream draws its blocks
        total += float(np.sum(vals))
        with np.errstate(over="ignore"):
            total_sq += float(np.sum(vals**2))
        count += m
    mean = total / count
    # with both sums finite, mean**2 (at most about total_sq / count, and
    # count >= 2) cannot overflow
    if not math.isfinite(mean) or not math.isfinite(total_sq):
        raise EstimationError("non-finite Monte-Carlo accumulator")
    var = max(total_sq / count - mean**2, 0.0)
    stderr = math.sqrt(var / count)
    return EstimatorResult(mean, stderr, count, int(seed), int(workers))


@dataclass(frozen=True)
class SpectralComparison:
    """Paired estimates of the kernel norm and its Gaussian majorant.

    Both integrals over the spectral measure are estimated from the same
    proposal draws, so their difference has far smaller variance than
    either value alone.
    """

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    diff_stderr: np.ndarray
    sigmas: float

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        # the round-off slack matters in the exact-equality cases, where the
        # paired difference has zero variance
        slack = self.sigmas * self.diff_stderr + 1e-12 * np.abs(self.rhs)
        return bool(np.all(self.lhs <= self.rhs + slack))


def _majorant_form(sorted_times: np.ndarray, t: float) -> np.ndarray:
    """Quadratic form R with sum_k w_k |sum_{j<=k} tau_j xi_j|^2 = xi^T R xi,

    w_k = (tau_{k+1} - tau_k) / (tau_{k+1} tau_k), tau_{n+1} = t.
    Batched over rows of sorted_times.  Raises EstimationError where R is
    not finite, as when tau_{k+1} tau_k underflows to 0 at tiny t.
    """
    tau = np.asarray(sorted_times, dtype=float)
    m, n = tau.shape
    nxt = np.concatenate([tau[:, 1:], np.full((m, 1), t)], axis=1)
    idx = np.maximum(np.arange(n)[:, None], np.arange(n)[None, :])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = (nxt - tau) / (nxt * tau)
        # R_jl = tau_j tau_l * sum_{k >= max(j, l)} w_k
        wtail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        form = tau[:, :, None] * tau[:, None, :] * wtail[:, idx]
    if not np.all(np.isfinite(form)):
        raise EstimationError(f"spectral majorant form is not finite at t={t!r}")
    return form


def verify_lemma32(
    n: int,
    t: float,
    x: float,
    measure: InitialMeasure,
    params: FractionalParams,
    time_samples: int = 32,
    xi_samples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
    sigmas: float = 4.0,
    ordered_times: np.ndarray | None = None,
) -> SpectralComparison:
    """Check the Gaussian majorant of the kernel's spectral norm numerically.

    For random sorted time vectors, estimate both

        lhs = int |Ff(tau)(xi)|^2 mu^n(dxi)   and
        rhs = J0^2 int prod_k exp(-w_k |sum_{j<=k} tau_j xi_j|^2) mu^n(dxi)

    from shared spectral draws and require lhs <= rhs within `sigmas`
    standard errors of the difference.  For n = 1 and a point mass the two
    integrands coincide exactly, which pins down all constants.
    """
    _check_inputs(n, t, params)
    if xi_samples < 1 or (ordered_times is None and time_samples < 1):
        raise DomainError("time_samples and xi_samples must be >= 1, "
                          f"got {time_samples} and {xi_samples}")
    h = params.H
    streams = _spawn_streams(seed, workers)
    if ordered_times is not None:
        tau = np.atleast_2d(np.asarray(ordered_times, dtype=float))
        if tau.shape[1] != n or np.any(np.diff(tau, axis=1) < 0):
            raise ValidationError("ordered_times must be (m, n) with sorted rows")
        if np.any(tau <= 0) or np.any(tau >= t):
            raise DomainError("ordered_times must lie strictly inside (0, t)")
        time_samples = tau.shape[0]
    else:
        tau = np.sort(streams[0].uniform(0.0, t, size=(time_samples, n)), axis=1)
    gk = kernel_fourier_gaussian(tau, t, x, measure)
    rform = _majorant_form(tau, t)
    j0sq = measure.j0(t, x) ** 2
    lam = np.minimum(_lambda_min(2.0 * gk.cov), _lambda_min(2.0 * rform))
    rate = np.maximum(0.25 * lam, 1e-300)
    log_norm = n * (math.log(params.c_H) + math.lgamma(1.0 - h)) + n * (
        h - 1.0
    ) * np.log(rate)

    lhs = np.zeros(time_samples)
    rhs = np.zeros(time_samples)
    dvar = np.zeros(time_samples)
    counts = _worker_counts(xi_samples, len(streams))
    done = 0
    for rng, m in zip(streams, counts):
        if m == 0:
            continue
        for i in range(time_samples):
            xi = _spectral_xi(*_spectral_draws(rng, m, n, h), np.full(m, rate[i]))
            base = np.exp(log_norm[i] + rate[i] * np.sum(xi**2, axis=1))
            a = gk.amp[i] ** 2 * base * np.exp(
                -np.einsum("ij,jk,ik->i", xi, gk.cov[i], xi)
            )
            b = j0sq * base * np.exp(-np.einsum("ij,jk,ik->i", xi, rform[i], xi))
            lhs[i] += float(np.sum(a))
            rhs[i] += float(np.sum(b))
            dvar[i] += float(np.sum((b - a) ** 2))
        done += m
    lhs /= done
    rhs /= done
    diff_stderr = np.sqrt(
        np.maximum(dvar / done - (rhs - lhs) ** 2, 0.0) / done
    )
    return SpectralComparison(tau, lhs, rhs, diff_stderr, sigmas)


@dataclass(frozen=True)
class TermBoundCheck:
    """Monte-Carlo chaos norm against the closed-form per-order bound.

    `minimal_b` is the smallest base constant making the bound hold for
    this estimate: the bound is exactly homogeneous of degree n in the
    constant, so minimal_b = (estimate / bound(b=1))^(1/n).
    """

    n: int
    estimate: EstimatorResult
    bound: float
    minimal_b: float
    passed: bool


def verify_term_bound(
    n: int,
    t: float,
    x: float,
    measure: InitialMeasure,
    params: FractionalParams,
    samples: int = 400_000,
    seed: int = 0,
    workers: int = 1,
) -> TermBoundCheck:
    """Estimate E[J_n^2] / J0^2 and compare with the per-order bound.

    The check passes when the estimate (plus three standard errors) sits
    below the bound evaluated at the configured base constant; the exact
    minimal constant is always reported alongside.  A bound or constant
    above the float range is inf; raises EstimationError where J0(t, x)^2
    underflows to 0.
    """
    est = chaos_norm_estimate(n, t, x, measure, params, samples, seed, workers)
    j0sq = measure.j0(t, x) ** 2
    if j0sq == 0.0:
        raise EstimationError(f"J0(t, x)^2 underflows to 0 at t={t!r}, x={x!r}")
    ratio = est.value / j0sq
    ratio_err = est.stderr / j0sq
    log_b1 = term_bound(
        n, t, FractionalParams(params.H0, params.H, 1.0), mode="exact-constants"
    ).log_bound
    bound = term_bound(n, t, params, mode="exact-constants").bound
    minimal_b = _exp_or_inf((math.log(max(ratio, 1e-300)) - log_b1) / n)
    passed = ratio - 3.0 * ratio_err <= bound
    return TermBoundCheck(n, est, bound, minimal_b, passed)
