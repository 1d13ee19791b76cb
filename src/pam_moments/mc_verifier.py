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

The mean does not depend on the times for c * Lebesgue, and for the
point mass at x = y0 or the Gaussian at x = m0, where 0 times a finite
factor of tau_j is 0.  There the estimator's phase xi . (m(tau) - m(sigma))
is identically zero, a sum of signed zeros whose cosine is exactly 1.0,
and the estimator forms neither the mean differences nor the phase nor
its cosine; the result has the same bits.  That is the case at every
configuration of check_09, check_13 and the CLI's default x; only x away
from the centre forms the phase (about a tenth of a 4096-row chunk's
arithmetic at n = 2).

Everything is estimated by importance sampling with explicit densities:

  * t_j uniform on (0, t);
  * s_j | t_j with density proportional to |t_j - s_j|^{2 H0 - 2} on (0, t),
    drawn by inverse CDF (integrable since 2 H0 - 2 > -1);
  * xi_j with density proportional to |xi|^{1 - 2H} exp(-r xi^2), i.e.
    xi^2 ~ Gamma(1 - H, rate r) with a random sign.  Any r > 0 leaves the
    estimator unbiased; r = lambda_min(S_t + S_s) / 4, per sample, bounds
    the weight exp(r |xi|^2 - xi^T (S_t + S_s) xi / 2) by exp(-r |xi|^2),
    so the estimator has finite variance.

The arithmetic works on columns: a row's n times, rough times and
spectral draws are the n columns of (m, n) blocks, and every step is a
ufunc on whole columns.  Each measure has one covariance formula,
cov(lo, hi) with lo = min(tau_j, tau_k) and hi = max(tau_j, tau_k)
(`_kernel_formulas`).  The test oracle `tests/kernel_oracle.py` applies
it to gathered (m, n, n) arrays of those times; the samplers apply it to
the sorted time columns (at n = 2 the sort is one np.minimum and one
np.maximum) and keep S as its lower triangle of columns, (S_11,) or
(S_11, S_21, S_22).

The smallest eigenvalue that sets the rate is computed by `_lambda_min`
from that triangle: S_11 for n = 1, and for n = 2 the closed form
(S_11 + S_22) / 2 - hypot((S_11 - S_22) / 2, S_21), which the tests
find within 4 ulps of lambda_max from a 50-digit eigenvalue.  Its bits
depend on numpy alone, not on how a linear-algebra library was built,
as none is called.  Row sums fold the columns left to right, and `_quadform` sums
the terms (xi_j S_jk) xi_k of xi^T S xi in row-major (j, k) order: these
are the terms and orders of ``np.sum(axis=1)`` and ``np.einsum``, so for
n <= 2 the bits are theirs (einsum's on batches of four rows or more,
where the tests compare them).  `verify_lemma32` uses the same pieces
with one S and one R per time sample, their entries scalars against the
xi columns.

Draws in the stream's order, a chunk at a time: each worker stream hands
out its blocks in the order it always has: the uniform times, the side
and distance uniforms of the rough times, the Gamma(1 - H) block and the
sign uniforms.  No draw depends on a computed value (the rate only
rescales the gamma draws afterwards).  Philox is counter-based, so a
copy of a stream can start at any 64-bit word (`_positioned`), and a
uniform double takes one word: in a stream of m rows the times are
words 0 to m n - 1, the side uniforms the next m n words, the distance
uniforms the m n after those, and the spectral draws start at word
3 m n.  A gamma draw takes a varying number of words, so the Gamma block
and the sign uniforms are drawn whole, from a copy at word 3 m n.  The
three time blocks are drawn one `_CHUNK_ROWS` chunk at a time, from the
stream itself and from copies at words m n and 2 m n, and are the same
numbers the whole blocks would be.  Each chunk then runs two halves.
The time half (`_time_half`) reads the chunk's time draws: it forms the
rough times, the triangle of S = S_tau + S_sigma, the rate, base =
sum_j log z_j + n (h - 1) log rate, and off the centre the mean
differences.  The xi half (`_xi_half`) reads the chunk's rows of the
spectral blocks and that state: the log weight sum_j log z_j + n (h - 1)
log rate + rate |xi|^2 - xi^T S xi / 2, folded left to right on from
base, its first partial sum, then the weight and the phase.  It writes
its values into one array per worker, which is summed once.  Every step
in between is a ufunc on columns, which acts row by row, so a row's
value has the same bits in whatever chunk it falls, and ``np.sum`` sees
the same array: no result depends on the chunking, nor, in
`verify_lemma32`, on a stream's batch size.  ``np.einsum`` itself would
not do here: it was seen to round differently on batches of one or two
rows, which a last chunk or a small stream's batch can be.  Memory is
the two spectral blocks, the value array and one chunk's working set,
so O(samples * n): the traced peak is 2.65 (samples, n) blocks at the
centre and off it (400k samples, n = 2), where holding all five draw
blocks whole took 5.5 and 6.0.  The chunk working set stays under 1 MiB
at n = 2 (0.88 MiB traced at the centre and 0.94 off it, about thirty
columns of `_CHUNK_ROWS` floats).

Reproducibility: a single integer seed is expanded through
``SeedSequence(seed).spawn`` into independent Philox streams, one per
worker that gets a row (a child does not depend on how many are spawned,
so workers past the rows are not made and change nothing); the batches
are always accumulated in worker order, so the result depends only on
(seed, workers and the sample counts, which every caller states: they
have no defaults), never on timing.  The streams run one after another
on the calling thread, and nothing runs beside them.  A helper thread
that drew a stream's spectral block while the time half ran (numpy
releases the GIL while it fills a block) bought no time on a 2-vCPU
Xeon: the benchmark's mc-verify round took 0.70 s of raw time with it
and 0.69 s without it (medians of 10 alternating pairs), while two
gamma blocks drawn on two threads ran 1.5-1.8x as fast as one after the
other before 9 of those pairs and 1.0x before one.  Other splits did
not pay there either: a 60k-sample n = 2 estimate at two workers ran at
0.57-0.78x the serial speed with each stream's 4096-row chunks on a
2-thread pool, and at 1.06-1.21x with the two streams on two threads
(same bits; medians of 15, three measurements).
So ``workers`` changes the result, not the speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .errors import _check_int, _check_real, _exp_or_inf
from .chaos_bounds import FractionalParams, _check_params, term_bound
from .initial_data import (
    DiracAt,
    GaussianDensity,
    InitialMeasure,
    LebesgueConstant,
)

MAX_MC_N = 2


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte-Carlo estimate with its standard error and sample count."""

    value: float
    stderr: float
    samples: int


def _check_inputs(n: int, t: float, x: float, params: FractionalParams) -> None:
    _check_int("n", n)
    _check_real(t=t, x=x)
    _check_params(params)
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if n > MAX_MC_N:
        raise SizeError(f"n={n} exceeds the Monte-Carlo limit {MAX_MC_N}")
    if not (0 < t < math.inf):
        raise DomainError(f"t must be finite and > 0, got {t}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def _kernel_formulas(t: float, x: float, measure: InitialMeasure) -> tuple:
    """The mean and covariance of Ff for one measure, as functions, and
    whether the mean is fixed.

    mean(tau) gives m_j entrywise from tau_j (a float where m does not
    depend on the times); cov(lo, hi) gives S_jk entrywise from
    lo = min(tau_j, tau_k) and hi = max(tau_j, tau_k).  fixed is True
    where m_j does not depend on tau: always for c * Lebesgue, and for the
    point mass or the Gaussian at x = x0 or x = m0, where m_j is x0 plus 0
    times a finite factor.  There every m(tau) - m(sigma) is exactly 0.
    The amplitude is J0(t, x) for each of these measures.  Raises
    ValidationError for measures without a closed-form transform.
    """
    if isinstance(measure, DiracAt):
        x0 = measure.x0
        return (lambda tau: x0 + (x - x0) * tau / t,
                lambda lo, hi: lo * (t - hi) / t,
                x == x0)
    if isinstance(measure, LebesgueConstant):
        return lambda tau: float(x), lambda lo, hi: t - hi, True
    if isinstance(measure, GaussianDensity):
        m0, v0 = measure.mean, measure.variance
        return (lambda tau: m0 + (x - m0) * (tau + v0) / (t + v0),
                lambda lo, hi: (lo + v0) * (t - hi) / (t + v0),
                x == m0)
    raise ValidationError(
        f"no closed-form Fourier kernel for {type(measure).__name__}; "
        "use DiracAt, LebesgueConstant or GaussianDensity"
    )


def _rough_times(
    t_cols: np.ndarray, side_u: np.ndarray, dist_u: np.ndarray, t: float, q: float
) -> tuple:
    """s ~ |t_j - s|^{q-1} / Z on (0, t), entrywise; return (s, Z).

    side_u and dist_u are uniform blocks shaped like t_cols: the first picks
    the side of t_j, the second the distance by inverse CDF.  q = 2 H0 - 1
    in (0, 1); Z is the normalizing constant per entry, the weight needed to
    unbias integrals of |t_j - s|^{q-1} against uniform.
    """
    right = t - t_cols
    left_mass = t_cols**q
    mass = left_mass + right**q
    z = mass / q
    go_left = side_u * mass < left_mass
    dist = dist_u ** (1.0 / q)
    s = np.where(go_left, t_cols * (1.0 - dist), t_cols + right * dist)
    return s, z


def _spectral_draws(rng, m: int, n: int, H: float) -> tuple:
    """The Gamma(1 - H) block and the sign uniforms behind m rows of xi."""
    return rng.gamma(shape=1.0 - H, scale=1.0, size=(m, n)), rng.random((m, n))


def _spectral_xi(g: np.ndarray, sign_u: np.ndarray, rate) -> list:
    """The columns of xi with density |xi|^{1-2H} e^{-r xi^2} / (Gamma(1-H) r^{H-1}).

    g, sign_u: (m, n) blocks from `_spectral_draws`; rate: the proposal
    rate r, per row (an (m,) array) or one float, which only rescales the
    gamma draws.
    """
    return [np.where(s < 0.5, -1.0, 1.0) * np.sqrt(gj / rate)
            for gj, s in zip(g.T, sign_u.T)]


def _sorted_columns(x: np.ndarray) -> tuple:
    """The columns of np.sort(x, axis=1); a 2-wide row takes one
    compare-exchange."""
    if x.shape[1] != 2:
        return tuple(np.sort(x, axis=1).T)
    a, b = x[:, 0], x[:, 1]
    return np.minimum(a, b), np.maximum(a, b)


def _cov_triangle(cov, cols) -> tuple:
    """The lower triangle (S_11,) or (S_11, S_21, S_22) of the covariance at
    sorted time columns, from a measure's cov(lo, hi)."""
    if len(cols) == 1:
        return (cov(cols[0], cols[0]),)
    lo, hi = cols
    return cov(lo, lo), cov(lo, hi), cov(hi, hi)


def _row_sum(cols) -> np.ndarray:
    """Row sums folded left to right over the columns (np.sum's bits, n <= 2)."""
    return functools.reduce(np.add, cols)


def _quadform(tri, v) -> np.ndarray:
    """v^T M v per row, M symmetric with lower triangle tri, (M_11,) or
    (M_11, M_21, M_22), and v given by its columns.

    The terms (v_j M_jk) v_k are summed in row-major (j, k) order, the
    terms and order of np.einsum: on four rows or more the bits are those
    of np.einsum("ij,ijk,ik->i", v, M, v) with an M per row and of
    np.einsum("ij,jk,ik->i", v, M, v) with one M.  On one or two rows
    einsum rounds differently.
    """
    if len(v) == 1:
        return v[0] * tri[0] * v[0]
    (v0, v1), (a, b, c) = v, tri
    return v0 * a * v0 + v0 * b * v1 + v1 * b * v0 + v1 * c * v1


def _lambda_min(a, b=None, c=None) -> np.ndarray:
    """Smallest eigenvalue of the symmetric matrices with lower triangle
    (a,) or (a, b, c), entries given as columns over the batch: a, or
    the closed form (a + c) / 2 - hypot((a - c) / 2, b), with a and c
    halved before they are summed, so that a + c cannot overflow."""
    if b is None:
        return a
    return 0.5 * a + 0.5 * c - np.hypot(0.5 * a - 0.5 * c, b)


def _worker_streams(seed: int, workers: int, rows: int) -> list:
    """(Philox stream, its rows) of each worker that gets a row, the first
    min(workers, rows), in worker order (see the module docstring)."""
    _check_int("seed", seed)
    _check_int("workers", workers)
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    if workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers}")
    streams = min(int(workers), int(rows))
    base, extra = divmod(int(rows), streams)
    children = np.random.SeedSequence(int(seed)).spawn(streams)
    return [(np.random.Generator(np.random.Philox(c)), base + (1 if i < extra else 0))
            for i, c in enumerate(children)]


# rows per chunk of the time draws and the per-sample arithmetic (under
# 1 MiB at n = 2); the draws come from positioned copies and every step is
# row by row, so the chunking cannot change a bit
_CHUNK_ROWS = 4096


def _time_half(tt, side_u, dist_u, t, kernel, q, h) -> tuple:
    """What the weight of `chaos_norm_estimate` needs from the time draws,
    as columns over the rows drawn: (*S, rate, base, *dm).

    S is the lower triangle of the covariance sum S_tau + S_sigma, rate
    the proposal rate lambda_min(S) / 4 and base = sum_j log z_j +
    n (h - 1) log rate, the first partial sum of the log weight.  dm holds
    m(tau_j) - m(sigma_j) where the kernel's mean is not fixed, and is
    empty where it is (kernel is the (mean, cov, fixed) triple of
    `_kernel_formulas`).  Near the top of the float range (t or x about
    1e300) a kernel entry overflows to inf, and inf - inf downstream gives
    nan; numpy's overflow and invalid flags are therefore silenced here
    and in `_xi_half`.
    """
    n = tt.shape[1]
    mean, cov, fixed = kernel
    ss, z = _rough_times(tt, side_u, dist_u, t, q)
    with np.errstate(over="ignore", invalid="ignore"):
        tau, sig = _sorted_columns(tt), _sorted_columns(ss)
        big_s = [u + v for u, v in zip(_cov_triangle(cov, tau), _cov_triangle(cov, sig))]
        rate = np.maximum(0.25 * _lambda_min(*big_s), 1e-300)
        base = _row_sum(np.log(z).T) + n * (h - 1.0) * np.log(rate)
        dm = [] if fixed else [mean(tj) - mean(sj) for tj, sj in zip(tau, sig)]
    return (*big_s, rate, base, *dm)


def _xi_half(g, sign_u, state, j0, log_const) -> np.ndarray:
    """The weighted integrand of `chaos_norm_estimate` at the samples drawn,
    from the blocks of `_spectral_draws` and the columns of `_time_half`.

    log_weight = base + rate |xi|^2 - xi^T S xi / 2 folds left to right
    on from base, the first partial sum of the weight's whole exponent.
    j0 is J0(t, x), the kernel's amplitude.  Where the mean is fixed (dm
    empty) the phase xi . dm is a sum of signed zeros, its cosine 1.0 and
    (j0 j0) * 1.0 = j0 j0, so neither is formed and the bits are the same
    (xi is finite, or nan with a nan log weight).  A sample whose weight
    overflows is inf or nan, which the accumulator check reports, or the
    exact limit exp(-inf) = 0.
    """
    k = g.shape[1] * (g.shape[1] + 1) // 2
    big_s, (rate, base), dm = state[:k], state[k:k + 2], state[k + 2:]
    with np.errstate(over="ignore", invalid="ignore"):
        xi = _spectral_xi(g, sign_u, rate)
        log_weight = (
            base
            + rate * _row_sum(xj**2 for xj in xi)
            - 0.5 * _quadform(big_s, xi)
        )
        weight = np.exp(log_const + log_weight)
        if len(dm) == 0:
            return j0 * j0 * weight
        phase = _row_sum(xj * dj for xj, dj in zip(xi, dm))
        return j0 * j0 * np.cos(phase) * weight


def _positioned(seed_seq, offset: int):
    """A Generator over the Philox stream seeded by seed_seq, from its
    offset-th 64-bit word on.

    Philox is counter-based: ``advance`` moves its counter by whole blocks
    of four words (and empties the buffer), and ``random_raw`` takes the
    rest.  A uniform double takes one word, so the copy hands out the
    numbers the stream would after its first offset words.
    """
    bits = np.random.Philox(seed_seq)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def _stream_values(rng, m, n, t, kernel, q, h, j0, log_const) -> np.ndarray:
    """The weighted integrand of `chaos_norm_estimate` at one worker
    stream's m samples, from the untouched stream rng.

    The stream's blocks are, in its order, the times, the side and the
    distance uniforms of the rough times (one word per entry each), the
    Gamma(1 - H) block and the sign uniforms.  The last two are drawn
    whole from a copy at word 3 m n; the three time blocks are drawn a
    chunk at a time, from rng itself and from copies at words m n and
    2 m n, and each chunk runs the time half and then the xi half.
    """
    seq = rng.bit_generator.seed_seq
    side, dist = _positioned(seq, m * n), _positioned(seq, 2 * m * n)
    g, sign_u = _spectral_draws(_positioned(seq, 3 * m * n), m, n, h)
    vals = np.empty(m)
    for lo in range(0, m, _CHUNK_ROWS):
        shape = (min(_CHUNK_ROWS, m - lo), n)
        state = _time_half(rng.uniform(0.0, t, size=shape), side.random(shape),
                           dist.random(shape), t, kernel, q, h)
        rows = slice(lo, lo + _CHUNK_ROWS)
        vals[rows] = _xi_half(g[rows], sign_u[rows], state, j0, log_const)
    return vals


def chaos_norm_estimate(
    n: int,
    t: float,
    x: float,
    measure: InitialMeasure,
    params: FractionalParams,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> EstimatorResult:
    """Importance-sampling estimate of E[J_n^2] = n! ||f_tilde_n||^2.

    One spectral draw per time sample; see the module docstring for the
    densities and weights.  Deterministic in (seed, workers, samples).
    The ``workers`` streams run one after another on the calling thread,
    so ``workers`` changes the result, not the speed; each stream draws
    its time blocks a chunk at a time and holds only its spectral blocks
    whole.
    """
    _check_inputs(n, t, x, params)
    _check_int("samples", samples)
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    kernel = _kernel_formulas(t, x, measure)
    j0 = measure.j0(t, x)
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
    for rng, m in _worker_streams(seed, workers, samples):
        vals = _stream_values(rng, m, n, t, kernel, q, h, j0, log_const)
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
    return EstimatorResult(mean, stderr, count)


@dataclass(frozen=True)
class SpectralComparison:
    """Paired estimates of the kernel norm and its Gaussian majorant.

    Both integrals over the spectral measure are estimated from the same
    proposal draws, so their difference has far smaller variance than
    either value alone.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    diff_stderr: np.ndarray

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        # four standard errors of the difference; the round-off slack matters
        # in the exact-equality cases, where the difference has zero variance
        slack = 4.0 * self.diff_stderr + 1e-12 * np.abs(self.rhs)
        return bool(np.all(self.lhs <= self.rhs + slack))


def _majorant_terms(draws, j0sq, log_norm, rate, cov_row, r_row) -> tuple:
    """The weighted integrands of lhs and rhs in `verify_lemma32` at one
    time sample, over the spectral draws (the blocks of `_spectral_draws`).

    cov_row and r_row are the lower triangles of that sample's S and R;
    the amplitude of Ff is J0(t, x), so both sides carry j0sq.
    """
    xi = _spectral_xi(*draws, rate)
    base = np.exp(log_norm + rate * _row_sum(xj**2 for xj in xi))
    return (j0sq * base * np.exp(-_quadform(cov_row, xi)),
            j0sq * base * np.exp(-_quadform(r_row, xi)))


def verify_lemma32(
    n: int,
    t: float,
    x: float,
    measure: InitialMeasure,
    params: FractionalParams,
    time_samples: int,
    xi_samples: int,
    seed: int = 0,
    workers: int = 1,
) -> SpectralComparison:
    """Check the Gaussian majorant of the kernel's spectral norm numerically.

    For `time_samples` sorted time vectors, drawn uniformly on (0, t) from
    the first worker stream, estimate both

        lhs = int |Ff(tau)(xi)|^2 mu^n(dxi)   and
        rhs = J0^2 int prod_k exp(-w_k |sum_{j<=k} tau_j xi_j|^2) mu^n(dxi)

    from `xi_samples` shared spectral draws and require lhs <= rhs within
    four standard errors of the difference.  With w_k = 1/tau_k -
    1/tau_{k+1}, tau_{n+1} = t, the sum telescopes: rhs's exponent is
    xi^T R xi with R_jl = tau_j tau_l sum_{k >= max(j, l)} w_k =
    tau_j tau_l (1/tau_max - 1/t) = tau_min (t - tau_max) / t, the point
    mass's covariance (`_kernel_formulas`).  So for a point mass the two
    integrands are the same floats and every margin is exactly 0.  S - R
    is 0 there, u u^T / t for c * Lebesgue and v0 u u^T / (t (t + v0)) for
    N(m0, v0), u_j = t - tau_j: positive semidefinite, so the rate
    lambda_min(2 R) / 4 bounds both weights.  Raises EstimationError where
    lhs, rhs or the difference's variance is not finite, as at t = 1e-300.
    """
    _check_inputs(n, t, x, params)
    _check_int("time_samples", time_samples)
    _check_int("xi_samples", xi_samples)
    if time_samples < 1 or xi_samples < 1:
        raise DomainError("time_samples and xi_samples must be >= 1, "
                          f"got {time_samples} and {xi_samples}")
    h = params.H
    streams = _worker_streams(seed, workers, xi_samples)
    tau = _sorted_columns(streams[0][0].uniform(0.0, t, size=(time_samples, n)))
    cov, point_cov = (_kernel_formulas(t, x, mu)[1] for mu in (measure, DiracAt(x)))
    j0 = measure.j0(t, x)
    j0sq = j0 * j0  # inf past the float range, where ** 2 raises OverflowError
    lhs, rhs, dvar = np.zeros((3, time_samples))
    # past the float range a sum turns inf or nan; the sums are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        cov_tri, r_tri = _cov_triangle(cov, tau), _cov_triangle(point_cov, tau)
        rate = np.maximum(0.25 * _lambda_min(*(2.0 * e for e in r_tri)), 1e-300)
        log_norm = (n * (math.log(params.c_H) + math.lgamma(1.0 - h))
                    + n * (h - 1.0) * np.log(rate))
        # per time sample: its exponent, rate and the triangles of S and R
        rows = list(zip(log_norm, rate, zip(*cov_tri), zip(*r_tri)))
        for rng, m in streams:
            for i, row in enumerate(rows):
                a, b = _majorant_terms(_spectral_draws(rng, m, n, h), j0sq, *row)
                lhs[i] += float(np.sum(a))
                rhs[i] += float(np.sum(b))
                dvar[i] += float(np.sum((b - a) ** 2))
    if not all(np.all(np.isfinite(v)) for v in (lhs, rhs, dvar)):
        raise EstimationError(f"spectral majorant integrals are not finite at t={t!r}")
    lhs /= xi_samples
    rhs /= xi_samples
    diff_stderr = np.sqrt(np.maximum(dvar / xi_samples - (rhs - lhs) ** 2, 0.0) / xi_samples)
    return SpectralComparison(lhs, rhs, diff_stderr)


@dataclass(frozen=True)
class TermBoundCheck:
    """Monte-Carlo chaos norm against the closed-form per-order bound.

    `minimal_b` is the smallest base constant making the bound hold for
    this estimate: the bound is exactly homogeneous of degree n in the
    constant, so minimal_b = (estimate / bound(b=1))^(1/n).
    """

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
    samples: int,
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
    log_b1 = term_bound(n, t, FractionalParams(params.H0, params.H, 1.0)).log_bound
    bound = term_bound(n, t, params).bound
    minimal_b = _exp_or_inf((math.log(max(ratio, 1e-300)) - log_b1) / n)
    passed = ratio - 3.0 * ratio_err <= bound
    return TermBoundCheck(est, bound, minimal_b, passed)
