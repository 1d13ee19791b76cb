"""The Monte-Carlo sampler's column arithmetic against the matrix form it
replaced, kept here as test-only oracles, and the sampler's floats pinned.

The oracles are the estimator and the lemma check in their matrix form:
np.sort, the gathered (m, n, n) covariance of `kernel_fourier_gaussian`
(`kernel_oracle.py`), the closed-form smallest eigenvalue on those
matrices, ``np.sum(axis=1)`` and ``np.einsum``, each on a stream's whole
batch.  `_lambda_min`, the 2-wide sort, the covariance triangle and the
column folds repeat the operations of those calls in the same order, so
the comparisons are exact (``==``), not within a tolerance; the closed
form itself is checked against a 50-digit eigenvalue.  ``np.einsum``
rounds differently on batches of one or two rows, so the oracles are run
on at least four rows per stream, and the estimate at two samples is
pinned instead; the column form does not depend on the batch size at all.
The lemma check takes R, the majorant's form, as the point mass's
covariance; the Lemma's literal sum over k (`kernel_oracle.majorant_form`)
is checked to equal it exactly in Fractions and within four ulps in floats.
"""

import io
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pam_moments import cli
from pam_moments.acceptance import check_09_mc_oracle_bounds
from pam_moments.chaos_bounds import FractionalParams
from pam_moments.initial_data import DiracAt, GaussianDensity, LebesgueConstant
from pam_moments.mc_verifier import (
    _CHUNK_ROWS,
    _cov_triangle,
    _kernel_formulas,
    _lambda_min,
    _majorant_terms,
    _positioned,
    _quadform,
    _rough_times,
    _row_sum,
    _sorted_columns,
    _spectral_draws,
    _stream_values,
    _time_half,
    _worker_streams,
    _xi_half,
    chaos_norm_estimate,
    verify_lemma32,
)

from kernel_oracle import kernel_fourier_gaussian, majorant_form

MEASURES = {
    "dirac": DiracAt(0.1),
    "lebesgue": LebesgueConstant(1.5),
    "gaussian": GaussianDensity(0.0, 0.5),
}
# an x where each measure's Fourier mean does not depend on the times: the
# point mass and the Gaussian centre, and any x for Lebesgue
CENTRES = {"dirac": 0.1, "lebesgue": -3.0, "gaussian": 0.0}


def _kernel_cov_broadcast(sorted_times, t, measure):
    """The kernel covariance from broadcast np.minimum / np.maximum."""
    tau = np.asarray(sorted_times, dtype=float)
    lo, hi = tau[:, :, None], tau[:, None, :]
    tmin, tmax = np.minimum(lo, hi), np.maximum(lo, hi)
    if isinstance(measure, DiracAt):
        return tmin * (t - tmax) / t
    if isinstance(measure, LebesgueConstant):
        return t - tmax
    v0 = measure.variance
    return (tmin + v0) * (t - tmax) / (t + v0)


def _lower_triangle(mats):
    """The lower triangle (M_11,) or (M_11, M_21, M_22) of (m, n, n) matrices."""
    if mats.shape[1] == 1:
        return (mats[:, 0, 0],)
    return mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]


def _sorted_times_with_ties(rng, m, n, t):
    """Sorted rows uniform on (0, t); every fourth row has tau_1 = tau_2."""
    tau = rng.uniform(0.0, t, size=(m, n))
    if n > 1:
        tau[::4, 1] = tau[::4, 0]
    return np.sort(tau, axis=1)


def _sampler_matrices(rng, measure, t, h0, m=10_000):
    """The 2x2 matrices whose lambda_min the samplers take: S_t + S_s of
    `chaos_norm_estimate`, and 2 R of `verify_lemma32`, R the point
    mass's covariance."""
    tt = rng.uniform(0.0, t, size=(m, 2))
    tt[::4, 1] = tt[::4, 0]
    side_u, dist_u = rng.random(tt.shape), rng.random(tt.shape)
    ss, _ = _rough_times(tt, side_u, dist_u, t, 2.0 * h0 - 1.0)
    ss[1::4, 1] = ss[1::4, 0]
    tau, sig = np.sort(tt, axis=1), np.sort(ss, axis=1)
    cov_t = _kernel_cov_broadcast(tau, t, measure)
    cov_s = _kernel_cov_broadcast(sig, t, measure)
    return np.concatenate([cov_t + cov_s, 2.0 * _kernel_cov_broadcast(tau, t, DiracAt(0.0))])


def _log_const(n, t, params):
    return n * (
        math.log(params.alpha_H0)
        + math.log(params.c_H)
        + math.lgamma(1.0 - params.H)
        + math.log(t)
    ) - math.lgamma(n + 1.0)


def _smallest_eigenvalue(mats):
    """The smallest eigenvalue of each symmetric (m, n, n) matrix, n <= 2,
    in closed form: M_11, or (M_11 + M_22) / 2 - hypot((M_11 - M_22) / 2, M_21)."""
    if mats.shape[1] == 1:
        return mats[:, 0, 0]
    a, b, c = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
    return 0.5 * a + 0.5 * c - np.hypot(0.5 * a - 0.5 * c, b)


def _matrix_form_values(tt, side_u, dist_u, g, sign_u, t, x, measure, params):
    """The weighted integrand of `chaos_norm_estimate` in its matrix form."""
    n, h = tt.shape[1], params.H
    ss, z = _rough_times(tt, side_u, dist_u, t, 2.0 * params.H0 - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gt = kernel_fourier_gaussian(np.sort(tt, axis=1), t, x, measure)
        gs = kernel_fourier_gaussian(np.sort(ss, axis=1), t, x, measure)
        big_s = gt.cov + gs.cov
        rate = np.maximum(0.25 * _smallest_eigenvalue(big_s), 1e-300)
        sign = np.where(sign_u < 0.5, -1.0, 1.0)
        xi = sign * np.sqrt(g / rate[:, None])
        log_weight = (
            np.sum(np.log(z), axis=1)
            + n * (h - 1.0) * np.log(rate)
            + rate * np.sum(xi**2, axis=1)
            - 0.5 * np.einsum("ij,ijk,ik->i", xi, big_s, xi)
        )
        return (
            gt.amp
            * gs.amp
            * np.cos(np.sum(xi * (gt.mean - gs.mean), axis=1))
            * np.exp(_log_const(n, t, params) + log_weight)
        )


def _whole_array_estimate(n, t, x, measure, params, samples, seed, workers):
    """(value, stderr) of `chaos_norm_estimate` in its matrix form, each
    worker's draws taken in the stream's order and all its rows at once."""
    total = total_sq = 0.0
    count = 0
    for rng, m in _worker_streams(seed, workers, samples):
        draws = (rng.uniform(0.0, t, size=(m, n)), rng.random((m, n)), rng.random((m, n)),
                 *_spectral_draws(rng, m, n, params.H))
        vals = _matrix_form_values(*draws, t, x, measure, params)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        count += m
    mean = total / count
    return mean, math.sqrt(max(total_sq / count - mean**2, 0.0) / count)


def _matrix_form_lemma(n, t, x, measure, params, time_samples, xi_samples, seed):
    """(lhs, rhs, diff_stderr) of `verify_lemma32` in its matrix form, with
    np.einsum on each time sample's batch of spectral draws; R is the
    gathered covariance of the point mass at x."""
    h = params.H
    (rng, _), = _worker_streams(seed, 1, xi_samples)
    tau = np.sort(rng.uniform(0.0, t, size=(time_samples, n)), axis=1)
    gk = kernel_fourier_gaussian(tau, t, x, measure)
    rform = kernel_fourier_gaussian(tau, t, x, DiracAt(x)).cov
    j0sq = measure.j0(t, x) ** 2
    rate = np.maximum(0.25 * _smallest_eigenvalue(2.0 * rform), 1e-300)
    log_norm = n * (math.log(params.c_H) + math.lgamma(1.0 - h)) + n * (h - 1.0) * np.log(rate)
    lhs, rhs, dvar = np.zeros(time_samples), np.zeros(time_samples), np.zeros(time_samples)
    for i in range(time_samples):
        g, sign_u = _spectral_draws(rng, xi_samples, n, h)
        xi = np.where(sign_u < 0.5, -1.0, 1.0) * np.sqrt(g / np.full(xi_samples, rate[i])[:, None])
        base = np.exp(log_norm[i] + rate[i] * np.sum(xi**2, axis=1))
        a = gk.amp[i] ** 2 * base * np.exp(-np.einsum("ij,jk,ik->i", xi, gk.cov[i], xi))
        b = j0sq * base * np.exp(-np.einsum("ij,jk,ik->i", xi, rform[i], xi))
        lhs[i] = float(np.sum(a))
        rhs[i] = float(np.sum(b))
        dvar[i] = float(np.sum((b - a) ** 2))
    lhs /= xi_samples
    rhs /= xi_samples
    var = np.maximum(dvar / xi_samples - (rhs - lhs) ** 2, 0.0)
    return lhs, rhs, np.sqrt(var / xi_samples)


# (n, measure, workers): (value, stderr) as float.hex at 2 samples, seed 9,
# t = 0.8, x = 0.2, (H0, H) = (0.75, 0.3); three workers draw 1, 1 and 0
# rows.  Recorded from the sampler before the column form, which folded
# columns here too; the matrix-form oracle's np.einsum rounds differently
# on one or two rows, so it cannot stand in for these.
TWO_SAMPLES = {
    (1, "dirac", 1): ("0x1.6bf8581c2851fp-8", "0x1.a2ca426bd27c4p-9"),
    (1, "dirac", 3): ("0x1.8d48c056e0886p-6", "0x1.a19c885a6505cp-8"),
    (1, "lebesgue", 1): ("0x1.e6eaed1ae7f9bp-6", "0x1.19544542ee11dp-6"),
    (1, "lebesgue", 3): ("0x1.461ca9625c1f5p-3", "0x1.b2282203fe063p-5"),
    (1, "gaussian", 1): ("0x1.288ec897fef62p-9", "0x1.562c69d857ad4p-10"),
    (1, "gaussian", 3): ("0x1.6c4c34b90565ep-7", "0x1.ba95709b44eacp-9"),
    (2, "dirac", 1): ("0x1.511a3f587b9e3p-9", "0x1.194817a6b5a31p-10"),
    (2, "dirac", 3): ("0x1.e5e93c8627589p-10", "0x1.579706e3375d7p-10"),
    (2, "lebesgue", 1): ("0x1.7b0fd693152afp-19", "0x1.0c09862868b5bp-19"),
    (2, "lebesgue", 3): ("0x1.96745b5fcc1c6p-12", "0x1.1f68208f073bep-12"),
    (2, "gaussian", 1): ("0x1.131ba449643f3p-15", "0x1.84a526e58aa9cp-16"),
    (2, "gaussian", 3): ("0x1.f48566e7d57a4p-13", "0x1.61ebfe84e4370p-13"),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("kind", sorted(MEASURES))
@pytest.mark.parametrize("n", [1, 2])
def test_chunked_estimate_is_the_whole_array_estimate(n, kind, workers):
    """Same bits as the matrix form at t from 1e-3 to 1e3, x away from the
    measure's centre and at it, and on either side of a chunk boundary: a
    chunk less one, one chunk, one more, and a ragged last chunk, per
    stream.  At the centre the estimator leaves out the phase, which the
    matrix form still takes the cosine of.  At two samples, one-row streams
    and an empty one, the pinned bits."""
    params = FractionalParams(0.75, 0.3)
    est = chaos_norm_estimate(n, 0.8, 0.2, MEASURES[kind], params, samples=2, seed=9,
                              workers=workers)
    assert (est.value.hex(), est.stderr.hex()) == TWO_SAMPLES[n, kind, workers]
    samples = 4 * workers + 1
    for t, x in itertools.product((1e-3, 0.8, 1e3), (0.2, CENTRES[kind])):
        args = (n, t, x, MEASURES[kind], params)
        est = chaos_norm_estimate(*args, samples=samples, seed=9, workers=workers)
        want = _whole_array_estimate(*args, samples, 9, workers)
        assert (est.value, est.stderr) == want, (t, x)
    for x in (-0.7, CENTRES[kind]):
        args = (n, 0.8, x, MEASURES[kind], FractionalParams(0.85, 0.2))
        for per_stream in (_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                           2 * _CHUNK_ROWS + 17):
            samples = workers * per_stream - (workers - 1)
            est = chaos_norm_estimate(*args, samples=samples, seed=9, workers=workers)
            want = _whole_array_estimate(*args, samples, 9, workers)
            assert (est.value, est.stderr) == want, (x, samples)


def test_chunked_estimate_at_the_cli_size_is_the_whole_array_estimate():
    args = (2, 1.0, 0.0, DiracAt(0.0), FractionalParams(0.75, 0.3))
    est = chaos_norm_estimate(*args, samples=200_000, seed=7, workers=2)
    assert (est.value, est.stderr) == _whole_array_estimate(*args, 200_000, 7, 2)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (7, 1), (_CHUNK_ROWS + 1, 2)])
def test_a_positioned_copy_reads_the_stream_from_its_offset(m, n):
    """Uniform doubles from a copy at word k are those of words k, k + 1,
    ... of the sequential stream (a double is a word's top 53 bits), at
    offsets inside and across Philox's 4-word blocks and where a stream's
    spectral draws start, word 3 m n."""
    seq = np.random.SeedSequence(35).spawn(2)[1]
    for k in (0, 1, 2, 3, 4, 5, 8194, 3 * m * n):
        words = np.random.Philox(seq).random_raw(k + 64)[k:]
        got = _positioned(seq, k).random(64)
        assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53), k
        sequential = np.random.Generator(np.random.Philox(seq)).random(k + 64)[k:]
        assert np.array_equal(got, sequential), k


@pytest.mark.parametrize("kind", sorted(MEASURES))
@pytest.mark.parametrize("n", [1, 2])
def test_stream_values_across_a_chunk_boundary_are_the_whole_array_values(n, kind):
    """A stream drawn a chunk at a time from positioned copies gives, row
    by row, the matrix form's values on the whole blocks drawn in the
    stream's order, and the estimate is the whole-array estimate."""
    params, measure = FractionalParams(0.85, 0.2), MEASURES[kind]
    m = _CHUNK_ROWS + 5
    for x in (-0.7, CENTRES[kind]):
        (rng, _), = _worker_streams(4, 1, m)
        vals = _stream_values(rng, m, n, 0.8, _kernel_formulas(0.8, x, measure),
                              2.0 * params.H0 - 1.0, params.H, measure.j0(0.8, x),
                              _log_const(n, 0.8, params))
        (rng, _), = _worker_streams(4, 1, m)
        draws = (rng.uniform(0.0, 0.8, size=(m, n)), rng.random((m, n)), rng.random((m, n)),
                 *_spectral_draws(rng, m, n, params.H))
        assert np.array_equal(vals, _matrix_form_values(*draws, 0.8, x, measure, params)), x
        args = (n, 0.8, x, measure, params)
        est = chaos_norm_estimate(*args, samples=2 * m, seed=4, workers=2)
        assert np.array_equal((est.value, est.stderr), _whole_array_estimate(*args, 2 * m, 4, 2))


# ids 1 and 3 name the worker counts w whose 4 w, 4 w + 2 and 301 draws
# these were, when the lemma check split its draws among workers
@pytest.mark.parametrize("xi_counts", [(4, 6, 301), (12, 14, 301)], ids=["1", "3"])
@pytest.mark.parametrize("kind", sorted(MEASURES))
@pytest.mark.parametrize("n", [1, 2])
def test_lemma_check_is_the_matrix_form(n, kind, xi_counts):
    """The column fold is np.einsum's sum on four or more spectral draws."""
    params = FractionalParams(0.75, 0.3)
    for t in (1e-3, 0.8, 1e3):
        for xi_samples in xi_counts:
            args = (n, t, 0.2, MEASURES[kind], params)
            cmp = verify_lemma32(*args, time_samples=3, xi_samples=xi_samples, seed=6)
            lhs, rhs, diff_stderr = _matrix_form_lemma(*args, 3, xi_samples, 6)
            assert np.array_equal(cmp.lhs, lhs), (t, xi_samples)
            assert np.array_equal(cmp.rhs, rhs), (t, xi_samples)
            assert np.array_equal(cmp.diff_stderr, diff_stderr), (t, xi_samples)


def test_majorant_form_telescopes_to_the_point_mass_covariance_exactly():
    """The Lemma's sum, R_jl = tau_j tau_l sum_{k >= max(j, l)} w_k, is
    tau_min (t - tau_max) / t, the point mass's cov(lo, hi) that
    `verify_lemma32` takes R from, in exact rationals on random sorted
    tuples up to n = 6, some with ties."""
    rng = random.Random(36)
    for n, _ in itertools.product(range(1, 7), range(40)):
        t = Fraction(rng.randint(1, 500), rng.randint(1, 50))
        tau = sorted(t * Fraction(rng.randint(1, 999), 1000) for _ in range(n))
        if n > 1 and rng.random() < 0.25:
            tau[1] = tau[0]
        _, cov, _ = _kernel_formulas(t, 0.0, DiracAt(0.0))
        want = [[cov(min(a, b), max(a, b)) for b in tau] for a in tau]
        assert majorant_form(tau, t) == want, (t, tau)


def test_majorant_form_is_the_point_mass_covariance_within_four_ulps():
    """In floats the Lemma's sum and the closed form round differently, by
    at most four ulps relative (4.9e-16 measured) for n up to 6; a factor
    or a term off misses by far more."""
    rng = np.random.default_rng(36)
    for n, t in itertools.product(range(1, 7), (1e-3, 0.8, 1e3)):
        tau = _sorted_times_with_ties(rng, 300, n, t)
        want = kernel_fourier_gaussian(tau, t, 0.0, DiracAt(0.0)).cov
        got = np.array([majorant_form(row, t) for row in tau.tolist()])
        assert np.max(np.abs(got - want) / want) <= 4 * 2.0**-52, (n, t)


@pytest.mark.parametrize("kind", sorted(MEASURES))
@pytest.mark.parametrize("n", [1, 2])
def test_row_values_do_not_depend_on_the_batch_size(n, kind):
    """Each row of the estimator's two halves and of the lemma's integrands
    has the same bits alone, in batches of two or three, and in the whole
    batch (np.einsum did not: on one or two rows it rounds differently).
    The point mass and the Gaussian run off their centre, where the time
    half keeps the mean differences and the xi half forms the phase.  The
    time half leaves its draws as they were."""
    rng = np.random.default_rng(50 + n)
    t, x, params, measure = 0.8, 0.2, FractionalParams(0.75, 0.3), MEASURES[kind]
    m = 60
    times = (rng.uniform(0.0, t, size=(m, n)), rng.random((m, n)), rng.random((m, n)))
    xi_draws = _spectral_draws(rng, m, n, params.H)
    kernel = _kernel_formulas(t, x, measure)
    args = (t, kernel, 2.0 * params.H0 - 1.0, params.H)
    rest = (measure.j0(t, x), _log_const(n, t, params))
    draws = tuple(d.copy() for d in times)
    whole_state = np.array(_time_half(*draws, *args))
    assert all(np.array_equal(d, c) for d, c in zip(draws, times))
    whole = _xi_half(*xi_draws, whole_state, *rest)
    spectral = _spectral_draws(rng, m, n, params.H)
    tau = np.array([[0.3, 0.6][:n]])
    tri = _lower_triangle(kernel_fourier_gaussian(tau, t, x, measure).cov)
    r_tri = _lower_triangle(kernel_fourier_gaussian(tau, t, x, DiracAt(x)).cov)
    row = (-0.4, 0.7, tuple(e[0] for e in tri), tuple(e[0] for e in r_tri))
    whole_lhs, whole_rhs = _majorant_terms(spectral, 0.9, *row)
    for size in (1, 2, 3):
        for lo in range(0, m, size):
            rows = slice(lo, lo + size)
            state = _time_half(*(d[rows] for d in times), *args)
            assert np.array_equal(np.array(state), whole_state[:, rows]), (size, lo)
            vals = _xi_half(*(d[rows] for d in xi_draws), state, *rest)
            assert np.array_equal(vals, whole[rows]), (size, lo)
            lhs, rhs = _majorant_terms(tuple(d[rows] for d in spectral), 0.9, *row)
            assert np.array_equal(lhs, whole_lhs[rows]), (size, lo)
            assert np.array_equal(rhs, whole_rhs[rows]), (size, lo)


def _lambda_min_error_in_ulps(mats):
    """|lambda_min - lambda| per matrix, for lambda the smallest eigenvalue
    by mpmath's Jacobi solver at 50 digits, in ulps of the largest one."""
    got = _lambda_min(*_lower_triangle(mats))
    errors = []
    with mpmath.workdps(50):
        for m, lam in zip(mats, got.tolist()):
            lo, hi = sorted(mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True))
            ulp = np.spacing(abs(float(hi)))
            errors.append(float(abs(mpmath.mpf(lam) - lo)) / ulp)
    return np.array(errors)


def _lambda_min_is_within_four_ulps(mats):
    """Where lambda_min is much smaller than lambda_max the closed form's
    last subtraction cancels, so its error is counted in ulps of
    lambda_max; a missing half, min(a, c) or + hypot miss by far more."""
    return _lambda_min_error_in_ulps(mats).max() <= 4.0


@pytest.mark.parametrize("kind", sorted(MEASURES))
def test_lambda_min_is_accurate_on_the_sampler_matrices(kind):
    """The 2x2 matrices the samplers take it of, for t from 1e-3 to 1e3
    and with tied times."""
    rng = np.random.default_rng(11)
    for t, h0 in itertools.product((1e-3, 1.0, 1e3), (0.51, 0.94)):
        mats = _sampler_matrices(rng, MEASURES[kind], t, h0, m=150)
        assert _lambda_min_is_within_four_ulps(mats), (t, h0)


def test_lambda_min_is_accurate_on_near_diagonal_blocks():
    """Blocks whose off-diagonal entry lies a few ulps around
    sqrt(a c) 2^-53."""
    rng = np.random.default_rng(14)
    m = 400
    a = rng.uniform(0.5, 2.0, m)
    c = a * (1.0 + rng.uniform(-1e-8, 1e-8, m))
    threshold = np.sqrt(a) * np.sqrt(c) * 2.0**-53
    for b in (threshold * rng.uniform(0.1, 1.0, m),
              threshold * (1.0 + rng.integers(1, 4, m) * 2.0**-52)):
        mats = np.empty((m, 2, 2))
        mats[:, 0, 0], mats[:, 1, 1] = a, c
        mats[:, 0, 1] = mats[:, 1, 0] = b * rng.choice([-1.0, 1.0], m)
        assert _lambda_min_is_within_four_ulps(mats)


def test_lambda_min_is_accurate_on_rescaled_blocks_and_keeps_1x1_blocks():
    """PSD blocks scaled by 0 and across the float range; a 1x1 block is
    its own eigenvalue, returned as it came."""
    rng = np.random.default_rng(12)
    half = rng.standard_normal((200, 2, 2))
    psd = half @ np.transpose(half, (0, 2, 1))
    for scale in (0.0, 1e-300, 1e-125, 1e140, 1e300):
        assert _lambda_min_is_within_four_ulps(psd * scale), scale
    one = rng.standard_normal(50) ** 2
    assert _lambda_min(one) is one


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gathered_kernel_is_the_broadcast_formula(n):
    rng = np.random.default_rng(20 + n)
    for t in (1e-3, 0.7, 50.0):
        tau = _sorted_times_with_ties(rng, 500, n, t)
        for kind, measure in MEASURES.items():
            got = kernel_fourier_gaussian(tau, t, 0.3, measure).cov
            assert np.array_equal(got, _kernel_cov_broadcast(tau, t, measure)), kind
            if n <= 2:  # the samplers' triangle of the same covariance
                _, cov, _ = _kernel_formulas(t, 0.3, measure)
                tri = _cov_triangle(cov, _sorted_columns(tau))
                want = _lower_triangle(got)
                assert all(np.array_equal(u, v) for u, v in zip(tri, want)), kind


@pytest.mark.parametrize("n", [1, 2])
def test_column_folds_are_numpy_sum_and_einsum(n):
    """Row sums are np.sum(axis=1); the quadratic form is np.einsum's, both
    with a matrix per row and with one matrix for all rows, on batches of
    four rows and more."""
    rng = np.random.default_rng(30 + n)
    for m in (4, 5, 17, 50_000):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(m, n))
        vec = rng.standard_normal((m, n)) * scale
        half = rng.standard_normal((m, n, n))
        mats = half @ np.transpose(half, (0, 2, 1))
        cols = tuple(vec.T)
        assert np.array_equal(_row_sum(cols), np.sum(vec, axis=1))
        assert np.array_equal(_quadform(_lower_triangle(mats), cols),
                              np.einsum("ij,ijk,ik->i", vec, mats, vec))
        one = mats[0]
        assert np.array_equal(_quadform(tuple(e[0] for e in _lower_triangle(mats)), cols),
                              np.einsum("ij,jk,ik->i", vec, one, vec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sort_rows_is_numpy_sort(n):
    rng = np.random.default_rng(40 + n)
    x = rng.uniform(0.0, 1.0, size=(1_000, n))
    x[::3, -1] = x[::3, 0]
    got = _sorted_columns(x)
    assert len(got) == n
    assert np.array_equal(np.stack(got, axis=1), np.sort(x, axis=1))


# (n, measure, workers): ((value, stderr), lhs, rhs, diff_stderr) at t = 0.8,
# x = 0.2, (H0, H) = (0.75, 0.3), seed 5, 3000 samples, 2 time x 300
# spectral draws.  (value, stderr) were recorded from the eigvalsh / np.sort
# / einsum implementation at that many workers; the lemma's floats from R
# as the point mass's covariance, which `_matrix_form_lemma` matches bit for
# bit.  The lemma check has no workers, so its floats are the same at 1 and 3
PINNED = {
    (1, "dirac", 1): (
        (0.09833980238505459, 0.0016610563508621422),
        [0.10994402618910153, 0.09156661829049247],
        [0.10994402618910153, 0.09156661829049247],
        [0.0, 0.0],
    ),
    (1, "dirac", 3): (
        (0.09973867372869155, 0.002106891905736573),
        [0.10994402618910153, 0.09156661829049247],
        [0.10994402618910153, 0.09156661829049247],
        [0.0, 0.0],
    ),
    (1, "lebesgue", 1): (
        (0.6083587371132452, 0.012653770791443171),
        [1.030911892642924, 0.6424734692204586],
        [1.259078162057227, 1.0486202248468979],
        [0.007493940620066836, 0.011500678814619095],
    ),
    (1, "lebesgue", 3): (
        (0.6303181098195815, 0.02148694116436363),
        [1.030911892642924, 0.6424734692204586],
        [1.259078162057227, 1.0486202248468979],
        [0.007493940620066836, 0.011500678814619095],
    ),
    (1, "gaussian", 1): (
        (0.040414586861533305, 0.0006747931941405815),
        [0.06103654743649055, 0.04408070422573815],
        [0.0664330276314179, 0.05532858759006205],
        [0.00017960133433927362, 0.0003329956573491591],
    ),
    (1, "gaussian", 3): (
        (0.04162705229536884, 0.0011357327206638723),
        [0.06103654743649055, 0.04408070422573815],
        [0.0664330276314179, 0.05532858759006205],
        [0.00017960133433927362, 0.0003329956573491591],
    ),
    (2, "dirac", 1): (
        (0.03580018455022496, 0.001874970440941232),
        [0.0751649072637798, 0.12220065527986347],
        [0.0751649072637798, 0.12220065527986347],
        [0.0, 0.0],
    ),
    (2, "dirac", 3): (
        (0.03596484904339001, 0.0018435549389509505),
        [0.0751649072637798, 0.12220065527986347],
        [0.0751649072637798, 0.12220065527986347],
        [0.0, 0.0],
    ),
    (2, "lebesgue", 1): (
        (0.18430069253660267, 0.014079901427747524),
        [0.5498392579077656, 1.1304376087498489],
        [0.860787953372796, 1.3994409863372006],
        [0.02535722373766834, 0.03004699629103071],
    ),
    (2, "lebesgue", 3): (
        (0.18517333949687304, 0.014405194912768112),
        [0.5498392579077656, 1.1304376087498489],
        [0.860787953372796, 1.3994409863372006],
        [0.02535722373766834, 0.03004699629103071],
    ),
    (2, "gaussian", 1): (
        (0.012984997765176264, 0.000811749172710472),
        [0.036911579546079605, 0.06730503092455786],
        [0.0454179506995591, 0.07383902327554817],
        [0.0006672742800274172, 0.0007169932463914211],
    ),
    (2, "gaussian", 3): (
        (0.012976367936804225, 0.000827531208398427),
        [0.036911579546079605, 0.06730503092455786],
        [0.0454179506995591, 0.07383902327554817],
        [0.0006672742800274172, 0.0007169932463914211],
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_sampler_floats_are_pinned(key):
    n, kind, workers = key
    (value, stderr), lhs, rhs, diff_stderr = PINNED[key]
    args = (n, 0.8, 0.2, MEASURES[kind], FractionalParams(0.75, 0.3))
    est = chaos_norm_estimate(*args, samples=3000, seed=5, workers=workers)
    assert (est.value, est.stderr) == (value, stderr)
    cmp = verify_lemma32(*args, time_samples=2, xi_samples=300, seed=5)
    assert (cmp.lhs.tolist(), cmp.rhs.tolist(), cmp.diff_stderr.tolist()) == (
        lhs, rhs, diff_stderr)
    oracle = _matrix_form_lemma(*args, 2, 300, 5)
    assert [v.tolist() for v in oracle] == [lhs, rhs, diff_stderr]


README_MC_VERIFY = (
    '{"bound": "0.99221758123139325", "bound_passed": true, "config": {"H": '
    '"0.29999999999999999", "H0": "0.75", "b": "1", "measure": "{\\"type\\": '
    '\\"dirac\\", \\"x0\\": 0.0}", "n": 2, "samples": 200000, "seed": 7, "t": "1", '
    '"workers": 4, "x": "0"}, "estimate": "0.042343103612441063", "minimal_b": '
    '"0.51781880573510686", "spectral_majorant_passed": true, "spectral_margins": '
    '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], "stderr": '
    '"0.00040739626241990425"}\n'
)


def test_readme_mc_verify_stdout_is_pinned():
    buf = io.StringIO()
    argv = ["mc-verify", "--n", "2", "--t", "1", "--x", "0", "--H0", "0.75",
            "--H", "0.3", "--measure", '{"type": "dirac", "x0": 0.0}',
            "--samples", "200000", "--seed", "7", "--workers", "4"]
    assert cli.run(argv, stdout=buf) == 0
    assert buf.getvalue() == README_MC_VERIFY


def test_check_09_configurations_raise_no_floating_point_warnings():
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        assert check_09_mc_oracle_bounds().ok
