import itertools
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from pam_moments.chaos_bounds import FractionalParams
from pam_moments import mc_verifier
from pam_moments.errors import DomainError, EstimationError, SizeError, ValidationError
from pam_moments.initial_data import (
    DiracAt,
    GaussianDensity,
    LebesgueConstant,
    PolynomialDensity,
)
from pam_moments.mc_verifier import (
    chaos_norm_estimate,
    verify_lemma32,
    verify_term_bound,
)

from kernel_oracle import kernel_fourier_gaussian

P = FractionalParams(0.75, 0.3)


def _xi_integral(s, m, params):
    """2 c_H int_0^inf xi^(1-2H) cos(m xi) exp(-s xi^2 / 2) dxi in closed form,
    c_H Gamma(1-H) (s/2)^(H-1) 1F1(1-H; 1/2; -m^2/(2s))
    (Gradshteyn-Ryzhik 3.952.8)."""
    h = params.H
    return (
        params.c_H
        * math.gamma(1.0 - h)
        * (0.5 * s) ** (h - 1.0)
        * special.hyp1f1(1.0 - h, 0.5, -m * m / (2.0 * s))
    )


def _xi_integral_by_quad(s, m, params):
    """The same integral by adaptive quadrature over [0, 60/sqrt(s)]."""
    h = params.H
    f = lambda xi: (
        params.c_H
        * abs(xi) ** (1.0 - 2.0 * h)
        * math.cos(xi * m)
        * math.exp(-0.5 * s * xi * xi)
    )
    val, _ = integrate.quad(f, 0.0, 60.0 / math.sqrt(s), limit=400)
    return 2.0 * val


def _scalar_kernel(tau, t, x, measure):
    """(amplitude, mean, variance) of the n = 1 Fourier kernel at time tau,
    written out for a point mass (a Brownian bridge from x0 to x) and for
    a constant density (Brownian motion back from x)."""
    if isinstance(measure, DiracAt):
        dx = x - measure.x0
        amp = float(np.exp(-(dx * dx) / (2.0 * t))) / math.sqrt(2.0 * math.pi * t)
        return amp, measure.x0 + dx * tau / t, tau * (t - tau) / t
    assert isinstance(measure, LebesgueConstant)
    return measure.c, x, t - tau


def _norm1_by_quadrature(t, x, measure, params):
    """Exact (quadrature) value of the first chaos norm, for cross-checks."""
    h0 = params.H0

    def psi(t1, s1):
        amp1, m1, v1 = _scalar_kernel(t1, t, x, measure)
        amp2, m2, v2 = _scalar_kernel(s1, t, x, measure)
        return amp1 * amp2 * _xi_integral(v1 + v2, m1 - m2, params)

    def inner(t1):
        left = (
            integrate.quad(
                lambda s: psi(t1, s), 0.0, t1,
                weight="alg", wvar=(0.0, 2.0 * h0 - 2.0), limit=200,
            )[0]
            if t1 > 0
            else 0.0
        )
        right = (
            integrate.quad(
                lambda s: psi(t1, s), t1, t,
                weight="alg", wvar=(2.0 * h0 - 2.0, 0.0), limit=200,
            )[0]
            if t1 < t
            else 0.0
        )
        return left + right

    val, _ = integrate.quad(inner, 0.0, t, limit=100, epsabs=1e-9)
    return params.alpha_H0 * val


def test_xi_integral_closed_form_matches_quadrature():
    for p in (P, FractionalParams(0.85, 0.2)):
        for s in (0.01, 0.1, 0.5, 1.0, 2.0):
            for m in (0.0, 0.05, 0.3, 1.0):
                assert _xi_integral(s, m, p) == pytest.approx(
                    _xi_integral_by_quad(s, m, p), rel=1e-8
                )


def test_n1_estimate_matches_quadrature_dirac():
    t, x = 1.0, 0.3
    exact = _norm1_by_quadrature(t, x, DiracAt(0.0), P)
    est = chaos_norm_estimate(1, t, x, DiracAt(0.0), P, samples=200_000, seed=7)
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert est.stderr < 0.02 * exact


def test_n1_estimate_matches_quadrature_lebesgue():
    t, x = 0.8, 0.0
    exact = _norm1_by_quadrature(t, x, LebesgueConstant(1.5), P)
    est = chaos_norm_estimate(
        1, t, x, LebesgueConstant(1.5), P, samples=200_000, seed=17
    )
    assert abs(est.value - exact) <= 4.0 * est.stderr


def test_determinism_bit_identical_across_runs():
    args = (2, 1.0, 0.0, LebesgueConstant(1.0), P)
    a = chaos_norm_estimate(*args, samples=40_000, seed=3, workers=4)
    b = chaos_norm_estimate(*args, samples=40_000, seed=3, workers=4)
    assert a == b


def test_estimate_memory_is_linear_in_the_draws():
    """The spectral draws are held whole, the time draws and the arithmetic
    come in fixed chunks: the traced peak stays within 3 (samples, n)
    float blocks at the centre and off it (about 2.65; holding the five
    draw blocks whole took 5.5 and 6.0, the whole-array arithmetic about
    21)."""
    samples, n = 400_000, 2
    for x in (0.0, 0.3):
        tracemalloc.start()
        try:
            chaos_norm_estimate(n, 1.0, x, DiracAt(0.0), P, samples=samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * samples * n * 8, (x, peak / (samples * n * 8))


class _Raised(Exception):
    pass


@pytest.mark.parametrize("failing", ["_spectral_draws", "_rough_times"])
def test_a_failing_half_reaches_the_caller_and_leaves_no_thread(failing, monkeypatch):
    """An exception in the spectral draw or in the time half reaches the
    caller as itself, and the call leaves no thread behind and none that
    reports an unhandled exception: the draw, failing or not, is slowed,
    so a thread that drew it and outlived the call would still be alive."""
    def fail(*args):
        raise _Raised(failing)

    monkeypatch.setattr(mc_verifier, failing, fail)
    draw = mc_verifier._spectral_draws

    def slow_draw(*args):
        time.sleep(0.2)
        return draw(*args)

    monkeypatch.setattr(mc_verifier, "_spectral_draws", slow_draw)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    with pytest.raises(_Raised, match=failing):
        chaos_norm_estimate(2, 1.0, 0.3, DiracAt(0.0), P, samples=10_000)
    assert threading.active_count() == before
    assert unhandled == []


def test_estimates_past_the_float_range_are_estimation_errors():
    """t or x near 1e300 overflows the kernel: a non-finite accumulator,
    raised without a numpy warning (at n = 1 once an OverflowError)."""
    measures = (DiracAt(0.0), LebesgueConstant(1.0), GaussianDensity(0.0, 0.5))
    for n, measure, (t, x) in itertools.product(
            (1, 2), measures, ((1e300, 0.0), (1e300, 1e300), (1e200, 1e150))):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="non-finite"):
                chaos_norm_estimate(n, t, x, measure, P, samples=64)


def test_lemma_checks_past_the_float_range_are_estimation_errors():
    """At t = 1e-300 the majorant integrals pass the float range, at
    t = 1e300 the covariance does, and J0^2 does for c = 1e200 (once an
    OverflowError): one EstimationError, no numpy warning."""
    measures = (DiracAt(0.0), LebesgueConstant(1.0), GaussianDensity(0.0, 0.5))
    cases = [*itertools.product((1, 2), measures, (1e-300, 1e300)),
             (1, LebesgueConstant(1e200), 1.0), (2, LebesgueConstant(1e200), 1.0)]
    for n, measure, t in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="not finite at t="):
                verify_lemma32(n, t, 0.0, measure, P, time_samples=3, xi_samples=64)


def test_worker_split_changes_stream_but_not_scale():
    args = (1, 1.0, 0.0, DiracAt(0.0), P)
    one = chaos_norm_estimate(*args, samples=60_000, seed=5, workers=1)
    four = chaos_norm_estimate(*args, samples=60_000, seed=5, workers=4)
    # different streams, same quantity: estimates compatible within errors
    assert one != four
    err = math.hypot(one.stderr, four.stderr)
    assert abs(one.value - four.value) <= 5.0 * err


def test_clt_error_shrinks_like_sqrt_n():
    args = (1, 1.0, 0.0, DiracAt(0.0), P)
    small = chaos_norm_estimate(*args, samples=20_000, seed=1)
    big = chaos_norm_estimate(*args, samples=320_000, seed=1)
    ratio = small.stderr / big.stderr
    assert 2.0 < ratio < 8.0  # ideal 4.0


def test_estimates_scale_with_measure_amplitude():
    # the chaos norm is quadratic in the initial measure
    base = chaos_norm_estimate(
        2, 1.0, 0.0, LebesgueConstant(1.0), P, samples=30_000, seed=8
    )
    double = chaos_norm_estimate(
        2, 1.0, 0.0, LebesgueConstant(2.0), P, samples=30_000, seed=8
    )
    assert double.value == pytest.approx(4.0 * base.value, rel=1e-12)


def test_kernel_gaussian_dirac_bridge():
    t, x = 2.0, 1.0
    tau = np.array([[0.5, 1.5]])
    g = kernel_fourier_gaussian(tau, t, x, DiracAt(0.0))
    assert g.amp[0] == pytest.approx(DiracAt(0.0).j0(t, x))
    assert g.mean[0] == pytest.approx([x * 0.25, x * 0.75])
    assert g.cov[0, 0, 0] == pytest.approx(0.5 * 1.5 / 2.0)
    assert g.cov[0, 0, 1] == pytest.approx(0.5 * 0.5 / 2.0)
    assert g.cov[0, 1, 1] == pytest.approx(1.5 * 0.5 / 2.0)


def test_kernel_gaussian_variance_shift():
    # a Gaussian initial density is the point mass seen v0 earlier
    t, x, v0 = 1.0, 0.4, 0.6
    tau = np.array([[0.3, 0.9]])
    g = kernel_fourier_gaussian(tau, t, x, GaussianDensity(0.0, v0))
    d = kernel_fourier_gaussian(tau + v0, t + v0, x, DiracAt(0.0))
    assert np.allclose(g.mean, d.mean)
    assert np.allclose(g.cov, d.cov)
    assert g.amp[0] == pytest.approx(d.amp[0])


def test_kernel_gaussian_rejects_unsupported_measure():
    with pytest.raises(ValidationError):
        kernel_fourier_gaussian(np.array([[0.5]]), 1.0, 0.0, PolynomialDensity())


def test_lemma_check_exact_for_dirac():
    # for a point mass the majorant's form is the kernel's covariance, so
    # the two integrands are the same floats
    for n in (1, 2):
        cmp = verify_lemma32(
            n, 1.0, 0.5, DiracAt(0.2), P, time_samples=6, xi_samples=2_000, seed=4
        )
        assert cmp.ok
        assert np.array_equal(cmp.lhs, cmp.rhs)
        assert not np.any(cmp.margins) and not np.any(cmp.diff_stderr)


def test_lemma_check_gaussian_measure():
    cmp = verify_lemma32(
        2, 1.0, 0.0, GaussianDensity(0.1, 0.5), P,
        time_samples=8, xi_samples=6_000, seed=9,
    )
    assert cmp.ok


def test_term_bound_verification():
    chk = verify_term_bound(
        2, 1.0, 0.0, DiracAt(0.0), P, samples=150_000, seed=5, workers=2
    )
    assert chk.passed
    assert chk.minimal_b < 1.0
    assert chk.estimate.value / DiracAt(0.0).j0(1.0, 0.0) ** 2 <= chk.bound


def test_minimal_b_consistency():
    # the bound is b^n-homogeneous: evaluating at the reported minimal b
    # reproduces the estimate/J0^2 ratio
    chk = verify_term_bound(
        2, 0.5, 0.0, LebesgueConstant(1.0), P, samples=100_000, seed=6
    )
    from pam_moments.chaos_bounds import term_bound

    pb = FractionalParams(P.H0, P.H, chk.minimal_b)
    at_min = math.exp(term_bound(2, 0.5, pb).log_bound)
    assert at_min == pytest.approx(chk.estimate.value, rel=1e-9)


def test_input_validation():
    with pytest.raises(SizeError):
        chaos_norm_estimate(3, 1.0, 0.0, DiracAt(0.0), P, samples=64)
    with pytest.raises(DomainError):
        chaos_norm_estimate(1, -1.0, 0.0, DiracAt(0.0), P, samples=64)
    with pytest.raises(ValidationError):
        chaos_norm_estimate(1, 1.0, 0.0, DiracAt(0.0), P, samples=64, seed=-1)
    with pytest.raises(ValidationError):
        chaos_norm_estimate(1, 1.0, 0.0, DiracAt(0.0), P, samples=64, workers=0)


def test_degenerate_inputs_give_inf_or_a_library_error():
    # b = 1e300 puts the per-order bound above the float range: it is inf
    huge_b = FractionalParams(0.75, 0.3, 1e300)
    chk = verify_term_bound(2, 1.0, 0.0, DiracAt(0.0), huge_b, samples=64)
    assert chk.bound == math.inf and chk.passed
    # far from the point mass J0^2 underflows to 0 and the ratio is undefined
    with pytest.raises(EstimationError):
        verify_term_bound(2, 1.0, 100.0, DiracAt(0.0), P, samples=64)
    for time_samples, xi_samples in ((0, 64), (3, 0), (-1, 64), (3, -1)):
        with pytest.raises(DomainError):
            verify_lemma32(2, 1.0, 0.0, DiracAt(0.0), P, time_samples=time_samples,
                           xi_samples=xi_samples)
    # more worker streams than spectral draws or samples: the streams past
    # the rows are not made, and the first ones are those of fewer workers;
    # 2**70 workers once ended in an OverflowError from SeedSequence.spawn
    args = (2, 1.0, 0.2, LebesgueConstant(1.0), P)
    two = verify_lemma32(*args, time_samples=3, xi_samples=2, seed=3, workers=2)
    for workers in (5, 2**70):
        many = verify_lemma32(*args, time_samples=3, xi_samples=2, seed=3, workers=workers)
        for side in ("lhs", "rhs", "diff_stderr"):
            assert np.array_equal(getattr(many, side), getattr(two, side)), side
    many = chaos_norm_estimate(*args, samples=2, seed=3, workers=2**70)
    assert many == chaos_norm_estimate(*args, samples=2, seed=3, workers=2)
    # a non-finite horizon or point is a domain error, not a numpy range
    # error; an infinite x once ended in a non-finite accumulator only
    # because inf - inf made the phase nan, and Lebesgue's estimate, which
    # forms no phase, would be finite there
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="t must be"):
            chaos_norm_estimate(2, t, 0.0, DiracAt(0.0), P, samples=64)
        with pytest.raises(DomainError, match="t must be"):
            verify_lemma32(2, t, 0.0, DiracAt(0.0), P, time_samples=3, xi_samples=64)
    for x, measure in itertools.product(
            (math.inf, -math.inf, math.nan),
            (DiracAt(0.0), LebesgueConstant(1.0), GaussianDensity(0.0, 0.5))):
        with pytest.raises(DomainError, match="x must be finite"):
            chaos_norm_estimate(2, 1.0, x, measure, P, samples=64)
        with pytest.raises(DomainError, match="x must be finite"):
            verify_term_bound(2, 1.0, x, measure, P, samples=64)
        with pytest.raises(DomainError, match="x must be finite"):
            verify_lemma32(2, 1.0, x, measure, P, time_samples=3, xi_samples=64)


def test_sample_counts_must_be_integers_and_t_x_real_numbers():
    # samples=10.5 once ran 10 samples and reported samples=10; the others
    # ended in a bare TypeError
    for samples in (10.5, "10", True, None, 10.0):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            chaos_norm_estimate(2, 1.0, 0.0, DiracAt(0.0), P, samples=samples)
        with pytest.raises(ValidationError, match="samples must be an integer"):
            verify_term_bound(2, 1.0, 0.0, DiracAt(0.0), P, samples=samples)
    for counts in ({"time_samples": 2.5}, {"xi_samples": "5"}, {"xi_samples": 64.0}):
        kwargs = {"time_samples": 3, "xi_samples": 64, **counts}
        with pytest.raises(ValidationError, match="samples must be an integer"):
            verify_lemma32(2, 1.0, 0.0, DiracAt(0.0), P, **kwargs)
    for t, x in (("1", 0.0), (1.0, "a"), (None, 0.0), (1.0, 1j), (1.0, [0.0])):
        with pytest.raises(ValidationError, match="must be real"):
            chaos_norm_estimate(2, t, x, DiracAt(0.0), P, samples=64)
        with pytest.raises(ValidationError, match="must be real"):
            verify_lemma32(2, t, x, LebesgueConstant(1.0), P, time_samples=3, xi_samples=64)
    # True once ran as n = 1 and stopped in numpy with a bare TypeError
    for n in (True, 2.0, "2"):
        with pytest.raises(ValidationError, match="n must be an integer"):
            chaos_norm_estimate(n, 1.0, 0.0, DiracAt(0.0), P, samples=64)
        with pytest.raises(ValidationError, match="n must be an integer"):
            verify_lemma32(n, 1.0, 0.0, DiracAt(0.0), P, time_samples=3, xi_samples=64)
    # a bool seed or worker count once ran as 1 (or 0)
    for stream in ({"seed": True}, {"seed": np.False_}, {"workers": True}, {"workers": 1.0}):
        with pytest.raises(ValidationError, match="must be an integer"):
            chaos_norm_estimate(2, 1.0, 0.0, DiracAt(0.0), P, samples=64, **stream)
        with pytest.raises(ValidationError, match="must be an integer"):
            verify_lemma32(2, 1.0, 0.0, DiracAt(0.0), P, time_samples=3, xi_samples=64,
                           **stream)
    # numpy integers and reals pass
    est = chaos_norm_estimate(2, np.float64(1.0), np.int64(0), DiracAt(0.0), P,
                              samples=np.int64(64))
    assert est == chaos_norm_estimate(2, 1.0, 0.0, DiracAt(0.0), P, samples=64)
