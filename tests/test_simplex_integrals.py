import math
import random

import mpmath
import numpy as np
import pytest
from scipy import integrate

from pam_moments import simplex_integrals
from pam_moments.errors import DomainError, EstimationError, SizeError, ValidationError
from pam_moments.simplex_integrals import (
    SimplexIntegralSpec,
    brute_force,
    check_conditions,
    closed_form,
    gaussian_spectral_integral,
    log_closed_form,
)


def _random_valid_spec(rng, n, lo=-0.8, hi=1.5):
    while True:
        spec = SimplexIntegralSpec(
            rng.uniform(0.5, 2.0),
            tuple(rng.uniform(lo, hi) for _ in range(n)),
            tuple(rng.uniform(lo, hi) for _ in range(n)),
        )
        if check_conditions(spec):
            return spec


def test_beta_base_case():
    # n = 1 reduces to t^{a+b+1} B(a+1, b+1)
    val = closed_form(SimplexIntegralSpec(1.0, (1.0,), (1.0,)))
    assert abs(val - 1.0 / 6.0) <= 1e-12
    val2 = closed_form(SimplexIntegralSpec(2.0, (0.5,), (-0.5,)))
    with mpmath.workdps(20):
        ref = 2.0 ** (0.5 - 0.5 + 1) * float(mpmath.beta(1.5, 0.5))
    assert val2 == pytest.approx(ref, rel=1e-13)


def test_unit_cube_ordering_probability():
    # all exponents zero: the volume of the ordered simplex, t^n / n!
    for n in (1, 2, 3):
        spec = SimplexIntegralSpec(1.5, (0.0,) * n, (0.0,) * n)
        assert closed_form(spec) == pytest.approx(1.5**n / math.factorial(n), rel=1e-13)


def test_scaling_law():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice((1, 2, 3))
        spec = _random_valid_spec(rng, n)
        power = sum(spec.alphas) + sum(spec.betas) + n
        unit = SimplexIntegralSpec(1.0, spec.alphas, spec.betas)
        assert closed_form(spec) == pytest.approx(
            spec.t**power * closed_form(unit), rel=1e-12
        )


def test_closed_form_vs_nested_quadrature():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice((1, 2, 3))
        spec = _random_valid_spec(rng, n)
        res = brute_force(spec, method="nested-quadrature", rtol=1e-9)
        assert res.estimate == pytest.approx(closed_form(spec), rel=1e-6)


def _recursive_nested_quadrature(spec, rtol):
    """Brute-force reference for the nested-quadrature oracle: the recursion
    it replaced.  Level k integrates the residual factor I_{k-1}(s) /
    s^{e_{k-1}} by QAWS through a counted callback, down to a level 0 of
    (1.0, 0.0).  Its error bound adds QUADPACK's estimate, the inner bound
    times the weight's mass and 4 eps of the value."""
    a, b = spec.alphas, spec.betas
    evals = [0]
    rounding = 4.0 * np.finfo(float).eps

    def level(k, upper):
        if k == 0:
            return 1.0, 0.0
        e_prev = sum(a[i] + b[i] for i in range(k - 1)) + (k - 1)
        wvar = (a[k - 1] + e_prev, b[k - 1])
        err_inner = [0.0]

        def smooth_part(s):
            evals[0] += 1
            s = max(s, 1e-12 * upper)
            val, err = level(k - 1, s)
            err_inner[0] = max(err_inner[0], err / max(s**e_prev, 1e-300))
            return val / s**e_prev

        quad = dict(weight="alg", wvar=wvar, epsabs=0.0, epsrel=rtol, limit=200)
        val, err = integrate.quad(smooth_part, 0.0, upper, **quad)
        inner = 0.0
        if k > 1:
            inner = err_inner[0] * integrate.quad(lambda s: 1.0, 0.0, upper, **quad)[0]
        return val, abs(err) + inner + rounding * abs(val)

    value, err = level(spec.n, spec.t)
    return value, err, evals[0]


def test_nested_quadrature_agrees_with_the_recursion():
    """The product of n one-dimensional integrals against the recursion it
    replaced: within the sum of the two error bounds, and the same single
    QAWS call, so the same bits, at n = 1."""
    rng = random.Random(17)
    eps = np.finfo(float).eps
    for n in (1, 2, 3):
        for rtol in (1e-8, 1e-10):
            spec = _random_valid_spec(rng, n)
            res = brute_force(spec, method="nested-quadrature", rtol=rtol)
            value, err, evals = _recursive_nested_quadrature(spec, rtol)
            assert abs(res.estimate - value) <= res.error_bound + err
            # each factor's 4 eps rounding allowance carries into the product
            assert res.error_bound >= 0.99 * n * 4.0 * eps * res.estimate
            if n == 1:
                assert (res.estimate, res.error_bound, res.evaluations) == (
                    value, err, evals
                )


def test_nested_quadrature_makes_no_gamma_call(monkeypatch):
    """The oracle stays independent of the gamma closed form it checks."""

    def no_gamma(*args):
        raise AssertionError("the quadrature oracle called gammaln")

    monkeypatch.setattr(simplex_integrals, "gammaln", no_gamma)
    rng = random.Random(29)
    for n in (1, 2, 3):
        spec = _random_valid_spec(rng, n)
        res = brute_force(spec, method="nested-quadrature")
        assert res.estimate > 0 and res.error_bound > 0
    with pytest.raises(AssertionError, match="gammaln"):
        closed_form(spec)


def test_nested_quadrature_error_bound_covers_the_error():
    # the old bound scaled the inner error by the upper limit, not the
    # weight's mass, and reached 1e15 at n = 3; at n = 1 it could be 0.0
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(12):
            spec = _random_valid_spec(rng, n)
            res = brute_force(spec, method="nested-quadrature")
            exact = closed_form(spec)
            assert res.error_bound <= 1e-9 * abs(exact)
            assert res.error_bound >= abs(res.estimate - exact) - 1e-14 * abs(exact)
    res = brute_force(SimplexIntegralSpec(1.0, (1.0,), (1.0,)))
    assert res.error_bound > 0.0


def test_closed_form_vs_mpmath_n2():
    spec = SimplexIntegralSpec(1.0, (0.3, -0.4), (-0.6, 0.8))
    a1, a2 = spec.alphas
    b1, b2 = spec.betas
    # at 21 digits the nested tanh-sinh reference is within 4e-13 relative
    # of its 40-digit value, under 1% of the tolerance below
    with mpmath.workdps(21):
        ref = float(
            mpmath.quad(
                lambda t2: mpmath.quad(
                    lambda t1: t1**a1 * (t2 - t1) ** b1 * t2**a2, [0, t2]
                )
                * (1 - t2) ** b2,
                [0, 1],
            )
        )
    assert closed_form(spec) == pytest.approx(ref, rel=1e-10)


def test_recursion_peeling_last_variable():
    # integrating out t_n gives the (n-1)-dim integral with the last pair
    # absorbed: I_n(1, a, b) = B-type factor * I_{n-1} with a'_{n-1} shifted
    rng = random.Random(21)
    for _ in range(8):
        spec = _random_valid_spec(rng, 3)
        res = brute_force(spec, method="nested-quadrature", rtol=1e-10)
        assert res.estimate == pytest.approx(closed_form(spec), rel=1e-8)
        # same spec with t halved, checking the quadrature tracks scaling too
        half = SimplexIntegralSpec(spec.t / 2, spec.alphas, spec.betas)
        res2 = brute_force(half, method="nested-quadrature", rtol=1e-10)
        assert res2.estimate == pytest.approx(closed_form(half), rel=1e-8)


def test_monte_carlo_oracle_within_error_bars():
    rng = random.Random(31)
    for n in (2, 4, 5):
        spec = _random_valid_spec(rng, n, lo=-0.4, hi=1.0)
        res = brute_force(spec, method="monte-carlo", seed=5)
        assert abs(res.estimate - closed_form(spec)) <= 5.0 * res.error_bound


def test_monte_carlo_deterministic():
    spec = SimplexIntegralSpec(1.0, (0.2, -0.3), (0.1, 0.4))
    a = brute_force(spec, method="monte-carlo", seed=9)
    b = brute_force(spec, method="monte-carlo", seed=9)
    assert a.estimate == b.estimate and a.error_bound == b.error_bound


def test_condition_diagnostics_name_the_clause():
    bad = SimplexIntegralSpec(1.0, (-1.2, 0.0), (0.0, 0.0))
    rep = check_conditions(bad)
    assert not rep
    assert "alpha" in rep.clause
    with pytest.raises(ValidationError):
        closed_form(bad)
    bad_beta = SimplexIntegralSpec(1.0, (0.0,), (-1.5,))
    rep2 = check_conditions(bad_beta)
    assert not rep2 and "beta" in rep2.clause
    # the first failing cumulative margin, its k and its value, in the clause
    for k, a, b in ((1, (0.5, -3.0, -3.0), (0.1, 0.0, 0.3)),
                    (2, (0.5, 0.2, -4.5), (0.1, 0.3, 0.0))):
        rep3 = check_conditions(SimplexIntegralSpec(1.0, a, b))
        assert not rep3
        assert rep3.clause == (
            f"cumulative condition fails at k={k}: "
            "sum_(i<=k)(alpha_i+beta_i)+k+1+alpha_(k+1) = -0.4 <= 0"
        )


def test_log_closed_form_handles_large_n():
    # 20 gamma factors must not overflow in log space
    n = 20
    spec = SimplexIntegralSpec(1.0, (0.5,) * n, (0.5,) * n)
    val = log_closed_form(spec)
    assert math.isfinite(val)
    assert val < 0


def _mp_log_closed_form(spec):
    """The closed form of log I_n in mpmath, at the working precision, on
    the spec's floats taken as exact."""
    a = [mpmath.mpf(v) for v in spec.alphas]
    b = [mpmath.mpf(v) for v in spec.betas]
    sigma = [sum(a[:k] + b[:k]) + k + 1 for k in range(1, spec.n + 1)]
    lg = mpmath.loggamma
    val = lg(a[0] + 1) + sum(lg(v + 1) for v in b) - lg(sigma[-1])
    val += sum(lg(sigma[k] + a[k + 1]) - lg(sigma[k]) for k in range(spec.n - 1))
    return val + (sigma[-1] - 1) * mpmath.log(mpmath.mpf(spec.t))


def test_closed_form_that_cancels_past_its_rounding_bound_raises():
    # ln Gamma terms of size about A ln A once cancelled silently: 0.0
    # against -ln((A+1)(2A+2)) = -1382.2442 at A = 1e300, -98.0 against
    # -97.98986 at 1e14 (I_n off by 1%), -46.744873 against -46.744849 at 1e10
    specs = [SimplexIntegralSpec(1.0, (1e300, 1e300), (0.0, 0.0)),
             SimplexIntegralSpec(1.0, (1e14, 1e14), (0.5, 0.5)),
             SimplexIntegralSpec(1.0, (1e10, 1e10), (0.0, 0.0))]
    for spec, ref in zip(specs, (-1382.2442, -97.98986, -46.744849)):
        with mpmath.workdps(320):
            assert abs(float(_mp_log_closed_form(spec)) - ref) < 1e-4
        with pytest.raises(EstimationError, match=r"rounding bound of .* > 1e-6: "):
            log_closed_form(spec)
    # I_n below the floats at every log value within the bound is 0.0
    spec = SimplexIntegralSpec(1e-300, (1e300, 1.0), (0.5, 400.0))
    with pytest.raises(EstimationError, match="rounding bound"):
        log_closed_form(spec)
    assert closed_form(spec) == 0.0
    # at 1e6 the error, 2.4e-9 of -28.32, lies within a bound below 1e-6
    spec = SimplexIntegralSpec(1.0, (1e6, 1e6), (0.0, 0.0))
    val, bound = simplex_integrals._log_closed_form(spec)
    with mpmath.workdps(60):
        assert abs(val - _mp_log_closed_form(spec)) <= bound < 1e-6
    assert log_closed_form(spec) == val


@pytest.mark.parametrize("lo, hi", [(-3.0, 1.0), (-3.0, 12.0), (250.0, 300.0)])
def test_closed_form_rounding_bound_covers_the_error(lo, hi):
    # magnitudes 10^lo to 10^hi of either sign, some betas and alphas
    # just above -1; every spec, raising or not, against 320 digits
    rng = random.Random(int(hi))

    def draw():
        if rng.random() < 0.15:
            return -1.0 + 10 ** rng.uniform(-12, -0.5)
        return rng.choice((1, -1)) * 10 ** rng.uniform(lo, hi)

    checked = 0
    while checked < 40:
        n = rng.randint(1, 5)
        spec = SimplexIntegralSpec(10 ** rng.uniform(-3, 3),
                                   tuple(draw() for _ in range(n)),
                                   tuple(draw() for _ in range(n)))
        if not check_conditions(spec):
            continue
        checked += 1
        val, bound = simplex_integrals._log_closed_form(spec)
        with mpmath.workdps(320):
            assert abs(val - _mp_log_closed_form(spec)) <= bound, spec
        if bound <= 1e-6:
            assert log_closed_form(spec) == val
        else:
            with pytest.raises(EstimationError, match="rounding bound"):
                log_closed_form(spec)


def test_size_caps_on_oracles():
    spec = SimplexIntegralSpec(1.0, (0.0,) * 4, (0.0,) * 4)
    with pytest.raises(SizeError):
        brute_force(spec, method="nested-quadrature")
    big = SimplexIntegralSpec(1.0, (0.0,) * 6, (0.0,) * 6)
    with pytest.raises(SizeError):
        brute_force(big, method="monte-carlo")


def test_gaussian_spectral_integral_formula():
    for alpha in (-0.9, -0.5, 0.0, 0.5, 1.0):
        for t in (0.5, 1.0, 2.0):
            # substitute xi = w^{1/(1+alpha)} on [0, 1] so the endpoint
            # singularity disappears; the tail piece is smooth as-is
            p = 1.0 + alpha
            with mpmath.workdps(20):
                sing = mpmath.quad(
                    lambda w: mpmath.e ** (-t * w ** (2.0 / p)) / p, [0, 1]
                )
                tail = mpmath.quad(
                    lambda xi: xi**alpha * mpmath.e ** (-t * xi * xi),
                    [1, mpmath.inf],
                )
                ref = float(2 * (sing + tail))
            assert gaussian_spectral_integral(alpha, t) == pytest.approx(
                ref, rel=1e-10
            )


def test_gaussian_spectral_integral_domain():
    for alpha in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gaussian_spectral_integral(alpha, 1.0)
    with pytest.raises(DomainError):
        gaussian_spectral_integral(0.5, 0.0)


def test_oracle_rejects_bad_seed_and_rtol():
    spec = SimplexIntegralSpec(1.0, (1.0,), (1.0,))
    for seed in (-1, 1.5):
        with pytest.raises(ValidationError):
            brute_force(spec, method="monte-carlo", seed=seed)
    for rtol in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            brute_force(spec, method="nested-quadrature", rtol=rtol)
    with pytest.raises(DomainError, match="unknown method 'simpson'"):
        brute_force(spec, method="simpson")
    # a spec outside the integrability conditions is refused by its clause
    bad = SimplexIntegralSpec(1.0, (-1.2, 0.0), (0.0, 0.0))
    for method in ("nested-quadrature", "monte-carlo"):
        with pytest.raises(ValidationError, match=r"alpha_1 > -1 fails"):
            brute_force(bad, method=method)


def test_inputs_that_are_not_real_numbers_are_validation_errors():
    # float() once took a bool or a numeric string in a spec for a number;
    # the rest ended in a bare TypeError (numpy's UFuncTypeError for rtol),
    # or, for the bools, returned a value
    spec = SimplexIntegralSpec(1.0, (1.0,), (1.0,))
    for call, match in (
        (lambda: SimplexIntegralSpec(True, (1.0,), (1.0,)), "t must be real"),
        (lambda: SimplexIntegralSpec("1", (1.0,), (1.0,)), "t must be real"),
        # an int past the float range once ended in a bare OverflowError
        (lambda: SimplexIntegralSpec(10**400, (1.0,), (1.0,)), "t must be real"),
        (lambda: SimplexIntegralSpec(1.0, (0.5, "0.5"), (1.0, 1.0)),
         r"alphas\[1\] must be real"),
        (lambda: SimplexIntegralSpec(1.0, (True,), (1.0,)), r"alphas\[0\] must be real"),
        (lambda: SimplexIntegralSpec(1.0, (1.0,), (np.True_,)), r"betas\[0\] must be real"),
        (lambda: SimplexIntegralSpec(1.0, None, (1.0,)), "alphas must be a sequence"),
        (lambda: SimplexIntegralSpec(1.0, (1.0,), 1.0), "betas must be a sequence"),
        (lambda: gaussian_spectral_integral("0.5", 1.0), "alpha must be real"),
        (lambda: gaussian_spectral_integral(True, 1.0), "alpha must be real"),
        (lambda: gaussian_spectral_integral(0.5, np.True_), "t must be real"),
        (lambda: brute_force(spec, method="monte-carlo", seed=True), "seed must be an integer"),
        (lambda: brute_force(spec, rtol="1e-8"), "rtol must be real"),
    ):
        with pytest.raises(ValidationError, match=match):
            call()
    # real numbers of every type pass, and the spec keeps them as floats
    same = SimplexIntegralSpec(np.int64(1), iter([np.float32(1.0)]), np.array([1]))
    assert same == spec and type(same.t) is float and type(same.betas[0]) is float
    assert gaussian_spectral_integral(np.int64(1), 2) == gaussian_spectral_integral(1.0, 2.0)


def test_spectral_integral_past_the_float_range_is_an_estimation_error():
    # exp of the log value once raised a bare OverflowError, and at
    # alpha = 1e306, where ln Gamma((1 + alpha) / 2) = inf, gave inf or nan
    for alpha, t in ((1e300, 1.0), (1e3, 1e-300), (1e306, 1.0), (1e306, 2.0)):
        with pytest.raises(EstimationError, match="exceeds the float range"):
            gaussian_spectral_integral(alpha, t)
    for t in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError, match="finite"):
            gaussian_spectral_integral(0.5, t)
    assert gaussian_spectral_integral(1e3, 1e300) == 0.0


def _mp_log_spectral_integral(alpha, t):
    z = (1 + mpmath.mpf(alpha)) / 2
    return mpmath.loggamma(z) - z * mpmath.log(mpmath.mpf(t))


def test_spectral_integral_that_cancels_past_its_rounding_bound_raises():
    # at t = (1 + alpha) / (2e) ln Gamma(z) and z ln t cancel: alpha = 1e12
    # once returned 3.5421e-06 against 3.5447e-06, with no error
    for alpha in (1e12, 1e10):
        with pytest.raises(EstimationError, match=r"rounding bound of .* > 1e-6: "):
            gaussian_spectral_integral(alpha, (1.0 + alpha) / (2.0 * math.e))
    alpha = 1e6
    t = (1.0 + alpha) / (2.0 * math.e)
    val, bound = simplex_integrals._log_spectral_integral(alpha, t)
    with mpmath.workdps(60):
        assert abs(val - _mp_log_spectral_integral(alpha, t)) <= bound < 1e-6
    assert gaussian_spectral_integral(alpha, t) == math.exp(val)


def test_spectral_integral_rounding_bound_covers_the_error():
    # alpha near -1 or up to 1e10, t anywhere or where ln Gamma(z) and
    # z ln t cancel to within 25 of each other; every draw, raising or
    # not, against 60 digits
    rng = random.Random(19)
    raised = 0
    for _ in range(400):
        if rng.random() < 0.2:
            alpha = -1.0 + 10 ** rng.uniform(-12, 0)
        else:
            alpha = 10 ** rng.uniform(-3, 10)
        if alpha < 100.0 or rng.random() < 0.5:
            t = 10 ** rng.uniform(-5, 5)
        else:
            t = (1.0 + alpha) / (2.0 * math.e) * math.exp(rng.uniform(-50, 50) / alpha)
        val, bound = simplex_integrals._log_spectral_integral(alpha, t)
        with mpmath.workdps(60):
            assert abs(val - _mp_log_spectral_integral(alpha, t)) <= bound, (alpha, t)
        if bound <= 1e-6 or not -746.0 < val < 710.0:
            continue
        raised += 1
        with pytest.raises(EstimationError, match="rounding bound"):
            gaussian_spectral_integral(alpha, t)
    assert raised > 0


def test_monte_carlo_oracle_past_the_float_range_warns_of_nothing():
    # log_w overflowed outside the errstate block; the weights are
    # exp(-inf) = 0, the rounded value of about 1e-616
    res = brute_force(SimplexIntegralSpec(1.0, (1e308,), (1.0,)), method="monte-carlo")
    assert (res.estimate, res.error_bound) == (0.0, 0.0)
