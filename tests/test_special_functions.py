import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam_moments.errors import DomainError, EstimationError
from pam_moments.special_functions import gamma_ratio, log_gamma


def stirling_log_gamma(x: float) -> float:
    """Stirling-series ln Gamma for x >= 10; independent cross-check oracle."""
    if x < 10:
        raise DomainError("stirling_log_gamma requires x >= 10")
    # Bernoulli-number coefficients B_{2k}/(2k(2k-1))
    coeffs = [
        1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
        -691.0 / 360360, 1.0 / 156, -3617.0 / 122400,
    ]
    s = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi)
    xp = x
    for c in coeffs:
        s += c / xp
        xp *= x * x
    return s


def test_log_gamma_against_mpmath():
    for x in np.geomspace(1e-3, 1e5, 60):
        with mpmath.workdps(20):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_stirling_oracle_agrees():
    for x in (10.0, 25.0, 123.4, 1e4):
        assert stirling_log_gamma(x) == pytest.approx(log_gamma(x), rel=1e-13)


def test_log_gamma_recurrence():
    # the subtraction cancels ~eps * log_gamma(x+1) absolutely, which
    # dominates the budget once x is large
    eps = np.finfo(float).eps
    for x in np.geomspace(0.05, 1e5, 80):
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        tol = 1e-12 * (1.0 + abs(math.log(x))) + 4.0 * eps * abs(log_gamma(x + 1.0))
        assert abs(lhs - math.log(x)) <= tol


def test_gamma_ratio_identity_cases():
    assert gamma_ratio(3.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert gamma_ratio(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert gamma_ratio(0.5, 0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


def test_gamma_ratio_monotone_in_z():
    z = np.linspace(0.1, 50.0, 400)
    for a in (0.05, 0.5, 2.0):
        vals = np.array([gamma_ratio(zi, a) for zi in z])
        assert np.all(np.diff(vals) >= -1e-12)


def test_gamma_ratio_on_an_array_equals_the_scalar_loop():
    # check_07 makes one array call per a in place of 500 scalar calls
    z = np.linspace(0.1, 50.0, 500)
    for a in (0.05, 0.5, 2.0):
        assert np.array_equal(gamma_ratio(z, a), [gamma_ratio(zi, a) for zi in z])


def test_log_gamma_ratio_no_overflow_huge_arguments():
    # Gamma(z) overflows past z = 171.6; the ratio, formed in log space,
    # stays finite while it is below the float range
    assert math.isfinite(gamma_ratio(9.9e5, 50.0))
    assert math.isfinite(gamma_ratio(5e5, 2.0))


def test_domain_errors():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)
    with pytest.raises(DomainError):
        gamma_ratio(1.0, -0.5)


def test_array_broadcasting():
    x = np.array([0.5, 1.0, 3.0])
    assert np.allclose(log_gamma(x), [log_gamma(v) for v in x])


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(0.05, 100.0, allow_nan=False),
    a=st.floats(0.0, 5.0, allow_nan=False),
)
def test_gamma_ratio_log_consistency(z, a):
    assert gamma_ratio(z, a) == pytest.approx(
        math.exp(math.lgamma(z + a) - math.lgamma(z)), rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(z=st.floats(0.1, 50.0), a=st.floats(0.01, 3.0))
def test_gamma_ratio_functional_equation(z, a):
    # Gamma(z+a+1)/Gamma(z) = (z+a) * Gamma(z+a)/Gamma(z)
    lhs = gamma_ratio(z, a + 1.0)
    rhs = (z + a) * gamma_ratio(z, a)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_gamma_ratio_past_the_float_range_is_an_estimation_error():
    # np.exp once leaked its overflow RuntimeWarning and returned inf
    with pytest.raises(EstimationError, match="exceeds the float range"):
        gamma_ratio(1.0, 1e300)
    with pytest.raises(EstimationError):
        gamma_ratio(np.array([1.0, 2.0]), np.array([0.5, 1e300]))
    # z + a past the floats leaked an overflow warning; ln Gamma(z) = inf
    # at z = 1e306 gave inf - inf = nan with an invalid-value warning
    for z, a in ((1e308, 1e308), (1e306, 1.0)):
        with pytest.raises(EstimationError, match="exceeds the float range"):
            gamma_ratio(z, a)


def test_log_gamma_past_the_float_range_is_an_estimation_error():
    # ln Gamma is inf from about x = 2.55e305 on, which log_gamma once
    # returned as a value
    assert math.isfinite(log_gamma(2.5e305))
    for x in (1e306, np.array([2.0, 1e306]), 1.7e308):
        with pytest.raises(EstimationError, match="exceeds the float range at x = "):
            log_gamma(x)
