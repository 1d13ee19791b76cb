import math
import random

import mpmath
import numpy as np
import pytest

from pam_moments.errors import DomainError, SizeError, ValidationError
from pam_moments.simplex_integrals import (
    SimplexIntegralSpec,
    brute_force,
    check_conditions,
    closed_form,
    gaussian_spectral_integral,
    log_closed_form,
)

mpmath.mp.dps = 30


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


def test_closed_form_vs_mpmath_n2():
    spec = SimplexIntegralSpec(1.0, (0.3, -0.4), (-0.6, 0.8))
    a1, a2 = spec.alphas
    b1, b2 = spec.betas
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
        res = brute_force(spec, method="monte-carlo", budget=200_000, seed=5)
        assert abs(res.estimate - closed_form(spec)) <= 5.0 * res.error_bound


def test_monte_carlo_deterministic():
    spec = SimplexIntegralSpec(1.0, (0.2, -0.3), (0.1, 0.4))
    a = brute_force(spec, method="monte-carlo", budget=50_000, seed=9)
    b = brute_force(spec, method="monte-carlo", budget=50_000, seed=9)
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


def test_log_closed_form_handles_large_n():
    # 20 gamma factors must not overflow in log space
    n = 20
    spec = SimplexIntegralSpec(1.0, (0.5,) * n, (0.5,) * n)
    val = log_closed_form(spec)
    assert math.isfinite(val)
    assert val < 0


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
            sing = mpmath.quad(
                lambda w: mpmath.e ** (-t * w ** (2.0 / p)) / p, [0, 1]
            )
            tail = mpmath.quad(
                lambda xi: xi**alpha * mpmath.e ** (-t * xi * xi), [1, mpmath.inf]
            )
            ref = float(2 * (sing + tail))
            assert gaussian_spectral_integral(alpha, t) == pytest.approx(
                ref, rel=1e-10
            )


def test_gaussian_spectral_integral_domain():
    with pytest.raises(DomainError):
        gaussian_spectral_integral(-1.0, 1.0)
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
