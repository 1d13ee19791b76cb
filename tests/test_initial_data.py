import json
import math

import numpy as np
import pytest
from scipy import integrate

from pam_moments.errors import DomainError, ValidationError
from pam_moments.initial_data import (
    CustomDensity,
    DiracAt,
    FiniteAtoms,
    GaussianDensity,
    LebesgueConstant,
    PolynomialDensity,
    check_cond_mu0,
    heat_kernel,
    j0,
    measure_from_config,
)


def test_heat_kernel_normalization_and_scaling():
    for t in (0.1, 1.0, 7.0):
        mass, _ = integrate.quad(lambda y: heat_kernel(t, y), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)
    assert heat_kernel(1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    with pytest.raises(DomainError):
        heat_kernel(0.0, 1.0)


def test_heat_kernel_semigroup():
    # G(s) * G(t) = G(s + t) by quadrature at a few points
    s, t = 0.4, 0.9
    for x in (-1.0, 0.0, 2.5):
        conv, _ = integrate.quad(
            lambda y: heat_kernel(s, x - y) * heat_kernel(t, y), -np.inf, np.inf
        )
        assert conv == pytest.approx(heat_kernel(s + t, x), abs=1e-10)


def test_dirac_j0_is_heat_kernel():
    m = DiracAt(0.7)
    for t, x in [(0.5, 0.0), (2.0, -1.2)]:
        assert m.j0(t, x) == heat_kernel(t, x - 0.7)
        assert j0(t, x, m) == m.j0(t, x)


def test_dirac_sqrt_t_scaling():
    # sqrt(t) * J0(t, 0) is constant for the point mass at the origin
    m = DiracAt(0.0)
    vals = [math.sqrt(t) * m.j0(t, 0.0) for t in (0.01, 0.1, 1.0, 10.0)]
    assert np.allclose(vals, vals[0], rtol=1e-14)


def test_lebesgue_j0_constant():
    m = LebesgueConstant(3.5)
    assert m.j0(0.3, -4.0) == 3.5
    assert m.j0(9.0, 4.0) == 3.5
    with pytest.raises(ValidationError):
        LebesgueConstant(-1.0)


def test_polynomial_density_j0_vs_quadrature():
    m = PolynomialDensity()
    for t, x in [(0.7, 1.3), (2.0, 0.0), (0.1, -2.0)]:
        ref, _ = integrate.quad(
            lambda y: heat_kernel(t, x - y) * y * y, -np.inf, np.inf
        )
        assert m.j0(t, x) == pytest.approx(ref, abs=1e-8)
        assert m.j0(t, x) == pytest.approx(x * x + t, rel=1e-12)


def test_polynomial_density_gaussian_integral_closed_form():
    m = PolynomialDensity()
    for a in (0.37, 1.0, 5.0):
        assert m.gaussian_integral(a) == pytest.approx(
            math.sqrt(math.pi) / (2.0 * a**1.5), abs=1e-10
        )


def test_gaussian_density_j0():
    m = GaussianDensity(mean=1.0, variance=0.5)
    for t, x in [(0.4, 0.0), (2.0, 3.0)]:
        ref, _ = integrate.quad(
            lambda y: heat_kernel(t, x - y) * heat_kernel(0.5, y - 1.0),
            -np.inf,
            np.inf,
        )
        assert m.j0(t, x) == pytest.approx(ref, abs=1e-10)


def test_finite_atoms_linearity():
    atoms = FiniteAtoms(((0.0, 2.0), (1.5, 0.5)))
    t, x = 0.8, 0.3
    ref = 2.0 * heat_kernel(t, x) + 0.5 * heat_kernel(t, x - 1.5)
    assert atoms.j0(t, x) == pytest.approx(ref, rel=1e-14)


def test_custom_density_is_oracle_grade():
    m = CustomDensity(lambda y: math.exp(-abs(y)))
    assert m.quadrature_grade
    ref, _ = integrate.quad(
        lambda y: heat_kernel(1.0, 0.5 - y) * math.exp(-abs(y)), -np.inf, np.inf
    )
    assert m.j0(1.0, 0.5) == pytest.approx(ref, rel=1e-8)


def test_cond_mu0_reports():
    ok = check_cond_mu0(PolynomialDensity())
    assert ok and ok.violated_at is None
    assert all(math.isfinite(v) for v in ok.values)
    with pytest.raises(DomainError):
        check_cond_mu0(DiracAt(0.0), a_grid=(0.0,))


def test_measure_from_config_round_trip():
    cases = [
        ({"type": "dirac", "x0": 0.25}, DiracAt),
        ({"type": "lebesgue", "c": 2.0}, LebesgueConstant),
        ({"type": "gaussian", "mean": 0.0, "variance": 1.0}, GaussianDensity),
        ({"type": "polynomial"}, PolynomialDensity),
    ]
    for cfg, cls in cases:
        m = measure_from_config(cfg)
        assert isinstance(m, cls)
    m = measure_from_config(json.loads('{"type": "dirac", "x0": -1.0}'))
    assert m.x0 == -1.0
    with pytest.raises(ValidationError):
        measure_from_config({"type": "unknown"})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_constructors_reject_non_finite_fields(bad):
    for make in (
        lambda: DiracAt(bad),
        lambda: LebesgueConstant(bad),
        lambda: GaussianDensity(bad, 1.0),
        lambda: GaussianDensity(0.0, bad),
        lambda: FiniteAtoms(((bad, 1.0),)),
        lambda: FiniteAtoms(((0.0, 1.0), (1.0, bad))),
    ):
        with pytest.raises(ValidationError):
            make()
    # the config reader has no check of its own: the constructors reject
    with pytest.raises(ValidationError, match="bad field in measure"):
        measure_from_config({"type": "gaussian", "variance": bad})
