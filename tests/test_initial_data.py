import json
import math

import numpy as np
import pytest
from scipy import integrate

from pam_moments.errors import DomainError, EstimationError, ValidationError
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
    # heat_kernel(1.0, nan) once returned nan; at +-inf 0 is the limit
    for x in (math.nan, [0.0, math.nan]):
        with pytest.raises(DomainError, match="nan"):
            heat_kernel(1.0, x)
    assert heat_kernel(1.0, math.inf) == heat_kernel(1.0, -math.inf) == 0.0
    assert np.array_equal(heat_kernel(1.0, [math.inf, 0.0]), [0.0, heat_kernel(1.0, 0.0)])


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


def test_j0_at_a_non_finite_x_is_a_domain_error():
    # the point mass once returned nan at x = nan
    measures = (DiracAt(0.0), LebesgueConstant(1.0), PolynomialDensity(),
                GaussianDensity(), FiniteAtoms(((0.0, 1.0),)))
    for m in measures:
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="x must be finite"):
                j0(1.0, x, m)


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
    # an empty grid once returned ok=True, a verdict that checked nothing
    for empty in ((), [], iter(())):
        with pytest.raises(ValidationError, match="a_grid must be nonempty"):
            check_cond_mu0(DiracAt(0.0), a_grid=empty)


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


def test_bad_field_message_holds_no_repr_of_the_config():
    # the message once held repr(cfg), which raises a bare ValueError for
    # an int past Python's 4,300-digit limit
    for cfg, field in (({"type": "dirac", "x0": 10**5000}, "x0"),
                       ({"type": "atoms", "atoms": [[10**5000, 1.0]]}, "location")):
        with pytest.raises(ValidationError, match=f"bad field in measure of type "
                           f"'{cfg['type']}' \\({field} must be real"):
            measure_from_config(cfg)


def test_measure_fields_that_are_not_real_numbers_are_validation_errors():
    # each once raised a bare TypeError (from math.isfinite or a
    # comparison) or ValueError (from float), or, for a bool, was accepted;
    # a numeric string once built an atom, and the config reader cast a
    # JSON boolean or numeric string with float() before the constructor
    for make, field in (
        (lambda: DiracAt("x"), "x0"),
        (lambda: DiracAt(True), "x0"),
        (lambda: DiracAt(np.True_), "x0"),
        (lambda: LebesgueConstant("x"), "c"),
        (lambda: LebesgueConstant(True), "c"),
        (lambda: LebesgueConstant(np.True_), "c"),
        (lambda: GaussianDensity(0.0, np.True_), "variance"),
        (lambda: GaussianDensity("x", 1.0), "mean"),
        (lambda: GaussianDensity(0.0, "y"), "variance"),
        (lambda: GaussianDensity(0.0, False), "variance"),
        (lambda: FiniteAtoms([("x", 1.0)]), "location"),
        (lambda: FiniteAtoms([(0.0, 1.0), (1.0, None)]), "mass"),
        (lambda: FiniteAtoms([(True, 1.0)]), "location"),
        (lambda: FiniteAtoms([("1.5", 2)]), "location"),
        (lambda: FiniteAtoms([(1.5, "2")]), "mass"),
        (lambda: measure_from_config({"type": "dirac", "x0": True}), "x0"),
        (lambda: measure_from_config({"type": "lebesgue", "c": "2"}), "c"),
        (lambda: measure_from_config({"type": "gaussian", "mean": "0"}), "mean"),
        (lambda: measure_from_config({"type": "gaussian", "variance": False}), "variance"),
        (lambda: measure_from_config({"type": "atoms", "atoms": [["1.5", 2.0]]}), "location"),
        (lambda: measure_from_config({"type": "atoms", "atoms": [[0.0, True]]}), "mass"),
        # an int past the float range once ended in a bare OverflowError
        (lambda: DiracAt(10**400), "x0"),
        (lambda: measure_from_config({"type": "dirac", "x0": 10**400}), "x0"),
    ):
        with pytest.raises(ValidationError, match=f"{field} must be real"):
            make()
    # numbers of every real type still pass, and a config's fields are floats
    assert DiracAt(np.float64(0.5)) == DiracAt(0.5)
    assert GaussianDensity(1, np.int64(2)) == GaussianDensity(1.0, 2.0)
    assert FiniteAtoms([(np.int32(1), 2)]).atoms == ((1.0, 2.0),)
    assert FiniteAtoms(iter([[0.5, 2], (np.int64(-1), np.float32(1))])).atoms == (
        (0.5, 2.0), (-1.0, 1.0))
    m = measure_from_config({"type": "gaussian", "mean": 1, "variance": 2})
    assert (type(m.mean), type(m.variance)) == (float, float)
    assert type(measure_from_config({"type": "dirac", "x0": 1}).x0) is float


def test_times_positions_and_grid_values_that_are_not_real_are_validation_errors():
    # each once raised a bare TypeError from a comparison or math.isfinite,
    # or, for a bool, returned a value
    for call, name in (
        (lambda: heat_kernel("1", 0.0), "t"),
        (lambda: heat_kernel(True, 0.0), "t"),
        (lambda: j0(np.True_, 0.0, DiracAt(0.0)), "t"),
        (lambda: j0(1.0, "0", DiracAt(0.0)), "x"),
        (lambda: j0(1.0, True, DiracAt(0.0)), "x"),
        (lambda: LebesgueConstant(1.0).j0(True, 0.0), "t"),
        (lambda: GaussianDensity(0.0, 1.0).j0(True, 0.0), "t"),
        (lambda: PolynomialDensity().j0("1", 0.0), "t"),
        (lambda: CustomDensity(lambda y: 1.0).j0(None, 0.0), "t"),
        (lambda: check_cond_mu0(DiracAt(0.0), a_grid=("1",)), "a"),
        (lambda: check_cond_mu0(DiracAt(0.0), a_grid=(1.0, True)), "a"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be real"):
            call()
    # real numbers of every type pass, and t <= 0 is still a domain error
    assert heat_kernel(1, np.int64(0)) == heat_kernel(np.float64(1.0), 0.0)
    assert j0(np.int64(1), np.float64(0.0), DiracAt(0.0)) == j0(1.0, 0.0, DiracAt(0.0))
    for t in (0.0, -1, math.nan):
        with pytest.raises(DomainError, match="t must be > 0"):
            heat_kernel(t, 0.0)
        with pytest.raises(DomainError, match="t must be > 0"):
            LebesgueConstant(1.0).j0(t, 0.0)
        with pytest.raises(DomainError, match="t must be > 0"):
            GaussianDensity(0.0, 1.0).j0(t, 0.0)


def test_gaussian_integrals_match_quadrature():
    v = 0.6
    cases = [
        (LebesgueConstant(1.7), lambda y: 1.7),
        (
            GaussianDensity(0.4, v),
            lambda y: math.exp(-((y - 0.4) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v),
        ),
        (CustomDensity(lambda y: math.exp(-abs(y))), lambda y: math.exp(-abs(y))),
    ]
    for a in (0.01, 0.3, 2.0):
        for measure, density in cases:
            ref, _ = integrate.quad(
                lambda y: math.exp(-a * y * y) * density(y), -np.inf, np.inf,
                epsabs=0.0, epsrel=1e-11,
            )
            assert measure.gaussian_integral(a) == pytest.approx(ref, rel=1e-9), measure
        # point masses have no density: the integral is the weighted sum of
        # exp(-a y^2) over the atoms
        atoms = FiniteAtoms(((0.3, 2.0), (-1.2, 0.5)))
        want = 2.0 * math.exp(-a * 0.09) + 0.5 * math.exp(-a * 1.44)
        assert atoms.gaussian_integral(a) == pytest.approx(want, rel=1e-14)


def test_measure_from_config_reads_atoms():
    m = measure_from_config({"type": "atoms", "atoms": [[0.3, 2.0], [-1.2, 0.5]]})
    assert m == FiniteAtoms(((0.3, 2.0), (-1.2, 0.5)))
    for bad in ({"type": "atoms"}, {"type": "atoms", "atoms": [[0.3]]},
                {"type": "atoms", "atoms": []}):
        with pytest.raises(ValidationError):
            measure_from_config(bad)


def test_finite_atoms_that_are_not_pairs_are_validation_errors():
    # a non-iterable or an atom that is not a pair once raised a bare
    # TypeError or ValueError
    for atoms, match in (
        (5, "atoms must be an iterable"),
        (None, "atoms must be an iterable"),
        ([(1,)], "must be a .location, mass. pair"),
        ([(0.0, 1.0), (1, 2, 3)], "must be a .location, mass. pair"),
        ([1.0], "must be a .location, mass. pair"),
        # a string was once unpacked into two characters
        (["12"], "must be a .location, mass. pair"),
        ([(0.0, 1.0), b"12"], "must be a .location, mass. pair"),
    ):
        with pytest.raises(ValidationError, match=match):
            FiniteAtoms(atoms)


def test_closed_forms_past_the_float_range():
    # y**2 past the floats once raised OverflowError: the weight is 0 there,
    # or exp(-a |y| |y|) where a is tiny
    assert DiracAt(1e200).gaussian_integral(1.0) == 0.0
    assert DiracAt(1e155).gaussian_integral(1e-310) == pytest.approx(
        math.exp(-1.0), rel=1e-9
    )
    assert GaussianDensity(1e200, 1.0).gaussian_integral(1.0) == 0.0
    assert FiniteAtoms(((1e200, 1.0), (0.0, 2.0))).gaussian_integral(1.0) == 2.0
    # a m^2 and 1 + 2 a v both past the floats once gave inf / inf = nan
    assert GaussianDensity(1e154, 1e308).gaussian_integral(10.0) == 0.0
    # a^1.5 past the floats: the integral is below them
    assert PolynomialDensity().gaussian_integral(1e300) == 0.0
    # a value past the floats is an estimation error, not a verdict on the
    # measure (a^1.5 underflowing to 0 once raised ZeroDivisionError)
    for value in (
        lambda: PolynomialDensity().gaussian_integral(1e-300),
        lambda: LebesgueConstant(1e308).gaussian_integral(0.01),
        lambda: check_cond_mu0(LebesgueConstant(1e308)),
        lambda: PolynomialDensity().j0(1.0, 1e200),
        # masses summing past the floats once gave inf, and the verdict
        # called an admissible measure inadmissible
        lambda: FiniteAtoms(((0.0, 1e308),) * 5).j0(1.0, 0.0),
        lambda: FiniteAtoms(((0.0, 1e308),) * 2).gaussian_integral(0.01),
        lambda: check_cond_mu0(FiniteAtoms(((0.0, 1e308),) * 2)),
    ):
        with pytest.raises(EstimationError, match="exceeds the float range"):
            value()
    with pytest.raises(DomainError):
        check_cond_mu0(DiracAt(0.0), a_grid=(math.inf,))
