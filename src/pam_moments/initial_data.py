"""Initial measures, the heat kernel, and the deterministic evolution J0.

The admissible initial data are nonnegative Borel measures mu0 on R with
int exp(-a x^2) mu0(dx) < infty for every a > 0.  Each built-in variant
carries a closed-form J0(t, x) = int G(t, x-y) mu0(dy) and a closed-form
Gaussian integral, so the admissibility condition is machine-checkable.
`CustomDensity`, for any density, evaluates both by QUADPACK over R at
scipy's default tolerances (about 1.5e-8), with no error bound.

Everything is one-dimensional in space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ValidationError, _check_real, _in_float_range, _real_sequence

__all__ = [
    "InitialMeasure",
    "DiracAt",
    "LebesgueConstant",
    "PolynomialDensity",
    "GaussianDensity",
    "FiniteAtoms",
    "CustomDensity",
    "heat_kernel",
    "j0",
    "check_cond_mu0",
    "measure_from_config",
]


def _check_t(t) -> None:
    """Raise ValidationError unless t is real, DomainError unless t > 0."""
    _check_real(t=t)
    if not (t > 0):
        raise DomainError(f"t must be > 0, got {t}")


def heat_kernel(t: float, x) -> float | np.ndarray:
    """G(t, x) = (2 pi t)^{-1/2} exp(-x^2 / (2 t)) for t > 0 and x not nan."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("x must not be nan")
    # far out x**2 / (2 t) overflows to inf, and exp(-inf) = 0 is the value
    with np.errstate(over="ignore"):
        out = np.exp(-(x**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


def _gaussian_weight(a: float, y: float, s: float = 1.0) -> float:
    """exp(-a y^2 / s) for a, s > 0, as exp(-a * y**2 / s); where y**2
    passes the floats, as exp(-a |y| / s |y|), which is 0 unless a is tiny."""
    try:
        return math.exp(-a * y**2 / s)
    except OverflowError:
        return math.exp(-a * abs(y) / s * abs(y))


class InitialMeasure:
    """Base class for initial measures; subclasses implement the hooks."""

    def j0(self, t: float, x: float) -> float:
        raise NotImplementedError

    def gaussian_integral(self, a: float) -> float:
        """int exp(-a y^2) mu0(dy), closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiracAt(InitialMeasure):
    """Point mass at x0; J0 is the heat kernel centred at x0."""

    x0: float = 0.0

    def __post_init__(self):
        _check_real(x0=self.x0)
        if not math.isfinite(self.x0):
            raise ValidationError(f"x0 must be finite, got {self.x0}")

    def j0(self, t, x):
        return heat_kernel(t, x - self.x0)

    def gaussian_integral(self, a):
        return _gaussian_weight(a, self.x0)


@dataclass(frozen=True)
class LebesgueConstant(InitialMeasure):
    """c * Lebesgue measure; J0 is identically c."""

    c: float = 1.0

    def __post_init__(self):
        _check_real(c=self.c)
        if not (0 < self.c < math.inf):
            raise ValidationError(f"c must be finite and > 0, got {self.c}")

    def j0(self, t, x):
        _check_t(t)
        return self.c

    def gaussian_integral(self, a):
        return _in_float_range(self.c * math.sqrt(math.pi / a), "c sqrt(pi / a)")


@dataclass(frozen=True)
class PolynomialDensity(InitialMeasure):
    """The growing-tail example mu0(dx) = x^2 dx.

    J0(t, x) = x^2 + t (the second moment of x + B_t), and
    int exp(-a y^2) y^2 dy = sqrt(pi) / (2 a^{3/2}).
    """

    def j0(self, t, x):
        _check_t(t)
        try:
            value = x**2 + t
        except OverflowError:
            value = math.inf
        return _in_float_range(value, "J0 = x^2 + t")

    def gaussian_integral(self, a):
        try:
            a_pow = a**1.5
        except OverflowError:  # the integral is below the floats
            return 0.0
        value = math.sqrt(math.pi) / (2.0 * a_pow) if a_pow else math.inf
        return _in_float_range(value, "sqrt(pi) / (2 a^(3/2))")


@dataclass(frozen=True)
class GaussianDensity(InitialMeasure):
    """Density of N(mean, variance); heat flow just adds t to the variance."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        _check_real(mean=self.mean, variance=self.variance)
        if not math.isfinite(self.mean):
            raise ValidationError(f"mean must be finite, got {self.mean}")
        if not (0 < self.variance < math.inf):
            raise ValidationError(
                f"variance must be finite and > 0, got {self.variance}"
            )

    def j0(self, t, x):
        _check_t(t)
        return heat_kernel(t + self.variance, x - self.mean)

    def gaussian_integral(self, a):
        s = 1.0 + 2.0 * a * self.variance
        if s == math.inf:  # the value, below exp(0) / sqrt(s), is 0
            return 0.0
        return _gaussian_weight(a, self.mean, s) / math.sqrt(s)


def _atom(atom) -> tuple[float, float]:
    """A (location, mass) pair as two floats; ValidationError for a value
    that is not a pair (a string too) or a coordinate that is not real
    (`_check_real`)."""
    try:
        if isinstance(atom, (str, bytes)):
            raise TypeError
        x, m = atom
    except (TypeError, ValueError):
        raise ValidationError(
            f"each atom must be a (location, mass) pair, got {atom!r}"
        ) from None
    _check_real(location=x, mass=m)
    return float(x), float(m)


@dataclass(frozen=True)
class FiniteAtoms(InitialMeasure):
    """Finite sum of point masses (location, mass): finite locations,
    finite masses > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            atoms = tuple(self.atoms)
        except TypeError:
            raise ValidationError(
                f"atoms must be an iterable of (location, mass) pairs, got {self.atoms!r}"
            ) from None
        object.__setattr__(self, "atoms", tuple(map(_atom, atoms)))
        if not self.atoms:
            raise ValidationError("FiniteAtoms needs at least one atom")
        if not all(math.isfinite(x) for x, _ in self.atoms):
            raise ValidationError("all locations must be finite")
        if not all(0 < m < math.inf for _, m in self.atoms):
            raise ValidationError("all masses must be finite and > 0")

    def j0(self, t, x):
        value = sum(m * heat_kernel(t, x - y) for y, m in self.atoms)
        return _in_float_range(value, "J0 = sum_i m_i G(t, x - y_i)")

    def gaussian_integral(self, a):
        value = sum(m * _gaussian_weight(a, y) for y, m in self.atoms)
        return _in_float_range(value, "sum_i m_i exp(-a y_i^2)")


@dataclass(frozen=True)
class CustomDensity(InitialMeasure):
    """Arbitrary nonnegative density; its values are quadratures over R."""

    density: Callable[[float], float] = field(compare=False)

    def j0(self, t, x):
        _check_t(t)
        return _quad_over_r(lambda y: heat_kernel(t, x - y) * self.density(y))

    def gaussian_integral(self, a):
        return _quad_over_r(lambda y: math.exp(-a * y**2) * self.density(y))


def _quad_over_r(f: Callable[[float], float]) -> float:
    """int_R f by QUADPACK; scipy.integrate, slow to import, loads on first use."""
    from scipy import integrate
    return integrate.quad(f, -np.inf, np.inf)[0]


def j0(t: float, x: float, measure: InitialMeasure) -> float:
    """J0(t, x) = int G(t, x - y) mu0(dy).

    J0(t, 0) = int exp(-y^2 / (2t)) mu0(dy) / sqrt(2 pi t) is the
    integral of `check_cond_mu0` at a = 1/(2t).  Its default grid reaches
    down to a = 0.01 only, so for a `CustomDensity`, whose integrals are
    quadratures, its verdict covers t <= 1/(2 * 0.01) = 50 and no larger t.
    The built-in measures are admissible by construction.
    """
    _check_t(t)
    _check_real(x=x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    return measure.j0(t, x)


@dataclass(frozen=True)
class CondMu0Report:
    ok: bool
    values: tuple[float, ...] = ()

    def __bool__(self):
        return self.ok


def check_cond_mu0(
    measure: InitialMeasure,
    a_grid: Sequence[float] = (0.01, 0.1, 1.0, 10.0),
) -> CondMu0Report:
    """Evaluate int exp(-a x^2) mu0(dx) over a grid of finite a > 0.

    All values finite -> ok; otherwise the values end at the first
    offending a.  The verdict covers the a checked, and so J0(t, .),
    which needs a = 1/(2t), up to t = 1/(2 min a): with the default grid,
    whose smallest a is 0.01, up to t = 50.  That matters only for a
    `CustomDensity`, whose integrals are quadratures; the built-in
    measures are admissible by construction.
    A closed form past the float range raises EstimationError instead, as
    the measure is admissible; only a quadrature value can be non-finite.
    A grid that is empty or not a sequence of reals raises ValidationError.
    """
    a_grid = _real_sequence("a_grid", a_grid)
    if not a_grid:
        raise ValidationError("a_grid must be nonempty")
    values = []
    for a in a_grid:
        if not (0 < a < math.inf):
            raise DomainError(f"grid values must be finite and > 0, got {a}")
        v = measure.gaussian_integral(a)
        values.append(v)
        if not math.isfinite(v):
            return CondMu0Report(False, tuple(values))
    return CondMu0Report(True, tuple(values))


def measure_from_config(cfg: dict) -> InitialMeasure:
    """Build a measure from its JSON form, e.g. {"type": "dirac", "x0": 0.0}.

    Raises ValidationError for a non-object, a missing field, a field that
    is not a real number (a JSON string or boolean too, `_check_real`), or
    a value the measure's constructor rejects (a non-finite one, say).
    """
    if not isinstance(cfg, dict):
        raise ValidationError(f"measure must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")

    def real(name, default):
        value = cfg.get(name, default)
        _check_real(**{name: value})
        return float(value)

    try:
        if kind == "dirac":
            return DiracAt(real("x0", 0.0))
        if kind == "lebesgue":
            return LebesgueConstant(real("c", 1.0))
        if kind == "polynomial":
            return PolynomialDensity()
        if kind == "gaussian":
            return GaussianDensity(real("mean", 0.0), real("variance", 1.0))
        if kind == "atoms":
            return FiniteAtoms(cfg["atoms"])
    except (TypeError, ValueError, KeyError) as exc:
        # no repr of cfg: an int past 4,300 digits has none
        raise ValidationError(f"bad field in measure of type {kind!r} ({exc})") from exc
    raise ValidationError(f"unknown measure type {kind!r}")
