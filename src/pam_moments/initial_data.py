"""Initial measures, the heat kernel, and the deterministic evolution J0.

The admissible initial data are nonnegative Borel measures mu0 on R with
int exp(-a x^2) mu0(dx) < infty for every a > 0.  Each built-in variant
carries a closed-form J0(t, x) = int G(t, x-y) mu0(dy) and a closed-form
Gaussian integral, so the admissibility condition is machine-checkable.
A custom-density escape hatch falls back to quadrature and marks its
results as oracle-grade.

Everything is one-dimensional in space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate

from .errors import DomainError, ValidationError

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


def heat_kernel(t: float, x) -> float | np.ndarray:
    """G(t, x) = (2 pi t)^{-1/2} exp(-x^2 / (2 t)) for t > 0."""
    if not (t > 0):
        raise DomainError(f"t must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    # far out x**2 / (2 t) overflows to inf, and exp(-inf) = 0 is the value
    with np.errstate(over="ignore"):
        out = np.exp(-(x**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


class InitialMeasure:
    """Base class for initial measures; subclasses implement the hooks."""

    quadrature_grade = False

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
        if not math.isfinite(self.x0):
            raise ValidationError(f"x0 must be finite, got {self.x0}")

    def j0(self, t, x):
        return heat_kernel(t, x - self.x0)

    def gaussian_integral(self, a):
        return math.exp(-a * self.x0**2)


@dataclass(frozen=True)
class LebesgueConstant(InitialMeasure):
    """c * Lebesgue measure; J0 is identically c."""

    c: float = 1.0

    def __post_init__(self):
        if not (0 < self.c < math.inf):
            raise ValidationError(f"c must be finite and > 0, got {self.c}")

    def j0(self, t, x):
        if not (t > 0):
            raise DomainError(f"t must be > 0, got {t}")
        return self.c

    def gaussian_integral(self, a):
        return self.c * math.sqrt(math.pi / a)


@dataclass(frozen=True)
class PolynomialDensity(InitialMeasure):
    """The growing-tail example mu0(dx) = x^2 dx.

    J0(t, x) = x^2 + t (the second moment of x + B_t), and
    int exp(-a y^2) y^2 dy = sqrt(pi) / (2 a^{3/2}).
    """

    def j0(self, t, x):
        if not (t > 0):
            raise DomainError(f"t must be > 0, got {t}")
        return x**2 + t

    def gaussian_integral(self, a):
        return math.sqrt(math.pi) / (2.0 * a**1.5)


@dataclass(frozen=True)
class GaussianDensity(InitialMeasure):
    """Density of N(mean, variance); heat flow just adds t to the variance."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValidationError(f"mean must be finite, got {self.mean}")
        if not (0 < self.variance < math.inf):
            raise ValidationError(
                f"variance must be finite and > 0, got {self.variance}"
            )

    def j0(self, t, x):
        return heat_kernel(t + self.variance, x - self.mean)

    def gaussian_integral(self, a):
        v = self.variance
        return math.exp(-a * self.mean**2 / (1.0 + 2.0 * a * v)) / math.sqrt(
            1.0 + 2.0 * a * v
        )


@dataclass(frozen=True)
class FiniteAtoms(InitialMeasure):
    """Finite sum of point masses (location, mass): finite locations,
    finite masses > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "atoms",
            tuple((float(x), float(m)) for x, m in self.atoms),
        )
        if not self.atoms:
            raise ValidationError("FiniteAtoms needs at least one atom")
        if not all(math.isfinite(x) for x, _ in self.atoms):
            raise ValidationError("all locations must be finite")
        if not all(0 < m < math.inf for _, m in self.atoms):
            raise ValidationError("all masses must be finite and > 0")

    def j0(self, t, x):
        return sum(m * heat_kernel(t, x - y) for y, m in self.atoms)

    def gaussian_integral(self, a):
        return sum(m * math.exp(-a * y**2) for y, m in self.atoms)


@dataclass(frozen=True)
class CustomDensity(InitialMeasure):
    """Arbitrary nonnegative density; all results are quadrature-grade."""

    density: Callable[[float], float] = field(compare=False)
    quadrature_grade = True

    def j0(self, t, x):
        if not (t > 0):
            raise DomainError(f"t must be > 0, got {t}")
        val, _ = _integrate.quad(
            lambda y: heat_kernel(t, x - y) * self.density(y),
            -np.inf,
            np.inf,
        )
        return val

    def gaussian_integral(self, a):
        val, _ = _integrate.quad(
            lambda y: math.exp(-a * y**2) * self.density(y), -np.inf, np.inf
        )
        return val


def j0(t: float, x: float, measure: InitialMeasure) -> float:
    """J0(t, x) = int G(t, x - y) mu0(dy)."""
    if not (t > 0):
        raise DomainError(f"t must be > 0, got {t}")
    return measure.j0(t, x)


@dataclass(frozen=True)
class CondMu0Report:
    ok: bool
    violated_at: float | None = None
    values: tuple[float, ...] = ()

    def __bool__(self):
        return self.ok


def check_cond_mu0(
    measure: InitialMeasure,
    a_grid: Sequence[float] = (0.01, 0.1, 1.0, 10.0),
) -> CondMu0Report:
    """Evaluate int exp(-a x^2) mu0(dx) over a grid of a > 0.

    All values finite -> ok; otherwise reports the first offending a.
    """
    values = []
    for a in a_grid:
        if not (a > 0):
            raise DomainError(f"grid values must be > 0, got {a}")
        v = measure.gaussian_integral(a)
        values.append(v)
        if not math.isfinite(v):
            return CondMu0Report(False, a, tuple(values))
    return CondMu0Report(True, None, tuple(values))


def measure_from_config(cfg: dict) -> InitialMeasure:
    """Build a measure from its JSON form, e.g. {"type": "dirac", "x0": 0.0}.

    Raises ValidationError for a non-object, a non-numeric field, or a
    value the measure's constructor rejects (a non-finite one, say).
    """
    if not isinstance(cfg, dict):
        raise ValidationError(f"measure must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")
    try:
        if kind == "dirac":
            return DiracAt(float(cfg.get("x0", 0.0)))
        if kind == "lebesgue":
            return LebesgueConstant(float(cfg.get("c", 1.0)))
        if kind == "polynomial":
            return PolynomialDensity()
        if kind == "gaussian":
            return GaussianDensity(
                float(cfg.get("mean", 0.0)), float(cfg.get("variance", 1.0))
            )
        if kind == "atoms":
            return FiniteAtoms(tuple((float(x), float(m)) for x, m in cfg["atoms"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad field in measure {cfg!r} ({exc})") from exc
    raise ValidationError(f"unknown measure type {kind!r}")
