"""Scalar gamma-family special functions with domain checks.

``simplex_integrals`` builds its closed form from ``log_gamma``, and the
acceptance suite checks ``gamma_ratio``.  ``chaos_bounds`` calls
``scipy.special`` (gammaln, psi, polygamma) directly on arguments its own
validation keeps in range, since its hot loops cannot afford a domain
check per call.  Either way products of many gamma factors are formed in
log space and exponentiated once at the end, so they never overflow.

Backed by scipy.special; the test suite cross-checks against
independent arbitrary-precision (mpmath) and series oracles.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, EstimationError

__all__ = ["log_gamma", "digamma", "gamma_ratio", "log_gamma_ratio"]


def _check_positive(x, name: str) -> None:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")


def log_gamma(x):
    """ln Gamma(x) for x > 0. Accepts scalars or arrays."""
    _check_positive(x, "x")
    out = _sp.gammaln(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0. Accepts scalars or arrays."""
    _check_positive(x, "x")
    out = _sp.psi(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_gamma_ratio(z, a):
    """ln[Gamma(z+a)/Gamma(z)] for z > 0, a >= 0, without overflow.

    Raises EstimationError where z + a or ln Gamma passes the float range
    (ln Gamma(z) is inf from about z = 2.5e305 on).
    """
    _check_positive(z, "z")
    a_arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a_arr)) or np.any(a_arr < 0.0):
        raise DomainError(f"a must be finite and >= 0, got {a!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _sp.gammaln(np.asarray(z, dtype=float) + a_arr) - _sp.gammaln(z)
    if not np.all(np.isfinite(out)):
        raise EstimationError("ln[Gamma(z+a)/Gamma(z)] exceeds the float range")
    if np.ndim(out) == 0:
        return float(out)
    return out


def gamma_ratio(z, a):
    """Gamma(z+a)/Gamma(z) for z > 0, a >= 0.

    Evaluated as exp(log_gamma(z+a) - log_gamma(z)); for fixed a this is
    nondecreasing in z on (0, inf).  Raises EstimationError where a ratio
    exceeds the float range.
    """
    with np.errstate(over="ignore"):
        out = np.exp(log_gamma_ratio(z, a))
    if np.any(np.isinf(out)):
        raise EstimationError("Gamma(z+a)/Gamma(z) exceeds the float range")
    if np.ndim(out) == 0:
        return float(out)
    return out


def log_factorial(n) -> float:
    """ln(n!) via log_gamma(n+1); n may be large."""
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise DomainError(f"n must be >= 0, got {n!r}")
    out = _sp.gammaln(np.asarray(n, dtype=float) + 1.0)
    if np.ndim(out) == 0:
        return float(out)
    return out
