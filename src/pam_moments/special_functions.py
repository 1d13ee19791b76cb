"""Scalar gamma-family special functions with domain checks.

``simplex_integrals`` builds its closed form from ``_log_gamma`` (ln
Gamma with +inf past the float range, which it reports itself), and the
acceptance suite checks ``gamma_ratio``.  ``chaos_bounds`` calls
``scipy.special`` (gammaln, psi, zeta) directly on arguments its own
validation keeps in range, since its hot loops cannot afford a domain
check per call.  Either way products of many gamma factors are formed in
log space and exponentiated once at the end, so they never overflow.

Backed by scipy.special; the test suite cross-checks against
independent arbitrary-precision (mpmath) and Stirling-series oracles.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, EstimationError

__all__ = ["log_gamma", "gamma_ratio"]


def _check_positive(x, name: str) -> None:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")


def _log_gamma(x):
    """ln Gamma(x) for x > 0, +inf from about x = 2.55e305 on (scalars or arrays)."""
    _check_positive(x, "x")
    out = _sp.gammaln(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_gamma(x):
    """ln Gamma(x) for x > 0. Accepts scalars or arrays.  Raises
    EstimationError where it exceeds the float range (x >= about 2.55e305)."""
    out = _log_gamma(x)
    if np.any(np.isinf(out)):
        raise EstimationError(
            f"ln Gamma(x) exceeds the float range at x = {float(np.max(x))!r}")
    return out


def gamma_ratio(z, a):
    """Gamma(z+a)/Gamma(z) for z > 0, a >= 0.

    Evaluated as exp(ln Gamma(z+a) - ln Gamma(z)), so it does not overflow
    where Gamma(z) does; for fixed a this is nondecreasing in z on
    (0, inf).  Raises EstimationError where z + a, ln Gamma or the ratio
    exceeds the float range.
    """
    _check_positive(z, "z")
    a_arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a_arr)) or np.any(a_arr < 0.0):
        raise DomainError(f"a must be finite and >= 0, got {a!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(_sp.gammaln(np.asarray(z, dtype=float) + a_arr) - _sp.gammaln(z))
    if not np.all(np.isfinite(out)):
        raise EstimationError("Gamma(z+a)/Gamma(z) exceeds the float range")
    return float(out) if np.ndim(out) == 0 else out
