"""The Fourier kernel's Gaussian data at sorted time rows, on gathered
(m, n, n) arrays: the matrix form of the covariance formulas of
`pam_moments.mc_verifier._kernel_formulas`, kept as a test-only oracle for
the samplers' column form (`tests/test_mc_verifier.py`,
`tests/test_mc_sampler_oracles.py`); and the spectral majorant's form in
the Lemma's literal sum, which `verify_lemma32` takes in closed form."""

import itertools
from dataclasses import dataclass

import numpy as np

from pam_moments.errors import ValidationError
from pam_moments.initial_data import InitialMeasure
from pam_moments.mc_verifier import _kernel_formulas


@dataclass(frozen=True)
class KernelGaussian:
    """Amplitude / mean / covariance of the Fourier-transformed kernel.

    Batched: ``amp`` has shape (m,), ``mean`` (m, n), ``cov`` (m, n, n).
    """

    amp: np.ndarray
    mean: np.ndarray
    cov: np.ndarray


def kernel_fourier_gaussian(
    sorted_times: np.ndarray, t: float, x: float, measure: InitialMeasure
) -> KernelGaussian:
    """Closed-form Gaussian data of Ff at sorted time rows.

    sorted_times: (m, n) array with nondecreasing rows in (0, t).
    Raises ValidationError for measures without a closed-form transform.
    """
    tau = np.asarray(sorted_times, dtype=float)
    if tau.ndim != 2:
        raise ValidationError("sorted_times must be a 2-d array")
    m, n = tau.shape
    mean, cov, _ = _kernel_formulas(t, x, measure)  # the mean formed even where fixed
    # rows are sorted, so min(tau_j, tau_k) = tau_min(j, k): gathers, no compares
    ar = np.arange(n)
    return KernelGaussian(
        amp=np.full(m, measure.j0(t, x)),
        mean=np.full((m, n), mean(tau)),
        cov=cov(tau[:, np.minimum.outer(ar, ar)], tau[:, np.maximum.outer(ar, ar)]),
    )


def majorant_form(tau, t):
    """The matrix R with sum_k w_k |sum_{j<=k} tau_j xi_j|^2 = xi^T R xi,

    w_k = (tau_{k+1} - tau_k) / (tau_{k+1} tau_k) and tau_{n+1} = t, for one
    sorted tuple tau of floats or Fractions: R_jl = tau_j tau_l times the
    tail sum of the w_k from k = max(j, l), as a list of rows.
    """
    w = [(b - a) / (b * a) for a, b in zip(tau, [*tau[1:], t])]
    tail = list(itertools.accumulate(reversed(w)))[::-1]
    return [[tj * tl * tail[max(j, l)] for l, tl in enumerate(tau)]
            for j, tj in enumerate(tau)]
