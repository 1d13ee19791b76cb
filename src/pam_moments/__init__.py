"""Moment-bound machinery for the parabolic Anderson model with
time-fractional, spatially rough Gaussian noise and measure-valued initial
data: lattice-path combinatorics, simplex integrals, the per-order chaos
bounds and their Monte-Carlo cross-checks.
"""

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .path_combinatorics import (
    ExponentVector,
    diagonal_touch_points,
    enumerate_exponent_vectors,
    expand_and_verify_identity,
    exponent_of,
    move_down,
    path_of,
)
from .simplex_integrals import (
    BruteForceResult,
    SimplexIntegralSpec,
    brute_force,
    check_conditions,
    closed_form,
    gaussian_spectral_integral,
    log_closed_form,
)
from .initial_data import (
    CustomDensity,
    DiracAt,
    FiniteAtoms,
    GaussianDensity,
    InitialMeasure,
    LebesgueConstant,
    PolynomialDensity,
    check_cond_mu0,
    heat_kernel,
    j0,
    measure_from_config,
)
from .chaos_bounds import (
    ChaosTermBound,
    FractionalParams,
    MomentBoundResult,
    admissible_param_grid,
    fit_envelope_constants,
    fit_p_exponent,
    fit_time_exponent,
    gamma_n,
    gamma_n_matrix,
    log_chaos_series,
    moment_bound,
    spatial_exponents,
    stirling_lb_check,
    term_bound,
    verify_ab_condition,
)
from .mc_verifier import (
    EstimatorResult,
    SpectralComparison,
    TermBoundCheck,
    chaos_norm_estimate,
    verify_lemma32,
    verify_term_bound,
)

__version__ = "0.1.0"
