"""Weighted ordered-simplex integrals: closed form against two oracles.

I_n(t) = int_{0 < t_1 < ... < t_n < t} prod t_i^{alpha_i} (t_{i+1}-t_i)^{beta_i} dt

has a gamma-function closed form whenever the exponents satisfy the
integrability conditions; here it is cross-checked against nested adaptive
quadrature (exact-grade, n <= 3) and importance-sampled Monte Carlo
(n <= 5).
"""

from pam_moments import (
    SimplexIntegralSpec,
    brute_force,
    check_conditions,
    closed_form,
    gaussian_spectral_integral,
)

spec = SimplexIntegralSpec(t=1.0, alphas=(0.3, -0.4, 0.5), betas=(-0.6, 0.8, -0.2))
print(f"spec: t = {spec.t}, alphas = {spec.alphas}, betas = {spec.betas}")
print(f"conditions satisfied: {bool(check_conditions(spec))}")

exact = closed_form(spec)
quad = brute_force(spec, method="nested-quadrature", rtol=1e-10)
mc = brute_force(spec, method="monte-carlo", seed=12)
print(f"closed form        : {exact:.12g}")
print(f"nested quadrature  : {quad.estimate:.12g}  ({quad.evaluations} evals)")
print(f"monte carlo        : {mc.estimate:.12g}  +- {mc.error_bound:.2g}")

print("\nSingular-but-integrable exponents (the regime the bound chain uses):")
rough = SimplexIntegralSpec(t=2.0, alphas=(-0.7, -0.4), betas=(-0.6, -0.3))
print(f"  I_2 = {closed_form(rough):.12g}")
print(f"  quadrature: {brute_force(rough, method='nested-quadrature').estimate:.12g}")

print("\nA rejected spec names the violated clause:")
bad = SimplexIntegralSpec(1.0, (-1.2, 0.0), (0.0, 0.0))
print(f"  {check_conditions(bad).clause}")

print("\nGaussian spectral integral  int |xi|^alpha exp(-t xi^2) dxi:")
for alpha in (-0.9, 0.0, 1.0):
    print(f"  alpha = {alpha:5.1f}, t = 1: {gaussian_spectral_integral(alpha, 1.0):.12g}")
