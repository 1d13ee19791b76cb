"""The acceptance suite: thirteen self-contained checks of the library.

Each check returns a `CheckResult`; `run_all` executes them in order.  The
same functions back the `selfcheck` CLI subcommand and the acceptance test
module, so a red test and a failing selfcheck always agree.

Checks 5 and 6 currently fail: the claimed gamma-product properties
(gamma_n maximized at the all-ones vector, monotone decrease under
diagonal moves) are numerically false for moves touching the endpoint of
the path, and the suite reports that honestly rather than loosening the
tolerance.  See `gamma_n`'s documentation for what does hold.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from .chaos_bounds import (
    DEFAULT_P_GRID,
    DEFAULT_T_GRID,
    FractionalParams,
    admissible_param_grid,
    fit_p_exponent,
    fit_time_exponent,
    gamma_n,
    gamma_n_matrix,
    spatial_exponents,
    stirling_lb_check,
    term_bound,
    verify_ab_condition,
)
from .chaos_bounds import _fit_log_envelope, _tilde_matrix
from .errors import EstimationError
from .initial_data import (
    DiracAt,
    LebesgueConstant,
    PolynomialDensity,
    check_cond_mu0,
    heat_kernel,
)
from .path_combinatorics import (
    enumerate_exponent_vectors,
    expand_and_verify_identity,
    exponent_matrix,
)
from .simplex_integrals import (
    SimplexIntegralSpec,
    brute_force,
    check_conditions,
    closed_form,
    gaussian_spectral_integral,
)
from .special_functions import gamma_ratio
from .mc_verifier import verify_lemma32, verify_term_bound

REFERENCE_PARAMS = (FractionalParams(0.75, 0.3), FractionalParams(0.85, 0.2))


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.number:02d} {self.name}: {self.detail}"


def check_01_combinatorial_identity() -> CheckResult:
    rng = random.Random(20240901)
    bad = 0
    for n in range(2, 13):
        for _ in range(200):
            xs = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
            lhs, rhs = expand_and_verify_identity(xs)
            if lhs != rhs:
                bad += 1
    cards_ok = all(
        exponent_matrix(n).shape[0] == 2 ** (n - 1) for n in range(1, 21)
    )
    ok = bad == 0 and cards_ok
    return CheckResult(
        1,
        "combinatorial identity",
        ok,
        f"{bad} mismatches over 200 rational draws at each n in 2..12; "
        f"cardinality 2^(n-1) for n <= 20: {cards_ok}",
    )


def check_02_paths_n4() -> CheckResult:
    expected = ["1111", "1120", "1201", "1210", "2011", "2020", "2101", "2110"]
    got = ["".join(str(v) for v in a) for a in enumerate_exponent_vectors(4)]
    ok = got == expected
    return CheckResult(2, "eight paths at n=4", ok, f"enumeration: {got}")


def check_03_simplex_integral() -> CheckResult:
    base = closed_form(SimplexIntegralSpec(1.0, (1.0,), (1.0,)))
    base_ok = abs(base - 1.0 / 6.0) <= 1e-12
    rng = random.Random(7)
    worst = 0.0
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        while True:
            alphas = tuple(rng.uniform(-0.8, 1.5) for _ in range(n))
            betas = tuple(rng.uniform(-0.8, 1.5) for _ in range(n))
            spec = SimplexIntegralSpec(rng.uniform(0.5, 2.0), alphas, betas)
            if check_conditions(spec):
                break
        exact = closed_form(spec)
        oracle = brute_force(spec, method="nested-quadrature", rtol=1e-9)
        worst = max(worst, abs(oracle.estimate - exact) / abs(exact))
    ok = base_ok and worst <= 1e-6
    return CheckResult(
        3,
        "simplex closed form vs quadrature",
        ok,
        f"worst rel err {worst:.3e} over 50 specs (tol 1e-6); "
        f"Beta base case |I - 1/6| <= 1e-12: {base_ok}",
    )


def check_04_gaussian_spectral() -> CheckResult:
    worst = 0.0
    for alpha in (-0.9, -0.5, 0.0, 0.5, 1.0):
        for t in (0.5, 1.0, 2.0):
            f = lambda xi: math.exp(-t * xi * xi)
            sing, _ = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(alpha, 0.0))
            tail, _ = integrate.quad(
                lambda xi: xi**alpha * math.exp(-t * xi * xi), 1.0, np.inf
            )
            oracle = 2.0 * (sing + tail)
            exact = gaussian_spectral_integral(alpha, t)
            worst = max(worst, abs(oracle - exact) / abs(exact))
    ok = worst <= 1e-8
    return CheckResult(
        4, "Gaussian spectral integral", ok, f"worst rel err {worst:.3e} (tol 1e-8)"
    )


def check_05_gamma_max_at_ones() -> CheckResult:
    worst_excess = 0.0
    worst_at = None
    ones_ok = True
    for params in admissible_param_grid():
        for n in range(2, 13):
            g = gamma_n_matrix(n, params)
            i = int(np.argmax(g))
            excess = float(g[i] - 1.0)
            if excess > worst_excess:
                worst_excess = excess
                a = tuple(exponent_matrix(n)[i].tolist())
                worst_at = (params.H0, params.H, a)
            g1 = gamma_n((1,) * n, params)
            ones_ok = ones_ok and abs(g1 - 1.0) <= 1e-12
    ok = worst_excess <= 1e-12 and ones_ok
    return CheckResult(
        5,
        "gamma_n <= 1 with all-ones maximizer",
        ok,
        f"gamma(1,...,1) = 1 to 1e-12: {ones_ok}; max excess over A_n, n <= 12, "
        f"5x5 grid: {worst_excess:.6g} at (H0, H, a) = {worst_at}",
    )


def check_06_move_monotonicity() -> CheckResult:
    # row r's move at touch point i (offset d_i = 0) is row r | 1 << (n-1-i)
    violations = 0
    total = 0
    worst = 0.0
    worst_at = None
    for params in admissible_param_grid():
        for n in range(2, 11):
            g = gamma_n_matrix(n, params)
            rows = np.arange(g.size)[:, None]
            bits = 1 << np.arange(n - 2, -1, -1)  # touch points i = 1..n-1
            legal = (rows & bits) == 0
            jump = np.where(legal, g[rows | bits] - g[:, None], -np.inf)
            total += int(np.count_nonzero(legal))
            violations += int(np.count_nonzero(jump > 1e-12))
            r, i = np.unravel_index(int(np.argmax(jump)), jump.shape)
            if jump[r, i] > 1e-12 and jump[r, i] > worst:
                worst = float(jump[r, i])
                a = tuple(exponent_matrix(n)[r].tolist())
                worst_at = (params.H0, params.H, a, int(i) + 1)
    ok = violations == 0
    return CheckResult(
        6,
        "gamma_n monotone under diagonal moves",
        ok,
        f"{violations}/{total} legal moves increase gamma_n (tol 1e-12); "
        f"worst increase {worst:.6g} at (H0, H, a, i) = {worst_at}",
    )


def check_07_gamma_ratio_monotone() -> CheckResult:
    z = np.linspace(0.1, 50.0, 500)
    worst = 0.0
    for a in (0.05, 0.5, 2.0):
        vals = gamma_ratio(z, a)
        worst = max(worst, float(np.max(vals[:-1] - vals[1:])))
    ok = worst <= 1e-12
    return CheckResult(
        7,
        "Gamma(z+a)/Gamma(z) nondecreasing",
        ok,
        f"max decrease {worst:.3e} over z in [0.1, 50], a in {{0.05, 0.5, 2}}",
    )


def check_08_ab_condition() -> CheckResult:
    ok = True
    families = [exponent_matrix(n) for n in range(1, 13)]
    for params in admissible_param_grid():
        for a in families:
            alpha = spatial_exponents(a, params)
            at, bt = _tilde_matrix(alpha, params)
            ok = ok and bool(np.all(verify_ab_condition(at, bt, alpha)))
    # the same function on one vector, through its scalar contract
    alpha = spatial_exponents((2, 0, 1, 1), REFERENCE_PARAMS[0])
    spot = verify_ab_condition(*_tilde_matrix(alpha, REFERENCE_PARAMS[0]), alpha)
    return CheckResult(
        8,
        "integrability condition on tilde exponents",
        ok and spot,
        f"all a in A_n, n <= 12, 5x5 grid: {ok}; scalar spot-check: {spot}",
    )


def check_09_mc_oracle_bounds() -> CheckResult:
    measures = (DiracAt(0.0), LebesgueConstant(1.0))
    max_b = 0.0
    all_passed = True
    lemma_ok = True
    cfg_i = 0
    for params in REFERENCE_PARAMS:
        for measure in measures:
            for t in (0.5, 1.0, 2.0):
                for n in (1, 2):
                    cfg_i += 1
                    chk = verify_term_bound(
                        n, t, 0.0, measure, params, samples=120_000, seed=1000 + cfg_i
                    )
                    max_b = max(max_b, chk.minimal_b)
                    all_passed = all_passed and chk.passed
                    cmp = verify_lemma32(
                        n,
                        t,
                        0.0,
                        measure,
                        params,
                        time_samples=10,
                        xi_samples=4_000,
                        seed=2000 + cfg_i,
                    )
                    lemma_ok = lemma_ok and cmp.ok
    ok = all_passed and lemma_ok
    return CheckResult(
        9,
        "Monte-Carlo norms vs per-order bound",
        ok,
        f"bound holds at 3 stderr with b = 1 in all 24 configs: {all_passed} "
        f"(minimal b over configs: {max_b:.4f}); spectral majorant at 10 "
        f"ordered tuples each: {lemma_ok}",
    )


def check_10_growth_rates() -> CheckResult:
    details = []
    ok = True
    for params in REFERENCE_PARAMS:
        t_target = params.time_growth_exponent / params.H
        p_target = (params.H + 1.0) / params.H
        t_fit = fit_time_exponent(params)
        p_fit = fit_p_exponent(params)
        t_err = abs(t_fit - t_target) / t_target
        p_err = abs(p_fit - p_target) / p_target
        # the fit returns the 45 series values it was fitted to, and the envelope
        c1_log, c2, log_sums, log_env = _fit_log_envelope(
            params, 4.0, DEFAULT_P_GRID, DEFAULT_T_GRID
        )
        c1 = math.exp(c1_log)
        env_ok = bool(np.all(log_env >= log_sums - 1e-8 * (1.0 + np.abs(log_sums))))
        ok = ok and t_err <= 0.05 and p_err <= 0.10 and env_ok
        details.append(
            f"(H0={params.H0}, H={params.H}): t-exp err {t_err:.1%}, "
            f"p-exp err {p_err:.1%}, witnesses C1={c1:.4g} C2={c2:.4g} "
            f"envelope >= series: {env_ok}"
        )
    return CheckResult(10, "moment growth exponents and witnesses", ok, "; ".join(details))


def check_11_initial_data() -> CheckResult:
    dirac_ok = DiracAt(0.3).j0(1.5, 1.0) == heat_kernel(1.5, 0.7)
    const_ok = LebesgueConstant(1.0).j0(2.0, 5.0) == 1.0
    poly = PolynomialDensity()
    t, x = 0.7, 1.3
    quad_val, _ = integrate.quad(
        lambda y: heat_kernel(t, x - y) * y * y, -np.inf, np.inf
    )
    poly_ok = abs(quad_val - poly.j0(t, x)) <= 1e-8
    a = 0.37
    rep = check_cond_mu0(poly, a_grid=(a,))
    tail_ok = rep.ok and abs(
        rep.values[0] - math.sqrt(math.pi) / (2.0 * a**1.5)
    ) <= 1e-10
    ok = dirac_ok and const_ok and poly_ok and tail_ok
    return CheckResult(
        11,
        "initial-data closed forms",
        ok,
        f"Dirac->heat kernel: {dirac_ok}; constant->1: {const_ok}; "
        f"x^2 density vs quadrature: {poly_ok}; growing-tail integral "
        f"sqrt(pi)/2 a^-3/2: {tail_ok}",
    )


def check_12_stirling_bound() -> CheckResult:
    ok = True
    found = []
    for params in admissible_param_grid():
        a = params.time_growth_exponent / (2.0 * params.H0)
        hit = None
        for c in np.geomspace(1.0, 0.01, 40):
            try:
                thr = stirling_lb_check(a, 0.0, float(c), range(1, 501))
            except EstimationError:
                continue
            hit = (float(c), thr)
            break
        ok = ok and hit is not None
        if hit is not None:
            found.append(hit)
    worst_c = min(c for c, _ in found) if found else float("nan")
    worst_n = max(n for _, n in found) if found else -1
    return CheckResult(
        12,
        "factorial lower bound on Gamma(an+1)",
        ok,
        f"constants found at all {len(found)} grid points "
        f"(smallest C {worst_c:.3g}, largest threshold N {worst_n})",
    )


def check_13_mc_determinism() -> CheckResult:
    from . import cli

    argv = [
        "mc-verify",
        "--n", "2", "--t", "1.0", "--x", "0.0",
        "--H0", "0.75", "--H", "0.3",
        "--measure", '{"type": "dirac", "x0": 0.0}',
        "--samples", "20000", "--seed", "11", "--workers", "3",
    ]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        code = cli.run(argv, stdout=buf)
        outs.append((code, buf.getvalue().encode()))
    ok = outs[0] == outs[1] and outs[0][0] in (0, 1)
    return CheckResult(
        13,
        "mc-verify determinism",
        ok,
        f"two runs byte-identical: {outs[0][1] == outs[1][1]} "
        f"({len(outs[0][1])} bytes, exit {outs[0][0]})",
    )


ALL_CHECKS = (
    check_01_combinatorial_identity,
    check_02_paths_n4,
    check_03_simplex_integral,
    check_04_gaussian_spectral,
    check_05_gamma_max_at_ones,
    check_06_move_monotonicity,
    check_07_gamma_ratio_monotone,
    check_08_ab_condition,
    check_09_mc_oracle_bounds,
    check_10_growth_rates,
    check_11_initial_data,
    check_12_stirling_bound,
    check_13_mc_determinism,
)


def run_all(report=print) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        results.append(res)
        if report is not None:
            report(res.line())
    return results
