"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria 5 and 6 are known-red: the claimed global bound gamma_n <= 1 and
the full move-monotonicity are numerically false for moves that touch the
endpoint of the lattice path (confirmed against two independent oracles);
the tests state the property as claimed and fail honestly rather than
weakening the tolerance.  What does hold is pinned down in
tests/test_chaos_bounds.py (all-ones value, interior-move monotonicity).
"""

import pytest

from pam_moments import acceptance


# the selfcheck line of each check, pinned so that a change meant to keep
# every byte of `selfcheck` is checked by the tests that run the checks
SELFCHECK_LINES = {
    1: (
        '[PASS] 01 combinatorial identity: 0 mismatches over 200 rational '
        'draws at each n in 2..12; cardinality 2^(n-1) for n <= 20: True'
    ),
    2: (
        "[PASS] 02 eight paths at n=4: enumeration: ['1111', '1120', "
        "'1201', '1210', '2011', '2020', '2101', '2110']"
    ),
    3: (
        '[PASS] 03 simplex closed form vs quadrature: worst rel err '
        '3.000e-15 over 50 specs (tol 1e-6); Beta base case |I - 1/6| <= '
        '1e-12: True'
    ),
    4: (
        '[PASS] 04 Gaussian spectral integral: worst rel err 5.551e-16 (tol'
        ' 1e-8)'
    ),
    5: (
        '[FAIL] 05 gamma_n <= 1 with all-ones maximizer: gamma(1,...,1) = 1'
        ' to 1e-12: True; max excess over A_n, n <= 12, 5x5 grid: 0.586792 '
        'at (H0, H, a) = (0.75, 0.05, (2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0))'
    ),
    6: (
        '[FAIL] 06 gamma_n monotone under diagonal moves: 14710/90134 legal'
        ' moves increase gamma_n (tol 1e-12); worst increase 0.412994 at '
        '(H0, H, a, i) = (0.75, 0.05, (2, 0, 1, 1, 1, 1, 1, 1, 1, 1), 9)'
    ),
    7: (
        '[PASS] 07 Gamma(z+a)/Gamma(z) nondecreasing: max decrease '
        '0.000e+00 over z in [0.1, 50], a in {0.05, 0.5, 2}'
    ),
    8: (
        '[PASS] 08 integrability condition on tilde exponents: all a in '
        'A_n, n <= 12, 5x5 grid: True; scalar spot-check: True'
    ),
    9: (
        '[PASS] 09 Monte-Carlo norms vs per-order bound: bound holds at 3 '
        'stderr with b = 1 in all 24 configs: True (minimal b over configs:'
        ' 0.8346); spectral majorant at 10 ordered tuples each: True'
    ),
    10: (
        '[PASS] 10 moment growth exponents and witnesses: (H0=0.75, H=0.3):'
        ' t-exp err 1.2%, p-exp err 4.4%, witnesses C1=3.683e+04 C2=13.71 '
        'envelope >= series: True; (H0=0.85, H=0.2): t-exp err 0.1%, p-exp '
        'err 3.1%, witnesses C1=3.71e+05 C2=87.37 envelope >= series: True'
    ),
    11: (
        '[PASS] 11 initial-data closed forms: Dirac->heat kernel: True; '
        'constant->1: True; x^2 density vs quadrature: True; growing-tail '
        'integral sqrt(pi)/2 a^-3/2: True'
    ),
    12: (
        '[PASS] 12 factorial lower bound on Gamma(an+1): constants found at'
        ' all 22 grid points (smallest C 0.624, largest threshold N 1)'
    ),
    13: (
        '[PASS] 13 mc-verify determinism: two runs byte-identical: True '
        '(516 bytes, exit 0)'
    ),
}


def _report(res):
    print(res.line())
    assert res.line() == SELFCHECK_LINES[res.number]
    assert res.ok, res.detail


def test_criterion_01_combinatorial_identity():
    _report(acceptance.check_01_combinatorial_identity())


def test_criterion_02_paths_figure():
    _report(acceptance.check_02_paths_n4())


def test_criterion_03_simplex_closed_form():
    _report(acceptance.check_03_simplex_integral())


def test_criterion_04_gaussian_spectral_integral():
    _report(acceptance.check_04_gaussian_spectral())


def test_criterion_05_gamma_bounded_by_one():
    _report(acceptance.check_05_gamma_max_at_ones())


def test_criterion_06_move_monotonicity():
    _report(acceptance.check_06_move_monotonicity())


def test_criteria_05_06_counterexamples_are_pinned():
    # criteria 05 and 06 stay red; their counterexamples do not move
    assert acceptance.check_05_gamma_max_at_ones().detail == (
        "gamma(1,...,1) = 1 to 1e-12: True; max excess over A_n, n <= 12, "
        "5x5 grid: 0.586792 at (H0, H, a) = "
        "(0.75, 0.05, (2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0))"
    )
    assert acceptance.check_06_move_monotonicity().detail == (
        "14710/90134 legal moves increase gamma_n (tol 1e-12); worst "
        "increase 0.412994 at (H0, H, a, i) = "
        "(0.75, 0.05, (2, 0, 1, 1, 1, 1, 1, 1, 1, 1), 9)"
    )


def test_criterion_05_reads_the_all_ones_value_from_row_0(monkeypatch):
    # check_05 takes gamma_n(1, ..., 1) from row 0 of the rows it scans:
    # moving that one entry of one order by 1e-9 must turn its flag False
    rows = acceptance._log_gamma_rows

    def nudged(n_max, params):
        for n, log_g in enumerate(rows(n_max, params), start=1):
            if n == 7:
                log_g = log_g.copy()
                log_g[0] += 1e-9
            yield log_g

    monkeypatch.setattr(acceptance, "_log_gamma_rows", nudged)
    detail = acceptance.check_05_gamma_max_at_ones().detail
    assert detail.startswith("gamma(1,...,1) = 1 to 1e-12: False; ")
    assert detail.endswith("5x5 grid: 0.586792 at (H0, H, a) = "
                           "(0.75, 0.05, (2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0))")


def test_criterion_07_gamma_ratio_monotonicity():
    _report(acceptance.check_07_gamma_ratio_monotone())


def test_criterion_08_ab_condition():
    _report(acceptance.check_08_ab_condition())


def test_criterion_09_mc_oracle_bounds():
    _report(acceptance.check_09_mc_oracle_bounds())


def test_criterion_10_growth_rates():
    _report(acceptance.check_10_growth_rates())


def test_criterion_11_initial_data_closed_forms():
    _report(acceptance.check_11_initial_data())


def test_criterion_12_stirling_lower_bound():
    _report(acceptance.check_12_stirling_bound())


def test_criterion_13_mc_determinism():
    _report(acceptance.check_13_mc_determinism())


def test_run_all_reports_each_result_in_order(monkeypatch):
    cheap = (acceptance.check_07_gamma_ratio_monotone, acceptance.check_02_paths_n4)
    monkeypatch.setattr(acceptance, "ALL_CHECKS", cheap)
    results = acceptance.run_all()
    assert results == [fn() for fn in cheap]
    assert [r.number for r in results] == [7, 2]
