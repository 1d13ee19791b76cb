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


def _report(res):
    print(res.line())
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
    lines = []
    results = acceptance.run_all(report=lines.append)
    assert [r.number for r in results] == [7, 2]
    assert lines == [r.line() for r in results]
    assert acceptance.run_all(report=None) == results
