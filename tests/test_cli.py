import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pam_moments
from pam_moments import cli
from pam_moments.chaos_bounds import admissible_param_grid, gamma_n_matrix
from pam_moments.path_combinatorics import enumerate_exponent_vectors, path_of


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), stdout=buf)
    return code, buf.getvalue()


def test_paths_emits_json_lines():
    code, out = run_cli("paths", "--n", "4")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 8
    assert lines[0] == {"n": 4, "a": [1, 1, 1, 1], "path_heights": [1, 2, 3, 4]}
    digits = ["".join(map(str, rec["a"])) for rec in lines]
    assert digits == ["1111", "1120", "1201", "1210", "2011", "2020", "2101", "2110"]


def test_identity_subcommand():
    code, out = run_cli("identity", "--n", "6", "--trials", "15", "--seed", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["failures"] == 0 and rec["trials"] == 15
    code, out = run_cli("identity", "--n", "3", "--xs", "1/2,3/4,5")
    assert code == 0


def test_dirichlet_subcommand_with_oracle():
    spec = '{"t": 1.0, "alphas": [1.0], "betas": [1.0]}'
    code, out = run_cli("dirichlet", "--spec", spec, "--oracle", "quadrature")
    assert code == 0
    rec = json.loads(out)
    assert rec["closed_form"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rec["rel_diff"] <= 1e-6
    # the README's line, byte for byte: at n = 1 the oracle is one QAWS
    # call, its bound QUADPACK's estimate plus 4 eps of the value
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        assert f"pam-moments dirichlet --spec '{spec}' --oracle quadrature" in fh.read()
    assert out == (
        '{"t": 1.0, "alphas": [1.0], "betas": [1.0], '
        '"closed_form": 0.16666666666666669, "oracle": "quadrature", '
        '"oracle_estimate": 0.16666666666666669, '
        '"oracle_error_bound": 1.4802973661668756e-16, "rel_diff": 0.0}\n'
    )


def test_j0_subcommand():
    code, out = run_cli(
        "j0", "--t", "1.0", "--x", "0.0",
        "--measure", '{"type": "dirac", "x0": 0.0}',
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["j0"] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert rec["cond_mu0_ok"] is True


def test_bound_table_csv_schema_and_monotonicity():
    code, out = run_cli(
        "bound-table", "--H0", "0.75", "--H", "0.3", "--p", "2", "--t", "1,2,4,8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p,series_value,envelope_value,C1,C2"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    series = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(series, series[1:]))
    for r in rows:
        assert float(r[3]) >= float(r[2]) * (1 - 1e-12)


def _bound_table_rows(*argv):
    code, out = run_cli("bound-table", *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p,series_value,envelope_value,C1,C2"
    return [[float(f) for f in line.split(",")] for line in lines[1:]]


def test_bound_table_beyond_the_float_range():
    # ln C1 and the series exceed the float range at t = 1e3 and 1e9: the
    # values print as inf instead of raising OverflowError
    for t in ("1e3", "1e9"):
        rows = _bound_table_rows("--H0", "0.75", "--H", "0.3", "--p", "2", "--t", t)
        assert rows == [[float(t), 2.0, math.inf, math.inf, math.inf, 0.0]]
    # at H = 0.05 and C = 1, ln C1 is about -1.4e4: C1 prints as 0
    rows = _bound_table_rows(
        "--H0", "0.75", "--H", "0.05", "--C", "1", "--p", "2,4,8,16,32",
        "--t", "1,10,100",
    )
    assert len(rows) == 15
    assert all(r[4] == 0.0 and 0.0 < r[5] < math.inf for r in rows)
    assert all(r[3] >= r[2] for r in rows)


def test_estimation_error_exits_2_without_traceback(capsys):
    # the series peak at t = 1e30 overflows the float range, and so does the
    # envelope exponent p^{(H+1)/H} at p = 1e75
    for argv in (["--H", "0.05", "--p", "32", "--t", "1e30"],
                 ["--H", "0.3", "--p", "1e75", "--t", "1"]):
        code = cli.run(["bound-table", "--H0", "0.75", *argv], stdout=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("estimation error: ")
        assert not any("Traceback" in line for line in err)


def test_an_H_whose_constants_underflow_is_a_usage_error(capsys):
    # c_H and H/2 underflow to 0 at H = 5e-324; this once printed a traceback
    argv = ("bound-table", "--H0", "0.999999999999", "--H", "5e-324")
    assert run_cli(*argv) == (2, "")
    config, *err = capsys.readouterr().err.splitlines()
    assert config.startswith("config: ")
    assert err == ["usage error: H=5e-324 is too small: c_H or H/2 underflows to 0"]


def test_values_near_the_float_range_raise_no_numpy_warning(capsys):
    dirac = '{"type": "dirac", "x0": 0.0}'
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the kernel overflows at t = 1e300; at n = 1 this once ended in an
        # OverflowError traceback
        for n in ("1", "2"):
            code = cli.run(["mc-verify", "--n", n, "--t", "1e300", "--H0", "0.75",
                            "--H", "0.3", "--samples", "64"], stdout=io.StringIO())
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2
            assert err[1:] == ["estimation error: non-finite Monte-Carlo accumulator"]
        # x^2 overflows far from the point mass, where J0 is exactly 0
        code, out = run_cli("j0", "--t", "1", "--x", "1e300", "--measure", dirac)
    assert code == 0 and json.loads(out)["j0"] == 0.0


def test_mc_verify_at_a_tiny_horizon_is_an_estimation_error(capsys):
    # at t = 1e-300 the rate is floored at 1e-300 and the spectral
    # majorant's integrals pass the float range; this once printed "nan"
    # margins and exited 1 as a verification failure, and without numpy's
    # flags silenced it leaks "overflow encountered in exp"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in ("1", "2"):
            code, out = run_cli("mc-verify", "--n", n, "--t", "1e-300", "--H0", "0.75",
                                "--H", "0.3", "--samples", "64")
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2 and out == ""
            assert err[1:] == [
                "estimation error: spectral majorant integrals are not finite at t=1e-300"
            ]


def test_mc_verify_with_j0_squared_past_the_float_range_is_one_line(capsys):
    # J0(t, x)^2 = 1e400 for c = 1e200; it was once reported, after every
    # sample was drawn, as a non-finite Monte-Carlo accumulator
    code, out = run_cli("mc-verify", "--n", "2", "--t", "1", "--H0", "0.75", "--H", "0.3",
                        "--measure", '{"type": "lebesgue", "c": 1e200}', "--samples", "64")
    config, *err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == "" and config.startswith("config: ")
    assert err == ["estimation error: J0(t, x)^2 at t=1.0, x=0.0 exceeds the float range"]


def test_mc_verify_past_any_address_space_is_one_line_and_exit_2(capsys):
    # 1e15 samples once ended in numpy's _ArrayMemoryError traceback with
    # exit 1; the 7.11 PiB block is more than a 64-bit address space holds,
    # so the allocation is refused before any memory is touched
    code, out = run_cli("mc-verify", "--n", "1", "--t", "1", "--H0", "0.75", "--H", "0.3",
                        "--samples", "1000000000000000")
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and out == ""
    assert len(err) == 2 and err[1].startswith("out of memory: Unable to allocate 7.11 PiB")


def test_mc_verify_with_more_workers_than_samples_exits_0(capsys):
    # 1e20 workers once ended in an OverflowError traceback from
    # SeedSequence.spawn; streams past the rows are not made, so the
    # estimate at 2 samples is that of 2 workers
    base = ("mc-verify", "--n", "2", "--t", "1", "--H0", "0.75", "--H", "0.3",
            "--samples", "2", "--workers")
    code, out = run_cli(*base, "100000000000000000000")
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    report, want = json.loads(out), json.loads(run_cli(*base, "2")[1])
    assert report["config"]["workers"] == 100000000000000000000
    for key in ("estimate", "stderr", "minimal_b", "bound_passed"):
        assert report[key] == want[key], key


def test_dirichlet_beyond_the_float_range_names_its_input(capsys):
    # a partial sum of alphas and betas overflowing once leaked numpy's
    # overflow warning and blamed an input `x` the spec does not have; a
    # later margin past the floats (here k = 2), ln Gamma past the floats
    # and I_n past the floats once leaked a warning or ended in an
    # OverflowError traceback
    cases = [
        ('{"t": 1.0, "alphas": [1e308, 1e308], "betas": [1e308, 0.0]}',
         "usage error: alphas and betas must have finite partial sums: "
         "sum_(i<=k)(alpha_i+beta_i) is inf at k=1"),
        ('{"t": 1.0, "alphas": [0.5, 1e308], "betas": [1.7e308, 1.0]}',
         "usage error: alphas and betas must have finite partial sums: "
         "sum_(i<=k)(alpha_i+beta_i) is inf at k=2"),
        ('{"t": 1.0, "alphas": [0.0, -1e308, -1e308], "betas": [1.0, 1e300, 5e307]}',
         "usage error: cumulative condition fails at k=1: "
         "sum_(i<=k)(alpha_i+beta_i)+k+1+alpha_(k+1) = -1e+308 <= 0"),
        ('{"t": 1.0, "alphas": [1e308, 0.0], "betas": [5e307, 1e300]}',
         "estimation error: log I_n is not finite (nan): an exponent is past "
         "the range of ln Gamma"),
        ('{"t": 1e300, "alphas": [1.0], "betas": [1.0]}',
         "estimation error: I_n = exp(2070.534824225413) exceeds the float range"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec, message in cases:
            code, out = run_cli("dirichlet", "--spec", spec)
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2 and out == ""
            assert err[1:] == [message], spec


def test_dirichlet_oracle_at_extreme_t_is_an_estimation_error(capsys):
    # a closed form underflowing to 0 once ended the oracle comparison in a
    # ZeroDivisionError traceback (the second spec after a leaked QUADPACK
    # warning); Monte-Carlo weights squared past the floats leaked numpy's
    # overflow warning and printed the bare token Infinity with exit 0; and
    # a QUADPACK roundoff message leaked as a warning beside an error bound
    # 1e33 times the value
    tiny = '{"t": 1e-300, "alphas": [0.0], "betas": [2.0]}'
    underflow = ("estimation error: I_n = 0 is below the normal floats; an "
                 "oracle needs a normal value to compare against")
    cases = [
        (tiny, "quadrature", underflow),
        (tiny, "mc", underflow),
        ('{"t": 1e-300, "alphas": [1e300, 1.0], "betas": [0.5, 400.0]}', "quadrature",
         underflow),
        ('{"t": 1e150, "alphas": [0.5], "betas": [0.5]}', "mc",
         "estimation error: monte-carlo estimate or error bound leaves the float "
         "range: "),
        ('{"t": 1.0, "alphas": [49.917667097199136], "betas": [400.0]}', "quadrature",
         "estimation error: QUADPACK: The occurrence of roundoff error is detected"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, oracle, message in cases:
            code, out = run_cli("dirichlet", "--spec", spec, "--oracle", oracle)
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2 and out == ""
            assert len(err) == 2 and err[1].startswith(message), (spec, oracle)
        code, out = run_cli("dirichlet", "--spec", tiny)
    assert code == 0 and json.loads(out)["closed_form"] == 0.0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_j0_with_closed_forms_past_the_float_range(capsys):
    # an atom at 1e200 once ended in an OverflowError traceback from x0**2;
    # a constant density of 1e308, and atoms whose masses sum past the
    # floats, printed Infinity with exit 1, which called an admissible
    # measure inadmissible
    cases = [
        ('{"type": "dirac", "x0": 1e200}', "0", 0),
        ('{"type": "gaussian", "mean": 1e200}', "0", 0),
        ('{"type": "atoms", "atoms": [[1e200, 1.0], [0.0, 2.0]]}', "0", 0),
        ('{"type": "lebesgue", "c": 1e308}', "0", 2),
        ('{"type": "polynomial"}', "1e200", 2),
        ('{"type": "atoms", "atoms": [[0, 1e308], [0, 1e308]]}', "0", 2),
        ('{"type": "atoms", "atoms": [[0, 1e308], [0, 1e308], [0, 1e308], '
         '[0, 1e308], [0, 1e308]]}', "0", 2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure, x, want in cases:
            code, out = run_cli("j0", "--t", "1", "--x", x, "--measure", measure)
            err = capsys.readouterr().err.strip().splitlines()
            assert code == want, measure
            if code == 0:
                record = _strict_json(out)
                assert record["cond_mu0_ok"] is True, measure
                assert all(math.isfinite(v) for v in record["cond_mu0_values"])
            else:
                assert out == "" and len(err) == 2, measure
                assert err[1].startswith("estimation error: ")
                assert err[1].endswith("exceeds the float range")


def test_selfcheck_prints_one_line_per_check_and_exits_by_them(monkeypatch):
    from pam_moments import acceptance

    cheap = (acceptance.check_02_paths_n4, acceptance.check_07_gamma_ratio_monotone)
    monkeypatch.setattr(acceptance, "ALL_CHECKS", cheap)
    code, out = run_cli("selfcheck")
    assert code == 0
    assert out.splitlines() == [check().line() for check in cheap]
    failing = lambda: acceptance.CheckResult(99, "always fails", False, "by design")
    monkeypatch.setattr(acceptance, "ALL_CHECKS", cheap + (failing,))
    code, out = run_cli("selfcheck")
    assert code == 1
    assert out.splitlines()[-1] == "[FAIL] 99 always fails: by design"


def test_gamma_scan_csv():
    code, out = run_cli("gamma-scan", "--n-max", "3", "--grid-size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "H0,H,n,a,gamma_n"
    assert len(lines) > 1
    h0, h, n, a, g = lines[1].split(",")
    assert a in ("11", "20")
    assert float(g) == pytest.approx(1.0)


# the default block size, and blocks of 3 rows that split every order past n = 2
BLOCK_SIZES = pytest.mark.parametrize("block_rows", [cli._BLOCK_ROWS, 3])


@BLOCK_SIZES
def test_paths_rows_are_json_dumps_of_the_record(block_rows, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    for n in range(1, 13):
        want = [json.dumps({"n": n, "a": list(a), "path_heights": list(path_of(a))})
                for a in enumerate_exponent_vectors(n)]
        assert run_cli("paths", "--n", str(n)) == (0, "\n".join(want) + "\n")


@BLOCK_SIZES
def test_gamma_scan_rows_are_the_per_value_format_oracle(block_rows, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    for grid_size in (0, 1, 3):
        for n_max in range(2, 11):
            want = ["H0,H,n,a,gamma_n"] + [
                ",".join((format(p.H0, ".17g"), format(p.H, ".17g"), str(n),
                          "".join(map(str, a)), format(g, ".17g")))
                for p in admissible_param_grid(grid_size) for n in range(2, n_max + 1)
                for a, g in zip(enumerate_exponent_vectors(n), gamma_n_matrix(n, p).tolist())]
            argv = ("gamma-scan", "--n-max", str(n_max), "--grid-size", str(grid_size))
            assert run_cli(*argv) == (0, "\n".join(want) + "\n")


def test_gamma_scan_rejects_n_max_past_the_enumeration_cap_first(monkeypatch, capsys):
    # --n-max 25 once formatted every label for n = 2..20 (4.6 s, 300 MB)
    # before failing with a message about n = 21
    def no_enumeration(n):
        raise AssertionError("exponent_matrix called")

    monkeypatch.setattr(cli, "exponent_matrix", no_enumeration)
    for n_max in ("21", "25"):
        assert run_cli("gamma-scan", "--n-max", n_max) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"usage error: n_max must be <= 20, got {n_max}"
    # n_max <= 1 leaves no order to scan: the header alone, exit 0
    for n_max in ("1", "0", "-3"):
        assert run_cli("gamma-scan", "--n-max", n_max) == (0, "H0,H,n,a,gamma_n\n")


def test_gamma_scan_on_an_empty_grid_enumerates_nothing(monkeypatch):
    # an empty grid once built the row templates of every order first:
    # at --n-max 18, 0.96 s and 117 MB to print the header; grid size 1's
    # one point is inadmissible
    def no_enumeration(n):
        raise AssertionError("exponent_matrix called")

    monkeypatch.setattr(cli, "exponent_matrix", no_enumeration)
    for grid_size in ("0", "1"):
        argv = ("gamma-scan", "--n-max", "20", "--grid-size", grid_size)
        assert run_cli(*argv) == (0, "H0,H,n,a,gamma_n\n")


def test_mc_verify_byte_stability(tmp_path):
    argv = [
        "mc-verify", "--n", "1", "--t", "1.0", "--x", "0.0",
        "--H0", "0.75", "--H", "0.3",
        "--measure", '{"type": "lebesgue", "c": 1.0}',
        "--samples", "10000", "--seed", "21", "--workers", "2",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(argv + ["--output", str(f1)]) in (0, 1)
    assert cli.run(argv + ["--output", str(f2)]) in (0, 1)
    assert f1.read_bytes() == f2.read_bytes()
    rec = json.loads(f1.read_text())
    assert set(rec) >= {"estimate", "stderr", "bound", "minimal_b", "bound_passed"}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "trials": 5, "seed": 1}))
    code, out = run_cli("identity", "--config", str(cfg), "--trials", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 3 and rec["trials"] == 7


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PAM_MOMENTS_OUTDIR", str(tmp_path))
    code = cli.run(["paths", "--n", "2", "--output", "paths.jsonl"])
    assert code == 0
    assert (tmp_path / "paths.jsonl").exists()


def test_usage_errors_exit_2():
    code, _ = run_cli("paths")  # missing --n
    assert code == 2
    code, _ = run_cli("j0", "--t", "1.0")  # missing --x
    assert code == 2
    code, _ = run_cli("dirichlet", "--spec", "not json")
    assert code == 2
    assert cli.run(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "abc"],
        ["identity", "--n", "3", "--xs", "1/0,2,3"],
        ["identity", "--n", "3", "--xs", "a,b"],
        ["j0", "--t", "1", "--x", "0", "--measure", "[1]"],
        ["j0", "--t", "1", "--x", "0", "--measure", '{"type": "dirac", "x0": "a"}'],
        ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", ","],
        ["identity", "--n", "5", "--xs", "1,2"],
        ["dirichlet", "--spec", '{"t": "x", "alphas": [1], "betas": [1]}'],
        ["dirichlet", "--spec", '{"t": 1, "alphas": 1, "betas": [1]}'],
        ["dirichlet", "--spec", '{"t": 1, "alphas": [1], "betas": [1]}',
         "--oracle", "mc", "--seed", "-1"],
        ["paths", "--n", "abc"],
        ["dirichlet", "--spec", '{"t": 1, "alphas": [1], "betas": [1]}',
         "--oracle", "xx"],
        ["j0", "--t", "1", "--x", "nan"],
        ["mc-verify", "--n", "1", "--t", "1", "--H0", "0.75", "--H", "0.3",
         "--b", "inf"],
        ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "2,-inf"],
        ["mc-verify", "--n", "2", "--t", "inf", "--H0", "0.75", "--H", "0.3"],
        ["j0", "--t", "1", "--x", "0", "--measure", '{"type": "dirac", "x0": NaN}'],
        # a JSON boolean or string for a number was once cast by float()
        ["j0", "--t", "1", "--x", "0", "--measure", '{"type": "dirac", "x0": true}'],
        ["j0", "--t", "1", "--x", "0", "--measure", '{"type": "lebesgue", "c": "2"}'],
        ["j0", "--t", "1", "--x", "0", "--measure",
         '{"type": "atoms", "atoms": [["1.5", 2]]}'],
        ["mc-verify", "--n", "1", "--t", "1", "--H0", "0.75", "--H", "0.3",
         "--measure", '{"type": "gaussian", "variance": Infinity}'],
        # a JSON boolean or string in a spec was once cast by float()
        ["dirichlet", "--spec", '{"t": 1, "alphas": [true], "betas": [1]}'],
        ["dirichlet", "--spec", '{"t": 1, "alphas": ["0.5"], "betas": [1]}'],
        ["dirichlet", "--spec", '{"t": true, "alphas": [1], "betas": [1]}'],
    ],
)
def test_malformed_values_exit_2_without_traceback(argv, capsys):
    assert cli.run(argv, stdout=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # besides the resolved-config log line, exactly one error line
    lines = [line for line in err.splitlines() if not line.startswith("config: ")]
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("identity", {"n": 3, "trials": "abc"}, "trials"),
        ("mc-verify", {"n": 2, "t": 1, "H0": 0.75, "H": 0.3, "samples": "many"},
         "samples"),
        ("gamma-scan", {"n_max": "x"}, "n_max"),
        ("dirichlet", {"spec": {"t": 1, "alphas": [1], "betas": [1]},
                       "oracle": "xx"}, "oracle"),
        ("j0", {"t": 1, "x": math.nan}, "x"),
        ("bound-table", {"H0": 0.75, "H": 0.3, "t": [1, math.inf]}, "t"),
        ("mc-verify", {"n": 2, "t": -math.inf, "H0": 0.75, "H": 0.3}, "t"),
        # a float option's config value is a JSON number: float() once
        # read a boolean or numeric string, alone or in a list, as one
        ("j0", {"t": True, "x": 0}, "t"),
        ("j0", {"t": "1", "x": 0}, "t"),
        ("mc-verify", {"n": 2, "t": 1, "H0": 0.75, "H": 0.3, "b": False}, "b"),
        ("bound-table", {"H0": 0.75, "H": 0.3, "p": [2, True]}, "p"),
        ("bound-table", {"H0": 0.75, "H": 0.3, "p": "2,4"}, "p"),
    ],
)
def test_config_file_values_are_cast_like_flags(command, cfg, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run([command, "--config", str(path)], stdout=io.StringIO()) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: bad value for {key}: ")


def test_config_with_an_int_past_4300_digits_is_a_usage_error(tmp_path, capsys):
    # json.loads raises a bare ValueError for such an int, which once ended
    # in a traceback; the file text is written directly, as json.dumps
    # cannot write the int either
    cfg = tmp_path / "big.json"
    cfg.write_text('{"t": 1, "x": 0, "measure": {"type": "dirac", "x0": ' + "9" * 5000 + "}}")
    assert run_cli("j0", "--config", str(cfg)) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: Exceeds the limit (4300 digits)")


def test_config_key_that_names_no_option_is_a_usage_error(tmp_path, capsys):
    # a misspelt key (and, after their removal, time_samples and
    # xi_samples) was once ignored with exit 0
    path = tmp_path / "cfg.json"
    base = ["mc-verify", "--n", "1", "--t", "1", "--H0", "0.75", "--H", "0.3",
            "--samples", "64", "--config", str(path)]
    for key in ("tme_samples", "time_samples", "xi_samples"):
        path.write_text(json.dumps({key: 3}))
        assert cli.run(base, stdout=io.StringIO()) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: config key '{key}' names no option of mc-verify"]
    # the file's own keys alone are checked: argparse's "command" entry and
    # --output are not config keys, and a key that selfcheck lacks is unknown
    path.write_text(json.dumps({"n": 3, "output": "x"}))
    assert cli.run(["paths", "--config", str(path)], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: config key 'output' names no option of paths"]
    # a file that holds no JSON object has no keys to read
    path.write_text(json.dumps([{"n": 3}]))
    assert cli.run(["paths", "--config", str(path)], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: config file must contain a JSON object"]
    path.write_text(json.dumps({"n": 3}))
    assert run_cli("paths", "--config", str(path), "--output", os.devnull) == (0, "")
    assert cli.run(["selfcheck", "--config", str(path)], stdout=io.StringIO()) == 2


def test_bound_table_has_no_b(tmp_path, capsys):
    # b_H0 scales term_bound alone, which bound-table does not call: --b 7
    # and --b 0.01 printed the bytes of no --b; mc-verify keeps the option
    argv = ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "2,4", "--t", "1,8"]
    assert cli.run(argv + ["--b", "7"], stdout=io.StringIO()) == 2
    assert "unrecognized arguments: --b 7" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b": 1.0}))
    assert cli.run(argv + ["--config", str(path)], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: config key 'b' names no option of bound-table"]


def test_failing_command_leaves_the_output_file_unchanged(tmp_path):
    out, cfg = tmp_path / "out.txt", tmp_path / "cfg.json"
    out.write_bytes(b"kept\n")
    cfg.write_text(json.dumps({"n": 3, "trials": "abc"}))
    for argv in (["identity", "--n", "5", "--xs", "1,2"],
                 ["identity", "--config", str(cfg)],
                 ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "1e75"]):
        assert cli.run(argv + ["--output", str(out)]) == 2
        assert out.read_bytes() == b"kept\n"


# every key of each subcommand with a value that works; the fuzz test keeps
# it or replaces it by a value from one pool of JSON values, whose integers
# stay small so that every size (n, samples, ...) is at most 64
_FUZZ_KEYS = {
    "paths": {"n": 12},
    "identity": {"n": 3, "trials": 2, "seed": 1, "xs": "1/2,3,5/4"},
    "gamma-scan": {"n_max": 4, "grid_size": 2},
    "dirichlet": {"spec": {"t": 1.0, "alphas": [1.0], "betas": [1.0]},
                  "oracle": "mc", "rtol": 1e-3, "seed": 3},
    "j0": {"t": 1.0, "x": 0.0, "measure": {"type": "dirac", "x0": 0.0}},
    "bound-table": {"H0": 0.75, "H": 0.3, "C": 4.0, "p": [2, 4],
                    "t": [1, 8]},
    "mc-verify": {"n": 2, "t": 1.0, "x": 0.0, "H0": 0.75, "H": 0.3, "b": 1.0,
                  "measure": {"type": "dirac", "x0": 0.0}, "samples": 64,
                  "seed": 7, "workers": 2},
}
_FUZZ_POOL = [
    None, True, -1, 0, 1, 2, 3, 0.3, 0.75, 2.5, -1.5, math.nan, math.inf, -math.inf,
    1e300,
    "", "abc", "2,4", "1/2", "mc", "quadrature", [], [2, 4], ["x"], [[1]], {},
    {"type": "dirac", "x0": 0.0}, {"type": "atoms", "atoms": [[0.0, 1.0]]},
    {"t": 1.0, "alphas": [1.0], "betas": [1.0]},
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_exits_0_1_or_2_without_traceback(data, tmp_path, capsys):
    command = data.draw(st.sampled_from(sorted(_FUZZ_KEYS)), label="command")
    cfg = {key: data.draw(st.one_of(st.just(valid), st.sampled_from(_FUZZ_POOL)),
                          label=key)
           for key, valid in _FUZZ_KEYS[command].items()}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run([command, "--config", str(path)], stdout=io.StringIO()) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# one key at a time: a fault that needs one bad value among valid ones (as
# mc-verify with t = inf once did) is rarely drawn by the fuzz test above
_ONE_KEY_VALUES = [math.nan, math.inf, -math.inf, 1e300, -1, 0, "x", None, []]


@pytest.mark.parametrize("command", sorted(_FUZZ_KEYS))
def test_one_bad_config_key_exits_0_1_or_2_without_traceback(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for key in _FUZZ_KEYS[command]:
        for value in _ONE_KEY_VALUES:
            path.write_text(json.dumps({**_FUZZ_KEYS[command], key: value}))
            code = cli.run([command, "--config", str(path)], stdout=io.StringIO())
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (key, value, err)


# the README's commands with the sha256 of their stdout and their exit
# code, so that a change meant to keep every byte is checked by the suite
# (mc-verify is pinned in full in test_mc_sampler_oracles.py, and selfcheck
# by its checks)
README_STDOUT = [
    (["paths", "--n", "4"],
     "c275acbaa43738c490789fb8fdff4fbf2bc2644b41222e8bb59813f00a10aac2", 0),
    (["identity", "--n", "6", "--trials", "50", "--seed", "1"],
     "a4e559b86a505a48e3d3777718b935c5e30d9ba2dbf8221f47c138dd6bd00389", 0),
    (["dirichlet", "--spec", '{"t": 1.0, "alphas": [1.0], "betas": [1.0]}',
      "--oracle", "quadrature"],
     "0d3addd2fb7fe9628d9a91505bc95526f62a9709f775347061d91dac487a0959", 0),
    (["j0", "--t", "1", "--x", "0", "--measure", '{"type": "dirac", "x0": 0.0}'],
     "71848af2613fc7f4375e10c462aa684df7e137b2aafe07968086aa5ace42a69c", 0),
    (["gamma-scan", "--n-max", "6"],
     "e8db0fedcdc555f348faf282865aa75a615400cac1a9582e5522e2c6698819e0", 0),
    (["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "2", "--t", "1,2,4,8"],
     "1390d021c2fdf106c4c00dd5b1de2ad69d075844f54abdecf5c31fccd20c8aef", 0),
]


# gamma-scan where the prefix recursion runs deepest, digest taken before
# the recursion replaced the per-n offset-matrix gathers
DEEP_GAMMA_SCAN = (["gamma-scan", "--n-max", "12", "--grid-size", "3"],
                   "d1c565eddf1fbd3a0039231722a3fa99fe4f0f105e2a8f6fbb81a7a369441afc", 0)


def test_deep_gamma_scan_stdout_is_pinned():
    argv, digest, want = DEEP_GAMMA_SCAN
    code, out = run_cli(*argv)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (digest, want)


@pytest.mark.parametrize("argv, digest, want", README_STDOUT,
                         ids=[argv[0] for argv, _, _ in README_STDOUT])
def test_readme_command_stdout_is_pinned(argv, digest, want):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        assert "pam-moments " + shlex.join(argv) in fh.read()
    code, out = run_cli(*argv)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (digest, want)


def _readme_commands():
    """The argv of each `pam-moments` line of the README's command block."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read().replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in text.splitlines()
             if line.startswith("pam-moments ")]
    return [argv[:argv.index(">")] if ">" in argv else argv for argv in argvs]


def test_readme_commands_build_the_parser_once(monkeypatch):
    # building the argparse tree for all subcommands once cost more than
    # a j0 or bound-table call itself
    from pam_moments import acceptance

    monkeypatch.setattr(acceptance, "ALL_CHECKS", (acceptance.check_02_paths_n4,))
    argvs = _readme_commands()
    assert sorted(argv[0] for argv in argvs) == sorted(cli.COMMANDS)
    cli._build_parser.cache_clear()
    for argv in argvs:
        assert run_cli(*argv)[0] == 0, argv
    assert cli._build_parser.cache_info().misses == 1


def test_reused_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # a usage error, another C and a config error leave the README's
    # bound-table line at its pinned bytes, C back at its default 4
    cli._build_parser.cache_clear()
    table = ["bound-table", "--H0", "0.75", "--H", "0.3", "--p", "2", "--t", "1,2,4,8"]
    assert run_cli(*table[:1], *table[3:]) == (2, "")  # no --H0
    assert run_cli(*table, "--C", "1")[0] == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1, "q": 3}))
    assert run_cli(*table, "--config", str(cfg)) == (2, "")
    argv, digest, want = README_STDOUT[-1]
    assert argv == table
    code, out = run_cli(*table)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (digest, want)
    assert cli._build_parser.cache_info().misses == 1
    err = capsys.readouterr().err
    assert "missing required option: H0" in err and "config key 'q'" in err


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(pam_moments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    _, want = run_cli("paths", "--n", "3")
    for module in ("pam_moments", "pam_moments.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "paths", "--n", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == want


def test_verification_failure_exits_1():
    # infeasible simplex spec comparison is a usage error; a failed oracle
    # comparison must instead exit 1 -- force it with an absurd tolerance
    code, out = run_cli(
        "dirichlet",
        "--spec", '{"t": 1.0, "alphas": [0.2, 0.1], "betas": [0.3, 0.4]}',
        "--oracle", "mc", "--rtol", "1e-18",
    )
    assert code in (0, 1)  # tolerance floor decides; must not crash
