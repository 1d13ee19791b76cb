"""Command-line surface: enumeration, integral evaluation, bound tables,
parameter scans, Monte-Carlo verification and the acceptance selfcheck.

Conventions shared by every subcommand:

  * an optional JSON config file (``--config``) supplies defaults; explicit
    flags override config values key by key;
  * outputs go to stdout or to ``--output PATH`` (a relative path is placed
    under ``$PAM_MOMENTS_OUTDIR`` when that variable is set);
  * floats are printed with 17 significant digits, so equal configs and
    seeds produce byte-identical files;
  * exit code 0 on success, 1 when a verification fails, 2 on usage errors
    and when the numerics cannot produce a value for the inputs (an
    EstimationError, e.g. a series peak beyond the float range); exit code
    2 prints a one-line message on stderr, never a traceback.

CSV column orders (also documented in the README):

  gamma-scan:   H0, H, n, a, gamma_n
  bound-table:  t, p, series_value, envelope_value, C1, C2
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .chaos_bounds import (
    FractionalParams,
    admissible_param_grid,
    gamma_n_matrix,
)
from .chaos_bounds import _envelope_exponent, _exp_or_inf, _fit_log_envelope
from .initial_data import check_cond_mu0, j0 as eval_j0, measure_from_config
from .mc_verifier import verify_lemma32, verify_term_bound
from .path_combinatorics import (
    _offset_matrix,
    expand_and_verify_identity,
    exponent_matrix,
)
from .simplex_integrals import SimplexIntegralSpec, brute_force, closed_form


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _float_list(key: str, value) -> list[float]:
    """Floats from a comma-separated string or a JSON number or list."""
    try:
        if isinstance(value, str):
            return [float(v) for v in value.split(",") if v.strip()]
        return [float(v) for v in np.atleast_1d(value)]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value for {key}: {value!r} ({exc})") from exc


@contextlib.contextmanager
def _output(path: str | None, stdout):
    """The stream a command writes to: stdout, or the file at path."""
    if path is None:
        yield stdout or sys.stdout
        return
    outdir = os.environ.get("PAM_MOMENTS_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w") as fh:
        yield fh


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolved config: file values overridden by explicitly set flags,
    logged to stderr."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValidationError("config file must contain a JSON object")
        cfg.update(loaded)
    for key, val in vars(args).items():
        if key in ("config", "func", "output") or val is None:
            continue
        cfg[key] = val
    print("config: " + json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)
    return cfg


def _require(cfg: dict, key: str, cast):
    if key not in cfg:
        raise ValidationError(f"missing required option: {key}")
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value for {key}: {cfg[key]!r} ({exc})") from exc


def _measure_of(cfg: dict):
    m = cfg.get("measure", {"type": "lebesgue", "c": 1.0})
    if isinstance(m, str):
        m = json.loads(m)
    return measure_from_config(m)


def _cmd_paths(args, stdout) -> int:
    cfg = _merge_config(args)
    n = _require(cfg, "n", int)
    a = exponent_matrix(n).tolist()
    heights = (np.arange(1, n + 1) - _offset_matrix(n)[:, :-1]).tolist()  # k - d_{k-1}
    with _output(args.output, stdout) as out:
        for a_row, h_row in zip(a, heights):
            rec = {"n": n, "a": a_row, "path_heights": h_row}
            out.write(json.dumps(rec) + "\n")
    return 0


def _cmd_identity(args, stdout) -> int:
    cfg = _merge_config(args)
    n = _require(cfg, "n", int)
    trials = int(cfg.get("trials", 100))
    rng = random.Random(int(cfg.get("seed", 0)))
    if "xs" in cfg:
        try:
            draws = [[Fraction(v) for v in str(cfg["xs"]).split(",")]]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad value for xs: {cfg['xs']!r} ({exc})") from exc
    else:
        draws = [
            [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(trials)
        ]
    failures = 0
    for xs in draws:
        lhs, rhs = expand_and_verify_identity(xs)
        if lhs != rhs:
            failures += 1
    with _output(args.output, stdout) as out:
        out.write(
            json.dumps({"n": n, "trials": len(draws), "failures": failures}) + "\n"
        )
    return 0 if failures == 0 else 1


def _cmd_gamma_scan(args, stdout) -> int:
    cfg = _merge_config(args)
    n_max = int(cfg.get("n_max", 8))
    grid = admissible_param_grid(int(cfg.get("grid_size", 5)))
    ns = range(2, n_max + 1)
    astrs = {
        n: ["".join(map(str, a)) for a in exponent_matrix(n).tolist()] for n in ns
    }
    with _output(args.output, stdout) as out:
        out.write("H0,H,n,a,gamma_n\n")
        for params in grid:
            for n in ns:
                g = gamma_n_matrix(n, params)
                for astr, gv in zip(astrs[n], g):
                    out.write(
                        f"{_fmt(params.H0)},{_fmt(params.H)},{n},{astr},{_fmt(gv)}\n"
                    )
    return 0


def _cmd_dirichlet(args, stdout) -> int:
    cfg = _merge_config(args)
    spec_cfg = cfg.get("spec")
    if isinstance(spec_cfg, str):
        spec_cfg = json.loads(spec_cfg)
    if not isinstance(spec_cfg, dict):
        raise ValidationError("missing required option: spec")
    spec = SimplexIntegralSpec(
        float(spec_cfg["t"]),
        tuple(float(v) for v in spec_cfg["alphas"]),
        tuple(float(v) for v in spec_cfg["betas"]),
    )
    value = closed_form(spec)
    record = {"t": spec.t, "alphas": list(spec.alphas), "betas": list(spec.betas),
              "closed_form": float(_fmt(value))}
    code = 0
    oracle = cfg.get("oracle")
    if oracle:
        rtol = float(cfg.get("rtol", 1e-6))
        method = {"quadrature": "nested-quadrature", "mc": "monte-carlo"}[oracle]
        res = brute_force(
            spec, method=method, rtol=rtol, seed=int(cfg.get("seed", 0))
        )
        rel = abs(res.estimate - value) / abs(value)
        record.update(
            oracle=oracle,
            oracle_estimate=float(_fmt(res.estimate)),
            oracle_error_bound=float(_fmt(res.error_bound)),
            rel_diff=float(_fmt(rel)),
        )
        tol = rtol if oracle == "quadrature" else max(
            rtol, 5.0 * res.error_bound / abs(value)
        )
        if rel > tol:
            code = 1
    with _output(args.output, stdout) as out:
        out.write(json.dumps(record) + "\n")
    return code


def _cmd_j0(args, stdout) -> int:
    cfg = _merge_config(args)
    t = _require(cfg, "t", float)
    x = _require(cfg, "x", float)
    measure = _measure_of(cfg)
    rep = check_cond_mu0(measure)
    record = {
        "t": t,
        "x": x,
        "j0": float(_fmt(eval_j0(t, x, measure))),
        "cond_mu0_ok": rep.ok,
        "cond_mu0_values": [float(_fmt(v)) for v in rep.values],
    }
    with _output(args.output, stdout) as out:
        out.write(json.dumps(record) + "\n")
    return 0 if rep.ok else 1


def _cmd_bound_table(args, stdout) -> int:
    cfg = _merge_config(args)
    params = FractionalParams(
        _require(cfg, "H0", float), _require(cfg, "H", float),
        float(cfg.get("b", 1.0)),
    )
    ps = _float_list("p", cfg.get("p", "2"))
    ts = _float_list("t", cfg.get("t", "1,2,4,8"))
    cc = float(cfg.get("C", 4.0))
    c1_log, c2, log_sums = _fit_log_envelope(params, cc, tuple(ps), tuple(ts))
    with _output(args.output, stdout) as out:
        out.write("t,p,series_value,envelope_value,C1,C2\n")
        for j, t in enumerate(ts):
            for i, p in enumerate(ps):
                ls = float(log_sums[i, j])
                env = c1_log + c2 * _envelope_exponent(p, t, params) / p
                out.write(
                    f"{_fmt(t)},{_fmt(p)},{_fmt(_exp_or_inf(ls))},"
                    f"{_fmt(_exp_or_inf(env))},"
                    f"{_fmt(_exp_or_inf(c1_log))},{_fmt(c2)}\n"
                )
    return 0


def _cmd_mc_verify(args, stdout) -> int:
    cfg = _merge_config(args)
    n = _require(cfg, "n", int)
    t = _require(cfg, "t", float)
    x = float(cfg.get("x", 0.0))
    params = FractionalParams(
        _require(cfg, "H0", float), _require(cfg, "H", float),
        float(cfg.get("b", 1.0)),
    )
    measure = _measure_of(cfg)
    samples = int(cfg.get("samples", 200_000))
    seed = int(cfg.get("seed", 0))
    workers = int(cfg.get("workers", 1))
    chk = verify_term_bound(n, t, x, measure, params, samples, seed, workers)
    cmp = verify_lemma32(
        n, t, x, measure, params,
        time_samples=int(cfg.get("time_samples", 10)),
        xi_samples=int(cfg.get("xi_samples", 4_000)),
        seed=seed, workers=workers,
    )
    report = {
        "config": {
            "n": n, "t": _fmt(t), "x": _fmt(x),
            "H0": _fmt(params.H0), "H": _fmt(params.H), "b": _fmt(params.b_H0),
            "measure": cfg.get("measure", {"type": "lebesgue", "c": 1.0}),
            "samples": samples, "seed": seed, "workers": workers,
        },
        "estimate": _fmt(chk.estimate.value),
        "stderr": _fmt(chk.estimate.stderr),
        "bound": _fmt(chk.bound),
        "minimal_b": _fmt(chk.minimal_b),
        "bound_passed": chk.passed,
        "spectral_majorant_passed": cmp.ok,
        "spectral_margins": [_fmt(v) for v in cmp.margins],
    }
    with _output(args.output, stdout) as out:
        out.write(json.dumps(report, sort_keys=True, default=str) + "\n")
    return 0 if chk.passed and cmp.ok else 1


def _cmd_selfcheck(args, stdout) -> int:
    from .acceptance import run_all

    with _output(args.output, stdout) as out:
        results = run_all(report=lambda line: out.write(line + "\n"))
    return 0 if all(r.ok for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pam-moments",
        description="chaos-expansion moment bounds: enumeration, integrals, "
        "bound tables and Monte-Carlo verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="output path (default stdout)")

    p = sub.add_parser("paths", help="emit the exponent vectors / lattice paths")
    common(p)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("identity", help="check the product-expansion identity")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--xs", help="comma-separated rationals, e.g. 1/2,3,5/4")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("gamma-scan", help="CSV of gamma_n over the parameter grid")
    common(p)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=_cmd_gamma_scan)

    p = sub.add_parser("dirichlet", help="evaluate a weighted simplex integral")
    common(p)
    p.add_argument("--spec", help='JSON {"t":..., "alphas":[...], "betas":[...]}')
    p.add_argument("--oracle", choices=("quadrature", "mc"))
    p.add_argument("--rtol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("j0", help="deterministic part of the solution")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--measure", help='JSON, e.g. {"type": "dirac", "x0": 0.0}')
    p.set_defaults(func=_cmd_j0)

    p = sub.add_parser("bound-table", help="CSV of moment series and envelope")
    common(p)
    p.add_argument("--H0", type=float)
    p.add_argument("--H", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--p", help="comma-separated moment orders")
    p.add_argument("--t", help="comma-separated times")
    p.set_defaults(func=_cmd_bound_table)

    p = sub.add_parser("mc-verify", help="Monte-Carlo check of the chaos bounds")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--H0", type=float)
    p.add_argument("--H", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--measure", help='JSON, e.g. {"type": "dirac", "x0": 0.0}')
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_mc_verify)

    p = sub.add_parser("selfcheck", help="run the full acceptance suite")
    common(p)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def run(argv=None, stdout=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, stdout)
    except (ValidationError, DomainError, SizeError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
