"""Command-line surface: enumeration, integral evaluation, bound tables,
parameter scans, Monte-Carlo verification and the acceptance selfcheck.

Each subcommand is declared once, in `COMMANDS`: help text, a command
function `options -> (output lines, exit code)` and its options (key, type,
default or `REQUIRED`, flag help).  The argparse subparsers are built from
that table once per process, and `run` is the one pipeline of every
subcommand: parse, merge the flags over the ``--config`` file (key by key;
a file key that names no option is a usage error), cast every value
through its option's type, log the resolved config on stderr, call the
command, and only then open ``--output`` (a relative path is placed under
``$PAM_MOMENTS_OUTDIR`` when set; default stdout) and write the lines.
A command may yield a block of up to `_BLOCK_ROWS` lines joined by
newlines as one item, and `run` writes it with one newline after it:
`paths` and `gamma-scan` format each block by one template ('%d' for
ints, which prints them as json.dumps does, and '%.17g' for gamma_n),
not by one json.dumps or format call and one write per line.
`gamma-scan`, `bound-table` and `mc-verify` print floats with 17
significant digits ('%.17g'; `mc-verify` as JSON strings); `j0` and
`dirichlet` print json.dumps' shortest repr, which reads back to the same
float.  Either way equal configs and seeds produce byte-identical files.
Exit code 0 on success, 1 when a verification fails, 2 on usage errors (a
missing option, a value its type cannot read), when the numerics cannot
produce a value (an EstimationError, e.g. a series peak beyond the float
range) and when an array cannot be allocated (a MemoryError); exit code 2
prints a one-line message on stderr, never a traceback.

CSV column orders (also documented in the README):

  gamma-scan:   H0, H, n, a, gamma_n
  bound-table:  t, p, series_value, envelope_value, C1, C2
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import pathlib
import random
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .errors import DomainError, EstimationError, SizeError, ValidationError
from .errors import _check_real, _exp_or_inf
from .chaos_bounds import FractionalParams, admissible_param_grid
from .chaos_bounds import _fit_log_envelope, _log_gamma_rows
from .initial_data import InitialMeasure, check_cond_mu0, j0 as eval_j0
from .initial_data import measure_from_config
from .mc_verifier import verify_lemma32, verify_term_bound
from .path_combinatorics import MAX_ENUM_N, _offset_matrix, expand_and_verify_identity
from .path_combinatorics import exponent_matrix
from .simplex_integrals import SimplexIntegralSpec, brute_force, closed_form


_BLOCK_ROWS = 4096  # most lines in one block of `paths` or `gamma-scan` output


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Flag(str):
    """Flag text (a list flag's items too), as opposed to a config file's value."""


def _real(value) -> float:
    """A float from flag text or a JSON number, not a JSON boolean or string."""
    if not isinstance(value, _Flag):
        _check_real(**{"a config value": value})
    return float(value)


def _int(value) -> int:
    """An int from a JSON integer or its text; 2.5 and 1e300 are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _list(cast):
    """A type reading "1,2", [1, 2] or 1 as a list of items read by cast."""
    def read(value) -> list:
        if isinstance(value, str):
            value = [type(value)(v) for v in value.split(",") if v.strip()]
        return [cast(v) for v in (value if isinstance(value, list) else [value])]
    return read


def _json(value):
    return json.loads(value) if isinstance(value, str) else value


def _spec(value) -> SimplexIntegralSpec:
    d = _json(value)
    return SimplexIntegralSpec(d["t"], d["alphas"], d["betas"])


class _Measure(NamedTuple):
    given: Any  # the value as given, which mc-verify's report echoes
    measure: InitialMeasure


def _oracle(value) -> str:
    if value not in ("quadrature", "mc"):
        raise ValueError("expected quadrature or mc")
    return value


def _paths(o: dict):
    n = o["n"]
    d, ks = _offset_matrix(n), np.arange(1, n + 1)
    # one template per block of rows; it prints ints as json.dumps does
    ints = ", ".join(["%d"] * n)
    line = f'{{"n": {n}, "a": [{ints}], "path_heights": [{ints}]}}'
    # a_k = 1 + d_k - d_{k-1} and the heights k - d_{k-1}, a block at a time
    return ("\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())
            for i in range(0, len(d), _BLOCK_ROWS)
            for b in [d[i:i + _BLOCK_ROWS]]
            for rows in [np.hstack((1 + b[:, 1:] - b[:, :-1], ks - b[:, :-1]))]), 0


def _identity(o: dict):
    n, xs = o["n"], o["xs"]
    if xs is None:
        rng = random.Random(o["seed"])
        draws = [[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
                 for _ in range(o["trials"])]
    elif len(xs) != n:
        raise ValidationError(f"xs has {len(xs)} values, expected n = {n}")
    else:
        draws = [xs]
    failures = sum(lhs != rhs for lhs, rhs in map(expand_and_verify_identity, draws))
    record = {"n": n, "trials": len(draws), "failures": failures}
    return [json.dumps(record)], 0 if failures == 0 else 1


def _gamma_scan(o: dict):
    n_max = o["n_max"]
    if n_max > MAX_ENUM_N:
        raise SizeError(f"n_max must be <= {MAX_ENUM_N}, got {n_max}")
    grid = admissible_param_grid(o["grid_size"])
    # "n,a,%.17g" per vector for n = 2..n_max is built once, if the grid has
    # a point; each grid point takes one pass of the recursion, and each
    # block of rows of an order is formatted by one template
    templates = [[f"{n},{''.join(map(str, a))},%.17g" for a in exponent_matrix(n).tolist()]
                 for n in range(2, n_max + 1)] if grid else []

    def blocks():
        for params in grid:
            h0_h = f"{_fmt(params.H0)},{_fmt(params.H)},"
            log_rows = itertools.islice(_log_gamma_rows(n_max, params), 1, None)
            for n_templates, log_g in zip(templates, log_rows):
                values = np.exp(log_g).tolist()
                for i in range(0, len(values), _BLOCK_ROWS):
                    block = ("\n" + h0_h).join(n_templates[i:i + _BLOCK_ROWS])
                    yield (h0_h + block) % tuple(values[i:i + _BLOCK_ROWS])

    return itertools.chain(["H0,H,n,a,gamma_n"], blocks()), 0


def _dirichlet(o: dict):
    spec, oracle, rtol = o["spec"], o["oracle"], o["rtol"]
    value = closed_form(spec)
    record = {"t": spec.t, "alphas": list(spec.alphas), "betas": list(spec.betas),
              "closed_form": value}
    code = 0
    if oracle:
        if value < sys.float_info.min:
            raise EstimationError(f"I_n = {_fmt(value)} is below the normal floats; "
                                  "an oracle needs a normal value to compare against")
        method = {"quadrature": "nested-quadrature", "mc": "monte-carlo"}[oracle]
        res = brute_force(spec, method=method, rtol=rtol, seed=o["seed"])
        rel = abs(res.estimate - value) / abs(value)
        record.update(oracle=oracle, oracle_estimate=res.estimate,
                      oracle_error_bound=res.error_bound, rel_diff=rel)
        tol = rtol if oracle == "quadrature" else max(
            rtol, 5.0 * res.error_bound / abs(value))
        code = int(rel > tol)
    return [json.dumps(record)], code


def _j0(o: dict):
    t, x, measure = o["t"], o["x"], o["measure"].measure
    rep = check_cond_mu0(measure)
    record = {"t": t, "x": x, "j0": eval_j0(t, x, measure), "cond_mu0_ok": rep.ok,
              "cond_mu0_values": rep.values}
    return [json.dumps(record)], 0 if rep.ok else 1


def _bound_table(o: dict):
    params = FractionalParams(o["H0"], o["H"])
    ps, ts = o["p"], o["t"]
    c1_log, c2, log_sums, log_env = _fit_log_envelope(params, o["C"], ps, ts)
    lines = ["t,p,series_value,envelope_value,C1,C2"]
    for j, t in enumerate(ts):
        for i, p in enumerate(ps):
            lines.append(f"{_fmt(t)},{_fmt(p)},{_fmt(_exp_or_inf(log_sums[i, j]))},"
                         f"{_fmt(_exp_or_inf(log_env[i, j]))},"
                         f"{_fmt(_exp_or_inf(c1_log))},{_fmt(c2)}")
    return lines, 0


def _mc_verify(o: dict):
    n, t, x, seed, workers = o["n"], o["t"], o["x"], o["seed"], o["workers"]
    params = FractionalParams(o["H0"], o["H"], o["b"])
    measure = o["measure"].measure
    chk = verify_term_bound(n, t, x, measure, params, o["samples"], seed, workers)
    cmp = verify_lemma32(n, t, x, measure, params, time_samples=10, xi_samples=4_000, seed=seed)
    report = {
        "config": {
            "n": n, "t": _fmt(t), "x": _fmt(x),
            "H0": _fmt(params.H0), "H": _fmt(params.H), "b": _fmt(params.b_H0),
            "measure": o["measure"].given,
            "samples": o["samples"], "seed": seed, "workers": workers,
        },
        "estimate": _fmt(chk.estimate.value), "stderr": _fmt(chk.estimate.stderr),
        "bound": _fmt(chk.bound), "minimal_b": _fmt(chk.minimal_b),
        "bound_passed": chk.passed, "spectral_majorant_passed": cmp.ok,
        "spectral_margins": [_fmt(v) for v in cmp.margins],
    }
    code = 0 if chk.passed and cmp.ok else 1
    return [json.dumps(report, sort_keys=True, default=str)], code


def _selfcheck(o: dict):
    from .acceptance import run_all

    results = run_all()
    return [r.line() for r in results], 0 if all(r.ok for r in results) else 1


REQUIRED = object()


class Option(NamedTuple):
    key: str
    type: Callable[[Any], Any]
    default: Any = None  # REQUIRED, or None for "not given"
    help: str | None = None
    metavar: str | None = None


class Command(NamedTuple):
    help: str
    func: Callable[[dict], tuple[Iterable[str], int]]
    options: tuple[Option, ...] = ()


_MEASURE = Option("measure", lambda v: _Measure(v, measure_from_config(_json(v))),
                  {"type": "lebesgue", "c": 1.0},
                  'JSON, e.g. {"type": "dirac", "x0": 0.0}')
_HURST = (Option("H0", _real, REQUIRED), Option("H", _real, REQUIRED))

COMMANDS = {
    "paths": Command("emit the exponent vectors / lattice paths", _paths,
                     (Option("n", _int, REQUIRED),)),
    "identity": Command("check the product-expansion identity", _identity, (
        Option("n", _int, REQUIRED),
        Option("trials", _int, 100),
        Option("seed", _int, 0),
        Option("xs", _list(lambda v: Fraction(str(v))), None,
               "comma-separated rationals, e.g. 1/2,3,5/4"),
    )),
    "gamma-scan": Command("CSV of gamma_n over the parameter grid", _gamma_scan, (
        Option("n_max", _int, 8),
        Option("grid_size", _int, 5),
    )),
    "dirichlet": Command("evaluate a weighted simplex integral", _dirichlet, (
        Option("spec", _spec, REQUIRED,
               'JSON {"t":..., "alphas":[...], "betas":[...]}'),
        Option("oracle", _oracle, None, metavar="{quadrature,mc}"),
        Option("rtol", _real, 1e-6),
        Option("seed", _int, 0),
    )),
    "j0": Command("deterministic part of the solution", _j0, (
        Option("t", _real, REQUIRED),
        Option("x", _real, REQUIRED),
        _MEASURE,
    )),
    "bound-table": Command("CSV of moment series and envelope", _bound_table, (
        *_HURST,
        Option("C", _real, 4.0),
        Option("p", _list(_real), [2.0], "comma-separated moment orders"),
        Option("t", _list(_real), [1.0, 2.0, 4.0, 8.0], "comma-separated times"),
    )),
    "mc-verify": Command("Monte-Carlo check of the chaos bounds", _mc_verify, (
        Option("n", _int, REQUIRED),
        Option("t", _real, REQUIRED),
        Option("x", _real, 0.0),
        *_HURST,
        Option("b", _real, 1.0),
        _MEASURE,
        Option("samples", _int, 200_000),
        Option("seed", _int, 0),
        Option("workers", _int, 1),
    )),
    "selfcheck": Command("run the full acceptance suite", _selfcheck),
}


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pam-moments", description="chaos-expansion moment bounds: enumeration, "
        "integrals, bound tables and Monte-Carlo verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="output path (default stdout)")
        for opt in command.options:
            p.add_argument("--" + opt.key.replace("_", "-"), dest=opt.key, type=_Flag,
                           help=opt.help, metavar=opt.metavar)
    return parser


def _load_config(path: str | None) -> dict:
    try:
        loaded = json.loads(pathlib.Path(path).read_text()) if path else {}
    except ValueError as exc:  # bad JSON or UTF-8, or an int past 4,300 digits
        raise ValidationError(str(exc)) from None
    if not isinstance(loaded, dict):
        raise ValidationError("config file must contain a JSON object")
    return loaded


def _cast(opt: Option, value):
    """The value read by the option's type: the one place a value is cast.

    A float, alone or in a list, must be finite: nan and +-inf are bad values.
    """
    if value is REQUIRED:
        raise ValidationError(f"missing required option: {opt.key}")
    if value is None and opt.default is None:
        return None
    try:
        cast = opt.type(value)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (cast if isinstance(cast, list) else [cast])):
            raise ValueError("not a finite number")
        return cast
    except (TypeError, ValueError, KeyError, ArithmeticError) as exc:
        raise ValidationError(f"bad value for {opt.key}: {value!r} ({exc})") from exc


def _output(path: str | None, stdout):
    """A context for the stream the lines go to: stdout, or the file at path."""
    if path is None:
        return contextlib.nullcontext(stdout or sys.stdout)
    outdir = os.environ.get("PAM_MOMENTS_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return open(path, "w")


def run(argv=None, stdout=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = COMMANDS[args.command]
    try:
        given = _load_config(args.config)
        unknown = sorted(set(given) - {o.key for o in command.options})
        if unknown:
            raise ValidationError(
                f"config key {unknown[0]!r} names no option of {args.command}")
        given.update((k, v) for k, v in vars(args).items()
                     if k not in ("config", "output") and v is not None)
        opts = {o.key: _cast(o, given.get(o.key, o.default)) for o in command.options}
        if command.options:
            # scalars are logged as read (the flag text "4" as 4), the rest as given
            logged = {k: opts[k] if isinstance(opts.get(k), (int, float, str)) else v
                      for k, v in given.items()}
            print("config: " + json.dumps(logged, sort_keys=True, default=str),
                  file=sys.stderr)
        lines, code = command.func(opts)
        with _output(args.output, stdout) as out:
            out.writelines(line + "\n" for line in lines)
        return code
    except (ValidationError, DomainError, SizeError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. --samples past any address space
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
