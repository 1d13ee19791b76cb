"""The public surface, pinned: the names `pam_moments` exports, each public
function's parameters (names, kinds, which have a default; not the
defaults' values, whose reprs vary with the numpy version), each public
dataclass's fields and each CLI subcommand's option keys.  An added or
removed knob, field or option shows up here as a diff."""

import dataclasses
import inspect
import pathlib
import re
import types

import pam_moments
from pam_moments import cli

# "p=" has a default; "*" starts the keyword-only parameters
SIGNATURES = {
    "admissible_param_grid": "size=",
    "brute_force": "spec, method=, rtol=, seed=",
    "chaos_norm_estimate": "n, t, x, measure, params, samples, seed=, workers=",
    "check_cond_mu0": "measure, a_grid=",
    "check_conditions": "spec",
    "closed_form": "spec",
    "diagonal_touch_points": "a",
    "enumerate_exponent_vectors": "n",
    "expand_and_verify_identity": "xs",
    "exponent_of": "heights",
    "fit_envelope_constants": "params, C, p_grid=, t_grid=",
    "fit_p_exponent": "params, t=, C=, p_grid=",
    "fit_time_exponent": "params, C=, t_grid=",
    "gamma_n": "a, params",
    "gamma_n_matrix": "n, params",
    "gaussian_spectral_integral": "alpha, t",
    "heat_kernel": "t, x",
    "j0": "t, x, measure",
    "log_chaos_series": "p, t, params, C",
    "log_closed_form": "spec",
    "measure_from_config": "cfg",
    "moment_bound": "p, t, x, params, measure, C, *, constants",
    "move_down": "a, i",
    "path_of": "a",
    "spatial_exponents": "a, params",
    "stirling_lb_check": "a, C",
    "term_bound": "n, t, params, mode=",
    "verify_ab_condition": "alpha_tilde, beta_tilde, alpha",
    "verify_lemma32": "n, t, x, measure, params, time_samples, xi_samples, seed=",
    "verify_term_bound": "n, t, x, measure, params, samples, seed=, workers=",
}

FIELDS = {
    "BruteForceResult": ("estimate", "error_bound", "evaluations"),
    "ChaosTermBound": ("n", "gamma_n", "log_bound", "time_exponent"),
    "CustomDensity": ("density",),
    "DiracAt": ("x0",),
    "EstimatorResult": ("value", "stderr", "samples"),
    "ExponentVector": ("a", "d"),
    "FiniteAtoms": ("atoms",),
    "FractionalParams": ("H0", "H", "b_H0"),
    "GaussianDensity": ("mean", "variance"),
    "LebesgueConstant": ("c",),
    "MomentBoundResult": ("log_series_value", "log_envelope_value"),
    "PolynomialDensity": (),
    "SimplexIntegralSpec": ("t", "alphas", "betas"),
    "SpectralComparison": ("lhs", "rhs", "diff_stderr"),
    "TermBoundCheck": ("estimate", "bound", "minimal_b", "passed"),
}

OTHER_NAMES = {"DomainError", "EstimationError", "SizeError", "ValidationError",
               "InitialMeasure"}

CLI_OPTIONS = {
    "paths": ("n",),
    "identity": ("n", "trials", "seed", "xs"),
    "gamma-scan": ("n_max", "grid_size"),
    "dirichlet": ("spec", "oracle", "rtol", "seed"),
    "j0": ("t", "x", "measure"),
    "bound-table": ("H0", "H", "C", "p", "t"),
    "mc-verify": ("n", "t", "x", "H0", "H", "b", "measure", "samples", "seed", "workers"),
    "selfcheck": (),
}


def _public():
    return {k: v for k, v in vars(pam_moments).items()
            if not k.startswith("_") and not isinstance(v, types.ModuleType)}


def _shape(fn) -> str:
    """The parameter list as in SIGNATURES: names, "*" before the first
    keyword-only one, "*args"/"**kwargs" marked, "=" after each default."""
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        name = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "") + p.name
        out.append(name + ("=" if p.default is not p.empty else ""))
    return ", ".join(out)


def test_exported_names():
    assert set(_public()) == set(SIGNATURES) | set(FIELDS) | OTHER_NAMES


def test_function_signatures():
    got = {k: _shape(v) for k, v in _public().items() if inspect.isfunction(v)}
    assert got == SIGNATURES


def test_dataclass_fields():
    got = {k: tuple(f.name for f in dataclasses.fields(v))
           for k, v in _public().items() if dataclasses.is_dataclass(v)}
    assert got == FIELDS


def test_cli_option_keys():
    assert {k: tuple(o.key for o in c.options) for k, c in cli.COMMANDS.items()} == CLI_OPTIONS


def test_every_public_field_is_read_outside_the_tests():
    """Each pinned field is read as `.name` (`self.name` too) somewhere in
    src/, demos/ or bench/; its declaration, `name: type`, is not a read."""
    root = pathlib.Path(__file__).resolve().parent.parent
    text = "\n".join(path.read_text() for part in ("src", "demos", "bench")
                     for path in sorted((root / part).rglob("*.py")))
    unread = [f"{cls}.{name}" for cls, names in FIELDS.items() for name in names
              if not re.search(rf"\.{name}\b", text)]
    assert unread == []


def test_surface_counts():
    # 86 parameters (18 with a default), 33 fields, 29 options; before the
    # audits that dropped unused knobs, defaults and echo fields: 91 (29), 46, 30
    params = [p.strip() for s in SIGNATURES.values() for p in s.split(",")]
    params = [p for p in params if p != "*"]
    assert (len(params), sum(p.endswith("=") for p in params)) == (86, 18)
    assert sum(map(len, FIELDS.values())) == 33
    assert sum(map(len, CLI_OPTIONS.values())) == 29
