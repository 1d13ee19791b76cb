import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pam_moments


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert pam_moments.__version__ == meta["project"]["version"]


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # scipy.integrate, which loads scipy.optimize, once came with every
    # import; only the quadrature paths load it, on first use.  A fresh
    # bound-table process pays for whatever the series path and the
    # envelope fit import, and scipy.optimize is a slow import
    src = Path(pam_moments.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import io, sys\n"
            "from pam_moments import FractionalParams, cli, fit_envelope_constants\n"
            "cli.run(['bound-table', '--H0', '0.75', '--H', '0.3'], stdout=io.StringIO())\n"
            "fit_envelope_constants(FractionalParams(0.75, 0.3), C=4.0)\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
