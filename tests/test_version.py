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
    # envelope fit import, and scipy.optimize is a slow import.  The
    # estimator's helper thread lives only inside a call: after the import,
    # bound-table and mc-verify, the main thread is the only one
    src = Path(pam_moments.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import io, sys, threading\n"
            "from pam_moments import FractionalParams, cli, fit_envelope_constants\n"
            "threads = [threading.active_count()]\n"
            "code = cli.run(['bound-table', '--H0', '0.75', '--H', '0.3'],\n"
            "               stdout=io.StringIO())\n"
            "fit_envelope_constants(FractionalParams(0.75, 0.3), C=4.0)\n"
            "print(code, [m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])\n"
            "threads.append(threading.active_count())\n"
            "code = cli.run(['mc-verify', '--n', '2', '--t', '1', '--x', '0', '--H0', '0.75',\n"
            "                '--H', '0.3', '--samples', '10000', '--workers', '2'],\n"
            "               stdout=io.StringIO())\n"
            "threads.append(threading.active_count())\n"
            "print(code, threads)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 []\n0 [1, 1, 1]\n")
