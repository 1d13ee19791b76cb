"""Each narrative script in demos/ runs to the end in process.

The scripts call the public API the way the README shows it, so a renamed
function or a changed return shape breaks them.  Tier-1 turns a
RuntimeWarning into an error here as everywhere.  The sha256 of each
script's stdout is pinned, so that a change meant to keep every byte is
checked by the suite.
"""

import hashlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_lattice_paths": "e20fcc295ac7aad47f9e528b05a49b838581236a1ff78228e8d6f62e67fa60cf",
    "02_simplex_integrals": "423cc2c40d86c668e7b4f3adec5a645de823533c30060f62bfb8b5ebcf8f52c6",
    "03_initial_data": "768acc03c77056210389a717eb525e01cf0df2d87481f552ab24233ff100d7a4",
    "04_chaos_bounds": "27263357800a0a98251fd01e4b07ab4f3e99ac364756476d2d591c0bd73e5063",
    "05_monte_carlo_verification":
        "0621154980fd3f425ca0dfec8f067ed8c7323d90c73e5175ce0ff65e89565485",
}


def test_every_demo_is_collected():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
