"""Each narrative script in demos/ runs to the end in process.

The scripts call the public API the way the README shows it, so a renamed
function or a changed return shape breaks them.  Tier-1 turns a
RuntimeWarning into an error here as everywhere.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
