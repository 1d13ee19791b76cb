import tomllib
from pathlib import Path

import pam_moments


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert pam_moments.__version__ == meta["project"]["version"]
