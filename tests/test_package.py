"""Package metadata agrees with the installed module."""
import re
from pathlib import Path

import bcdyn


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text(encoding="utf-8").split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert bcdyn.__version__ == declared
