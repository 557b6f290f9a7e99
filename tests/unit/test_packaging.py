"""The package metadata in ``setup.py`` is real, not setuptools' defaults."""

import subprocess
import sys
from pathlib import Path

from repro.version import __version__

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_setup_py_reports_name_and_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["repro-experiments", __version__]
