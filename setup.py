"""Package metadata for ``repro-experiments`` (there is no pyproject.toml).

The version has one source of truth, ``src/repro/version.py``, read here
without importing the package (which would pull in numpy at build time).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(encoding="utf-8"),
                     re.MULTILINE).group(1)

setup(
    name="repro-experiments",
    version=_VERSION,
    description="Reproduction of the DSN 2019 malware evasion attack and defense study",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-experiments = repro.cli:main"]},
)
