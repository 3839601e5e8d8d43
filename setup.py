"""Packaging for the ``repro`` library and its ``cloudbench`` command.

All metadata lives here; there is no ``pyproject.toml``.  Installs with
``pip install .``, or with ``python setup.py develop`` where the ``wheel``
package (and so a PEP 660 editable install) is unavailable.  Either way
the ``cloudbench`` console script runs :func:`repro.cli.main`.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version():
    """``repro.__version__``, read from the source without importing the package."""
    with open(os.path.join(HERE, "src", "repro", "__init__.py"), encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="cloudbench",
    version=read_version(),
    description="A reproduction of 'Benchmarking Personal Cloud Storage' (IMC 2013)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.services": ["specs/*.json"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["cloudbench = repro.cli:main"]},
)
