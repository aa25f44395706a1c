"""Package metadata (there is no pyproject.toml; this file is all of it).

The offline environment ships setuptools without the ``wheel`` package,
so PEP 660 editable installs (``pip install -e .`` with build isolation)
cannot build editable wheels; ``python setup.py develop`` is the legacy
editable path that works there.
"""

import os

from setuptools import find_packages, setup

_version: dict = {}
with open(os.path.join(os.path.dirname(__file__), "src", "repro", "version.py")) as handle:
    exec(handle.read(), _version)

setup(
    name="ocelot-repro",
    version=_version["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["ocelot = repro.cli:main"]},
)
