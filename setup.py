"""Setup shim for the legacy editable install, ``python setup.py develop``.

All metadata lives in pyproject.toml.  ``pip install -e .`` needs the
``wheel`` package to build a PEP 660 editable wheel; where ``wheel`` is not
installed (an offline environment, for example), ``python setup.py develop``
still installs the package from pyproject.toml's metadata.
"""

from setuptools import setup

setup()
