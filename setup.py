"""The package's only build description (there is no ``pyproject.toml``).

``pip install -e .`` reads this file through setuptools' legacy
backend; ``pip install -e . --no-use-pep517 --no-build-isolation`` does
the same in environments without the ``wheel`` package.  Nothing needs
installing to run from a checkout: ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'BGP Communities: Even more Worms in the Routing Can' (IMC 2018)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["repro-bgp=repro.cli:main"]},
    # The package itself is stdlib-only; the dev extra carries the test
    # harness and the benchmark plugin.
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
)
