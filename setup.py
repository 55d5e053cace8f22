"""Packaging for the repro library (``pip install -e .``).

Installs the ``repro`` console script on top of the package; ``python -m
repro`` keeps working either way (src-layout via ``package_dir``).
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    init = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init) as fh:
        return re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)


setup(
    name="repro-sp-mapping",
    version=_version(),
    description=(
        "Static task mapping for heterogeneous systems based on "
        "series-parallel decompositions — reproduction of Wilhelm & "
        "Pionteck (IPPS 2025), with mappers, experiment drivers, and a "
        "discrete-event runtime engine for robustness studies"
    ),
    author="paper-repo-growth",
    url="https://arxiv.org/abs/2502.19745",
    packages=find_packages("src"),
    package_dir={"": "src"},
    # the C kernel's source, compiled on first use (repro.evaluation._ckernel)
    package_data={"repro.evaluation": ["kernel.c"]},
    python_requires=">=3.9",
    # scipy is not optional: repro.mappers imports the MILP baselines
    # (scipy.optimize.milp) unconditionally
    install_requires=["numpy>=1.22", "scipy>=1.9"],
    extras_require={
        "dev": ["pytest", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
