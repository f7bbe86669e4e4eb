"""Setuptools entry point.

A classic ``setup.py`` is kept (instead of PEP 517 metadata in
``pyproject.toml``) because this environment is offline and lacks the
``wheel`` package required by PEP 660 editable installs; the legacy
``setup.py develop`` path works without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of DIO (DSN 2023): diagnosing applications' I/O "
        "behavior through system call observability"
    ),
    python_requires=">=3.11",
    # The analysis layer (DFG, phases, access patterns, contention), the
    # latency series and the simulated db_bench compute on arrays.
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["dio=repro.cli:main"]},
)
