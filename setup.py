"""Setuptools entry point.

A plain ``setup.py`` is kept (instead of relying solely on PEP 517/660) so
that ``pip install -e .`` works in fully offline environments where the
``wheel`` package is unavailable and pip falls back to the legacy editable
install path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Asynchronous BFT Consensus Made Wireless' (ICDCS 2025): "
        "ConsensusBatcher, wireless HoneyBadgerBFT/BEAT/Dumbo, and a simulated "
        "wireless testbed."
    ),
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.testbed": ["packs/*.json"]},
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
