"""Setuptools entry point.

A classic ``setup.py`` is used (rather than a PEP 517 build backend) because
the offline evaluation environment has no ``wheel`` package available, and the
legacy ``pip install -e .`` path works without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Trinity: A General Purpose FHE Accelerator' (MICRO 2024): "
        "functional CKKS/TFHE/scheme-conversion library plus a cycle-level model of "
        "the Trinity accelerator and its baselines."
    ),
    author="Trinity reproduction authors",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native library's source, compiled on first use (repro.fhe.native).
    package_data={"repro.fhe": ["native.c"]},
    # The core library is dependency-free: all FHE arithmetic runs on the
    # exact pure-Python backend.  numpy is an optional extra enabling the
    # vectorized arithmetic backend (and the CKKS canonical-embedding
    # encoder, which needs float linear algebra either way).
    install_requires=[],
    extras_require={
        "numpy": ["numpy"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
    },
)
