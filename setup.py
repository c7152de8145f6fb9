"""Setuptools shim for environments without the ``wheel`` package.

``pip install -e . --no-use-pep517`` uses this file directly; it holds the
whole project metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of Constable (ISCA 2024)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
