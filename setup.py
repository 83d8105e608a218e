"""Legacy setup shim: lets `pip install -e .` work offline (no wheel pkg)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"],
    },
)
