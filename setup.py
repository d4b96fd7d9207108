"""Setuptools metadata for the ``absynth-repro`` package.

Install in editable mode with ``pip install -e .`` (or ``pip install -e .
--no-use-pep517`` where ``setuptools`` predates PEP 660 editable wheels).
"""

from setuptools import find_packages, setup

setup(
    name="absynth-repro",
    version="1.0.0",
    description="Expected-cost bound analysis for probabilistic programs "
                "(reproduction of PLDI 2018 'Bounded Expectations')",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The LP solver calls SciPy's private HiGHS binding
    # (scipy.optimize._highspy._core); tests/test_highs_binding.py checks
    # every name it uses on this range.
    install_requires=["numpy", "scipy>=1.17.1,<1.18"],
)
