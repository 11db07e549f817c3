"""Package metadata for the Youtopia update-exchange reproduction."""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.dirname(os.path.abspath(__file__))


def _version():
    # Single source of truth: repro.__version__.
    with open(os.path.join(_HERE, "src", "repro", "__init__.py"), encoding="utf-8") as handle:
        return re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)


def _long_description():
    readme = os.path.join(_HERE, "README.md")
    if os.path.exists(readme):
        with open(readme, encoding="utf-8") as handle:
            return handle.read()
    return ""


setup(
    name="repro-youtopia",
    version=_version(),
    description=(
        "Reproduction of 'Cooperative Update Exchange in the Youtopia System' "
        "(Kot & Koch, PVLDB 2009) with a multi-client update-exchange service"
    ),
    long_description=_long_description(),
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # Pure standard library at runtime; the test suite needs extras.
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve=repro.service.cli:main",
            "repro-experiment=repro.workload.__main__:main",
            "repro-trace=repro.obs.cli:main",
            "repro-top=repro.obs.top:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.9",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database",
        "Topic :: Scientific/Engineering",
    ],
)
