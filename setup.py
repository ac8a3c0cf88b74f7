"""Legacy setup shim (the environment's setuptools predates PEP 660)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={
        # Everything CI needs on top of the runtime deps: the test
        # runner, the property-test engine, and the coverage gate.
        # `pip install -e .[dev]` is the single supported dev setup --
        # keep CI pointed here instead of hand-listing packages in the
        # workflow.
        "dev": [
            "pytest",
            "pytest-cov",
            "hypothesis",
        ],
        # Static-analysis toolchain for the CI lint gate: ruff/mypy
        # configs live in ruff.toml / mypy.ini; the project-specific
        # rules need no extra install (`repro lint` ships in-package).
        "lint": [
            "ruff",
            "mypy",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.__main__:main",
        ],
    },
    python_requires=">=3.10",
)
