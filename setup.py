from pathlib import Path

from setuptools import find_packages, setup

_design = Path(__file__).resolve().parent / "DESIGN.md"

setup(
    name="repro-nonlocal-loadbalance",
    version="1.0.0",
    description=("Reproduction of 'Load balancing for distributed nonlocal "
                 "models within asynchronous many-task systems' "
                 "(IPPS 2021 workshops)"),
    long_description=(_design.read_text(encoding="utf-8")
                      if _design.exists() else ""),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=2.1",  # np.fft out=, reshape(copy=False)
        "scipy",
    ],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
)
