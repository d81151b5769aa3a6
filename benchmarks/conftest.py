"""Shared infrastructure for the figure and report scripts in ``benchmarks/``.

Most scripts regenerate one table or figure of the paper and print its
rows/series; ``pytest benchmarks/bench_fig8_microbenchmarks.py -s`` shows
them live, and they are also written to ``benchmarks/results/``.  pytest
collects these ``bench_*.py`` files only when named on the command line
(the README lists all of them).  The tests take pytest-benchmark's
``benchmark`` fixture, so running them needs the
``pytest-benchmark`` plugin installed; ``pyproject.toml`` does not declare
it.  Simulator speed is measured by ``perfbench/``, not here.

The experiment scale is selected with the ``REPRO_BENCH_SCALE`` environment
variable: ``smoke`` (default; seconds per figure) or ``paper`` (the
reduced-scale stand-in for the paper's runs; hours of pure-Python
simulation).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.harness import ExperimentScale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale shared by all benchmarks."""
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where each benchmark writes its reproduced table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a reproduced table and persist it under ``benchmarks/results``."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
