"""Shared output location of the report scripts in ``benchmarks/``.

The three scripts here are plain programs, not pytest tests: each measures
one thing, prints a report and writes ``benchmarks/results/BENCH_*.json``;
``--smoke`` runs the CI-sized version.  The paper's figures and tables run
as campaign scenarios (``repro campaign run figures --reports``, checked
against the paper's claims by ``repro campaign status``), and simulator
speed is measured by ``perfbench/``.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
