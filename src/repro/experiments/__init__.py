"""Experiment drivers: one module per table/figure of the paper.

Every module exposes a ``run(scale)`` function returning a result object and
a ``report(result)`` function rendering the same rows/series the paper
reports, and registers the pair as a zero-axis campaign scenario tagged
``figure``: ``repro campaign run figure3 --reports`` runs and prints one,
and ``repro campaign status`` checks the stored cells against the paper's
claims (:mod:`repro.analysis.claims`).

The :class:`~repro.experiments.harness.ExperimentScale` object controls the
simulated system size and iteration counts; the ``smoke`` preset keeps unit
tests fast, while the ``paper`` preset (``campaign run --scale paper``) runs
the largest configuration that completes in reasonable time on the
pure-Python simulator.  Absolute scale is therefore smaller than the
1024-node Piz Daint runs — the quantities compared (orderings, ratios,
crossovers) are the ones the paper's conclusions rest on.
"""

from repro.experiments.harness import (
    ExperimentScale,
    PolicyComparison,
    build_network,
    compare_policies,
    policy_factories,
)

__all__ = [
    "ExperimentScale",
    "PolicyComparison",
    "build_network",
    "compare_policies",
    "policy_factories",
]
