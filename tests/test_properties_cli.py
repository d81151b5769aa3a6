"""Tests for topology property summaries and the ``repro`` entry point."""

from __future__ import annotations

import pytest

from repro.campaign import ensure_builtin_scenarios
from repro.campaign.registry import scenario_names
from repro.experiments.cli import build_campaign_parser, main
from repro.topology.dragonfly import LinkKind
from repro.topology.properties import (
    average_minimal_hops,
    diameter_hops,
    link_census,
    min_intergroup_connections,
    router_radix,
    summarize_topology,
)


class TestTopologyProperties:
    def test_link_census_matches_all_links(self, small_topology):
        census = link_census(small_topology)
        assert sum(census.values()) == len(small_topology.all_links())
        cfg = small_topology.config
        assert census[LinkKind.GREEN] == cfg.num_routers * (cfg.blades_per_chassis - 1)
        assert census[LinkKind.BLACK] == cfg.num_routers * (cfg.chassis_per_group - 1)

    def test_router_radix_bounds(self, small_topology):
        cfg = small_topology.config
        radix = router_radix(small_topology)
        expected_local = (cfg.blades_per_chassis - 1) + (cfg.chassis_per_group - 1)
        assert expected_local <= radix <= expected_local + cfg.global_links_per_router

    def test_diameter_at_most_five(self, small_topology, tiny_topology):
        assert 1 <= diameter_hops(small_topology) <= 5
        assert 1 <= diameter_hops(tiny_topology) <= 5

    def test_average_hops_below_diameter(self, small_topology):
        average = average_minimal_hops(small_topology)
        assert 0 < average <= diameter_hops(small_topology)

    def test_average_hops_invalid_stride(self, small_topology):
        with pytest.raises(ValueError):
            average_minimal_hops(small_topology, sample_stride=0)

    def test_min_intergroup_connections_positive(self, small_topology):
        assert min_intergroup_connections(small_topology) >= 1

    def test_summary_consistency(self, small_topology):
        summary = summarize_topology(small_topology)
        assert summary.num_routers == small_topology.num_routers
        assert summary.total_fabric_links == len(small_topology.all_links())
        assert summary.diameter_hops <= 5
        assert summary.min_intergroup_connections >= 1


class TestCli:
    """Every figure runs through ``repro campaign``; the legacy per-figure
    settings map onto its flags and store."""

    HINT = "repro campaign run figure3 --reports"

    def test_registry_covers_all_figures(self):
        ensure_builtin_scenarios()
        assert {
            "figure3", "table1", "figure4", "figure5", "figure7",
            "figure8", "figure9", "figure10", "model_validation",
        } == set(scenario_names(tag="figure"))

    def test_list_option(self, capsys):
        assert main(["campaign", "list", "--tag", "figure"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["figure3", "--scale", "smoke"]) == 2
        assert self.HINT in capsys.readouterr().err

    def test_no_experiments_rejected(self, capsys):
        assert main([]) == 2
        assert self.HINT in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_campaign_parser().parse_args(["run", "figure3"])
        assert args.scale == "smoke"
        assert args.backend == "flit"
        assert args.seed is None

    def test_runs_single_experiment_and_writes_output(self, tmp_path, capsys):
        store = tmp_path / "store"
        exit_code = main(
            ["campaign", "run", "figure4", "--seed", "3", "--reports", "--store", str(store)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert len(list((store / "reports").glob("*.txt"))) == 1
