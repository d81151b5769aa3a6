"""Integration tests for the per-figure experiment drivers (smoke scale)."""

from __future__ import annotations

import pytest

from repro.experiments import figure3, figure4, figure5, figure7, figure8, figure9, figure10
from repro.experiments import model_validation, table1
from repro.experiments.harness import (
    ExperimentScale,
    PolicyComparison,
    build_network,
    compare_policies,
    policy_factories,
)
from repro.allocation.policies import allocate_contiguous
from repro.noise.background import NoiseLevel
from repro.workloads.microbench import PingPongBenchmark


SCALE = ExperimentScale.smoke()


@pytest.fixture(scope="module")
def tiny_scale() -> ExperimentScale:
    return SCALE


class TestExperimentScale:
    def test_presets(self):
        smoke = ExperimentScale.smoke()
        paper = ExperimentScale.paper()
        assert smoke.large_job_nodes < paper.large_job_nodes
        assert paper.topology().num_nodes > smoke.topology().num_nodes
        assert ExperimentScale.preset("Paper") == paper
        with pytest.raises(ValueError):
            ExperimentScale.preset("bogus")

    def test_scaled_size_floor(self):
        assert SCALE.scaled_size(4) >= 8

    def test_simulation_config_applies_packetization(self):
        paper = ExperimentScale.paper()
        config = paper.simulation_config()
        assert config.nic.packet_payload_bytes == paper.packet_payload_bytes

    def test_build_network(self):
        network = build_network(SCALE)
        assert network.num_nodes == SCALE.topology().num_nodes

    def test_with_seed(self):
        assert SCALE.with_seed(7).seed == 7


class TestCompare:
    def test_policy_factories_cover_three_configurations(self):
        factories = policy_factories(SCALE.simulation_config())
        assert set(factories) == {"Default", "HighBias", "AppAware"}

    def test_compare_policies_runs_all(self, tiny_scale):
        topo = tiny_scale.topology()
        allocation = allocate_contiguous(topo, 4)
        comparison = compare_policies(
            tiny_scale,
            allocation,
            lambda: PingPongBenchmark(size_bytes=1024, iterations=2),
            noise_level=NoiseLevel.NONE,
        )
        assert set(comparison.results) == {"Default", "HighBias", "AppAware"}
        normalized = comparison.normalized_medians()
        assert normalized["Default"] == pytest.approx(1.0)
        assert comparison.best_policy() in comparison.results
        assert 0.0 <= comparison.app_aware_fraction_default() <= 1.0

    def test_comparison_subset_of_policies(self, tiny_scale):
        topo = tiny_scale.topology()
        allocation = allocate_contiguous(topo, 4)
        comparison = compare_policies(
            tiny_scale,
            allocation,
            lambda: PingPongBenchmark(size_bytes=512, iterations=1),
            policies=["Default"],
            noise_level=NoiseLevel.NONE,
        )
        assert set(comparison.results) == {"Default"}
        assert comparison.app_aware_fraction_default() is None


class TestFigure3:
    def test_run_and_report(self, tiny_scale):
        result = figure3.run(tiny_scale)
        assert set(result.samples) == {
            "inter-nodes",
            "inter-blades",
            "inter-chassis",
            "inter-groups",
        }
        medians = result.medians()
        # Topological distance increases the median round-trip time.
        assert medians["inter-groups"] > medians["inter-nodes"]
        text = figure3.report(result)
        assert "Figure 3" in text and "inter-groups" in text


class TestTable1:
    def test_flits_scale_with_observation_time(self, tiny_scale):
        result = table1.run(tiny_scale, idle_unit_cycles=60_000)
        assert len(result.rows) == 2
        # Longer observation → more observed flits, although the app is idle.
        assert result.rows[1].incoming_flits > result.rows[0].incoming_flits
        assert 1.3 <= result.flit_ratio() <= 2.7
        # Normalizing by the interval removes (most of) the correlation.
        assert 0.5 <= result.normalized_ratio() <= 1.5
        assert "Table 1" in table1.report(result)


class TestFigure4:
    def test_intranode_variability_without_network(self, tiny_scale):
        result = figure4.run(tiny_scale)
        assert len(result.samples) == 4
        qcds = result.qcds()
        # Host-side effects alone produce measurable variability.
        assert any(q > 0.0 for q in qcds.values())
        assert "Figure 4" in figure4.report(result)


class TestFigure5:
    def test_qcd_comparison(self, tiny_scale):
        result = figure5.run(tiny_scale)
        assert len(result.execution_times) == 4
        for size, times in result.execution_times.items():
            assert len(times) == tiny_scale.pingpong_repetitions
            assert len(result.packet_latencies[size]) > 0
        assert "QCD" in figure5.report(result)


class TestFigure7:
    def test_series_and_report(self, tiny_scale):
        result = figure7.run(tiny_scale)
        assert len(result.series) == 4
        for sample in result.series.values():
            assert len(sample.times) == tiny_scale.pingpong_repetitions
            assert len(sample.estimates) == len(sample.times)
        for placement in figure7.PLACEMENTS:
            assert result.winner(placement) in figure7.MODES
        assert "Figure 7" in figure7.report(result)


class TestFigure8Suite:
    def test_subset_run(self, tiny_scale):
        specs = [spec for spec in figure8.benchmark_matrix() if spec[0] == "pingpong"][:1]
        result = figure8.run_suite(tiny_scale, job_nodes=6, figure="figure8", specs=specs)
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0][0] == "pingpong"
        assert 0.0 <= result.app_aware_win_rate() <= 1.0
        assert "figure8" in figure8.report(result)

    def test_benchmark_matrix_names(self):
        names = {spec[0] for spec in figure8.benchmark_matrix()}
        assert names == {
            "pingpong", "allreduce", "alltoall", "barrier",
            "broadcast", "halo3d", "sweep3d",
        }

    def test_figure9_uses_small_allocation(self, tiny_scale, monkeypatch):
        specs = [spec for spec in figure8.benchmark_matrix() if spec[0] == "barrier"]
        run_suite = figure8.run_suite
        monkeypatch.setattr(
            figure8, "run_suite",
            lambda scale, job_nodes, figure: run_suite(scale, job_nodes, figure, specs=specs),
        )
        result = figure9.run(tiny_scale)
        assert result.job_nodes == tiny_scale.small_job_nodes
        assert result.rows()
        assert figure9.report(result)


class TestFigure10:
    def test_subset_run(self, tiny_scale):
        result = figure10.run(tiny_scale, applications=("fft", "bfs"))
        assert set(result.comparisons) == {"fft", "bfs"}
        large_winner, small_winner = result.fft_winners()
        assert large_winner in {"Default", "HighBias", "AppAware"}
        assert small_winner in {"Default", "HighBias", "AppAware"}
        assert "Figure 10" in figure10.report(result)

    def test_unknown_application_rejected(self, tiny_scale):
        with pytest.raises(KeyError):
            figure10.run(tiny_scale, applications=("bogus",))


class TestModelValidation:
    def test_correlation_positive(self, tiny_scale):
        result = model_validation.run(tiny_scale, num_allocations=2)
        assert len(result.samples) == 2 * len(model_validation.MESSAGE_SIZES)
        # The model must track the measurements reasonably well (the paper
        # reports 0.79 on hardware; the simulator is cleaner than reality).
        assert result.correlation() > 0.5
        assert "correlation" in model_validation.report(result)
