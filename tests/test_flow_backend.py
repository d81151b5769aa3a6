"""Cross-backend parity: the flow backend against the flit-level reference.

Stated tolerances
-----------------

The flow backend is a fluid approximation, so parity is asserted within
explicit bounds rather than exactly:

* message / iteration completion times: within a factor of
  ``TIME_TOLERANCE`` (1.7x) of the flit backend;
* average packet latency ``L``: within a factor of ``LATENCY_TOLERANCE``
  (1.6x) on the modes the paper's algorithm alternates between;
* stall ratio ``s``: within ``STALL_ABS_TOLERANCE`` (0.6 cycles/flit)
  absolutely, or within a factor of 2 when the reference stall is large;
* Algorithm 1 must pick the *same* routing mode on both backends for the
  Table 1 / Figure 8 microbenchmark message sizes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.model.flow.network as flow_network
import repro.topology.paths as paths_module
from repro.campaign.executor import scale_for
from repro.campaign.plan import RunSpec
from repro.campaign.store import ArtifactStore
from repro.config import SimulationConfig
from repro.core.selector import AppAwareSelector
from repro.experiments.harness import ExperimentScale, build_network
from repro.model import (
    COST_MODELS,
    BackendError,
    NetworkModel,
    build_network_model,
)
from repro.model.flow.network import FlowNetwork, RouteTable
from repro.model.flow.solver import FairShareSolver, FlowState
from repro.mpi.job import MpiJob
from repro.network.network import Network
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.routing.modes import RoutingMode
from repro.workloads.microbench import PingPongBenchmark

TIME_TOLERANCE = 1.7
LATENCY_TOLERANCE = 1.6
STALL_ABS_TOLERANCE = 0.6

#: The microbenchmark sizes Algorithm 1 is checked on (Table 1 / Figure 8).
MICROBENCH_SIZES = (1024, 8192, 65536, 1048576)


def _send_and_measure(backend: str, size_bytes: int, mode=RoutingMode.ADAPTIVE_0):
    network = build_network_model(SimulationConfig.tiny(), backend=backend)
    message = network.send(0, network.num_nodes - 1, size_bytes, routing_mode=mode)
    network.run_until_idle()
    counters = network.nic(0).counters
    return message, counters, network


def _ratio(a: float, b: float) -> float:
    low, high = sorted((a, b))
    return high / max(1e-9, low)


# -- registry / protocol ---------------------------------------------------------


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        """Every backend the planner can cost builds under its own name."""
        for backend in COST_MODELS:
            network = build_network_model(SimulationConfig.tiny(), backend=backend)
            assert network.backend_name == backend

    def test_config_backend_selects_model(self):
        flit = build_network_model(SimulationConfig.tiny())
        flow = build_network_model(SimulationConfig.tiny().with_backend("flow"))
        assert isinstance(flit, Network) and flit.backend_name == "flit"
        assert isinstance(flow, FlowNetwork) and flow.backend_name == "flow"

    def test_explicit_backend_overrides_config(self):
        network = build_network_model(
            SimulationConfig.tiny().with_backend("flit"), backend="flow"
        )
        assert network.backend_name == "flow"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown network-model backend"):
            build_network_model(SimulationConfig.tiny(), backend="quantum")

    def test_both_backends_implement_protocol(self):
        for backend in ("flit", "flow"):
            network = build_network_model(SimulationConfig.tiny(), backend=backend)
            assert isinstance(network, NetworkModel)
            assert network.num_nodes == network.config.topology.num_nodes
            assert network.num_routers == network.config.topology.num_routers

    def test_flow_send_validates_nodes(self):
        network = build_network_model(SimulationConfig.tiny(), backend="flow")
        with pytest.raises(ValueError):
            network.send(0, 0, 1024)
        with pytest.raises(ValueError):
            network.send(0, network.num_nodes, 1024)


# -- the fair-share solver -------------------------------------------------------


class TestFairShareSolver:
    def test_two_flows_share_a_link_equally(self):
        solver = FairShareSolver(lambda key: 1.0)
        flows = [FlowState(i, ("l",), 100.0) for i in range(2)]
        solver.solve(flows)
        assert flows[0].rate == pytest.approx(0.5)
        assert flows[1].rate == pytest.approx(0.5)

    def test_capped_flow_releases_bandwidth(self):
        solver = FairShareSolver(lambda key: 1.0)
        capped = FlowState(0, ("l",), 100.0, cap=0.2)
        greedy = FlowState(1, ("l",), 100.0)
        solver.solve([capped, greedy])
        assert capped.rate == pytest.approx(0.2)
        assert greedy.rate == pytest.approx(0.8)

    def test_multi_link_bottleneck(self):
        capacities = {"narrow": 0.5, "wide": 4.0}
        solver = FairShareSolver(capacities.__getitem__)
        through_narrow = FlowState(0, ("narrow", "wide"), 100.0)
        wide_only = FlowState(1, ("wide",), 100.0)
        solver.solve([through_narrow, wide_only])
        assert through_narrow.rate == pytest.approx(0.5)
        # Max-min: the wide-only flow absorbs the rest of the wide link.
        assert wide_only.rate == pytest.approx(3.5)

    def test_completion_horizon(self):
        solver = FairShareSolver(lambda key: 1.0)
        fast = FlowState(0, ("a",), 10.0)
        slow = FlowState(1, ("b",), 100.0)
        solver.solve([fast, slow])
        assert solver.completion_horizon([fast, slow]) == pytest.approx(10.0)


# -- message-level parity ---------------------------------------------------------


class TestMessageParity:
    @pytest.mark.parametrize("size_bytes", [512, 4096, 65536])
    def test_completion_time_within_tolerance(self, size_bytes):
        flit_msg, _, _ = _send_and_measure("flit", size_bytes)
        flow_msg, _, _ = _send_and_measure("flow", size_bytes)
        assert _ratio(flit_msg.transmission_time, flow_msg.transmission_time) <= TIME_TOLERANCE
        assert _ratio(flit_msg.acked_time, flow_msg.acked_time) <= TIME_TOLERANCE

    @pytest.mark.parametrize("size_bytes", [4096, 65536])
    def test_latency_within_tolerance(self, size_bytes):
        _, flit_counters, _ = _send_and_measure("flit", size_bytes)
        _, flow_counters, _ = _send_and_measure("flow", size_bytes)
        assert (
            _ratio(flit_counters.avg_packet_latency, flow_counters.avg_packet_latency)
            <= LATENCY_TOLERANCE
        )

    @pytest.mark.parametrize("size_bytes", [4096, 65536])
    def test_idle_stall_ratio_close(self, size_bytes):
        _, flit_counters, _ = _send_and_measure("flit", size_bytes)
        _, flow_counters, _ = _send_and_measure("flow", size_bytes)
        assert abs(flit_counters.stall_ratio - flow_counters.stall_ratio) <= STALL_ABS_TOLERANCE

    def test_in_order_structural_stall_matches(self):
        """Forcing one minimal path stalls similarly on both backends (Fig. 7)."""
        flit_msg, flit_counters, _ = _send_and_measure(
            "flit", 65536, RoutingMode.IN_ORDER
        )
        flow_msg, flow_counters, _ = _send_and_measure(
            "flow", 65536, RoutingMode.IN_ORDER
        )
        assert _ratio(flit_msg.transmission_time, flow_msg.transmission_time) <= 1.2
        assert flit_counters.stall_ratio > 1.0
        assert flow_counters.stall_ratio > 1.0
        assert _ratio(flit_counters.stall_ratio, flow_counters.stall_ratio) <= 2.0

    def test_counter_surface_identical_shape(self):
        """Both backends feed the exact counter fields Algorithm 1 reads."""
        for backend in ("flit", "flow"):
            _, counters, _ = _send_and_measure(backend, 4096)
            assert counters.request_packets == 64
            assert counters.request_flits == 320
            assert counters.responses_received == 64
            assert counters.request_packets_cum_latency > 0


def _congested(backend: str, mode: RoutingMode):
    network = build_network_model(SimulationConfig.small(), backend=backend)
    n = network.num_nodes
    for i in range(2, 14):
        network.send(i, n - 1 - i, 32768)
    message = network.send(0, n - 1, 32768, routing_mode=mode)
    network.run_until_idle()
    return message, network.nic(0).counters


class TestCongestedParity:
    def test_stall_rises_on_both_backends(self):
        results = {}
        for backend in ("flit", "flow"):
            _, idle, _ = _send_and_measure(backend, 32768)
            _, congested = _congested(backend, RoutingMode.ADAPTIVE_0)
            assert congested.stall_ratio > idle.stall_ratio
            assert congested.avg_packet_latency > idle.avg_packet_latency
            results[backend] = congested
        assert _ratio(results["flit"].stall_ratio, results["flow"].stall_ratio) <= 2.0
        assert (
            _ratio(
                results["flit"].avg_packet_latency,
                results["flow"].avg_packet_latency,
            )
            <= LATENCY_TOLERANCE
        )

    def test_completion_time_parity_under_congestion(self):
        flit_msg, _ = _congested("flit", RoutingMode.ADAPTIVE_0)
        flow_msg, _ = _congested("flow", RoutingMode.ADAPTIVE_0)
        assert _ratio(flit_msg.transmission_time, flow_msg.transmission_time) <= TIME_TOLERANCE


# -- Algorithm 1 agreement --------------------------------------------------------


class TestAlgorithm1Agreement:
    def _decisions(self, backend: str, congested: bool):
        """Algorithm 1's choice per microbench size, from measured counters."""
        if congested:
            _, counters = _congested(backend, RoutingMode.ADAPTIVE_0)
        else:
            _, counters, _ = _send_and_measure(backend, 32768)
        nic_config = SimulationConfig.tiny().nic
        modes = []
        for size in MICROBENCH_SIZES:
            selector = AppAwareSelector(nic_config)
            selector.observe(
                counters.avg_packet_latency,
                counters.stall_ratio,
                mode=RoutingMode.ADAPTIVE_0,
            )
            modes.append(selector.select_routing(size))
        return modes

    def test_same_modes_under_congestion(self):
        """The regime Algorithm 1 targets: heavy minimal-path contention."""
        assert self._decisions("flit", congested=True) == self._decisions(
            "flow", congested=True
        )

    def test_small_messages_high_bias_on_both(self):
        """Below the 4 KiB cumulative threshold both backends stay High Bias."""
        for congested in (False, True):
            flit_modes = self._decisions("flit", congested)
            flow_modes = self._decisions("flow", congested)
            assert flit_modes[0] is RoutingMode.ADAPTIVE_3
            assert flow_modes[0] is RoutingMode.ADAPTIVE_3


# -- MPI-layer parity --------------------------------------------------------------


class TestJobParity:
    def _pingpong_median(self, backend: str) -> float:
        network = build_network_model(SimulationConfig.small(), backend=backend)
        allocation = [0, network.num_nodes - 1]
        noise = BackgroundTraffic.for_level(
            network, allocation, NoiseLevel.MODERATE, name="parity-noise"
        )
        if noise is not None:
            noise.start()
        job = MpiJob(network, allocation, name=f"parity-{backend}")
        workload = PingPongBenchmark(size_bytes=16384, iterations=5, warmup=1)
        result = workload.run(job)
        if noise is not None:
            noise.stop()
        return result.median_time()

    def test_noisy_pingpong_median_within_tolerance(self):
        assert (
            _ratio(self._pingpong_median("flit"), self._pingpong_median("flow"))
            <= TIME_TOLERANCE
        )

    def test_flow_backend_runs_collectives(self):
        network = build_network_model(SimulationConfig.tiny(), backend="flow")
        job = MpiJob(network, list(range(6)), name="coll-flow")

        def program(ctx):
            yield from ctx.allreduce(1024)
            yield from ctx.barrier()

        finished_at = job.run(program)
        assert job.finished
        assert finished_at > 0
        assert network.delivered_messages > 0


# -- campaign integration ----------------------------------------------------------


class TestCampaignBackendThreading:
    def test_spec_hash_distinguishes_backends(self):
        flit_spec = RunSpec.make("pingpong-placement", {"message_kib": 4})
        flow_spec = RunSpec.make(
            "pingpong-placement", {"message_kib": 4}, backend="flow"
        )
        assert flit_spec.spec_hash() != flow_spec.spec_hash()
        assert flit_spec.canonical()["backend"] == "flit"
        assert flow_spec.canonical()["backend"] == "flow"
        assert flow_spec.label().endswith("@flow")

    def test_cached_flit_results_not_served_for_flow(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        flit_spec = RunSpec.make("_toy", {"x": 1})
        flow_spec = RunSpec.make("_toy", {"x": 1}, backend="flow")
        store.save(flit_spec, {"metrics": {"v": 1.0}}, "report", 0.1)
        assert store.has(flit_spec)
        assert not store.has(flow_spec)

    def test_scale_for_threads_backend(self):
        spec = RunSpec.make("pingpong-placement", {"message_kib": 4}, backend="flow")
        scale = scale_for(spec)
        assert scale.backend == "flow"
        network = build_network(scale)
        assert network.backend_name == "flow"

    def test_experiment_scale_backend_roundtrip(self):
        scale = ExperimentScale.smoke().with_backend("flow")
        assert scale.simulation_config().backend == "flow"
        assert build_network(scale).backend_name == "flow"
        assert build_network(ExperimentScale.smoke()).backend_name == "flit"

    def test_cli_backend_flag(self):
        from repro.experiments.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(
            ["run", "pingpong-placement", "--backend", "flow", "--dry-run"]
        )
        assert args.backend == "flow"

    def test_campaign_executes_same_scenario_on_both_backends(self):
        from repro.campaign import ensure_builtin_scenarios, execute_spec

        ensure_builtin_scenarios()
        medians = {}
        for backend in ("flit", "flow"):
            spec = RunSpec.make(
                "pingpong-placement",
                {"message_kib": 4, "noise": "none", "placement": "inter-blades"},
                backend=backend,
            )
            payload, report, _elapsed = execute_spec(spec)
            assert "median" in payload["metrics"]
            medians[backend] = payload["metrics"]["median"]
        assert _ratio(medians["flit"], medians["flow"]) <= TIME_TOLERANCE


# -- flow-only large scenarios ------------------------------------------------------


class TestLargeFlowScenarios:
    def test_large_scenarios_registered(self):
        from repro.campaign import ensure_builtin_scenarios
        from repro.campaign.registry import get_scenario

        ensure_builtin_scenarios()
        for name in ("bisection-stress-large", "bisection-full", "noise-sweep-large"):
            spec = get_scenario(name)
            assert "flow-only" in spec.tags

    def test_flow_only_specs_hash_as_flow_regardless_of_request(self):
        """The planner pins backend="flow" for flow-only scenarios, so the
        same execution never gets two hashes (or a flit-labelled cache)."""
        from repro.campaign import ensure_builtin_scenarios
        from repro.campaign.plan import plan_campaign

        ensure_builtin_scenarios()
        as_flit = plan_campaign(["bisection-stress-large"], backend="flit")
        as_flow = plan_campaign(["bisection-stress-large"], backend="flow")
        assert all(spec.backend == "flow" for spec in as_flit)
        assert [s.spec_hash() for s in as_flit] == [s.spec_hash() for s in as_flow]
        # The invariant holds for directly built specs too, not just the
        # planner: RunSpec.make consults the registry tags.
        direct = RunSpec.make(
            "bisection-stress-large",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
        )
        assert direct.backend == "flow"
        assert direct.canonical()["backend"] == "flow"

    def test_bisection_stress_runs_at_smoke_scale(self):
        from repro.campaign import ensure_builtin_scenarios, execute_spec

        ensure_builtin_scenarios()
        spec = RunSpec.make(
            "bisection-stress-large",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
        )
        payload, _report, _elapsed = execute_spec(spec)
        assert payload["data"]["nodes"] == 1056
        assert payload["data"]["backend"] == "flow"
        assert payload["metrics"]["median"] > 0

    def test_bisection_full_runs_all_pairs_without_waves(self):
        """The 528-pair no-wave grid the vectorized solver unlocked."""
        from repro.campaign import ensure_builtin_scenarios, execute_spec

        ensure_builtin_scenarios()
        spec = RunSpec.make(
            "bisection-full",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
        )
        assert spec.backend == "flow"
        payload, _report, _elapsed = execute_spec(spec)
        assert payload["data"]["nodes"] == 1056
        assert payload["data"]["pairs"] == 528
        # All 1056 messages in flight at once, each spread over paths:
        # far beyond the ~1k-flow ceiling of the pure-Python solver.
        assert payload["metrics"]["peak_flows"] >= 1056
        assert payload["metrics"]["median"] > 0


# -- flow engine behaviour ----------------------------------------------------------


class TestFlowEngine:
    def test_event_count_scales_with_messages_not_flits(self):
        """The speed claim in miniature: events per message is O(1)."""
        small_net = build_network_model(SimulationConfig.tiny(), backend="flow")
        small_net.send(0, small_net.num_nodes - 1, 1024)
        small_net.run_until_idle()
        small_events = small_net.sim.events_executed

        big_net = build_network_model(SimulationConfig.tiny(), backend="flow")
        big_net.send(0, big_net.num_nodes - 1, 1024 * 1024)
        big_net.run_until_idle()
        # A 1024x larger message may take a few more completion rounds but
        # must not cost anywhere near 1024x the events.
        assert big_net.sim.events_executed <= 4 * small_events

    def test_delivery_and_ack_ordering(self):
        network = build_network_model(SimulationConfig.tiny(), backend="flow")
        order = []
        network.send(
            0,
            3,
            4096,
            on_delivered=lambda m: order.append("delivered"),
            on_acked=lambda m: order.append("acked"),
        )
        network.run_until_idle()
        assert order == ["delivered", "acked"]
        assert network.delivered_messages == 1

    def test_reset_counters(self):
        network = build_network_model(SimulationConfig.tiny(), backend="flow")
        network.send(0, 3, 4096)
        network.run_until_idle()
        assert network.nic(0).counters.request_flits > 0
        assert network.total_flits_traversed() > 0
        network.reset_counters()
        assert network.nic(0).counters.request_flits == 0
        assert network.total_flits_traversed() == 0

    def test_concurrent_senders_share_ejection(self):
        """Incast: N senders into one node cannot beat the ejection pipe."""
        network = build_network_model(SimulationConfig.tiny(), backend="flow")
        target = network.num_nodes - 1
        acked = []
        size = 16384
        for src in (0, 1, 2, 3):
            network.send(src, target, size, on_acked=acked.append)
        network.run_until_idle()
        assert len(acked) == 4
        flits = 16384 // 64 * 5
        # Four senders through one ejection link: at least ~4x the flit
        # serialization time of a single message must elapse.
        assert network.sim.now >= 4 * flits

    def test_idle_gap_does_not_pre_drain_new_flows(self):
        """A message sent after a long idle period costs the same as a
        fresh one (regression: new flows were drained over the idle gap)."""
        def ack_duration(idle_gap: int) -> int:
            network = build_network_model(SimulationConfig.tiny(), backend="flow")
            if idle_gap:
                network.sim.schedule(idle_gap, lambda: None)
                network.run_until_idle()
            start = network.sim.now
            network.send(0, network.num_nodes - 1, 65536)
            network.run_until_idle()
            return network.sim.now - start

        assert ack_duration(idle_gap=100_000) == ack_duration(idle_gap=0)

    def test_deterministic_given_seed(self):
        def run():
            network = build_network_model(
                SimulationConfig.tiny(seed=77), backend="flow"
            )
            times = []
            for src in (0, 1, 2):
                network.send(
                    src,
                    network.num_nodes - 1 - src,
                    8192,
                    on_acked=lambda m: times.append((m.src_node, network.sim.now)),
                )
            network.run_until_idle()
            return times

        assert run() == run()


# -- shared path tables and route plans -------------------------------------------


def _empty_tables(monkeypatch) -> None:
    """Swap in empty process-wide path tables and route plans."""
    monkeypatch.setattr(paths_module, "_TABLES", {})
    monkeypatch.setattr(flow_network, "_ROUTE_TABLES", {})


@pytest.fixture
def cold_tables(monkeypatch):
    _empty_tables(monkeypatch)


def _flow_small(**nic) -> SimulationConfig:
    config = SimulationConfig.small().with_backend("flow")
    return dataclasses.replace(config, nic=dataclasses.replace(config.nic, **nic))


def _congested_waves(network, waves: int):
    """Waves of 64 KiB ADAPTIVE_0 group-0 -> group-1 messages, congested
    enough that some take Valiant detours; returns every message."""
    rng = random.Random(5)
    per_group = network.num_nodes // network.config.topology.num_groups
    messages = []
    for _ in range(waves):
        for _ in range(40):
            src = rng.randrange(per_group)
            dst = per_group + rng.randrange(per_group)
            messages.append(network.send(src, dst, 65536, routing_mode=RoutingMode.ADAPTIVE_0))
        network.run_until_idle()
    return messages


class TestRoutePlans:
    """A message's route plan is shared by every FlowNetwork of one
    (topology, NIC) configuration; no result may depend on how warm it is."""

    MODES = (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3, RoutingMode.MIN_HASH,
             RoutingMode.IN_ORDER, RoutingMode.NMIN_HASH)

    def _run_sequence(self, config, size_seed):
        """A fixed set of node pairs and modes; ``size_seed`` picks the
        sizes, and with them the packet sizes plans are keyed by."""
        network = FlowNetwork(config)
        rng = random.Random(11)
        sizes = random.Random(size_seed)
        messages = []
        for wave in range(3):
            for i in range(30):
                src, dst = rng.sample(range(network.num_nodes), 2)
                size = sizes.choice((16, 32, 48, 64, 1000, 65536))
                mode = self.MODES[(wave + i) % len(self.MODES)]
                messages.append(network.send(src, dst, size, routing_mode=mode))
            network.run_until_idle()
        messages += _congested_waves(network, waves=1)
        timeline = [
            (m.src_node, m.dst_node, m.delivered_time, m.acked_time,
             m.minimal_packets, m.nonminimal_packets)
            for m in messages
        ]
        counters = [dataclasses.asdict(nic.counters.snapshot()) for nic in network.nics]
        return timeline, counters

    def test_cold_and_warm_tables_give_identical_runs(self, cold_tables, monkeypatch):
        config = _flow_small()
        cold = self._run_sequence(config, size_seed=11)
        timeline, _ = cold
        assert any(minimal and nonminimal for *_, minimal, nonminimal in timeline)
        assert any(not minimal for *_, minimal, _ in timeline)  # NMIN_HASH
        # Empty tables again, warmed first by the same pairs at other sizes.
        _empty_tables(monkeypatch)
        self._run_sequence(config, size_seed=12)
        assert self._run_sequence(config, size_seed=11) == cold

    def test_repeated_minimal_sends_solve_once(self, cold_tables, monkeypatch):
        solves = []
        solve = FairShareSolver.solve

        def counting(self, flows):
            solves.append(1)
            return solve(self, flows)

        monkeypatch.setattr(FairShareSolver, "solve", counting)
        config = _flow_small()
        for _ in range(2):  # a second network reuses the first one's plan
            network = FlowNetwork(config)
            for mode in (RoutingMode.ADAPTIVE_3, RoutingMode.MIN_HASH, RoutingMode.ADAPTIVE_0):
                message = network.send(0, network.num_nodes - 1, 4096, routing_mode=mode)
                network.run_until_idle()
                assert message.nonminimal_packets == 0
        assert len(solves) == 1

    def test_nic_configs_get_separate_plans(self, cold_tables, monkeypatch):
        wide, narrow = _flow_small(), _flow_small(max_outstanding_packets=2)

        def acked(config):
            network = FlowNetwork(config)
            message = network.send(0, network.num_nodes - 1, 65536,
                                   routing_mode=RoutingMode.MIN_HASH)
            network.run_until_idle()
            return message.acked_time

        narrow_cold = acked(narrow)
        _empty_tables(monkeypatch)
        wide_time = acked(wide)
        assert acked(narrow) == narrow_cold > wide_time
        (key, wide_plan), = RouteTable.of(wide).plans.items()
        (narrow_key, narrow_plan), = RouteTable.of(narrow).plans.items()
        assert key == narrow_key
        assert [r[2] for r in narrow_plan.routes] < [r[2] for r in wide_plan.routes]


class TestSharedTableGrowth:
    """Tables hold only what the topology decides: one entry per router
    pair, one plan per whole minimal spread and packet size, and never a
    Valiant path or a random sample (that space grows with every message)."""

    def test_detours_and_samples_are_never_stored(self, cold_tables):
        config = _flow_small()
        network = FlowNetwork(config)
        paths = network.sampler.table
        routes = RouteTable.of(config)
        routers = network.num_routers
        rng = random.Random(3)
        for _ in range(1000):
            network.sampler.nonminimal(rng.randrange(routers), rng.randrange(routers))
        messages = _congested_waves(network, waves=8)
        assert sum(1 for m in messages if m.nonminimal_packets) >= 50
        # A pair with more minimal paths than one message spreads over: its
        # spread is a random sample each time.
        src, dst = next(
            (a, b) for a in range(routers) for b in range(routers)
            if len(paths.all_minimal(a, b)) > flow_network._MAX_SPREAD
        )
        per_router = config.topology.nodes_per_router
        for _ in range(20):
            network.send(src * per_router, dst * per_router, 4096,
                         routing_mode=RoutingMode.MIN_HASH)
        network.run_until_idle()

        for table in (paths.options, paths.hops, paths.shortest):
            assert all(0 <= key < routers * routers for key in table)
        for path in routes.fabric:
            assert path in paths.all_minimal(path[0], path[-1])
        links = {(link.src, link.dst) for link in network.topology.all_links()}
        assert {(a, b) for _, a, b in routes.links.values()} <= links
        pairs = set()
        for (spread, _), plan in routes.plans.items():
            pair = (spread[0][0], spread[0][-1])
            assert spread == paths.all_minimal(*pair)
            assert tuple(route[0] for route in plan.routes) == spread
            pairs.add(pair)
        assert (src, dst) not in pairs
        assert len(routes.plans) <= len(pairs) * len({pkt for _, pkt in routes.plans})
