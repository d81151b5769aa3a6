"""Integration tests for the wired network (routers + links + NICs)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.experiments.harness import ExperimentScale
from repro.network.network import Network
from repro.network.packet import RdmaOp
from repro.network.router import Router, RoutingError
from repro.routing.modes import RoutingMode
from repro.sim.calendar import CalendarSimulator
from repro.topology.geometry import router_of_node


class TestConstruction:
    def test_counts(self, tiny_network):
        cfg = tiny_network.config.topology
        assert tiny_network.num_nodes == cfg.num_nodes
        assert tiny_network.num_routers == cfg.num_routers
        assert len(list(tiny_network.fabric_links())) == len(tiny_network.topology.all_links())

    def test_runs_on_the_calendar_engine(self, tiny_network):
        assert type(tiny_network.sim) is CalendarSimulator

    def test_every_router_serves_its_nodes(self, tiny_network):
        cfg = tiny_network.config.topology
        for node in range(cfg.num_nodes):
            router = tiny_network.router(router_of_node(node, cfg))
            assert node in router.ejection_links

    def test_injection_links_measure_stalls(self, tiny_network):
        for node in range(tiny_network.num_nodes):
            assert tiny_network.injection_link(node).measure_stalls

    def test_link_lookup(self, tiny_network):
        some_link = next(iter(tiny_network.topology.all_links()))
        assert tiny_network.link(some_link.src, some_link.dst) is not None
        with pytest.raises(KeyError):
            tiny_network.link(0, 10_000)

    def test_node_range_checks(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.nic(-1)
        with pytest.raises(ValueError):
            tiny_network.send(0, 10_000, 64)

    def test_self_send_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.send(3, 3, 64)

    def test_buffers_cover_credit_round_trip(self, tiny_network):
        for link in tiny_network.fabric_links():
            assert link.capacity >= 2 * link.latency


class TestSingleMessage:
    def test_message_is_delivered_and_acked(self, tiny_network):
        message = tiny_network.send(0, tiny_network.num_nodes - 1, 4096)
        tiny_network.run_until_idle()
        assert message.delivered
        assert message.acked
        assert message.transmission_time > 0
        assert message.delivered_time <= message.acked_time

    def test_counters_after_put(self, tiny_network):
        size = 4096
        message = tiny_network.send(0, tiny_network.num_nodes - 1, size)
        tiny_network.run_until_idle()
        counters = tiny_network.nic(0).counters.snapshot()
        assert counters.request_packets == message.num_packets
        assert counters.request_flits == message.request_flits
        assert counters.responses_received == message.num_packets
        assert counters.avg_packet_latency > 0

    def test_receiver_counts_messages(self, tiny_network):
        tiny_network.send(0, 5, 1024)
        tiny_network.run_until_idle()
        assert tiny_network.nic(5).messages_received == 1
        assert tiny_network.nic(0).messages_sent == 1

    def test_intra_blade_message(self, tiny_network):
        # Nodes 0 and 1 share a router: the path has a single router.
        message = tiny_network.send(0, 1, 1024)
        tiny_network.run_until_idle()
        assert message.delivered

    def test_get_semantics(self, tiny_network):
        message = tiny_network.send(0, 6, 4096, op=RdmaOp.GET)
        tiny_network.run_until_idle()
        assert message.delivered
        counters = tiny_network.nic(0).counters.snapshot()
        # GET requests are single-flit packets.
        assert counters.request_flits == message.num_packets

    def test_callbacks_fire(self, tiny_network):
        events = []
        tiny_network.send(
            0,
            7,
            2048,
            on_delivered=lambda m: events.append("delivered"),
            on_acked=lambda m: events.append("acked"),
        )
        tiny_network.run_until_idle()
        assert events == ["delivered", "acked"]

    def test_delivered_messages_counter(self, tiny_network):
        tiny_network.send(0, 7, 512)
        tiny_network.send(1, 6, 512)
        tiny_network.run_until_idle()
        assert tiny_network.delivered_messages == 2

    def test_zero_byte_message(self, tiny_network):
        message = tiny_network.send(0, 7, 0)
        tiny_network.run_until_idle()
        assert message.delivered
        assert message.num_packets == 1


class TestRoutingModesOnNetwork:
    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_all_modes_deliver(self, tiny_network, mode):
        message = tiny_network.send(0, tiny_network.num_nodes - 1, 2048, routing_mode=mode)
        tiny_network.run_until_idle()
        assert message.delivered

    def test_min_hash_routes_only_minimal(self, small_network):
        message = small_network.send(
            0, small_network.num_nodes - 1, 8192, routing_mode=RoutingMode.MIN_HASH
        )
        small_network.run_until_idle()
        assert message.nonminimal_packets == 0
        assert message.minimal_fraction() == 1.0

    def test_nmin_hash_routes_only_nonminimal(self, small_network):
        message = small_network.send(
            0, small_network.num_nodes - 1, 8192, routing_mode=RoutingMode.NMIN_HASH
        )
        small_network.run_until_idle()
        assert message.minimal_packets == 0

    def test_high_bias_more_minimal_than_zero_bias(self):
        """The bias raises the minimal-path fraction for the same traffic."""
        fractions = {}
        for mode in (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3):
            network = Network(SimulationConfig.small())
            message = network.send(
                0, network.num_nodes - 1, 16384, routing_mode=mode
            )
            network.run_until_idle()
            fractions[mode] = message.minimal_fraction()
        assert fractions[RoutingMode.ADAPTIVE_3] >= fractions[RoutingMode.ADAPTIVE_0]
        assert fractions[RoutingMode.ADAPTIVE_3] > 0.7

    def test_larger_bias_keeps_hotspot_traffic_minimal(self):
        """Every sender on router 0 targets router 1, so the shared minimal
        links congest and the ``ADAPTIVE_3`` bias value decides how much
        traffic diverts: bias 128 keeps at least as much minimal as bias 0."""
        scale = ExperimentScale.smoke()
        fractions = {}
        for bias in (0.0, 128.0):
            config = scale.simulation_config().with_routing(high_bias=bias)
            network = Network(config)
            per_router = config.topology.nodes_per_router
            messages = [
                network.send(slot, per_router + slot, scale.scaled_size(64 * 1024),
                             routing_mode=RoutingMode.ADAPTIVE_3)
                for slot in range(per_router)
            ]
            network.run_until_idle()
            minimal = sum(m.minimal_packets for m in messages)
            total = sum(m.minimal_packets + m.nonminimal_packets for m in messages)
            fractions[bias] = minimal / total
        # Allow small non-monotonic wiggles from sampling randomness.
        assert fractions[128.0] >= fractions[0.0] - 0.02
        assert fractions[128.0] > 0.5

    def test_stale_credit_info_diverts_probes(self):
        """Phantom congestion (Section 2.2): probes sent after a burst between
        routers 0 and 1 has mostly drained divert at least as often when the
        credit information is 50k cycles stale as when it is fresh."""
        scale = ExperimentScale.smoke()
        fractions = {}
        for delay in (0, 50_000):
            config = scale.simulation_config().with_routing(credit_info_delay=delay)
            network = Network(config)
            per_router = config.topology.nodes_per_router
            network.send(0, per_router, scale.scaled_size(128 * 1024))
            network.run(until=30_000)
            probes = [
                network.send(slot, per_router + slot, scale.scaled_size(16 * 1024),
                             routing_mode=RoutingMode.ADAPTIVE_0)
                for slot in range(1, per_router)
            ]
            network.run_until_idle()
            nonminimal = sum(m.nonminimal_packets for m in probes)
            total = sum(m.minimal_packets + m.nonminimal_packets for m in probes)
            fractions[delay] = nonminimal / total
        assert fractions[50_000] >= fractions[0]

    def test_selector_statistics_updated(self, small_network):
        small_network.send(0, small_network.num_nodes - 1, 4096)
        small_network.run_until_idle()
        assert small_network.selector.decisions > 0

    def test_outstanding_window_enforced(self, tiny_network):
        # Shrink the window so a medium message exercises the limit.
        config = SimulationConfig.tiny().with_nic(max_outstanding_packets=4)
        network = Network(config)
        nic = network.nic(0)
        message = network.send(0, network.num_nodes - 1, 64 * 32)  # 32 packets
        # The NIC may only ever have 4 packets outstanding.
        max_seen = 0
        while not message.acked and network.sim.step():
            max_seen = max(max_seen, nic.outstanding)
        assert max_seen <= 4
        assert message.delivered


class TestConcurrentTraffic:
    def test_many_messages_all_delivered(self, small_network):
        messages = [
            small_network.send(i, (i + 13) % small_network.num_nodes, 2048)
            for i in range(0, small_network.num_nodes, 3)
        ]
        small_network.run_until_idle()
        assert all(m.delivered and m.acked for m in messages)
        assert small_network.total_deadlock_reliefs() == 0

    def test_incast_produces_stalls(self, tiny_network):
        target = tiny_network.num_nodes - 1
        senders = [n for n in range(tiny_network.num_nodes - 1)][:6]
        for sender in senders:
            tiny_network.send(sender, target, 16384)
        tiny_network.run_until_idle()
        total_stalls = sum(
            tiny_network.nic(s).counters.request_flits_stalled_cycles for s in senders
        )
        assert total_stalls > 0

    def test_congestion_raises_latency(self, small_network):
        """The same transfer takes longer when the network is congested."""
        quiet = Network(SimulationConfig.small())
        probe_quiet = quiet.send(0, quiet.num_nodes - 1, 8192)
        quiet.run_until_idle()

        busy = Network(SimulationConfig.small())
        target_router_nodes = range(busy.num_nodes - 8, busy.num_nodes - 1)
        for sender, node in enumerate(target_router_nodes):
            busy.send(sender + 1, node, 65536)
        probe_busy = busy.send(0, busy.num_nodes - 1, 8192)
        busy.run_until_idle()
        assert probe_busy.transmission_time > probe_quiet.transmission_time

    def test_reset_counters(self, tiny_network):
        tiny_network.send(0, 7, 4096)
        tiny_network.run_until_idle()
        tiny_network.reset_counters()
        assert tiny_network.nic(0).counters.request_flits == 0
        assert tiny_network.total_flits_traversed() == 0
        assert tiny_network.selector.decisions == 0

    def test_router_counters_accumulate(self, tiny_network):
        tiny_network.send(0, tiny_network.num_nodes - 1, 8192)
        tiny_network.run_until_idle()
        assert tiny_network.total_flits_traversed() > 0


class TestRouterErrors:
    def test_router_rejects_packet_without_path(self, tiny_network):
        from repro.network.packet import Message, Packet

        message = Message(0, 1, 64, RoutingMode.ADAPTIVE_0, tiny_network.config.nic)
        packet = Packet(message, 0, 1, flits=5)
        with pytest.raises(RoutingError):
            tiny_network.router(0).packet_arrived(packet, tiny_network.injection_link(0))

    def test_router_rejects_foreign_packet(self, tiny_network):
        from repro.network.packet import Message, Packet

        message = Message(0, 1, 64, RoutingMode.ADAPTIVE_0, tiny_network.config.nic)
        packet = Packet(message, 0, 1, flits=5)
        packet.path = (5, 6)
        with pytest.raises(RoutingError):
            tiny_network.router(0).packet_arrived(packet, tiny_network.injection_link(0))

    def test_duplicate_wiring_rejected(self):
        router = Router(0)
        router.attach_output(1, object())
        with pytest.raises(ValueError):
            router.attach_output(1, object())
        router.attach_ejection(0, object())
        with pytest.raises(ValueError):
            router.attach_ejection(0, object())


class TestResponseRouting:
    """Responses are routed with the same mode as their request stream.

    Pins the behaviour documented on :meth:`Network.assign_path`: a response
    packet goes through the selector with ``message.routing_mode`` — it is
    not silently forced minimal, nor re-decided with a different mode.
    """

    def _run(self, mode: RoutingMode) -> Network:
        network = Network(SimulationConfig.small())
        # Inter-group traffic so minimal and non-minimal paths both exist.
        message = network.send(0, network.num_nodes - 1, 8 * 1024, routing_mode=mode)
        network.run_until_idle()
        assert message.acked
        return network

    def test_min_hash_keeps_responses_minimal(self):
        network = self._run(RoutingMode.MIN_HASH)
        # Requests AND responses go through the selector; none may divert.
        assert network.selector.decisions > 0
        assert network.selector.nonminimal_decisions == 0

    def test_nmin_hash_diverts_responses_too(self):
        network = self._run(RoutingMode.NMIN_HASH)
        # Every decision (request and response alike) must be non-minimal.
        assert network.selector.decisions > 0
        assert network.selector.minimal_decisions == 0

    def test_response_decisions_counted(self):
        """The selector sees two decisions per packet: request + response."""
        network = Network(SimulationConfig.small())
        message = network.send(0, network.num_nodes - 1, 4 * 1024)
        network.run_until_idle()
        assert message.acked
        assert network.selector.decisions == 2 * message.num_packets


@given(
    size=st.integers(min_value=1, max_value=32 * 1024),
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
    mode=st.sampled_from(list(RoutingMode)),
)
@settings(max_examples=30, deadline=None)
def test_property_any_message_is_delivered_exactly_once(size, src, dst, mode):
    """Conservation: every request packet is delivered and acknowledged once."""
    if src == dst:
        return
    network = Network(SimulationConfig.tiny())
    message = network.send(src, dst, size, routing_mode=mode)
    network.run_until_idle()
    assert message.packets_delivered == message.num_packets
    assert message.packets_acked == message.num_packets
    counters = network.nic(src).counters.snapshot()
    assert counters.request_packets == message.num_packets
    assert counters.responses_received == message.num_packets
