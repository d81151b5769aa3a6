"""Tests for routing modes, bias schedule and the UGAL selector."""

from __future__ import annotations

import random

import pytest

from repro.config import RoutingConfig, SimulationConfig
from repro.network.network import Network
from repro.routing.bias import bias_for_mode
from repro.routing.modes import ADAPTIVE_MODES, DETERMINISTIC_MODES, RoutingMode
from repro.routing.ugal import UgalSelector
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import hop_count_minimal


class TestRoutingMode:
    def test_partition(self):
        assert ADAPTIVE_MODES | DETERMINISTIC_MODES == set(RoutingMode)
        assert not ADAPTIVE_MODES & DETERMINISTIC_MODES

    def test_adaptive_flags(self):
        assert RoutingMode.ADAPTIVE_0.is_adaptive
        assert not RoutingMode.MIN_HASH.is_adaptive

    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_is_adaptive_is_membership_in_adaptive_modes(self, mode):
        assert mode.is_adaptive is (mode in ADAPTIVE_MODES)

    def test_minimal_flags(self):
        assert RoutingMode.MIN_HASH.always_minimal
        assert RoutingMode.IN_ORDER.always_minimal
        assert RoutingMode.NMIN_HASH.always_nonminimal
        assert not RoutingMode.ADAPTIVE_0.always_minimal

    def test_paper_names(self):
        assert RoutingMode.ADAPTIVE_0.paper_name() == "Adaptive"
        assert RoutingMode.ADAPTIVE_3.paper_name() == "Adaptive with High Bias"
        assert RoutingMode.ADAPTIVE_1.paper_name() == "Increasingly Minimal Bias"

    def test_defaults(self):
        assert RoutingMode.default() is RoutingMode.ADAPTIVE_0
        assert RoutingMode.alltoall_default() is RoutingMode.ADAPTIVE_1
        assert RoutingMode.high_bias() is RoutingMode.ADAPTIVE_3


class TestBias:
    CONFIG = RoutingConfig()

    def test_adaptive0_no_bias(self):
        assert bias_for_mode(RoutingMode.ADAPTIVE_0, self.CONFIG, 3) == 0.0

    def test_bias_ordering(self):
        """ADAPTIVE_0 < ADAPTIVE_2 < ADAPTIVE_3 and IMB in between (Section 2.2)."""
        b0 = bias_for_mode(RoutingMode.ADAPTIVE_0, self.CONFIG, 3)
        b1 = bias_for_mode(RoutingMode.ADAPTIVE_1, self.CONFIG, 3)
        b2 = bias_for_mode(RoutingMode.ADAPTIVE_2, self.CONFIG, 3)
        b3 = bias_for_mode(RoutingMode.ADAPTIVE_3, self.CONFIG, 3)
        assert b0 < b2 < b3
        assert b0 < b1 <= b3

    def test_imb_bias_grows_with_distance(self):
        near = bias_for_mode(RoutingMode.ADAPTIVE_1, self.CONFIG, 1)
        far = bias_for_mode(RoutingMode.ADAPTIVE_1, self.CONFIG, 5)
        assert far >= near

    def test_imb_capped_at_high_bias(self):
        bias = bias_for_mode(RoutingMode.ADAPTIVE_1, self.CONFIG, 50)
        assert bias <= self.CONFIG.high_bias

    def test_deterministic_modes_rejected(self):
        with pytest.raises(ValueError):
            bias_for_mode(RoutingMode.MIN_HASH, self.CONFIG, 3)


class TestUgalSelector:
    @pytest.fixture
    def topology(self, small_config):
        return DragonflyTopology(small_config.topology)

    @pytest.fixture
    def selector(self, topology, small_config):
        return UgalSelector(topology, small_config.routing, random.Random(3))

    def test_same_router_trivial_path(self, selector):
        decision = selector.select(4, 4, RoutingMode.ADAPTIVE_0)
        assert decision.path == (4,)
        assert decision.minimal

    def test_min_hash_minimal(self, selector, topology):
        src, dst = 0, topology.num_routers - 1
        allowed_groups = {topology.group_of(src), topology.group_of(dst)}
        for _ in range(20):
            decision = selector.select(src, dst, RoutingMode.MIN_HASH)
            assert decision.minimal
            # A minimal (direct) Dragonfly route never detours through an
            # intermediate group and is at most 5 hops long.
            assert len(decision.path) - 1 <= 5
            assert {topology.group_of(r) for r in decision.path} <= allowed_groups

    def test_in_order_is_deterministic(self, selector, topology):
        paths = {
            selector.select(0, topology.num_routers - 1, RoutingMode.IN_ORDER).path
            for _ in range(10)
        }
        assert len(paths) == 1

    def test_nmin_hash_nonminimal(self, selector, topology):
        decision = selector.select(0, topology.num_routers - 1, RoutingMode.NMIN_HASH)
        assert not decision.minimal

    def test_adaptive_idle_prefers_minimal(self, selector, topology):
        """With zero congestion, even zero-bias UGAL routes minimally."""
        for _ in range(50):
            decision = selector.select(0, topology.num_routers - 1, RoutingMode.ADAPTIVE_0)
            assert decision.minimal

    def test_statistics_tracked(self, selector, topology):
        for _ in range(10):
            selector.select(0, topology.num_routers - 1, RoutingMode.ADAPTIVE_0)
        assert selector.decisions == 10
        assert selector.minimal_decisions + selector.nonminimal_decisions == 10
        selector.reset_statistics()
        assert selector.decisions == 0

    def test_minimal_fraction_empty_is_one(self, selector):
        assert selector.minimal_fraction == 1.0

    def test_unsupported_mode_raises(self, selector):
        with pytest.raises(ValueError):
            selector._select_adaptive(0, 1, RoutingMode.MIN_HASH)


class TestCongestionAwareSelection:
    """UGAL decisions react to congestion and to the bias value."""

    def _network_with_congested_first_hop(self, bias_mode, credit_delay=0):
        config = SimulationConfig.small().with_routing(credit_info_delay=credit_delay)
        network = Network(config)
        return network

    def test_congestion_diverts_zero_bias_traffic(self):
        """With a congested minimal path, ADAPTIVE_0 uses non-minimal paths."""
        network = Network(SimulationConfig.small())
        # Congest the direct green link 0->1 by keeping its queue full.
        victim_link = network.link(0, 1)
        filler = network.send(0, network.config.topology.nodes_per_router, 64 * 1024)
        # Give the filler a head start so queues build up.
        network.run(until=2_000)
        # Now send a probe from node 0 to a node on router 1 with both modes.
        probe = network.send(
            1, network.config.topology.nodes_per_router + 1, 16 * 1024,
            routing_mode=RoutingMode.ADAPTIVE_0,
        )
        network.run_until_idle()
        del victim_link, filler
        # Under sustained congestion at least some packets must have diverted.
        assert probe.nonminimal_packets > 0

    def test_high_bias_diverts_less_than_zero_bias(self):
        """A higher bias keeps more traffic on the minimal path.

        The load is kept *moderate* (4 KiB per sender): once the shared
        green link saturates, congestion scores dwarf any bias value and the
        minimal fraction becomes insensitive to the mode — the bias effect
        is only observable while minimal and diverted scores are of the same
        order.
        """
        fractions = {}
        for mode in (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3):
            network = Network(SimulationConfig.small())
            nodes_per_router = network.config.topology.nodes_per_router
            # Several senders on router 0 all target router 1: the shared
            # green link congests and UGAL must decide whether to divert.
            messages = []
            for slot in range(nodes_per_router):
                messages.append(
                    network.send(
                        slot, nodes_per_router + slot, 4 * 1024, routing_mode=mode
                    )
                )
            network.run_until_idle()
            total_min = sum(m.minimal_packets for m in messages)
            total = sum(m.minimal_packets + m.nonminimal_packets for m in messages)
            fractions[mode] = total_min / total
        assert fractions[RoutingMode.ADAPTIVE_3] > fractions[RoutingMode.ADAPTIVE_0]

    def test_phantom_congestion_increases_nonminimal_traffic(self):
        """Stale credit information makes zero-bias UGAL divert more traffic."""
        results = {}
        for delay in (0, 5_000):
            config = SimulationConfig.small().with_routing(credit_info_delay=delay)
            network = Network(config)
            nodes_per_router = network.config.topology.nodes_per_router
            messages = []
            # Phase 1: congest the minimal path, then let it drain.
            network.send(0, nodes_per_router, 32 * 1024)
            network.run(until=20_000)
            # Phase 2: once congestion is gone, send probes; with stale
            # information the router still believes the path is congested.
            for slot in range(1, nodes_per_router):
                messages.append(
                    network.send(
                        slot,
                        nodes_per_router + slot,
                        16 * 1024,
                        routing_mode=RoutingMode.ADAPTIVE_0,
                    )
                )
            network.run_until_idle()
            nonmin = sum(m.nonminimal_packets for m in messages)
            total = sum(m.minimal_packets + m.nonminimal_packets for m in messages)
            results[delay] = nonmin / total
        assert results[5_000] >= results[0]
