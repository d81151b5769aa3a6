"""Tests for the static and application-aware routing policies."""

from __future__ import annotations

import pytest

from repro.allocation.policies import allocate_inter_group_pair
from repro.analysis.stats import median
from repro.config import NicConfig
from repro.core.policy import (
    ApplicationAwarePolicy,
    StaticRoutingPolicy,
    default_policy,
    high_bias_policy,
)
from repro.core.selector import SelectorParams
from repro.experiments.harness import ExperimentScale
from repro.mpi.job import MpiJob
from repro.network.counters import CounterSnapshot
from repro.network.network import Network
from repro.routing.modes import RoutingMode

NIC = NicConfig()


def snapshot(latency=1000.0, stalls=10, flits=100, packets=20, responses=20):
    return CounterSnapshot(
        request_flits=flits,
        request_flits_stalled_cycles=stalls,
        request_packets=packets,
        request_packets_cum_latency=latency * responses,
        responses_received=responses,
    )


class TestStaticPolicies:
    def test_default_policy_modes(self):
        policy = default_policy()
        assert policy.mode_for(1024, 3) is RoutingMode.ADAPTIVE_0
        assert policy.mode_for(1024, 3, collective="alltoall") is RoutingMode.ADAPTIVE_1
        assert policy.mode_for(1024, 3, collective="allreduce") is RoutingMode.ADAPTIVE_0
        assert policy.describe() == "Default"

    def test_high_bias_policy(self):
        policy = high_bias_policy()
        assert policy.mode_for(1024, 3) is RoutingMode.ADAPTIVE_3
        assert policy.mode_for(1024, 3, collective="alltoall") is RoutingMode.ADAPTIVE_3
        assert policy.describe() == "HighBias"

    def test_default_traffic_fraction(self):
        policy = default_policy()
        policy.mode_for(1000, 1)
        assert policy.default_traffic_fraction() == 1.0
        assert high_bias_policy().default_traffic_fraction() == 0.0

    def test_high_bias_fraction_after_traffic(self):
        policy = high_bias_policy()
        policy.mode_for(1000, 1)
        assert policy.default_traffic_fraction() == 0.0

    def test_observe_is_noop(self):
        policy = default_policy()
        policy.observe(snapshot(), RoutingMode.ADAPTIVE_0)  # must not raise

    def test_custom_label(self):
        policy = StaticRoutingPolicy(RoutingMode.MIN_HASH)
        assert "MIN_HASH" in policy.describe()


class TestApplicationAwarePolicy:
    def test_mode_for_uses_selector(self):
        policy = ApplicationAwarePolicy(NIC)
        mode = policy.mode_for(64, 1)
        assert mode in (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3)

    def test_observe_feeds_selector(self):
        policy = ApplicationAwarePolicy(NIC, SelectorParams(threshold_bytes=0))
        policy.observe(snapshot(latency=10_000.0, stalls=0), RoutingMode.ADAPTIVE_0)
        # Tiny message + very high adaptive latency → High Bias.
        assert policy.mode_for(64, 1) is RoutingMode.ADAPTIVE_3

    def test_observe_ignores_empty_snapshot(self):
        policy = ApplicationAwarePolicy(NIC)
        empty = CounterSnapshot(0, 0, 0, 0.0, 0)
        policy.observe(empty, RoutingMode.ADAPTIVE_0)
        assert policy.selector._adaptive_obs.latency is None

    def test_describe(self):
        assert ApplicationAwarePolicy(NIC).describe() == "AppAware"

    def test_alltoall_goes_through_selector(self):
        policy = ApplicationAwarePolicy(NIC, SelectorParams(threshold_bytes=0))
        policy.observe(snapshot(latency=100.0, stalls=10_000), RoutingMode.ADAPTIVE_0)
        mode = policy.mode_for(1 << 20, 1, collective="alltoall")
        assert mode in (RoutingMode.ADAPTIVE_1, RoutingMode.ADAPTIVE_3)

    def test_pingpong_within_bound_of_best_static_mode(self):
        """Algorithm 1 driving an inter-group ping-pong stays within 1.5x of
        the better static mode's median send time on the same pair."""
        scale = ExperimentScale.smoke()
        size = scale.scaled_size(32 * 1024)

        def median_send_cycles(policy_factory):
            config = scale.simulation_config()
            job = MpiJob(
                Network(config),
                allocate_inter_group_pair(config.topology),
                policy_factory=policy_factory,
                name="pingpong",
            )
            times = []

            def program(ctx):
                for _ in range(10):
                    if ctx.rank == 0:
                        start = ctx.now
                        yield ctx.isend(1, size)
                        times.append(ctx.now - start)
                    else:
                        yield ctx.irecv(0)

            job.run(program)
            return median(times)

        best_static = min(
            median_send_cycles(lambda mode=mode: StaticRoutingPolicy(mode))
            for mode in (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3)
        )
        app_aware = median_send_cycles(lambda: ApplicationAwarePolicy(NIC))
        assert app_aware <= best_static * 1.5
