"""Tests for the NIC performance counters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NicConfig, SimulationConfig
from repro.network.counters import CounterSnapshot, CounterWraparoundError, NicCounters
from repro.network.network import Network


class TestNicCounters:
    def test_initial_state(self):
        counters = NicCounters()
        snap = counters.snapshot()
        assert snap.request_flits == 0
        assert snap.stall_ratio == 0.0
        assert snap.avg_packet_latency == 0.0

    def test_packet_injection_updates_flits_and_packets(self):
        counters = NicCounters()
        counters.on_packet_injected(5)
        counters.on_packet_injected(3)
        assert counters.request_packets == 2
        assert counters.request_flits == 8

    def test_stall_accumulation(self):
        counters = NicCounters()
        counters.on_packet_injected(10)
        counters.on_stall(30)
        counters.on_stall(20)
        assert counters.snapshot().stall_ratio == pytest.approx(5.0)

    def test_negative_stall_rejected(self):
        with pytest.raises(ValueError):
            NicCounters().on_stall(-1)

    def test_latency_accumulation(self):
        counters = NicCounters()
        counters.on_response(100.0)
        counters.on_response(300.0)
        assert counters.snapshot().avg_packet_latency == pytest.approx(200.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            NicCounters().on_response(-5)

    def test_reset(self):
        counters = NicCounters()
        counters.on_packet_injected(5)
        counters.on_stall(10)
        counters.on_response(50)
        counters.reset()
        snap = counters.snapshot()
        assert snap.request_flits == 0
        assert snap.request_packets == 0
        assert snap.responses_received == 0

    def test_lifetime_properties_match_snapshot(self):
        counters = NicCounters()
        counters.on_packet_injected(4)
        counters.on_stall(8)
        counters.on_response(40)
        assert counters.stall_ratio == counters.snapshot().stall_ratio
        assert counters.avg_packet_latency == counters.snapshot().avg_packet_latency


class TestCounterSnapshot:
    def test_delta(self):
        counters = NicCounters()
        counters.on_packet_injected(5)
        counters.on_response(100)
        before = counters.snapshot()
        counters.on_packet_injected(5)
        counters.on_stall(10)
        counters.on_response(200)
        delta = counters.snapshot().delta(before)
        assert delta.request_packets == 1
        assert delta.request_flits == 5
        assert delta.request_flits_stalled_cycles == 10
        assert delta.responses_received == 1
        assert delta.avg_packet_latency == pytest.approx(200.0)

    def test_latency_us_conversion(self):
        nic = NicConfig(clock_hz=2e9)
        snap = CounterSnapshot(
            request_flits=1,
            request_flits_stalled_cycles=0,
            request_packets=1,
            request_packets_cum_latency=2000.0,
            responses_received=1,
        )
        assert snap.avg_packet_latency_us(nic) == pytest.approx(1.0)

    def test_zero_division_guards(self):
        snap = CounterSnapshot(0, 0, 0, 0.0, 0)
        assert snap.stall_ratio == 0.0
        assert snap.avg_packet_latency == 0.0

    @given(
        flits=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=50),
        stalls=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_stall_ratio_bounds(self, flits, stalls):
        counters = NicCounters()
        for f in flits:
            counters.on_packet_injected(f)
        for s in stalls:
            counters.on_stall(s)
        ratio = counters.snapshot().stall_ratio
        assert ratio == pytest.approx(sum(stalls) / sum(flits))


class TestCounterTotal:
    def test_total_of_several_blocks(self):
        blocks = [NicCounters(), NicCounters(), NicCounters()]
        for i, counters in enumerate(blocks, start=1):
            counters.on_packet_injected(4 * i)
            counters.on_stall(10 * i)
            counters.on_response(100.0 * i)
        total = CounterSnapshot.total(blocks)
        assert total == CounterSnapshot(24, 60, 3, 600.0, 3)
        assert total.stall_ratio == 60 / 24
        assert total.avg_packet_latency == 200.0
        # Snapshots sum the same as live counter blocks.
        assert CounterSnapshot.total(c.snapshot() for c in blocks) == total

    def test_empty_total_is_zero(self):
        total = CounterSnapshot.total([])
        assert total == CounterSnapshot(0, 0, 0, 0.0, 0)
        assert total.stall_ratio == 0.0
        assert total.avg_packet_latency == 0.0

    def test_total_matches_hand_sums_of_a_flit_run(self):
        network = Network(SimulationConfig.tiny())
        endpoints = (0, network.num_nodes - 1)
        network.send(endpoints[0], endpoints[1], 4096)
        network.send(endpoints[1], endpoints[0], 2048)
        network.run_until_idle()
        blocks = [network.nic(node).counters for node in endpoints]
        flits = sum(c.request_flits for c in blocks)
        stalled = sum(c.request_flits_stalled_cycles for c in blocks)
        latency = 0.0
        for c in blocks:
            latency += c.request_packets_cum_latency
        responses = sum(c.responses_received for c in blocks)
        total = CounterSnapshot.total(blocks)
        assert flits > 0 and responses > 0
        assert total.request_flits == flits
        assert total.request_packets == sum(c.request_packets for c in blocks)
        assert total.stall_ratio == stalled / flits
        assert total.avg_packet_latency == latency / responses


class TestCounterWraparound:
    """Hardening of CounterSnapshot.delta against counter wraparound/reset."""

    def _snap(self, flits=100, stalled=50, packets=20, latency=4000.0, responses=20):
        return CounterSnapshot(flits, stalled, packets, latency, responses)

    def test_normal_delta_unchanged(self):
        before = self._snap()
        after = CounterSnapshot(150, 80, 30, 6000.0, 30)
        delta = after.delta(before)
        assert delta.request_flits == 50
        assert delta.request_flits_stalled_cycles == 30
        assert delta.request_packets == 10
        assert delta.request_packets_cum_latency == pytest.approx(2000.0)
        assert delta.responses_received == 10

    def test_wraparound_raises_by_default(self):
        before = self._snap(flits=100)
        after = self._snap(flits=40)  # register wrapped (or was reset)
        with pytest.raises(CounterWraparoundError) as excinfo:
            after.delta(before)
        assert "request_flits" in str(excinfo.value)

    def test_wraparound_error_names_every_offending_field(self):
        before = self._snap(flits=100, packets=50)
        after = self._snap(flits=10, packets=5)
        with pytest.raises(CounterWraparoundError) as excinfo:
            after.delta(before)
        message = str(excinfo.value)
        assert "request_flits" in message
        assert "request_packets" in message

    def test_wraparound_is_a_value_error(self):
        before = self._snap(responses=9)
        after = self._snap(responses=3)
        with pytest.raises(ValueError):
            after.delta(before)

    def test_clamp_mode_zeroes_only_wrapped_fields(self):
        before = self._snap(flits=100, stalled=50)
        after = CounterSnapshot(40, 90, 25, 5000.0, 25)
        delta = after.delta(before, on_wraparound="clamp")
        assert delta.request_flits == 0  # wrapped -> clamped
        assert delta.request_flits_stalled_cycles == 40
        assert delta.request_packets == 5
        assert delta.responses_received == 5

    def test_float_latency_clamped(self):
        before = self._snap(latency=9000.0)
        after = self._snap(latency=1000.0)
        delta = after.delta(before, on_wraparound="clamp")
        assert delta.request_packets_cum_latency == 0.0
        assert isinstance(delta.request_packets_cum_latency, float)

    def test_unknown_policy_rejected(self):
        before = self._snap()
        with pytest.raises(ValueError, match="on_wraparound"):
            self._snap().delta(before, on_wraparound="ignore")

    def test_reset_between_snapshots_detected(self):
        counters = NicCounters()
        counters.on_packet_injected(5)
        counters.on_response(100.0)
        before = counters.snapshot()
        counters.reset()
        counters.on_packet_injected(2)
        with pytest.raises(CounterWraparoundError):
            counters.snapshot().delta(before)
