"""Tests for the credit-flow-controlled link model."""

from __future__ import annotations

import pytest

from repro.config import NicConfig
from repro.network.link import Link
from repro.network.packet import Message, Packet
from repro.routing.modes import RoutingMode
from repro.sim.engine import Simulator

NIC = NicConfig()


def make_packet(flits=5):
    message = Message(0, 1, 64, RoutingMode.ADAPTIVE_0, NIC)
    return Packet(message, 0, 1, flits=flits)


def make_link(sim, deliver, latency=10, width=1, buffer_flits=20, cycles_per_flit=1, **kwargs):
    return Link(
        sim=sim,
        name="test-link",
        latency=latency,
        width=width,
        buffer_flits=buffer_flits,
        cycles_per_flit=cycles_per_flit,
        deliver=deliver,
        **kwargs,
    )


class TestDelivery:
    def test_single_packet_latency(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p, l: arrivals.append((p, sim.now)))
        packet = make_packet(flits=5)
        link.enqueue(packet)
        sim.run()
        assert len(arrivals) == 1
        # serialization (5 flits) + latency (10)
        assert arrivals[0][1] == 15

    def test_wider_link_serializes_faster(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p, l: arrivals.append(sim.now), width=5)
        link.enqueue(make_packet(flits=5))
        sim.run()
        assert arrivals[0] == 11  # ceil(5/5)=1 cycle + 10 latency

    def test_slower_serialization(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p, l: arrivals.append(sim.now), cycles_per_flit=3)
        link.enqueue(make_packet(flits=5))
        sim.run()
        assert arrivals[0] == 15 + 10  # 5*3 serialization + latency

    def test_packets_delivered_in_order(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p, l: arrivals.append(p.id), buffer_flits=100)
        packets = [make_packet() for _ in range(5)]
        for packet in packets:
            link.enqueue(packet)
        sim.run()
        assert arrivals == [p.id for p in packets]

    def test_serialization_pipelines_back_to_back(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p, l: arrivals.append(sim.now), buffer_flits=100)
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run()
        # Second packet starts serializing right after the first (5 cycles).
        assert arrivals == [15, 20]

    def test_missing_deliver_callback_raises(self):
        sim = Simulator()
        link = make_link(sim, None)
        link.enqueue(make_packet())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_statistics_counters(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, buffer_flits=100)
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=3))
        sim.run()
        assert link.packets_forwarded == 2
        assert link.flits_forwarded == 8


class TestCredits:
    def test_credits_consumed_and_not_returned_until_release(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, buffer_flits=10)
        link.enqueue(make_packet(flits=5))
        sim.run()
        assert link.credits == link.capacity - 5

    def test_blocks_when_credits_exhausted(self):
        sim = Simulator()
        delivered = []
        link = make_link(
            sim, lambda p, l: delivered.append(p), buffer_flits=5, deadlock_timeout=10**9
        )
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run(until=100_000)
        # Only the first packet fits in the downstream buffer.
        assert len(delivered) == 1
        assert len(link.queue) == 1

    def test_resumes_when_credits_return(self):
        sim = Simulator()
        delivered = []
        link = make_link(
            sim, lambda p, l: delivered.append(p), buffer_flits=5, deadlock_timeout=10**9
        )
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run(until=100_000)
        link.return_credits(5)
        sim.run(until=200_000)
        assert len(delivered) == 2

    def test_credit_overflow_detected(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None)
        link.return_credits(1)
        # Credit returns settle lazily: the overflow surfaces at the first
        # read after the batch's arrival cycle, not via a scheduled event.
        sim.run(until=link.latency)
        with pytest.raises(RuntimeError):
            link.occupancy

    def test_holding_link_released_on_next_hop(self):
        sim = Simulator()
        second_arrivals = []
        second = make_link(sim, lambda p, l: second_arrivals.append(p), buffer_flits=50)
        first = make_link(sim, lambda p, l: second.enqueue(p), buffer_flits=50)
        packet = make_packet(flits=5)
        first.enqueue(packet)
        sim.run()
        assert second_arrivals
        # After the second link forwarded the packet, the first link's credits
        # must have been returned (the packet left its downstream buffer).
        # The in-flight batch lands one wire latency after the release; run
        # the clock past it and read through the settling probe.
        sim.run(until=sim.now + first.latency)
        assert first.occupancy == 0
        assert first.credits == first.capacity
        assert packet.holding_link is second

    def test_occupancy_property(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, buffer_flits=10)
        link.enqueue(make_packet(flits=4))
        sim.run()
        assert link.occupancy == 4


class TestCongestionProbes:
    def test_local_congestion_counts_queued_flits(self):
        sim = Simulator()
        link = make_link(
            sim, lambda p, l: None, buffer_flits=5, deadlock_timeout=10**9
        )
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run(until=100_000)
        # One packet is in flight/downstream, two still queued upstream.
        assert link.local_congestion() == 10.0

    def test_far_congestion_zero_delay_is_current(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, buffer_flits=10)
        link.enqueue(make_packet(flits=5))
        sim.run()
        assert link.far_congestion() == float(link.occupancy)

    def test_far_congestion_is_delayed(self):
        # A link answers at its own delay, so each delay gets its own link.
        sim = Simulator()
        stale = make_link(sim, lambda p, l: None, buffer_flits=20,
                          credit_info_delay=10_000)
        recent = make_link(sim, lambda p, l: None, buffer_flits=20,
                           credit_info_delay=100)
        stale.enqueue(make_packet(flits=5))
        recent.enqueue(make_packet(flits=5))
        sim.run()
        # The occupancy changed at t<=5; with a huge delay we still see 0.
        assert stale.far_congestion() == 0.0
        # Let time pass so the change becomes visible through the delay.
        sim.schedule(500, lambda: None)
        sim.run()
        assert recent.far_congestion() == 5.0
        assert stale.far_congestion() == 0.0


class TestOccupancyWindow:
    """The history holds only samples a read at the link's delay can return.

    Script (delay 20, latency 3, capacity 100); each value becomes visible
    exactly 20 cycles after its sample:

    * t=0: a 5-flit send (occupancy 5); t=2: 5 credits back, landing at 5
      (occupancy 0, a sample backdated by the settle at t=24);
    * t=24: a 6-flit send (6); t=43: a 4-flit send (10);
    * t=47: 3 credits back, landing at 50 (7), settled lazily by the read
      at t=69.

    Reads fall one cycle before, at and one cycle after each sample turns
    visible.  The reads at 24, 43 and 69 share a cycle with a write that
    folds old samples, so folding one cycle early changes what they see.
    """

    WINDOW = 20
    EXPECTED = {
        24: 5.0, 25: 0.0, 26: 0.0,
        43: 0.0, 44: 6.0, 45: 6.0,
        69: 10.0, 70: 7.0, 71: 7.0,
    }

    def _run_script(self, window):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, latency=3, buffer_flits=100,
                         credit_info_delay=window)
        reads = {}
        spans = []

        def read():
            reads[sim.now] = link.far_congestion()
            hist = link._occ_history or ()
            spans.append((len(hist), hist[-1][0] - hist[0][0] if hist else 0))

        script = [
            (0, lambda: link.enqueue(make_packet(flits=5))),
            (2, lambda: link.return_credits(5)),
            (24, lambda: link.enqueue(make_packet(flits=6))),
            (43, lambda: link.enqueue(make_packet(flits=4))),
            (47, lambda: link.return_credits(3)),
        ]
        script += [(t, read) for t in self.EXPECTED]
        # Same-cycle events run in scheduling order: each write before its
        # cycle's read.
        for t, action in sorted(script, key=lambda item: item[0]):
            sim.schedule(t, action)
        sim.run()
        return link, reads, spans

    def test_reads_around_each_sample_turning_visible(self):
        _link, reads, _spans = self._run_script(self.WINDOW)
        assert reads == self.EXPECTED

    def test_history_spans_less_than_the_window(self):
        link, _reads, spans = self._run_script(self.WINDOW)
        assert spans and all(
            count <= self.WINDOW and span < self.WINDOW for count, span in spans
        )
        # The last sample (t=50) is visible by t=70, so nothing is left.
        assert len(link._occ_history) == 0

    def test_zero_delay_keeps_no_history(self):
        link, reads, _spans = self._run_script(0)
        assert link._occ_history is None
        # Without a delay every read is the live occupancy.
        assert reads[24] == 6.0 and reads[45] == 10.0 and reads[70] == 7.0


class TestStallMeasurement:
    def test_stalls_reported_on_backpressure(self):
        sim = Simulator()
        stalls = []
        link = make_link(
            sim,
            lambda p, l: None,
            buffer_flits=5,
            measure_stalls=True,
            on_stall=lambda cycles, packet: stalls.append(cycles),
            deadlock_timeout=10**9,
        )
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run(until=50_000)
        assert not stalls  # still blocked, stall not yet accounted
        link.return_credits(5)
        sim.run(until=100_000)
        assert len(stalls) == 1
        assert stalls[0] > 0

    def test_no_stall_without_backpressure(self):
        sim = Simulator()
        stalls = []
        link = make_link(
            sim,
            lambda p, l: None,
            buffer_flits=100,
            measure_stalls=True,
            on_stall=lambda cycles, packet: stalls.append(cycles),
        )
        for _ in range(5):
            link.enqueue(make_packet(flits=5))
        sim.run()
        assert stalls == []

    def test_inject_start_time_set_for_measured_links(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, measure_stalls=True)
        packet = make_packet()
        link.enqueue(packet)
        sim.run()
        assert packet.inject_start_time == 0

    def test_on_transmit_hook_called_before_send(self):
        sim = Simulator()
        seen = []
        link = make_link(sim, lambda p, l: None)
        link.on_transmit = lambda packet: seen.append(packet.id)
        packet = make_packet()
        link.enqueue(packet)
        sim.run()
        assert seen == [packet.id]

    def test_queue_wait_cycles_accumulate(self):
        sim = Simulator()
        link = make_link(sim, lambda p, l: None, buffer_flits=100)
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))
        sim.run()
        # The second packet waited for the first one's serialization.
        assert link.queue_wait_cycles >= 5


class TestDeadlockRelief:
    def test_escape_valve_fires_after_timeout(self):
        sim = Simulator()
        delivered = []
        link = make_link(
            sim,
            lambda p, l: delivered.append(p),
            buffer_flits=5,
            deadlock_timeout=1_000,
        )
        link.enqueue(make_packet(flits=5))
        link.enqueue(make_packet(flits=5))  # blocks: no credits ever return
        sim.run()
        assert len(delivered) == 2
        assert link.deadlock_reliefs >= 1
        assert link.credits < 0  # borrowed credits are tracked

    def test_validation_errors(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_link(sim, None, latency=-1)
        with pytest.raises(ValueError):
            make_link(sim, None, width=0)
        with pytest.raises(ValueError):
            make_link(sim, None, buffer_flits=0)
        with pytest.raises(ValueError):
            make_link(sim, None, credit_info_delay=-1)
