"""NIC network performance counters (Section 2.3).

Only the four NIC counters used by the paper are modelled:

* ``request_flits`` — request flits sent;
* ``request_flits_stalled_cycles`` — cycles a ready-to-forward flit was not
  forwarded because of back-pressure;
* ``request_packets`` — request packets sent;
* ``request_packets_cum_latency`` — cumulative request→response latency
  (stored in cycles here; the hardware reports microseconds — conversion
  helpers are provided).

The derived quantities ``s`` (average stall cycles per flit) and ``L``
(average packet latency) are exactly the inputs of the performance model
(Section 2.4) and of the application-aware routing algorithm (Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.config import NicConfig


class CounterWraparoundError(ValueError):
    """A counter delta came out negative (hardware wraparound or reset).

    Real PAPI/Aries counters are fixed-width registers: a later reading can
    be *smaller* than an earlier one when the register wraps (or when
    another tool reset the counter block mid-measurement).  Feeding such a
    negative delta into the ``s``/``L`` derivations of Section 2.4 silently
    corrupts the performance model, so :meth:`CounterSnapshot.delta` refuses
    it by default.
    """


@dataclass(frozen=True)
class CounterSnapshot:
    """An immutable copy of the NIC counters at one point in time."""

    request_flits: int
    request_flits_stalled_cycles: int
    request_packets: int
    request_packets_cum_latency: float
    responses_received: int

    def delta(self, earlier: "CounterSnapshot", on_wraparound: str = "raise") -> "CounterSnapshot":
        """Counters accumulated since ``earlier`` (Section 3.2 normalization).

        ``on_wraparound`` controls what happens when a field decreased
        between the two snapshots:

        * ``"raise"`` (default) — raise :class:`CounterWraparoundError`
          naming the offending counters;
        * ``"clamp"`` — clamp the negative deltas to zero, keeping the
          snapshot usable at the cost of undercounting the wrapped field.
        """
        if on_wraparound not in ("raise", "clamp"):
            raise ValueError(
                f"on_wraparound must be 'raise' or 'clamp', got {on_wraparound!r}"
            )
        # delta() sits in the per-ack hot path of AppAware runs, so the
        # happy path stays five direct subtractions and one comparison.
        flits = self.request_flits - earlier.request_flits
        stalled = self.request_flits_stalled_cycles - earlier.request_flits_stalled_cycles
        packets = self.request_packets - earlier.request_packets
        latency = self.request_packets_cum_latency - earlier.request_packets_cum_latency
        responses = self.responses_received - earlier.responses_received
        if flits < 0 or stalled < 0 or packets < 0 or latency < 0 or responses < 0:
            if on_wraparound == "raise":
                wrapped = [
                    f"{name} ({value})"
                    for name, value in (
                        ("request_flits", flits),
                        ("request_flits_stalled_cycles", stalled),
                        ("request_packets", packets),
                        ("request_packets_cum_latency", latency),
                        ("responses_received", responses),
                    )
                    if value < 0
                ]
                raise CounterWraparoundError(
                    "counter(s) decreased between snapshots — hardware wraparound "
                    f"or reset: {', '.join(wrapped)}"
                )
            flits = max(0, flits)
            stalled = max(0, stalled)
            packets = max(0, packets)
            latency = max(0.0, latency)
            responses = max(0, responses)
        return CounterSnapshot(
            request_flits=flits,
            request_flits_stalled_cycles=stalled,
            request_packets=packets,
            request_packets_cum_latency=latency,
            responses_received=responses,
        )

    @classmethod
    def total(cls, blocks: Iterable) -> "CounterSnapshot":
        """The counters of ``blocks`` (counter blocks or snapshots) summed.

        Sums run in iteration order, so ``s`` and ``L`` of the total are
        bit-identical to a hand-written loop over the same blocks.
        """
        flits = stalled = packets = responses = 0
        latency = 0.0
        for block in blocks:
            flits += block.request_flits
            stalled += block.request_flits_stalled_cycles
            packets += block.request_packets
            latency += block.request_packets_cum_latency
            responses += block.responses_received
        return cls(flits, stalled, packets, latency, responses)

    @property
    def stall_ratio(self) -> float:
        """``s``: average cycles a flit waits before being transmitted."""
        if self.request_flits == 0:
            return 0.0
        return self.request_flits_stalled_cycles / self.request_flits

    @property
    def avg_packet_latency(self) -> float:
        """``L``: average request→response latency, in cycles."""
        if self.responses_received == 0:
            return 0.0
        return self.request_packets_cum_latency / self.responses_received

    def avg_packet_latency_us(self, nic: NicConfig) -> float:
        """``L`` converted to microseconds, as the hardware counter reports it."""
        return nic.cycles_to_us(self.avg_packet_latency)


class NicCounters:
    """Mutable counter block attached to a NIC."""

    __slots__ = (
        "request_flits",
        "request_flits_stalled_cycles",
        "request_packets",
        "request_packets_cum_latency",
        "responses_received",
    )

    def __init__(self) -> None:
        self.request_flits = 0
        self.request_flits_stalled_cycles = 0
        self.request_packets = 0
        self.request_packets_cum_latency = 0.0
        self.responses_received = 0

    # -- updates (called by the NIC model) ----------------------------------

    def on_packet_injected(self, flits: int) -> None:
        """Record transmission of one request packet with ``flits`` flits."""
        self.request_packets += 1
        self.request_flits += flits

    def on_stall(self, cycles: int) -> None:
        """Record ``cycles`` of back-pressure stall on the injection pipe."""
        if cycles < 0:
            raise ValueError("stall cycles cannot be negative")
        self.request_flits_stalled_cycles += cycles

    def on_response(self, latency_cycles: float) -> None:
        """Record the completion of one request→response pair."""
        if latency_cycles < 0:
            raise ValueError("latency cannot be negative")
        self.responses_received += 1
        self.request_packets_cum_latency += latency_cycles

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> CounterSnapshot:
        """Immutable copy, e.g. taken before and after sending a message."""
        return CounterSnapshot(
            request_flits=self.request_flits,
            request_flits_stalled_cycles=self.request_flits_stalled_cycles,
            request_packets=self.request_packets,
            request_packets_cum_latency=self.request_packets_cum_latency,
            responses_received=self.responses_received,
        )

    def reset(self) -> None:
        """Zero all counters (a fresh PAPI counter set)."""
        self.request_flits = 0
        self.request_flits_stalled_cycles = 0
        self.request_packets = 0
        self.request_packets_cum_latency = 0.0
        self.responses_received = 0

    @property
    def stall_ratio(self) -> float:
        """``s`` over the whole lifetime of the counter block."""
        return self.snapshot().stall_ratio

    @property
    def avg_packet_latency(self) -> float:
        """``L`` over the whole lifetime of the counter block."""
        return self.snapshot().avg_packet_latency
