"""NIC model: packetization, injection, outstanding-packet window, counters.

The NIC is where the paper's measurements happen (Section 2.3) and where the
application-aware routing library intervenes (Section 4.3), so its behaviour
follows the description closely:

* an application message is packetized into 64-byte request packets;
* packets are injected one after the other through the host (processor-tile)
  link; a packet's routing decision is made when its first flit leaves the
  NIC, using the source router's current congestion information;
* at most ``max_outstanding_packets`` request packets may be un-acknowledged;
  further packets wait for responses (this produces the ``p/1024 · L`` term
  of Equation 2);
* back-pressure stalls on the injection pipe increment the
  ``request_flits_stalled_cycles`` counter; request→response latencies
  accumulate into the cumulative-latency counter.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import NicConfig
from repro.network.counters import NicCounters
from repro.network.link import Link
from repro.network.packet import Message, Packet, RdmaOp
from repro.sim.engine import Simulator


class Nic:
    """One Aries NIC, attached to one compute node."""

    __slots__ = (
        "node_id",
        "router_id",
        "sim",
        "config",
        "counters",
        "injection_link",
        "outstanding",
        "_message_queue",
        "_active_message",
        "_active_remaining",
        "messages_sent",
        "messages_received",
        "on_message_delivered",
    )

    def __init__(
        self,
        node_id: int,
        router_id: int,
        sim: Simulator,
        config: NicConfig,
    ):
        self.node_id = node_id
        self.router_id = router_id
        self.sim = sim
        self.config = config
        self.counters = NicCounters()
        #: Set by the Network builder: the NIC→router host link.
        self.injection_link: Optional[Link] = None
        self.outstanding = 0
        #: Messages waiting for the active one to finish injecting.
        self._message_queue: List[Message] = []
        self._active_message: Optional[Message] = None
        self._active_remaining = 0
        self.messages_sent = 0
        self.messages_received = 0
        #: Hook for the MPI layer: called with every delivered Message.
        self.on_message_delivered: Optional[Callable[[Message], None]] = None

    # -- sending ---------------------------------------------------------------

    def submit(self, message: Message) -> None:
        """Hand a message to the NIC (the moment ``T_msg`` starts counting)."""
        if message.src_node != self.node_id:
            raise ValueError(
                f"message source {message.src_node} does not match NIC {self.node_id}"
            )
        message.submit_time = self.sim.now
        self._message_queue.append(message)
        self._pump()

    def _pump(self) -> None:
        """Generate and enqueue request packets while the window allows it."""
        while True:
            if self._active_message is None:
                if not self._message_queue:
                    return
                self._active_message = self._message_queue.pop(0)
                self._active_remaining = self._active_message.num_packets
                self.messages_sent += 1
            message = self._active_message
            while self._active_remaining > 0:
                if self.outstanding >= self.config.max_outstanding_packets:
                    return  # wait for responses before injecting more
                self._inject_packet(message)
                self._active_remaining -= 1
            if self._active_remaining == 0:
                self._active_message = None
                # loop to start the next queued message, if any

    def _inject_packet(self, message: Message) -> None:
        index = message.num_packets - self._active_remaining
        if index < message.full_packets:
            flits = message.req_flits_full
        else:
            flits = message.req_flits_tail
        packet = Packet(
            message=message,
            src_node=self.node_id,
            dst_node=message.dst_node,
            flits=flits,
            is_response=False,
            index_in_message=index,
        )
        self.outstanding += 1
        message.packets_injected += 1
        self.counters.on_packet_injected(flits)
        if message.first_injection_time is None:
            message.first_injection_time = self.sim.now
        # The routing decision is NOT made here: the injection link's
        # ``on_transmit`` hook (installed by the Network) assigns the path at
        # the exact cycle the packet's first flit leaves the NIC, so decisions
        # use fresh congestion information even when a large message queues
        # many packets at once.
        if self.injection_link is None:
            raise RuntimeError(f"NIC {self.node_id} is not wired to a router")
        self.injection_link.enqueue(packet)

    # -- counter feedback from the injection link ------------------------------

    def record_stall(self, cycles: int, packet: Packet) -> None:
        """Callback wired to the injection link's stall detector."""
        del packet  # per-flit attribution not needed
        self.counters.on_stall(cycles)

    # -- receiving --------------------------------------------------------------

    def packet_ejected(self, packet: Packet, via_link: Link) -> None:
        """A packet fully arrived at this NIC (ejection side)."""
        # The NIC drains its receive buffer immediately: free the ejection
        # buffer so credits flow back to the last router.
        via_link.return_credits(packet.flits)
        packet.holding_link = None
        if packet.is_response:
            self._response_received(packet)
        else:
            self._request_received(packet)

    def _request_received(self, packet: Packet) -> None:
        message = packet.message
        message.packets_delivered += 1
        if message.packets_delivered == message.num_packets:
            message.delivered_time = self.sim.now
            self.messages_received += 1
            if self.on_message_delivered is not None:
                self.on_message_delivered(message)
            # Each callback fires once and is dropped before it runs: one
            # that reaches the message again (an MPI send's request stores
            # it) would otherwise keep the message in a reference cycle.
            on_delivered = message.on_delivered
            if on_delivered is not None:
                message.on_delivered = None
                on_delivered(message)
        # Send the response back to the source NIC by recycling the delivered
        # request packet in place: nothing else holds a reference to it once
        # its ejection buffer is freed, so flipping the endpoints avoids one
        # allocation per request.  For PUTs the response is a bare
        # acknowledgement; for GETs it carries the data.
        if self.injection_link is None:
            raise RuntimeError(f"NIC {self.node_id} is not wired to a router")
        if packet.index_in_message < message.full_packets:
            flits = message.resp_flits_full
        else:
            flits = message.resp_flits_tail
        packet.dst_node = packet.src_node
        packet.src_node = self.node_id
        packet.flits = flits
        packet.is_response = True
        packet.path = None  # re-routed at injection with fresh congestion info
        packet.hop_index = 0
        packet.request_inject_start = packet.inject_start_time
        self.injection_link.enqueue(packet)

    def _response_received(self, packet: Packet) -> None:
        message = packet.message
        message.packets_acked += 1
        self.outstanding -= 1
        if packet.request_inject_start is not None:
            latency = self.sim.now - packet.request_inject_start
            self.counters.on_response(latency)
        if message.packets_acked == message.num_packets:
            message.acked_time = self.sim.now
            on_acked = message.on_acked
            if on_acked is not None:
                message.on_acked = None
                on_acked(message)
        # The freed window slot may allow more packets to be injected.
        self._pump()

    # -- inspection --------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when the NIC has no pending or in-flight request packets."""
        return (
            self._active_message is None
            and not self._message_queue
            and self.outstanding == 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic node={self.node_id} router={self.router_id} outstanding={self.outstanding}>"
