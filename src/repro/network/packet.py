"""Messages, request packets and response packets.

An application *message* (an RDMA PUT or GET issued by the host) is split by
the NIC into fixed-size request packets; every request packet is acknowledged
by a response packet travelling in the opposite direction (Section 2.1).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Optional, Tuple

from repro.config import NicConfig

_message_ids = itertools.count()
_packet_ids = itertools.count()


class RdmaOp(str, Enum):
    """Type of RDMA operation carried by a message."""

    #: Data travels in request packets (5 request flits per 64-byte packet).
    PUT = "put"
    #: Data travels in response packets (1 request flit per packet).
    GET = "get"


def packetize(size_bytes: int, op: RdmaOp, nic: NicConfig) -> Tuple[int, int, int]:
    """Return ``(packets, request_flits, response_flits)`` for a message.

    Follows Section 2.1: one request packet per 64 payload bytes; a PUT
    request packet is one header flit plus one payload flit per 16 bytes of
    payload (up to four); a GET request packet is a single flit and the data
    comes back in the response.
    """
    if size_bytes < 0:
        raise ValueError("message size must be non-negative")
    if size_bytes == 0:
        return 1, nic.header_flits, nic.response_flits
    packets = -(-size_bytes // nic.packet_payload_bytes)
    if op == RdmaOp.GET:
        request_flits = packets * nic.header_flits
        # data returns in responses: one payload flit per 16 bytes plus header
        response_flits = packets * nic.header_flits + -(-size_bytes // nic.flit_payload_bytes)
        return packets, request_flits, response_flits
    # PUT: full packets carry header + max payload flits, the last packet may
    # carry fewer payload flits.
    full_packets, tail_bytes = divmod(size_bytes, nic.packet_payload_bytes)
    request_flits = full_packets * (nic.header_flits + nic.max_payload_flits)
    if tail_bytes:
        request_flits += nic.header_flits + -(-tail_bytes // nic.flit_payload_bytes)
    response_flits = packets * nic.response_flits
    return packets, request_flits, response_flits


class Message:
    """An application message handed to the sending NIC.

    Parameters
    ----------
    src_node, dst_node:
        Flat node ids of the communicating endpoints.
    size_bytes:
        Application payload size.
    routing_mode:
        The per-message routing mode (the quantity the paper's
        application-aware library controls).
    op:
        PUT or GET semantics, affecting packetization.
    on_delivered:
        Callback invoked (once) when the last request packet has been
        delivered to the destination NIC.  The backend resets the
        attribute to ``None`` just before the call.
    on_acked:
        Callback invoked (once) when the last response has returned to the
        sending NIC; reset to ``None`` the same way.
    tag:
        Opaque identifier used by the MPI layer for matching.
    """

    __slots__ = (
        "id",
        "src_node",
        "dst_node",
        "size_bytes",
        "routing_mode",
        "op",
        "tag",
        "on_delivered",
        "on_acked",
        "num_packets",
        "request_flits",
        "response_flits",
        "full_packets",
        "req_flits_full",
        "req_flits_tail",
        "resp_flits_full",
        "resp_flits_tail",
        "packets_injected",
        "packets_delivered",
        "packets_acked",
        "submit_time",
        "first_injection_time",
        "delivered_time",
        "acked_time",
        "minimal_packets",
        "nonminimal_packets",
    )

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        size_bytes: int,
        routing_mode,
        nic_config: NicConfig,
        op: RdmaOp = RdmaOp.PUT,
        on_delivered: Optional[Callable[["Message"], None]] = None,
        on_acked: Optional[Callable[["Message"], None]] = None,
        tag: Optional[object] = None,
    ):
        self.id = next(_message_ids)
        self.src_node = src_node
        self.dst_node = dst_node
        self.size_bytes = size_bytes
        self.routing_mode = routing_mode
        self.op = op
        self.tag = tag
        self.on_delivered = on_delivered
        self.on_acked = on_acked
        packets, req_flits, resp_flits = packetize(size_bytes, op, nic_config)
        self.num_packets = packets
        self.request_flits = req_flits
        self.response_flits = resp_flits
        # Per-packet flit layout, precomputed so the NIC's injection hot path
        # is a compare and an attribute read instead of division per packet:
        # packets with ``index < full_packets`` carry a full payload, the
        # remaining (at most one) packet carries the tail.
        nic = nic_config
        if size_bytes == 0:
            full_packets = 0
            payload_full = payload_tail = 0
        else:
            full_packets = size_bytes // nic.packet_payload_bytes
            payload_full = nic.max_payload_flits
            tail_bytes = size_bytes - full_packets * nic.packet_payload_bytes
            if tail_bytes <= 0:
                payload_tail = nic.max_payload_flits
            else:
                payload_tail = -(-tail_bytes // nic.flit_payload_bytes)
        self.full_packets = full_packets
        if op == RdmaOp.GET:
            # GET requests are a bare header; the data rides the response.
            self.req_flits_full = self.req_flits_tail = nic.header_flits
            self.resp_flits_full = nic.header_flits + payload_full
            self.resp_flits_tail = nic.header_flits + payload_tail
        else:
            self.req_flits_full = nic.header_flits + payload_full
            self.req_flits_tail = nic.header_flits + payload_tail
            self.resp_flits_full = self.resp_flits_tail = nic.response_flits
        self.packets_injected = 0
        self.packets_delivered = 0
        self.packets_acked = 0
        self.submit_time: Optional[int] = None
        self.first_injection_time: Optional[int] = None
        self.delivered_time: Optional[int] = None
        self.acked_time: Optional[int] = None
        self.minimal_packets = 0
        self.nonminimal_packets = 0

    @property
    def delivered(self) -> bool:
        """True once every request packet reached the destination NIC."""
        return self.packets_delivered >= self.num_packets

    @property
    def acked(self) -> bool:
        """True once every response returned to the sending NIC."""
        return self.packets_acked >= self.num_packets

    @property
    def transmission_time(self) -> Optional[int]:
        """T_msg of the paper: submit at the sender NIC → last flit delivered."""
        if self.delivered_time is None or self.submit_time is None:
            return None
        return self.delivered_time - self.submit_time

    def minimal_fraction(self) -> float:
        """Fraction of this message's packets that were routed minimally."""
        total = self.minimal_packets + self.nonminimal_packets
        if total == 0:
            return 1.0
        return self.minimal_packets / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.id} {self.src_node}->{self.dst_node} "
            f"{self.size_bytes}B {self.op.value} mode={self.routing_mode}>"
        )


class Packet:
    """A request or response packet travelling through the network."""

    __slots__ = (
        "id",
        "message",
        "src_node",
        "dst_node",
        "flits",
        "is_response",
        "path",
        "hop_index",
        "holding_link",
        "inject_start_time",
        "request_inject_start",
        "minimal",
        "index_in_message",
        "last_enqueue_time",
    )

    def __init__(
        self,
        message: Message,
        src_node: int,
        dst_node: int,
        flits: int,
        is_response: bool = False,
        index_in_message: int = 0,
    ):
        self.id = next(_packet_ids)
        self.message = message
        self.src_node = src_node
        self.dst_node = dst_node
        self.flits = flits
        self.is_response = is_response
        #: Sequence of router ids; chosen by the routing policy at injection.
        self.path: Optional[Tuple[int, ...]] = None
        self.hop_index = 0
        #: The link whose downstream buffer currently holds this packet.
        self.holding_link = None
        #: When the first flit left the NIC (after any back-pressure stall).
        self.inject_start_time: Optional[int] = None
        #: For responses: the request's injection start, to compute L.
        self.request_inject_start: Optional[int] = None
        self.minimal = True
        self.index_in_message = index_in_message
        #: When the packet was queued at its current link (for wait counters).
        self.last_enqueue_time = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "resp" if self.is_response else "req"
        return f"<Packet {self.id} {kind} {self.src_node}->{self.dst_node} flits={self.flits}>"
