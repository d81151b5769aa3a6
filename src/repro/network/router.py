"""Router (Aries device) model.

A router owns one output :class:`~repro.network.link.Link` per neighboring
router and one ejection link per locally attached NIC.  Packets are source
routed: the path was chosen at injection time, so the router only advances
the packet to the next link of its path.  The router also aggregates
per-device traffic counters (flits forwarded, stall-cycles observed on its
output queues), which play the role of the *network-tile counters* used in
Section 3.2 of the paper (Table 1).
"""

from __future__ import annotations

from typing import Dict

from repro.network.link import Link
from repro.network.packet import Packet


class RoutingError(RuntimeError):
    """Raised when a packet cannot be forwarded along its path."""


class Router:
    """One Aries router (blade)."""

    __slots__ = (
        "router_id",
        "output_links",
        "ejection_links",
        "flits_traversed",
        "packets_traversed",
    )

    def __init__(self, router_id: int):
        self.router_id = router_id
        #: neighbor router id -> outgoing Link
        self.output_links: Dict[int, Link] = {}
        #: local node id -> Link towards that node's NIC
        self.ejection_links: Dict[int, Link] = {}
        #: Tile-counter analogue: flits that traversed this router.
        self.flits_traversed = 0
        self.packets_traversed = 0

    # -- wiring (performed by the Network builder) ---------------------------

    def attach_output(self, neighbor_router: int, link: Link) -> None:
        """Register the outgoing link towards ``neighbor_router``."""
        if neighbor_router in self.output_links:
            raise ValueError(
                f"router {self.router_id} already has a link to {neighbor_router}"
            )
        self.output_links[neighbor_router] = link

    def attach_ejection(self, node_id: int, link: Link) -> None:
        """Register the ejection link towards a locally attached NIC."""
        if node_id in self.ejection_links:
            raise ValueError(f"router {self.router_id} already serves node {node_id}")
        self.ejection_links[node_id] = link

    # -- forwarding -----------------------------------------------------------

    def packet_arrived(self, packet: Packet, via_link: Link) -> None:
        """Handle a packet that fully arrived on one of the input buffers."""
        self.flits_traversed += packet.flits
        self.packets_traversed += 1
        path = packet.path
        hop = packet.hop_index
        try:
            here_ok = path[hop] == self.router_id
        except (TypeError, IndexError):
            here_ok = False
        if not here_ok:
            if path is None:
                raise RoutingError(
                    f"packet {packet.id} arrived at router without a path"
                )
            raise RoutingError(
                f"packet {packet.id} arrived at router {self.router_id} but its path "
                f"expects {path[hop] if hop < len(path) else '<end>'}"
            )
        hop += 1
        if hop == len(path):
            # Final router: eject towards the destination NIC.
            try:
                ejection = self.ejection_links[packet.dst_node]
            except KeyError:
                raise RoutingError(
                    f"router {self.router_id} does not serve node {packet.dst_node}"
                ) from None
            ejection.enqueue(packet)
            return
        packet.hop_index = hop
        try:
            link = self.output_links[path[hop]]
        except KeyError:
            raise RoutingError(
                f"router {self.router_id} has no link to {path[hop]} "
                f"(path {path})"
            ) from None
        link.enqueue(packet)

    # -- congestion probes ----------------------------------------------------

    @property
    def stalled_cycles(self) -> int:
        """Cumulative queue-wait cycles over this router's output links.

        This is the router-level analogue of the tile "stalled cycles"
        counters used in Table 1 of the paper.
        """
        total = sum(link.queue_wait_cycles for link in self.output_links.values())
        total += sum(link.queue_wait_cycles for link in self.ejection_links.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Router {self.router_id} degree={len(self.output_links)}>"
