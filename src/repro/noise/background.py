"""Background traffic generators (other jobs sharing the network)."""

from __future__ import annotations

import random
from enum import Enum
from typing import List, Optional, Sequence

from repro.model.base import NetworkModel
from repro.routing.modes import RoutingMode


class NoiseLevel(str, Enum):
    """Coarse cross-traffic intensities used by the experiments."""

    NONE = "none"
    LIGHT = "light"
    MODERATE = "moderate"
    HEAVY = "heavy"

    @property
    def utilization(self) -> float:
        """Approximate fraction of a node's injection bandwidth consumed."""
        return {
            NoiseLevel.NONE: 0.0,
            NoiseLevel.LIGHT: 0.05,
            NoiseLevel.MODERATE: 0.15,
            NoiseLevel.HEAVY: 0.35,
        }[self]


def noise_nodes_for(
    network: NetworkModel,
    measured_nodes: Sequence[int],
    fraction: float = 0.5,
    rng: Optional[random.Random] = None,
    max_nodes: Optional[int] = None,
) -> List[int]:
    """Pick nodes for background jobs from the free nodes of the machine.

    Free nodes located in the *same Dragonfly groups* as the measured job are
    preferred — their traffic shares routers and links with the job, which is
    what produces network noise (traffic in untouched groups would mostly
    just burn simulation time).  ``fraction`` limits how many of the eligible
    nodes generate noise and ``max_nodes`` caps the total (the default cap of
    roughly twice the measured-job size keeps the simulation cost of the
    noise proportional to the measured job).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    topo = network.config.topology
    taken = set(measured_nodes)
    group_of_router = network.topology.group_of_router
    job_groups = {
        group_of_router[n // topo.nodes_per_router] for n in measured_nodes
    }
    free_same_group: List[int] = []
    free_other: List[int] = []
    for node in range(network.num_nodes):
        if node in taken:
            continue
        group = group_of_router[node // topo.nodes_per_router]
        (free_same_group if group in job_groups else free_other).append(node)
    if rng is not None:
        rng.shuffle(free_same_group)
        rng.shuffle(free_other)
    ordered = free_same_group + free_other
    count = int(len(ordered) * fraction)
    if max_nodes is None:
        max_nodes = max(4, min(2 * len(measured_nodes), 32))
    count = min(count, max_nodes, len(ordered))
    return ordered[:count]


class BackgroundTraffic:
    """A set of noise-generating nodes exchanging messages forever.

    Each noise node repeatedly sends a message of ``message_bytes`` to a peer
    (chosen per message: a fixed partner, a random node of the noise set, or
    a hotspot node), then waits an exponentially distributed gap sized so the
    average injection-bandwidth utilization matches ``utilization``.

    The generator is started with :meth:`start` and keeps scheduling itself
    until :meth:`stop` is called; the measured job simply stops stepping the
    simulator when it finishes, so leftover noise events are harmless.
    """

    def __init__(
        self,
        network: NetworkModel,
        nodes: Sequence[int],
        message_bytes: int = 8192,
        utilization: float = 0.15,
        pattern: str = "random",
        hotspot_node: Optional[int] = None,
        routing_mode: RoutingMode = RoutingMode.ADAPTIVE_0,
        rng: Optional[random.Random] = None,
        name: str = "noise",
    ):
        if not nodes:
            raise ValueError("background traffic needs at least one node")
        if len(nodes) == 1 and pattern != "hotspot":
            raise ValueError("a single noise node requires the 'hotspot' pattern")
        if not 0.0 < utilization <= 1.0:
            if utilization == 0.0:
                raise ValueError("utilization 0 means no noise; do not create the generator")
            raise ValueError("utilization must be within (0, 1]")
        if pattern not in ("random", "pairs", "hotspot"):
            raise ValueError(f"unknown noise pattern {pattern!r}")
        if pattern == "hotspot" and hotspot_node is None:
            raise ValueError("hotspot pattern requires hotspot_node")
        self.network = network
        self.nodes = list(nodes)
        self.message_bytes = message_bytes
        self.utilization = utilization
        self.pattern = pattern
        self.hotspot_node = hotspot_node
        self.routing_mode = routing_mode
        self.rng = rng or network.streams.stream(f"{name}-traffic")
        self.name = name
        self.active = False
        self.messages_sent = 0
        self.bytes_sent = 0
        # Mean inter-message gap per sender: a message of B bytes keeps the
        # injection pipe busy ~B/16 cycles (16 B per flit, 1 flit/cycle), so a
        # utilization u needs a mean gap of (B/16)/u cycles between sends.
        busy_cycles = max(1.0, message_bytes / network.config.nic.flit_payload_bytes)
        self._mean_gap = busy_cycles / utilization

    # -- lifecycle -------------------------------------------------------------

    def start(self, initial_spread: Optional[int] = None) -> None:
        """Begin generating traffic; senders start at staggered offsets."""
        if self.active:
            return
        self.active = True
        spread = initial_spread if initial_spread is not None else int(self._mean_gap)
        for node in self.nodes:
            offset = self.rng.randint(0, max(1, spread))
            self.network.sim.schedule(offset, self._send_next, node)

    def stop(self) -> None:
        """Stop generating new messages (in-flight ones drain normally)."""
        self.active = False

    # -- traffic loop ------------------------------------------------------------

    def _pick_peer(self, node: int) -> int:
        if self.pattern == "hotspot":
            return self.hotspot_node if node != self.hotspot_node else self.nodes[0]
        if self.pattern == "pairs":
            index = self.nodes.index(node)
            return self.nodes[index ^ 1] if (index ^ 1) < len(self.nodes) else self.nodes[0]
        # random: any other noise node
        peer = node
        while peer == node:
            peer = self.rng.choice(self.nodes)
        return peer

    def _send_next(self, node: int) -> None:
        if not self.active:
            return
        peer = self._pick_peer(node)
        if peer != node:
            self.network.send(
                src_node=node,
                dst_node=peer,
                size_bytes=self.message_bytes,
                routing_mode=self.routing_mode,
            )
            self.messages_sent += 1
            self.bytes_sent += self.message_bytes
        gap = self.rng.expovariate(1.0 / self._mean_gap)
        self.network.sim.schedule(max(1, int(gap)), self._send_next, node)

    # -- convenience constructors ----------------------------------------------------

    @classmethod
    def for_level(
        cls,
        network: NetworkModel,
        measured_nodes: Sequence[int],
        level: NoiseLevel,
        message_bytes: int = 8192,
        fraction_of_free_nodes: float = 0.5,
        max_nodes: Optional[int] = None,
        name: str = "noise",
    ) -> Optional["BackgroundTraffic"]:
        """Create (and return) a generator for a coarse noise level, or None."""
        if level is NoiseLevel.NONE:
            return None
        rng = network.streams.stream(f"{name}-placement")
        nodes = noise_nodes_for(
            network, measured_nodes, fraction_of_free_nodes, rng, max_nodes=max_nodes
        )
        if len(nodes) < 2:
            return None
        return cls(
            network,
            nodes,
            message_bytes=message_bytes,
            utilization=level.utilization,
            rng=network.streams.stream(f"{name}-traffic"),
            name=name,
        )
