"""Global configuration objects for the Dragonfly network-noise reproduction.

The configuration is split along the same lines as the paper's description of
the Cray Aries system (Section 2):

* :class:`TopologyConfig` — geometry of the Dragonfly (groups, chassis,
  blades, nodes per router) and link counts/latencies.
* :class:`NicConfig` — packetization parameters of the Aries NIC (64-byte
  request packets, 1 header flit + up to 4 payload flits for PUTs, at most
  1024 outstanding packets) and the NIC clock.
* :class:`RoutingConfig` — UGAL candidate counts, bias values for the
  ``ADAPTIVE_*`` modes and the credit-information delay responsible for
  *phantom congestion*.
* :class:`HostConfig` — host-side (non-network) delays and OS-noise model,
  needed to reproduce Section 3.3 (communication-time variation that is *not*
  network noise).
* :class:`SimulationConfig` — the aggregate passed around by the library.

All times are expressed in NIC clock cycles unless stated otherwise, matching
the units used by the paper's performance model (Equations 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class TopologyConfig:
    """Geometry and link parameters of an Aries-like Dragonfly network.

    The defaults describe a scaled-down system that keeps the full Aries
    structure (three connectivity tiers: inter-group/optical, intra-group
    "black" and intra-chassis "green" links) while remaining small enough to
    simulate quickly.  A full Cray XC group has 6 chassis x 16 blades; use
    :meth:`aries_like` for that geometry.
    """

    num_groups: int = 4
    chassis_per_group: int = 2
    blades_per_chassis: int = 4
    nodes_per_router: int = 4

    #: Number of optical (inter-group) link endpoints available per router.
    global_links_per_router: int = 2
    #: Number of parallel tiles used per intra-chassis connection.
    intra_chassis_tiles: int = 1
    #: Number of parallel tiles used per intra-group (black) connection.
    intra_group_tiles: int = 3

    #: One-way latency of an electrical (intra-group) link, in cycles.
    local_link_latency: int = 30
    #: One-way latency of an optical (inter-group) link, in cycles.
    global_link_latency: int = 300
    #: One-way latency between NIC and its router (processor tiles / PCIe).
    host_link_latency: int = 50

    #: Input-buffer capacity of a router port, in flits.
    router_buffer_flits: int = 64
    #: Input-buffer capacity of the NIC-facing (processor tile) port, in flits.
    nic_buffer_flits: int = 64
    #: Cycles needed to forward one flit across a host (NIC↔router) link.
    cycles_per_flit: int = 1
    #: Cycles needed to forward one flit across a single fabric tile.  The
    #: host interface (PCIe x16) is faster than an individual network tile
    #: (~16 GB/s vs ~5 GB/s), so a single fabric tile cannot absorb the NIC's
    #: injection rate — which is exactly why spreading packets over several
    #: paths (adaptive routing) matters on Aries, and why forcing all packets
    #: of a large message onto one minimal path produces stalls (Figure 7).
    fabric_cycles_per_flit: int = 3

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if self.chassis_per_group < 1:
            raise ValueError("chassis_per_group must be >= 1")
        if self.blades_per_chassis < 1:
            raise ValueError("blades_per_chassis must be >= 1")
        if self.nodes_per_router < 1:
            raise ValueError("nodes_per_router must be >= 1")
        if self.num_groups > 1 and self.global_links_per_router < 1:
            raise ValueError(
                "global_links_per_router must be >= 1 when num_groups > 1"
            )
        if self.router_buffer_flits < 8:
            raise ValueError("router_buffer_flits must be >= 8")

    # -- derived quantities -------------------------------------------------

    @property
    def routers_per_group(self) -> int:
        """Number of Aries routers (blades) in one group."""
        return self.chassis_per_group * self.blades_per_chassis

    @property
    def num_routers(self) -> int:
        """Total number of routers in the system."""
        return self.num_groups * self.routers_per_group

    @property
    def num_nodes(self) -> int:
        """Total number of compute nodes in the system."""
        return self.num_routers * self.nodes_per_router

    @property
    def global_links_per_group(self) -> int:
        """Total optical link endpoints available in one group."""
        return self.routers_per_group * self.global_links_per_router

    def validate_global_connectivity(self) -> None:
        """Check that each group can reach every other group directly.

        The Dragonfly topology requires at least one optical link between
        every pair of groups; otherwise minimal inter-group paths do not
        exist and the UGAL routing assumptions break.
        """
        if self.num_groups <= 1:
            return
        if self.global_links_per_group < self.num_groups - 1:
            raise ValueError(
                f"group has {self.global_links_per_group} global link endpoints "
                f"but needs at least {self.num_groups - 1} to reach all other groups"
            )

    @classmethod
    def aries_like(cls, num_groups: int = 8, **overrides) -> "TopologyConfig":
        """A geometry matching a (small) Cray XC: 6 chassis x 16 blades per group."""
        params = dict(
            num_groups=num_groups,
            chassis_per_group=6,
            blades_per_chassis=16,
            nodes_per_router=4,
            global_links_per_router=max(1, -(-(num_groups - 1) // 96)),
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def tiny(cls, **overrides) -> "TopologyConfig":
        """Smallest interesting geometry (2 groups), for unit tests."""
        params = dict(
            num_groups=2,
            chassis_per_group=2,
            blades_per_chassis=2,
            nodes_per_router=2,
            global_links_per_router=1,
        )
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class NicConfig:
    """Parameters of the Aries NIC packetization and injection engine.

    Section 2.1 of the paper: a data-movement command is packetized into
    64-byte request packets; each PUT request packet carries one header flit
    plus one to four payload flits, GET requests are a single flit and the
    data travels in the response.  The NIC can have at most 1024 outstanding
    request packets (Section 2.4).
    """

    #: Payload bytes carried by one request packet.
    packet_payload_bytes: int = 64
    #: Payload bytes carried by one flit (64 B / 4 payload flits).
    flit_payload_bytes: int = 16
    #: Flits in a PUT request packet header.
    header_flits: int = 1
    #: Maximum payload flits per request packet.
    max_payload_flits: int = 4
    #: Flits in a response (acknowledgement) packet.
    response_flits: int = 1
    #: Maximum number of outstanding (unacknowledged) request packets.
    max_outstanding_packets: int = 1024
    #: NIC clock frequency in Hz; used to convert cycles to microseconds.
    clock_hz: float = 1.0e9

    def __post_init__(self) -> None:
        if self.packet_payload_bytes <= 0:
            raise ValueError("packet_payload_bytes must be positive")
        if self.flit_payload_bytes <= 0:
            raise ValueError("flit_payload_bytes must be positive")
        if self.max_payload_flits * self.flit_payload_bytes < self.packet_payload_bytes:
            raise ValueError(
                "max_payload_flits * flit_payload_bytes must cover packet_payload_bytes"
            )
        if self.max_outstanding_packets < 1:
            raise ValueError("max_outstanding_packets must be >= 1")

    def cycles_to_us(self, cycles: float) -> float:
        """Convert NIC cycles to microseconds."""
        return cycles / self.clock_hz * 1e6

    def us_to_cycles(self, us: float) -> float:
        """Convert microseconds to NIC cycles."""
        return us * 1e-6 * self.clock_hz


@dataclass(frozen=True)
class RoutingConfig:
    """UGAL adaptive-routing parameters and per-mode bias values.

    The bias is added to the congestion estimated for non-minimal paths: the
    higher the bias, the higher the probability that a packet is routed
    minimally (Section 2.2).  Values are expressed in buffer-occupancy flits,
    the same unit as the congestion estimate.
    """

    #: Number of randomly sampled minimal path candidates per packet.
    minimal_candidates: int = 2
    #: Number of randomly sampled non-minimal path candidates per packet.
    nonminimal_candidates: int = 2

    #: Bias of ADAPTIVE_2 ("low bias").
    low_bias: float = 12.0
    #: Bias of ADAPTIVE_3 ("Adaptive with High Bias").
    high_bias: float = 48.0
    #: Base bias of ADAPTIVE_1 ("Increasingly Minimal Bias"); the effective
    #: bias grows as the packet approaches the destination.
    imb_base_bias: float = 8.0
    #: Additional IMB bias per hop already travelled (source-routing emulation
    #: uses the expected per-hop growth over the candidate path).
    imb_bias_per_hop: float = 10.0

    #: Delay, in cycles, after which far-end congestion (credit) information
    #: becomes visible to a router.  This is the mechanism behind "phantom
    #: congestion": with a large delay, routers base decisions on stale data.
    credit_info_delay: int = 400
    #: Weight of the (possibly stale) far-end estimate relative to the local
    #: queue occupancy when scoring a candidate path.
    far_end_weight: float = 1.0
    #: Non-minimal paths traverse roughly twice the hops; UGAL scales the
    #: non-minimal congestion estimate by this factor before comparing.
    nonminimal_penalty: float = 2.0

    def __post_init__(self) -> None:
        if self.minimal_candidates < 1:
            raise ValueError("minimal_candidates must be >= 1")
        if self.nonminimal_candidates < 0:
            raise ValueError("nonminimal_candidates must be >= 0")
        if self.credit_info_delay < 0:
            raise ValueError("credit_info_delay must be >= 0")


@dataclass(frozen=True)
class HostConfig:
    """Host-side (non-network) delay model.

    Section 3.3 of the paper shows that communication-time variation is not
    network noise: intra-node collectives exhibit large variability without
    touching the network at all.  We model per-message host overhead plus an
    OS-noise term drawn from a heavy-tailed distribution.
    """

    #: Fixed software overhead per message send, in cycles (MPI + uGNI stack).
    send_overhead: int = 200
    #: Fixed software overhead per message receive, in cycles.
    recv_overhead: int = 200
    #: Memory-copy bandwidth for intra-node transfers, in bytes per cycle.
    intra_node_bytes_per_cycle: float = 16.0
    #: Base latency of an intra-node (shared-memory) transfer, in cycles.
    intra_node_latency: int = 300

    #: Probability that a host operation is hit by an OS-noise detour.
    os_noise_probability: float = 0.02
    #: Mean duration of an OS-noise detour, in cycles (exponential tail).
    os_noise_mean: float = 5_000.0
    #: Per-node contention factor: extra per-byte cost when ``k`` processes
    #: of the same node are communicating concurrently (memory bandwidth
    #: sharing), expressed as a multiplier per extra process.
    contention_factor: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.os_noise_probability <= 1.0:
            raise ValueError("os_noise_probability must be within [0, 1]")
        if self.intra_node_bytes_per_cycle <= 0:
            raise ValueError("intra_node_bytes_per_cycle must be positive")


@dataclass(frozen=True)
class SimulationConfig:
    """Aggregate configuration consumed by the simulator and experiments."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    nic: NicConfig = field(default_factory=NicConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    host: HostConfig = field(default_factory=HostConfig)
    #: Master seed for all random streams (topology wiring, routing choices,
    #: noise); per-component streams are derived deterministically from it.
    seed: int = 12345
    #: Network-model backend resolving the traffic: ``"flit"`` is the
    #: cycle-accurate flit-level simulator, ``"flow"`` the fast flow-level
    #: engine.  Validated by :func:`repro.model.build_network_model`
    #: (config stays import-light).
    backend: str = "flit"

    def with_topology(self, **overrides) -> "SimulationConfig":
        """Return a copy with topology parameters replaced."""
        return replace(self, topology=replace(self.topology, **overrides))

    def with_routing(self, **overrides) -> "SimulationConfig":
        """Return a copy with routing parameters replaced."""
        return replace(self, routing=replace(self.routing, **overrides))

    def with_nic(self, **overrides) -> "SimulationConfig":
        """Return a copy with NIC parameters replaced."""
        return replace(self, nic=replace(self.nic, **overrides))

    def with_host(self, **overrides) -> "SimulationConfig":
        """Return a copy with host parameters replaced."""
        return replace(self, host=replace(self.host, **overrides))

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy with a different master seed."""
        return replace(self, seed=seed)

    def with_backend(self, backend: str) -> "SimulationConfig":
        """Return a copy selecting a different network-model backend."""
        return replace(self, backend=backend)

    @classmethod
    def small(cls, seed: int = 12345, **topology_overrides) -> "SimulationConfig":
        """A small but structurally complete system (4 groups)."""
        return cls(topology=TopologyConfig(**topology_overrides), seed=seed)

    @classmethod
    def tiny(cls, seed: int = 12345) -> "SimulationConfig":
        """The smallest system exercising all three link tiers (2 groups)."""
        return cls(topology=TopologyConfig.tiny(), seed=seed)
