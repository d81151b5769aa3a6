"""Minimal and non-minimal (Valiant) path sampling on the Dragonfly.

UGAL-style adaptive routing (Section 2.2) randomly samples two minimal and
two non-minimal candidate paths per packet and routes on the one estimated
to be least congested.  This module provides the samplers; the congestion
scoring lives in :mod:`repro.routing.ugal`.

Paths are represented as tuples of flat router ids, starting at the source
router (the router of the sending NIC) and ending at the destination router.
A path of length one means source and destination nodes share a blade.

Path sampling runs once per injected packet, so the implementation avoids
any object construction on the hot path.  Everything about a router pair
that no random draw decides — the minimal-path choices, the minimal hop
count and the full minimal-path set — lives in a :class:`PathTable`: one
per :class:`~repro.config.TopologyConfig`, filled lazily and shared by
every sampler in the process.  A :class:`PathSampler` keeps only its random
stream, so it draws exactly as it would from private tables, however warm
the shared one is.  Valiant paths are drawn afresh and never stored: their
space is far too large to keep.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import TopologyConfig
from repro.topology.dragonfly import DragonflyTopology

Path = Tuple[int, ...]


def hop_count_minimal(topo: DragonflyTopology, src_router: int, dst_router: int) -> int:
    """Number of router-to-router hops on a minimal path.

    Intra-group distances are 0 (same router), 1 (same chassis or same blade
    slot) or 2.  Inter-group distances add one optical hop plus the local
    hops needed to reach/leave the gateway routers, bounded by 5.
    """
    if src_router == dst_router:
        return 0
    groups = topo.group_of_router
    chassis = topo.chassis_of_router
    blades = topo.blade_of_router
    ga, gb = groups[src_router], groups[dst_router]
    if ga == gb:
        if chassis[src_router] == chassis[dst_router] or blades[src_router] == blades[dst_router]:
            return 1
        return 2
    best = None
    for out_router, in_router in topo.gateways(ga, gb):
        hops = 1
        if out_router != src_router:
            hops += (
                1
                if chassis[src_router] == chassis[out_router]
                or blades[src_router] == blades[out_router]
                else 2
            )
        if in_router != dst_router:
            hops += (
                1
                if chassis[in_router] == chassis[dst_router]
                or blades[in_router] == blades[dst_router]
                else 2
            )
        if best is None or hops < best:
            best = hops
            if best == 1:
                break
    assert best is not None, "groups are not connected"
    return best


#: The process-wide tables, one per topology configuration.
_TABLES: Dict[TopologyConfig, "PathTable"] = {}


class PathTable:
    """Per-router-pair minimal-path structure of one topology.

    Every entry is a pure function of the topology configuration, so one
    table serves every sampler and network built on it (:meth:`of`).
    Entries are keyed by ``src * num_routers + dst`` and filled on first
    use.  Stored paths are interned: the same route is always the same
    tuple object, which lets callers key their own per-path data on it.
    """

    def __init__(self, topology: DragonflyTopology):
        self.topology = topology
        self.num_routers = topology.num_routers
        self._groups = topology.group_of_router
        self._chassis = topology.chassis_of_router
        self._blades = topology.blade_of_router
        self._blades_per_chassis = topology.config.blades_per_chassis
        self._routers_per_group = topology.config.routers_per_group
        #: Pair -> tuple of equally-likely gateway choices, each a tuple of
        #: equally-likely minimal paths through that gateway.  Intra-group
        #: pairs store a single pseudo-gateway entry.  Sampling a minimal
        #: path is then two uniform draws over prebuilt tuples.
        self.options: Dict[int, Tuple[Tuple[Path, ...], ...]] = {}
        #: Pair -> minimal hop count.
        self.hops: Dict[int, int] = {}
        #: Pair -> every shortest path, in enumeration order.
        self.shortest: Dict[int, Tuple[Path, ...]] = {}

    @classmethod
    def of(cls, topology: DragonflyTopology) -> "PathTable":
        """The shared table of ``topology``'s configuration."""
        table = _TABLES.get(topology.config)
        if table is None:
            table = _TABLES[topology.config] = cls(topology)
        return table

    def _intra_group_all_minimal(self, src: int, dst: int) -> List[Path]:
        """All minimal paths between two routers of the same group."""
        if src == dst:
            return [(src,)]
        chassis, blades = self._chassis, self._blades
        if chassis[src] == chassis[dst] or blades[src] == blades[dst]:
            return [(src, dst)]
        # Two-hop paths: via the router sharing src's chassis and dst's
        # blade slot, or via the router sharing src's blade slot and dst's
        # chassis.
        base = self._groups[src] * self._routers_per_group
        per_chassis = self._blades_per_chassis
        via1 = base + chassis[src] * per_chassis + blades[dst]
        via2 = base + chassis[dst] * per_chassis + blades[src]
        return [(src, via1, dst), (src, via2, dst)]

    def minimal_options(self, src_router: int, dst_router: int) -> Tuple[Tuple[Path, ...], ...]:
        """The per-gateway minimal path choices for one pair.

        The nesting mirrors the hardware-style hierarchical sampling the
        samplers do: pick a gateway pair uniformly, then one of the (up to
        four) head×tail leg combinations uniformly.  Keeping the two levels
        separate preserves that distribution exactly — a gateway with one
        leg combination is as likely as one with four.
        """
        key = src_router * self.num_routers + dst_router
        options = self.options.get(key)
        if options is not None:
            return options
        gs = self._groups[src_router]
        gd = self._groups[dst_router]
        if gs == gd:
            options = (tuple(self._intra_group_all_minimal(src_router, dst_router)),)
        else:
            options = tuple(
                tuple(
                    head + tail
                    for head in self._intra_group_all_minimal(src_router, ga)
                    for tail in self._intra_group_all_minimal(gb, dst_router)
                )
                for ga, gb in self.topology.gateways(gs, gd)
            )
        self.options[key] = options
        return options

    def minimal_hops(self, src_router: int, dst_router: int) -> int:
        """Minimal hop count of one pair."""
        key = src_router * self.num_routers + dst_router
        hops = self.hops.get(key)
        if hops is None:
            hops = self.hops[key] = hop_count_minimal(self.topology, src_router, dst_router)
        return hops

    def all_minimal(self, src_router: int, dst_router: int) -> Tuple[Path, ...]:
        """Every shortest path of one pair, in enumeration order (shared)."""
        key = src_router * self.num_routers + dst_router
        paths = self.shortest.get(key)
        if paths is not None:
            return paths
        if src_router == dst_router:
            paths = ((src_router,),)
        elif self._groups[src_router] == self._groups[dst_router]:
            paths = self.minimal_options(src_router, dst_router)[0]
        else:
            best = self.minimal_hops(src_router, dst_router)
            paths = tuple(
                path
                for combos in self.minimal_options(src_router, dst_router)
                for path in combos
                if len(path) - 1 == best
            )
        self.shortest[key] = paths
        return paths


class PathSampler:
    """Samples minimal and non-minimal paths between routers.

    Parameters
    ----------
    topology:
        The Dragonfly link structure.
    rng:
        Random stream used for all sampling decisions; pass a dedicated
        stream so routing randomness is reproducible independently of other
        stochastic components.
    """

    def __init__(self, topology: DragonflyTopology, rng: random.Random):
        self.topology = topology
        self.rng = rng
        #: Shared structure; the sampler itself stores nothing per pair.
        self.table = PathTable.of(topology)
        self._options = self.table.options
        self._groups = topology.group_of_router
        self._routers_per_group = topology.config.routers_per_group
        self._num_groups = topology.config.num_groups
        self._num_routers = topology.num_routers

    def minimal_hops(self, src_router: int, dst_router: int) -> int:
        """Minimal hop count (used by the UGAL bias computation)."""
        return self.table.minimal_hops(src_router, dst_router)

    def _intra_group_minimal(self, src: int, dst: int) -> Path:
        """A minimal path between two routers of the same group.

        Of two two-hop paths one is picked at random, like the hardware's
        hashed tie-breaking.
        """
        paths = self.table.minimal_options(src, dst)[0]
        if len(paths) > 1:
            return paths[int(self.rng.random() * len(paths))]
        return paths[0]

    # -- public samplers -----------------------------------------------------

    def minimal(self, src_router: int, dst_router: int) -> Path:
        """Sample one minimal path from ``src_router`` to ``dst_router``."""
        if src_router == dst_router:
            return (src_router,)
        options = self._options.get(src_router * self._num_routers + dst_router)
        if options is None:
            options = self.table.minimal_options(src_router, dst_router)
        rnd = self.rng.random
        combos = options[int(rnd() * len(options))] if len(options) > 1 else options[0]
        if len(combos) > 1:
            return combos[int(rnd() * len(combos))]
        return combos[0]

    def nonminimal(
        self, src_router: int, dst_router: int, intermediate: Optional[int] = None
    ) -> Path:
        """Sample one Valiant (non-minimal) path.

        For inter-group traffic the path detours through a randomly chosen
        *intermediate group* connected to both endpoints, doubling the number
        of optical hops — up to 10 hops total on the largest systems, exactly
        as described in Section 2.2.  For intra-group traffic the detour goes
        through a random intermediate router of the same group.
        """
        if src_router == dst_router:
            return (src_router,)
        gs = self._groups[src_router]
        gd = self._groups[dst_router]
        rnd = self.rng.random
        rpg = self._routers_per_group
        if gs == gd:
            if intermediate is None:
                base = gs * rpg
                intermediate = base + int(rnd() * rpg)
                if intermediate in (src_router, dst_router):
                    intermediate = base + int(rnd() * rpg)
                if intermediate in (src_router, dst_router):
                    return self.minimal(src_router, dst_router)
            head = self._intra_group_minimal(src_router, intermediate)
            tail = self._intra_group_minimal(intermediate, dst_router)
            return head + tail[1:]
        # Inter-group: detour via an intermediate group.
        if intermediate is None:
            if self._num_groups <= 2:
                return self._two_group_detour(src_router, dst_router)
            gi = int(rnd() * self._num_groups)
            while gi == gs or gi == gd:
                gi = int(rnd() * self._num_groups)
        else:
            gi = intermediate
        pivot = gi * rpg + int(rnd() * rpg)
        head = self.minimal(src_router, pivot)
        tail = self.minimal(pivot, dst_router)
        return head + tail[1:]

    def _two_group_detour(self, src_router: int, dst_router: int) -> Path:
        """Non-minimal path when only two groups exist."""
        gd = self._groups[dst_router]
        base = gd * self._routers_per_group
        pivot = base + int(self.rng.random() * self._routers_per_group)
        if pivot == dst_router:
            pivot = base + (pivot - base + 1) % self._routers_per_group
        if pivot == dst_router:
            return self.minimal(src_router, dst_router)
        head = self.minimal(src_router, pivot)
        tail = self._intra_group_minimal(pivot, dst_router)
        return head + tail[1:]

    def all_minimal(self, src_router: int, dst_router: int) -> List[Path]:
        """Enumerate every minimal path (a fresh list the caller may keep).

        The number of minimal inter-group paths grows with the number of
        gateway connections between the two groups; the paper exploits this
        when explaining why high-bias routing spreads inter-group traffic
        well (Section 4.1).
        """
        return list(self.table.all_minimal(src_router, dst_router))

    def validate_path(self, path: Sequence[int]) -> None:
        """Assert that consecutive routers on ``path`` are directly linked."""
        topo = self.topology
        for a, b in zip(path, path[1:]):
            if not topo.has_link(a, b):
                raise AssertionError(f"path hop {a}->{b} has no physical link")
