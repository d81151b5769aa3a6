"""Construction of the Aries-like Dragonfly link structure.

The topology object is purely structural: it knows which routers are
connected by which kind of link and how the optical (inter-group) endpoints
are distributed, but it holds no simulation state.  The network layer
(:mod:`repro.network`) instantiates buffers and links on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.config import TopologyConfig
from repro.topology.geometry import RouterCoord, group_of_router


class LinkKind(str, Enum):
    """Physical class of a link, matching the Aries tier names."""

    #: Intra-chassis (backplane) link — "green".
    GREEN = "green"
    #: Intra-group (copper cable between chassis) link — "black".
    BLACK = "black"
    #: Inter-group (optical) link — "blue".
    BLUE = "blue"
    #: Processor-tile link between a NIC and its router.
    HOST = "host"


@dataclass(frozen=True, order=True)
class LinkId:
    """A directed router-to-router connection.

    ``src`` and ``dst`` are flat router ids.  Host links use ``src = -1 -
    node_id`` on the injection side and are handled by the network layer, so
    LinkId instances produced by the topology always connect two routers.
    """

    src: int
    dst: int
    kind: LinkKind

    def reversed(self) -> "LinkId":
        """The link carrying traffic in the opposite direction."""
        return LinkId(self.dst, self.src, self.kind)

    def label(self, topo: TopologyConfig) -> str:
        """Human-readable label used in traces and error messages."""
        a = RouterCoord.from_flat(self.src, topo).label()
        b = RouterCoord.from_flat(self.dst, topo).label()
        return f"{a}->{b}[{self.kind.value}]"


class DragonflyTopology:
    """Link structure of an Aries-like Dragonfly.

    Parameters
    ----------
    config:
        Geometry and link parameters.

    Notes
    -----
    Global (inter-group) connections are assigned deterministically: the
    ``k``-th connection between groups ``(a, b)`` uses router
    ``(pair_index + k) % routers_per_group`` in each group, where
    ``pair_index`` enumerates the (a, b) pairs.  This spreads optical
    endpoints over blades the same way Cray's default cabling does, and it
    guarantees that two specific blades may lack a direct inter-group link —
    the situation that produces the 5-hop minimal path of Figure 1.
    """

    def __init__(self, config: TopologyConfig):
        config.validate_global_connectivity()
        self.config = config
        # adjacency[r] -> {neighbor: LinkKind}
        self._adjacency: List[Dict[int, LinkKind]] = [
            {} for _ in range(config.num_routers)
        ]
        # Flat coordinate arrays (hot-path friendly: no object construction).
        rpg = config.routers_per_group
        bpc = config.blades_per_chassis
        self.group_of_router: List[int] = [r // rpg for r in range(config.num_routers)]
        self.chassis_of_router: List[int] = [
            (r % rpg) // bpc for r in range(config.num_routers)
        ]
        self.blade_of_router: List[int] = [
            (r % rpg) % bpc for r in range(config.num_routers)
        ]
        # (g_src, g_dst) -> list of (router in g_src, router in g_dst)
        self._gateways: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # per-router count of used optical endpoints (for validation)
        self._global_endpoints_used: List[int] = [0] * config.num_routers
        self._build_local_links()
        self._build_global_links()

    # -- construction -------------------------------------------------------

    def _build_local_links(self) -> None:
        topo = self.config
        for group in range(topo.num_groups):
            base = group * topo.routers_per_group
            for chassis in range(topo.chassis_per_group):
                for blade in range(topo.blades_per_chassis):
                    rid = base + chassis * topo.blades_per_chassis + blade
                    # Green: all other blades in the same chassis.
                    for other_blade in range(topo.blades_per_chassis):
                        if other_blade == blade:
                            continue
                        nid = base + chassis * topo.blades_per_chassis + other_blade
                        self._adjacency[rid][nid] = LinkKind.GREEN
                    # Black: same blade slot in the other chassis of this group.
                    for other_chassis in range(topo.chassis_per_group):
                        if other_chassis == chassis:
                            continue
                        nid = base + other_chassis * topo.blades_per_chassis + blade
                        self._adjacency[rid][nid] = LinkKind.BLACK

    def _build_global_links(self) -> None:
        topo = self.config
        if topo.num_groups <= 1:
            return
        pairs = [
            (a, b)
            for a in range(topo.num_groups)
            for b in range(a + 1, topo.num_groups)
        ]
        # Distribute at least one connection per group pair, then keep adding
        # connections round-robin while optical endpoints remain.
        capacity = [topo.global_links_per_router] * topo.num_routers
        rpg = topo.routers_per_group

        def next_router(group: int, start: int) -> int:
            """First router in ``group`` (scanning from ``start``) with a free endpoint."""
            base = group * rpg
            for k in range(rpg):
                rid = base + (start + k) % rpg
                if capacity[rid] > 0:
                    return rid
            raise ValueError(
                f"group {group} ran out of optical endpoints while wiring global links"
            )

        for idx, (a, b) in enumerate(pairs):
            ra = next_router(a, idx % rpg)
            rb = next_router(b, idx % rpg)
            self._add_global_connection(ra, rb)
            capacity[ra] -= 1
            capacity[rb] -= 1

        # Optional extra connections: keep cycling over the pairs as long as
        # both groups still have free endpoints, giving denser systems more
        # inter-group bandwidth (like using more than one tile per connection).
        extra_round = 1
        progress = True
        while progress:
            progress = False
            for idx, (a, b) in enumerate(pairs):
                offset = idx % rpg + extra_round
                try:
                    ra = next_router(a, offset)
                    rb = next_router(b, offset)
                except ValueError:
                    continue
                if capacity[ra] <= 0 or capacity[rb] <= 0:
                    continue
                if self._adjacency[ra].get(rb) == LinkKind.BLUE:
                    continue
                self._add_global_connection(ra, rb)
                capacity[ra] -= 1
                capacity[rb] -= 1
                progress = True
            extra_round += 1
            if extra_round > rpg:
                break

    def _add_global_connection(self, ra: int, rb: int) -> None:
        ga = group_of_router(ra, self.config)
        gb = group_of_router(rb, self.config)
        if ga == gb:
            raise ValueError("global connection must join two different groups")
        self._adjacency[ra][rb] = LinkKind.BLUE
        self._adjacency[rb][ra] = LinkKind.BLUE
        self._gateways.setdefault((ga, gb), []).append((ra, rb))
        self._gateways.setdefault((gb, ga), []).append((rb, ra))
        self._global_endpoints_used[ra] += 1
        self._global_endpoints_used[rb] += 1

    # -- queries ------------------------------------------------------------

    @property
    def num_routers(self) -> int:
        """Total number of routers."""
        return self.config.num_routers

    @property
    def num_nodes(self) -> int:
        """Total number of compute nodes."""
        return self.config.num_nodes

    def neighbors(self, router_id: int) -> Dict[int, LinkKind]:
        """All routers directly connected to ``router_id`` with link kinds."""
        return self._adjacency[router_id]

    def link_kind(self, src: int, dst: int) -> LinkKind:
        """Kind of the direct link from ``src`` to ``dst``; raises if absent."""
        try:
            return self._adjacency[src][dst]
        except KeyError:
            raise KeyError(f"no direct link between routers {src} and {dst}") from None

    def has_link(self, src: int, dst: int) -> bool:
        """True if a direct link joins the two routers."""
        return dst in self._adjacency[src]

    def gateways(self, src_group: int, dst_group: int) -> Sequence[Tuple[int, int]]:
        """Optical connections from ``src_group`` to ``dst_group``.

        Each element ``(a, b)`` means router ``a`` (in the source group) has a
        direct optical link to router ``b`` (in the destination group).
        """
        if src_group == dst_group:
            raise ValueError("gateways are only defined between distinct groups")
        return self._gateways.get((src_group, dst_group), [])

    def group_of(self, router_id: int) -> int:
        """Group index of a flat router id."""
        return self.group_of_router[router_id]

    def coords_of(self, router_id: int) -> Tuple[int, int, int]:
        """``(group, chassis, blade)`` of a flat router id (array lookup)."""
        return (
            self.group_of_router[router_id],
            self.chassis_of_router[router_id],
            self.blade_of_router[router_id],
        )

    def all_links(self) -> List[LinkId]:
        """Every directed router-to-router link in the system."""
        links: List[LinkId] = []
        for src, neigh in enumerate(self._adjacency):
            for dst, kind in neigh.items():
                links.append(LinkId(src, dst, kind))
        return links

    def link_latency(self, kind: LinkKind) -> int:
        """One-way latency in cycles of a link of the given kind."""
        topo = self.config
        if kind == LinkKind.BLUE:
            return topo.global_link_latency
        if kind == LinkKind.HOST:
            return topo.host_link_latency
        return topo.local_link_latency

    def link_width(self, kind: LinkKind) -> int:
        """Number of parallel tiles backing a connection of the given kind.

        Parallel tiles are modelled as a single wider link: the buffer and
        the serialization bandwidth scale with the width.
        """
        topo = self.config
        if kind == LinkKind.GREEN:
            return topo.intra_chassis_tiles
        if kind == LinkKind.BLACK:
            return topo.intra_group_tiles
        return 1

    def degree_summary(self) -> Dict[str, float]:
        """Aggregate degree statistics (used by documentation and tests)."""
        greens = blacks = blues = 0
        for neigh in self._adjacency:
            for kind in neigh.values():
                if kind == LinkKind.GREEN:
                    greens += 1
                elif kind == LinkKind.BLACK:
                    blacks += 1
                else:
                    blues += 1
        n = self.config.num_routers
        return {
            "routers": float(n),
            "green_per_router": greens / n,
            "black_per_router": blacks / n,
            "blue_per_router": blues / n,
        }

    def validate(self) -> None:
        """Run structural invariants; raises ``AssertionError`` on violation."""
        topo = self.config
        for rid in range(topo.num_routers):
            coord = RouterCoord.from_flat(rid, topo)
            neigh = self._adjacency[rid]
            greens = sum(1 for k in neigh.values() if k == LinkKind.GREEN)
            blacks = sum(1 for k in neigh.values() if k == LinkKind.BLACK)
            assert greens == topo.blades_per_chassis - 1, (
                f"router {coord.label()} has {greens} green links, "
                f"expected {topo.blades_per_chassis - 1}"
            )
            assert blacks == topo.chassis_per_group - 1, (
                f"router {coord.label()} has {blacks} black links, "
                f"expected {topo.chassis_per_group - 1}"
            )
            assert self._global_endpoints_used[rid] <= topo.global_links_per_router
        for a in range(topo.num_groups):
            for b in range(topo.num_groups):
                if a == b:
                    continue
                assert self.gateways(a, b), f"groups {a} and {b} are not connected"
