"""Flow-level Dragonfly backend: messages as fluid flows, not flits.

:class:`FlowNetwork` implements the :class:`~repro.model.base.NetworkModel`
protocol on top of an iterative max-min fair-share bandwidth allocation
(:mod:`repro.model.flow.solver`) over the Dragonfly link graph, plus the
paper's (L, s) latency/stall model (Section 2.4), so that Algorithm 1
(:mod:`repro.core.selector`) runs unchanged on the counters it produces.

How a message is resolved
-------------------------

1. **Path choice** happens once per message (not per packet): minimal and
   non-minimal candidates are sampled with the same
   :class:`~repro.topology.paths.PathSampler` the flit backend uses, scored
   by the current per-link overload estimate, and gated by the routing
   mode's bias exactly like UGAL — Adaptive spreads across any candidate
   whose score beats the best minimal one, High Bias keeps traffic minimal
   until the minimal paths are heavily overloaded.  Most sends need one
   score: both Valiant candidates are drawn first, and scoring stops at
   the first minimal path at or under ``floor``, the lowest score a
   candidate could have (its hops, the shared host-link overloads, the
   penalty and the bias, with no fabric overload).  Because overloads are
   never negative, IEEE addition and multiplication by a non-negative
   ``nonminimal_penalty`` are monotone, and ``floor`` adds the same terms
   in the same order as a real score, no detour could have joined: the
   chosen paths and the draws are exactly those of scoring every path.
   With a negative penalty every path is scored.
2. The message becomes one **fluid sub-flow per selected path**, with its
   request flits split proportionally to each path's nominal bottleneck
   bandwidth.  Sub-flows occupy their injection link, every fabric hop and
   the ejection link, so NIC sharing, fabric contention and incast all fall
   out of the fair-share allocation.  The split, the rate caps and the
   residual latencies depend on the topology alone, so the
   :class:`RoutePlan` of a spread with no Valiant detour is computed once
   and kept in the process-wide :class:`RouteTable`; a message with a
   detour is planned afresh.
3. Whenever the flow set changes, rates are recomputed and a single
   completion event is scheduled — event count scales with messages, not
   with ``flits x hops``, which is where the backend's speed comes from.
4. On completion the NIC counters are fed the paper's model quantities:
   the stall counter gets the serialization time in excess of the
   back-pressure-free time, and the cumulative-latency counter gets the
   per-packet round trip of the chosen paths plus the congestion excess —
   yielding the same ``s``/``L`` surface the flit backend measures.

Deliberate approximations (documented, tolerated by the parity suite):
responses consume no bandwidth, per-packet phantom congestion does not
exist (decisions use current, not stale, load), and GET payloads are
modelled as forward volume.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.config import NicConfig, SimulationConfig, TopologyConfig
from repro.model.base import NetworkModel
from repro.model.flow.engine import default_engine_kind, make_engine
from repro.model.flow.solver import FairShareSolver, FlowState
from repro.network.counters import CounterSnapshot, NicCounters
from repro.network.packet import Message, RdmaOp
from repro.routing.bias import bias_for_mode
from repro.routing.modes import RoutingMode
from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.core import TELEMETRY
from repro.telemetry.probes import PROBES, ProbeRecorder, ProbeSampler
from repro.topology.dragonfly import DragonflyTopology, LinkKind
from repro.topology.geometry import router_of_node
from repro.topology.paths import Path, PathSampler, PathTable

#: Remaining-volume threshold below which a flow counts as drained (flits).
_DRAINED = 1e-6

#: Cap on the per-link overload estimate, in router buffers.
_MAX_OVERLOAD_BUFFERS = 4.0

#: Maximum number of paths one message is spread over.  The flit backend
#: samples candidates per *packet*, so a large message effectively sprays
#: over every minimal path; the fluid analogue spreads each message over up
#: to this many paths at once.
_MAX_SPREAD = 8

#: Fabric link keys of a path, one ``("fab", a, b)`` per hop.
Fabric = Tuple[Tuple[str, int, int], ...]

#: A host link key: ``("host", "inj", node)`` or ``("host", "ej", node)``.
HostLink = Tuple[str, str, int]


class RoutePlan(NamedTuple):
    """How one message spreads over its paths, from its solo solve.

    ``routes`` holds one ``(path, fabric, cap, share, fwd, back)`` per
    sub-flow: the path's fabric link keys, its rate cap (the outstanding-
    packet window), the share of the volume it carries, and its forward and
    response residual latencies.  The rest are message-level.  Nothing here
    depends on which nodes send, only on the routers' paths and the packet
    size.
    """

    routes: Tuple[Tuple[Path, Fabric, float, float, int, int], ...]
    #: Every router on any of the paths, once each (a stall is spread over them).
    routers: Tuple[int, ...]
    #: Back-pressure-free aggregate rate (flits/cycle).
    free_rate: float
    #: Share-weighted round trip plus one packet's serialization (cycles).
    base_rtt: float
    #: Share-weighted credit-covered buffering along the paths (flits).
    path_buffer: float
    #: Share of the volume on minimal paths.
    minimal_weight: float


#: The process-wide route tables, one per (topology, NIC) configuration.
_ROUTE_TABLES: Dict[Tuple[TopologyConfig, NicConfig], "RouteTable"] = {}


class RouteTable:
    """Route data of one (topology, NIC) configuration, shared process-wide.

    Every :class:`FlowNetwork` of the configuration reads and fills it:

    * ``links`` interns one ``("fab", a, b)`` key per directed link;
    * ``hosts`` interns each node's injection and ejection link keys;
    * ``fabric`` holds each minimal path's fabric link keys;
    * ``plans`` holds the :class:`RoutePlan` of every spread that is a pure
      function of its router pair and routing mode, by ``(paths, packet
      flits)``.

    Nothing keyed by a Valiant path, or by a random sample of a large
    minimal set, is ever stored: those spaces grow with every message.
    """

    def __init__(self, num_routers: int):
        self._num_routers = num_routers
        self.links: Dict[int, Tuple[str, int, int]] = {}
        self.hosts: Dict[int, Tuple[HostLink, HostLink]] = {}
        self.fabric: Dict[Path, Fabric] = {}
        self.plans: Dict[Tuple[Sequence[Path], int], RoutePlan] = {}

    @classmethod
    def of(cls, config: SimulationConfig) -> "RouteTable":
        """The shared table of ``config``'s topology and NIC."""
        key = (config.topology, config.nic)
        table = _ROUTE_TABLES.get(key)
        if table is None:
            table = _ROUTE_TABLES[key] = cls(config.topology.num_routers)
        return table

    def host_links(self, node: int) -> Tuple[HostLink, HostLink]:
        """A node's injection and ejection link keys (stored)."""
        keys = self.hosts.get(node)
        if keys is None:
            keys = self.hosts[node] = (("host", "inj", node), ("host", "ej", node))
        return keys

    def path_fabric(self, path: Path) -> Fabric:
        """Fabric link keys of any path, from the interned per-link keys (not stored)."""
        links = self.links
        n = self._num_routers
        keys = []
        for a, b in zip(path, path[1:]):
            key = links.get(a * n + b)
            if key is None:
                key = links[a * n + b] = ("fab", a, b)
            keys.append(key)
        return tuple(keys)

    def minimal_fabric(self, path: Path) -> Fabric:
        """Fabric link keys of a minimal path (stored)."""
        fabric = self.fabric.get(path)
        if fabric is None:
            fabric = self.fabric[path] = self.path_fabric(path)
        return fabric


class FlowNic:
    """Counter block and bookkeeping for one node of the flow backend."""

    __slots__ = (
        "node_id",
        "router_id",
        "counters",
        "messages_sent",
        "messages_received",
        "inflight",
        "on_message_delivered",
    )

    def __init__(self, node_id: int, router_id: int):
        self.node_id = node_id
        self.router_id = router_id
        self.counters = NicCounters()
        self.messages_sent = 0
        self.messages_received = 0
        #: Number of this node's messages still being resolved.
        self.inflight = 0
        #: Hook for the MPI layer: called with every delivered Message.
        self.on_message_delivered: Optional[Callable[[Message], None]] = None

    @property
    def idle(self) -> bool:
        """True when the NIC has no in-flight messages."""
        return self.inflight == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowNic node={self.node_id} inflight={self.inflight}>"


class FlowRouterStats:
    """Per-router statistics view matching the flit backend's counters."""

    __slots__ = ("router_id", "flits_traversed", "packets_traversed", "_stalled")

    def __init__(self, router_id: int):
        self.router_id = router_id
        self.flits_traversed = 0
        self.packets_traversed = 0
        self._stalled = 0.0

    @property
    def stalled_cycles(self) -> int:
        """Estimated queue-wait cycles attributed to this router."""
        return int(self._stalled)

    def reset(self) -> None:
        self.flits_traversed = 0
        self.packets_traversed = 0
        self._stalled = 0.0


class _MessageFlows:
    """Bookkeeping shared by the sub-flows of one in-flight message.

    Each sub-flow's own data travels in its ``FlowState.payload``, the tuple
    ``(state, fwd, back, path, flits)``: this object, its forward and
    response residual latencies, its routers and the flits it carries.
    """

    __slots__ = (
        "message",
        "src_nic",
        "dst_nic",
        "t0",
        "volume",
        "pkt_flits",
        "plan",
        "pending_arrivals",
        "pending_acks",
        "last_serial_time",
    )

    def __init__(
        self,
        message: Message,
        src_nic: FlowNic,
        dst_nic: FlowNic,
        t0: int,
        volume: float,
        pkt_flits: int,
        plan: RoutePlan,
    ):
        self.message = message
        self.src_nic = src_nic
        self.dst_nic = dst_nic
        self.t0 = t0
        self.volume = volume
        self.pkt_flits = pkt_flits
        self.plan = plan
        self.pending_arrivals = len(plan.routes)
        self.pending_acks = len(plan.routes)
        self.last_serial_time = t0


class FlowLinkSampler(ProbeSampler):
    """Fixed-interval congestion probe for the flow backend.

    Emits the *same series schema* as the flit backend's
    :class:`repro.network.network.FlitLinkSampler` — ``occupancy`` and
    ``stalled_links`` per link class (local/global/injection) per group,
    plus the NIC counter surface (``nic_stall_ratio``/``nic_latency``)
    per group — so flow and flit congestion traces are directly
    comparable.  "Occupancy" here is the backend's own congestion signal:
    the per-link overload estimate (:meth:`FlowNetwork._overload_flits`,
    in flits), averaged over every link of the class, and
    ``stalled_links`` counts links whose demand exceeds capacity.
    """

    __slots__ = ("_net", "_key_bucket", "_totals", "_nic_buckets")

    def __init__(self, recorder: ProbeRecorder, network: "FlowNetwork"):
        super().__init__(recorder)
        recorder.backend = "flow"
        self._net = network
        #: demand key -> (cls, group), or None for unclassified (ejection).
        self._key_bucket: Dict[object, Optional[Tuple[str, int]]] = {}
        # Class sizes, so means are over *all* links of a class (matching
        # the flit sampler) rather than only the currently loaded ones.
        topology = network.topology
        group_of = topology.group_of_router
        totals: Dict[Tuple[str, int], int] = {}
        for link_id in topology.all_links():
            cls = "global" if link_id.kind == LinkKind.BLUE else "local"
            key = (cls, group_of[link_id.src])
            totals[key] = totals.get(key, 0) + 1
        for nic in network.nics:
            key = ("injection", group_of[nic.router_id])
            totals[key] = totals.get(key, 0) + 1
        self._totals = sorted(totals.items())
        nic_buckets: Dict[int, list] = {}
        for nic in network.nics:
            nic_buckets.setdefault(group_of[nic.router_id], []).append(nic)
        self._nic_buckets = sorted(nic_buckets.items())

    def _bucket_of(self, key) -> Optional[Tuple[str, int]]:
        bucket = self._key_bucket.get(key, False)
        if bucket is not False:
            return bucket
        net = self._net
        group_of = net.topology.group_of_router
        if key[0] == "host":
            if key[1] == "inj":
                nic = net.nics[key[2]]
                bucket = ("injection", group_of[nic.router_id])
            else:  # ejection links have no flit-side series; skip them.
                bucket = None
        else:
            _, src, dst = key
            kind = net.topology.link_kind(src, dst)
            cls = "global" if kind == LinkKind.BLUE else "local"
            bucket = (cls, group_of[src])
        self._key_bucket[key] = bucket
        return bucket

    def collect(self, now: int) -> None:
        net = self._net
        recorder = self.recorder
        overload_of = net._overload_flits
        sums: Dict[Tuple[str, int], List[float]] = {}
        for key in net._link_demand:
            bucket = self._bucket_of(key)
            if bucket is None:
                continue
            overload = overload_of(key)
            acc = sums.get(bucket)
            if acc is None:
                sums[bucket] = [overload, 1.0 if overload > 0.0 else 0.0]
            else:
                acc[0] += overload
                if overload > 0.0:
                    acc[1] += 1.0
        for (cls, group), total in self._totals:
            acc = sums.get((cls, group))
            overload_sum, stalled = (0.0, 0.0) if acc is None else acc
            recorder.series_for("occupancy", cls, group).add(
                now, overload_sum / total
            )
            recorder.series_for("stalled_links", cls, group).add(now, stalled)
        for group, nics in self._nic_buckets:
            total = CounterSnapshot.total(nic.counters for nic in nics)
            recorder.series_for("nic_stall_ratio", "nic", group).add(
                now, total.stall_ratio
            )
            recorder.series_for("nic_latency", "nic", group).add(
                now, total.avg_packet_latency
            )


def _capacity_function(
    topology: DragonflyTopology, topo_cfg: TopologyConfig
) -> Callable[[object], float]:
    """``capacity_of(link_key)``: a directed link's capacity in flits/cycle.

    Memoized per link.  It closes over the topology, never over a
    :class:`FlowNetwork`: the solver engines keep it, and a bound method
    of the network would put every finished network in a reference cycle
    that only the cyclic garbage collector frees.
    """
    cache: Dict[object, float] = {}
    host_rate = 1.0 / topo_cfg.cycles_per_flit

    def capacity_of(key) -> float:
        cached = cache.get(key)
        if cached is not None:
            return cached
        if key[0] == "host":
            value = host_rate
        else:
            _, src, dst = key
            kind = topology.link_kind(src, dst)
            value = topology.link_width(kind) / topo_cfg.fabric_cycles_per_flit
        cache[key] = value
        return value

    return capacity_of


class FlowNetwork(NetworkModel):
    """A Dragonfly system resolved at flow granularity."""

    backend_name = "flow"

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        sim: Optional[Simulator] = None,
        streams: Optional[RandomStreams] = None,
        solver: Optional[str] = None,
    ):
        self.config = config or SimulationConfig()
        self.sim = sim or CalendarSimulator()
        self.streams = streams or RandomStreams(self.config.seed)
        self.topology = DragonflyTopology(self.config.topology)
        self.sampler = PathSampler(self.topology, self.streams.stream("routing"))

        topo_cfg = self.config.topology
        self.nics: List[FlowNic] = [
            FlowNic(node, router_of_node(node, topo_cfg))
            for node in range(self.topology.num_nodes)
        ]
        self._router_stats: List[FlowRouterStats] = [
            FlowRouterStats(rid) for rid in range(self.topology.num_routers)
        ]
        self.delivered_messages = 0

        # -- fluid engine state ------------------------------------------------
        #: Solver engine resolving the global flow set: ``vectorized``
        #: (incremental, state in Python lists, NumPy only for fills above
        #: 48 flows — the default) or ``reference`` (pure Python, the test
        #: oracle); see :mod:`repro.model.flow.engine`.
        self._solver_kind = solver if solver is not None else default_engine_kind()
        #: ``capacity_of(link_key)``, shared by both solvers (see
        #: :func:`_capacity_function`).
        self._capacity_of = _capacity_function(self.topology, topo_cfg)
        self._engine = make_engine(self._solver_kind, self._capacity_of)
        #: Small reference solver for the per-message solo solve in
        #: :meth:`send` — a handful of sub-flows, where plain dicts beat
        #: NumPy's setup cost.
        self._solo_solver = FairShareSolver(self._capacity_of)
        self._flow_seq = 0
        #: Unconstrained demand (flits/cycle) per link, for overload scoring.
        self._link_demand: Dict[object, float] = {}
        self._progress_time = 0
        self._dirty = False
        #: Whether this network has had a traced solve (see :meth:`_resolve`).
        self._solve_traced = False
        self._completion_event: Optional[Event] = None
        self._paths: PathTable = self.sampler.table
        self._routes = RouteTable.of(self.config)

        #: Injection nominal rate: one flit per ``cycles_per_flit`` host cycles.
        self._inj_rate = 1.0 / topo_cfg.cycles_per_flit

        # Probe hook (see repro.telemetry.probes): polled by the event
        # engine at time advances, schedules nothing, so enabling probes
        # cannot change the resolved flows or any payload.
        if PROBES.enabled and PROBES.recorder is not None:
            self.sim.probe_hook = FlowLinkSampler(PROBES.recorder, self)

    # -- overload estimate (the flow backend's congestion signal) ----------------

    def _overload_flits(self, key) -> float:
        """Estimated queue depth of a link, in flits.

        Zero while the aggregate demand fits the capacity, then growing with
        the overload ratio and capped at a few router buffers — the same
        scale UGAL's local-queue probe reads on the flit backend, so the
        configured biases (12 / 48 flits) gate non-minimal candidates
        comparably on both backends.
        """
        demand = self._link_demand.get(key, 0.0)
        if demand <= 0.0:
            return 0.0
        capacity = self._capacity_of(key)
        overload = demand / capacity - 1.0
        if overload <= 0.0:
            return 0.0
        buffer_flits = float(self.config.topology.router_buffer_flits)
        return buffer_flits * min(overload, _MAX_OVERLOAD_BUFFERS)

    def _path_score(self, inj: float, ej: float, fabric: Fabric) -> float:
        """Congestion score of a path: overload along its links plus its hops.

        ``inj`` and ``ej`` are the overloads of the message's injection and
        ejection links, which every candidate path shares.
        """
        if not fabric:
            return 0.0
        overload_of = self._overload_flits
        congestion = inj
        for key in fabric:
            congestion += overload_of(key)
        return congestion + ej + float(len(fabric))

    # -- path choice ---------------------------------------------------------------

    def _minimal_spread(self, src_router: int, dst_router: int) -> Tuple[Sequence[Path], bool]:
        """The minimal paths a message sprays over, capped at ``_MAX_SPREAD``.

        Also says whether they are the whole set (the shared tuple) rather
        than a random sample of it.
        """
        paths = self._paths.all_minimal(src_router, dst_router)
        if len(paths) <= _MAX_SPREAD:
            return paths, True
        return self.streams.stream("routing").sample(paths, _MAX_SPREAD), False

    def _choose_paths(
        self, src_node: int, dst_node: int, mode: RoutingMode
    ) -> Tuple[Sequence[Path], List[Tuple[Path, Fabric]], bool]:
        """Select the paths one message is spread over.

        The flit backend decides per packet, so across a large message the
        hardware sprays packets over every minimal path (and, for the
        adaptive modes under congestion, over Valiant detours).  The fluid
        analogue makes one decision per message: hashed/adaptive modes
        spread over the (capped) minimal-path set, and a detour joins the
        spread only when its congestion score — biased exactly like UGAL's
        non-minimal candidates — beats the best minimal path.

        Returns the minimal paths, the detours with their fabric link keys,
        and whether the choice is a pure function of the router pair and
        mode (no detour, no random sample), so that its plan may be stored.

        The adaptive modes draw both Valiant candidates before scoring
        anything (scoring draws nothing, so the routing stream advances as
        if each were drawn just before its score), then stop at the first
        minimal path scoring at most ``floor``, the lowest score any
        candidate can have (module docstring, step 1): ``floor`` must add
        the same terms in the same order as :meth:`_path_score`.
        """
        src_router = self.nics[src_node].router_id
        dst_router = self.nics[dst_node].router_id
        if src_router == dst_router:
            return ((src_router,),), [], True
        sampler = self.sampler
        if mode is RoutingMode.IN_ORDER:
            return (self._paths.all_minimal(src_router, dst_router)[0],), [], True
        if mode is RoutingMode.MIN_HASH:
            spread, whole = self._minimal_spread(src_router, dst_router)
            return spread, [], whole
        path_fabric = self._routes.path_fabric
        if mode is RoutingMode.NMIN_HASH:
            detours: List[Tuple[Path, Fabric]] = []
            seen = set()
            for _ in range(2 * max(1, self.config.routing.nonminimal_candidates)):
                path = sampler.nonminimal(src_router, dst_router)
                if path not in seen:
                    seen.add(path)
                    detours.append((path, path_fabric(path)))
            return (), detours, False
        if not mode.is_adaptive:
            raise ValueError(f"unsupported routing mode {mode}")

        cfg = self.config.routing
        if mode is RoutingMode.ADAPTIVE_0:
            bias = 0.0
        else:
            minimal_hops = sampler.minimal_hops(src_router, dst_router)
            bias = bias_for_mode(mode, cfg, minimal_hops)

        minimal_paths, whole = self._minimal_spread(src_router, dst_router)
        candidates = [
            sampler.nonminimal(src_router, dst_router)
            for _ in range(cfg.nonminimal_candidates)
        ]
        routes = self._routes
        inj = self._overload_flits(routes.host_links(src_node)[0])
        ej = self._overload_flits(routes.host_links(dst_node)[1])
        penalty = cfg.nonminimal_penalty
        floor = -math.inf  # a negative penalty voids the bound: score them all
        if not candidates:
            floor = math.inf
        elif penalty >= 0.0:
            # Monotone in the hop count, so the fewest hops give the least
            # score any candidate can reach.
            floor = (inj + ej + float(min(map(len, candidates)) - 1)) * penalty + bias
        path_score = self._path_score
        minimal_fabric = routes.minimal_fabric
        best_minimal = math.inf
        for path in minimal_paths:
            score = path_score(inj, ej, minimal_fabric(path))
            if score <= floor:
                return minimal_paths, [], whole
            if score < best_minimal:
                best_minimal = score

        seen = set(minimal_paths)
        detours = []
        for path in candidates:
            if path in seen:
                continue
            seen.add(path)
            fabric = path_fabric(path)
            score = path_score(inj, ej, fabric) * penalty + bias
            # The whole-message analogue of UGAL's per-packet comparison: a
            # detour joins the spread only when it beats the best minimal
            # candidate despite its bias, i.e. when the minimal paths are
            # congested enough to pay for the extra hops.
            if score < best_minimal:
                detours.append((path, fabric))
        return minimal_paths, detours, whole and not detours

    # -- latency model ---------------------------------------------------------------

    def _path_buffer_flits(self, path: Path) -> float:
        """Credit-covered buffering along a path, in flits.

        Mirrors :meth:`repro.network.network.Network._buffer_for`: every hop
        provisions at least the credit round trip.  This bounds how many
        flits can queue *inside* the network ahead of a packet — the source
        of the latency growth the flit backend measures under congestion.
        """
        topo_cfg = self.config.topology
        total = float(
            max(topo_cfg.nic_buffer_flits, 2 * topo_cfg.host_link_latency + 16)
        )
        for a, b in zip(path, path[1:]):
            kind = self.topology.link_kind(a, b)
            latency = self.topology.link_latency(kind)
            width = self.topology.link_width(kind)
            total += max(topo_cfg.router_buffer_flits, 2 * latency + 16) * width
        return total

    def _residual_latency(self, path: Path, packet_flits: int) -> int:
        """Cycles from a packet's last flit leaving the NIC to full ejection."""
        topo_cfg = self.config.topology
        cycles = topo_cfg.host_link_latency  # injection wire
        for a, b in zip(path, path[1:]):
            kind = self.topology.link_kind(a, b)
            width = self.topology.link_width(kind)
            cycles += self.topology.link_latency(kind)
            cycles += -(-packet_flits * topo_cfg.fabric_cycles_per_flit // width)
        cycles += topo_cfg.host_link_latency  # ejection wire
        cycles += packet_flits * topo_cfg.cycles_per_flit
        return cycles

    def _plan(
        self,
        spread: Sequence[Path],
        detours: List[Tuple[Path, Fabric]],
        pkt_flits: int,
    ) -> RoutePlan:
        """Plan a message over its paths by a *solo* fair-share solve.

        The solve covers just this message's sub-flows.  Its rates give
        (a) the volume share each path carries — correctly discounting
        paths that share links — and (b) the back-pressure-free aggregate
        rate used as the baseline of the stall model.  Injection and
        ejection links all have the host-link capacity, so which nodes send
        does not change the solve.
        """
        nic_cfg = self.config.nic
        minimal_fabric = self._routes.minimal_fabric
        routes = [(path, minimal_fabric(path), True) for path in spread]
        routes += [(path, fabric, False) for path, fabric in detours]
        # Any node's host links do: they all have the host-link capacity.
        inj, ej = self._routes.host_links(0)
        flows: List[FlowState] = []
        latencies: List[Tuple[int, int]] = []
        for path, fabric, _minimal in routes:
            fwd = self._residual_latency(path, pkt_flits)
            back = self._residual_latency(tuple(reversed(path)), nic_cfg.response_flits)
            # Outstanding-packet window as a bandwidth-delay product cap.
            window_rate = nic_cfg.max_outstanding_packets * pkt_flits / max(1, fwd + back)
            flows.append(FlowState(
                flow_id=len(flows),
                links=(inj,) + fabric + (ej,),
                volume_flits=1.0,
                cap=min(self._inj_rate, window_rate),
            ))
            latencies.append((fwd, back))
        self._solo_solver.solve(flows)
        total_rate = sum(flow.rate for flow in flows)

        entries = []
        minimal_weight = base_rtt = path_buffer = 0.0
        for (path, fabric, minimal), flow, (fwd, back) in zip(routes, flows, latencies):
            share = flow.rate / total_rate
            if minimal:
                minimal_weight += share
            base_rtt += share * (fwd + back)
            path_buffer += share * self._path_buffer_flits(path)
            entries.append((path, fabric, flow.cap, share, fwd, back))
        base_rtt += pkt_flits * self.config.topology.cycles_per_flit
        return RoutePlan(
            tuple(entries), tuple({r for path, *_ in routes for r in path}),
            min(self._inj_rate, total_rate), base_rtt, path_buffer, minimal_weight,
        )

    # -- NetworkModel API -------------------------------------------------------------

    def send(
        self,
        src_node: int,
        dst_node: int,
        size_bytes: int,
        routing_mode: RoutingMode = RoutingMode.ADAPTIVE_0,
        op: RdmaOp = RdmaOp.PUT,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_acked: Optional[Callable[[Message], None]] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Submit a message; it resolves as one or more fluid sub-flows."""
        if src_node == dst_node:
            raise ValueError(
                "source and destination nodes must differ (use the host model for self-sends)"
            )
        self._check_node(src_node)
        self._check_node(dst_node)

        message = Message(
            src_node=src_node,
            dst_node=dst_node,
            size_bytes=size_bytes,
            routing_mode=routing_mode,
            nic_config=self.config.nic,
            op=op,
            on_delivered=on_delivered,
            on_acked=on_acked,
            tag=tag,
        )
        now = self.sim.now
        message.submit_time = now
        message.first_injection_time = now

        src_nic = self.nics[src_node]
        dst_nic = self.nics[dst_node]
        src_nic.messages_sent += 1
        src_nic.inflight += 1
        message.packets_injected = message.num_packets
        # The request counters advance at submission, like the flit NIC's
        # per-packet updates; stalls and latencies follow at completion.
        src_nic.counters.request_packets += message.num_packets
        src_nic.counters.request_flits += message.request_flits

        # GET payloads travel in responses; the fluid approximation routes
        # the dominant direction's volume forward.
        volume = float(max(message.request_flits, message.response_flits))
        pkt_flits = max(1, -(-message.request_flits // message.num_packets))
        if op == RdmaOp.GET:
            pkt_flits = max(
                pkt_flits, -(-message.response_flits // message.num_packets)
            )

        routes = self._routes
        spread, detours, storable = self._choose_paths(src_node, dst_node, routing_mode)
        if storable:
            plans = routes.plans
            plan = plans.get((spread, pkt_flits))
            if plan is None:
                plan = plans[(spread, pkt_flits)] = self._plan(spread, detours, pkt_flits)
        else:
            plan = self._plan(spread, detours, pkt_flits)

        message.minimal_packets = round(message.num_packets * plan.minimal_weight)
        message.nonminimal_packets = message.num_packets - message.minimal_packets
        state = _MessageFlows(message, src_nic, dst_nic, now, volume, pkt_flits, plan)
        inj = routes.host_links(src_node)[0]
        ej = routes.host_links(dst_node)[1]
        # The flows join at rate 0: the deferred global re-solve sets the
        # real one, and _advance_progress must not drain a brand-new flow
        # over the idle interval that preceded its existence.
        for path, fabric, cap, share, fwd, back in plan.routes:
            flits = volume * share
            self._add_flow(FlowState(
                flow_id=self._flow_seq,
                links=(inj,) + fabric + (ej,),
                volume_flits=max(1e-3, flits),
                cap=cap,
                payload=(state, fwd, back, path, flits),
            ))
            self._flow_seq += 1
        return message

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nics):
            raise ValueError(
                f"node {node_id} out of range (system has {len(self.nics)} nodes)"
            )

    # -- access helpers -----------------------------------------------------------

    def nic(self, node_id: int) -> FlowNic:
        """The NIC counter block attached to a node."""
        self._check_node(node_id)
        return self.nics[node_id]

    def router(self, router_id: int) -> FlowRouterStats:
        """Per-router statistics by flat id."""
        return self._router_stats[router_id]

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes in the system."""
        return len(self.nics)

    @property
    def num_routers(self) -> int:
        """Number of routers in the system."""
        return len(self._router_stats)

    @property
    def active_flows(self) -> int:
        """Number of fluid flows currently being resolved."""
        return len(self._engine)

    @property
    def solver_kind(self) -> str:
        """Which fair-share engine resolves the flow set (``vectorized``/``reference``)."""
        return self._solver_kind

    @property
    def solver_stats(self) -> Dict[str, int]:
        """The engine's solve counters (full/incremental/skipped/rounds...)."""
        return self._engine.stats

    # -- system-wide statistics -----------------------------------------------------

    def total_flits_traversed(self, router_ids: Optional[Iterable[int]] = None) -> int:
        """Flits observed by the (selected) routers — the Table 1 'incoming flits'."""
        stats = (
            self._router_stats
            if router_ids is None
            else [self._router_stats[r] for r in router_ids]
        )
        return sum(s.flits_traversed for s in stats)

    def reset_counters(self) -> None:
        """Zero every NIC and router counter (a fresh measurement interval)."""
        for nic in self.nics:
            nic.counters.reset()
        for stats in self._router_stats:
            stats.reset()

    # -- fluid engine -----------------------------------------------------------------

    def _add_flow(self, flow: FlowState) -> None:
        self._engine.add_flow(flow)
        desired = min(flow.cap, self._inj_rate)
        for link in flow.links:
            self._link_demand[link] = self._link_demand.get(link, 0.0) + desired
        self._mark_dirty()

    def _drop_flow(self, flow: FlowState) -> None:
        self._engine.remove_flow(flow)
        desired = min(flow.cap, self._inj_rate)
        for link in flow.links:
            remaining = self._link_demand.get(link, 0.0) - desired
            if remaining <= 1e-12:
                self._link_demand.pop(link, None)
            else:
                self._link_demand[link] = remaining
        self._mark_dirty()

    def _mark_dirty(self) -> None:
        """Coalesce same-cycle flow-set changes into one rate recomputation.

        Every membership change — submissions *and* completions — funnels
        through here, so a cycle with any mix of arrivals and drains runs
        exactly one solve, after all of them have been applied.
        """
        if self._dirty:
            return
        self._dirty = True
        self.sim.schedule_call(0, self._resolve)

    def _resolve(self) -> None:
        if not TELEMETRY.enabled:
            self._dirty = False
            self._advance_progress()
            self._engine.solve()
            self._schedule_completion()
            return
        # A smoke cell solves a few hundred times, and any per-solve
        # bookkeeping beyond a clock read (a span, or seven counter updates)
        # cost it several percent.  So each solve only folds its time into the
        # ``flow.solve`` aggregate.  A network's first traced solve records
        # an event, for the timeline, and has the metrics watch the engine's
        # own counts, which snapshots report as ``flow.solver.*`` counters.
        first = not self._solve_traced
        if first:
            self._solve_traced = True
            TELEMETRY.metrics.watch("flow.solver.", self._engine.stats)
        t0 = time.perf_counter()
        self._dirty = False
        self._advance_progress()
        self._engine.solve()
        self._schedule_completion()
        dur = time.perf_counter() - t0
        if first:
            TELEMETRY.tracer.record("flow.solve", "solver", t0, dur,
                                    {"flows": len(self._engine)})
        else:
            TELEMETRY.tracer.tally("flow.solve", dur)

    def _advance_progress(self) -> None:
        now = self.sim.now
        dt = now - self._progress_time
        if dt > 0:
            self._engine.advance(dt)
        self._progress_time = now

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        horizon = self._engine.completion_horizon()
        if horizon == float("inf"):
            return
        delay = max(1, int(math.ceil(horizon)))
        self._completion_event = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance_progress()
        finished = self._engine.drained(_DRAINED)
        for flow in finished:
            self._drop_flow(flow)
        for flow in finished:
            self._sub_flow_serialized(flow)
        # No direct solve here: _drop_flow marked the engine dirty, and the
        # coalesced _resolve (this cycle) re-solves once — together with any
        # same-cycle submissions the serialization callbacks trigger.
        self._mark_dirty()

    # -- message completion ---------------------------------------------------------

    def _sub_flow_serialized(self, flow: FlowState) -> None:
        state, fwd, back, path, flits = flow.payload
        state.last_serial_time = max(state.last_serial_time, self.sim.now)
        self._account_traversal(state, path, flits)
        self.sim.schedule_call(fwd, self._sub_flow_arrived, state)
        self.sim.schedule_call(fwd + back, self._sub_flow_acked, state)

    def _account_traversal(self, state: _MessageFlows, path: Path, path_flits: float) -> None:
        """Attribute the sub-flow's flits to every router on its path."""
        flits = int(round(path_flits))
        packets = max(1, int(round(state.message.num_packets
                                   * path_flits / max(1.0, state.volume))))
        for router_id in path:
            stats = self._router_stats[router_id]
            stats.flits_traversed += flits
            stats.packets_traversed += packets

    def _sub_flow_arrived(self, state: _MessageFlows) -> None:
        state.pending_arrivals -= 1
        if state.pending_arrivals > 0:
            return
        message = state.message
        message.packets_delivered = message.num_packets
        message.delivered_time = self.sim.now
        state.dst_nic.messages_received += 1
        if state.dst_nic.on_message_delivered is not None:
            state.dst_nic.on_message_delivered(message)
        self.delivered_messages += 1
        # Each callback fires once and is dropped before it runs: one that
        # reaches the message again (an MPI send's request stores it) would
        # otherwise keep the message in a reference cycle.
        on_delivered = message.on_delivered
        if on_delivered is not None:
            message.on_delivered = None
            on_delivered(message)

    def _sub_flow_acked(self, state: _MessageFlows) -> None:
        state.pending_acks -= 1
        if state.pending_acks > 0:
            return
        message = state.message
        plan = state.plan
        serialization = max(0, state.last_serial_time - state.t0)
        # Back-pressure-free serialization of the same volume on the same
        # path set; anything beyond it is what the flit backend's injection
        # pipe would have reported as stalled cycles.
        free_cycles = state.volume / plan.free_rate
        stalled = max(0.0, serialization - free_cycles)
        # ... and the stall counter's baseline is the host-link rate, so the
        # structural slowdown of a narrow fabric path shows up as well:
        stalled += max(0.0, free_cycles - state.volume / self._inj_rate)
        counters = state.src_nic.counters
        counters.on_stall(int(stalled))
        # Per-packet latency: weighted round trip of the chosen paths plus
        # the time spent queued inside the network.  A packet waits behind
        # the flits buffered ahead of it, bounded both by how much the
        # message keeps in flight and by the path's credit-covered
        # buffering (back-pressure pushes the rest into the NIC, where it
        # is accounted as stall, not latency — exactly like the hardware).
        per_flit_excess = 0.0
        if state.volume > 0 and serialization > 0:
            per_flit_excess = max(
                0.0, serialization / state.volume - 1.0 / plan.free_rate
            )
        inflight_flits = (
            min(message.num_packets, self.config.nic.max_outstanding_packets)
            * state.pkt_flits
        )
        queued_ahead = 0.5 * min(inflight_flits, plan.path_buffer)
        latency = plan.base_rtt + queued_ahead * per_flit_excess
        counters.responses_received += message.num_packets
        counters.request_packets_cum_latency += message.num_packets * latency
        # Spread the stall estimate over the traversed routers for the
        # Table-1-style router statistics.
        if stalled > 0:
            share = stalled / len(plan.routers)
            for router_id in plan.routers:
                self._router_stats[router_id]._stalled += share
        message.packets_acked = message.num_packets
        message.acked_time = self.sim.now
        state.src_nic.inflight -= 1
        on_acked = message.on_acked
        if on_acked is not None:
            message.on_acked = None
            on_acked(message)

