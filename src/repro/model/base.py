"""The :class:`NetworkModel` protocol: what every substrate backend provides.

The MPI layer, the workloads, the noise injectors, the experiment drivers and
the campaign scenarios all talk to the network through this interface rather
than a concrete simulator class, so the substrate can be swapped per run:

* ``flit`` — the cycle-accurate flit-level simulator
  (:class:`repro.network.network.Network`), faithful but slow;
* ``flow`` — the flow-level engine
  (:class:`repro.model.flow.network.FlowNetwork`), which resolves traffic
  with a max-min fair-share bandwidth allocation and the paper's (L, s)
  latency/stall model, orders of magnitude faster.

A backend must expose

* :meth:`send` — submit an application message with a per-message routing
  mode (the quantity the paper's application-aware library controls);
* the shared discrete-event clock (``sim``) with :meth:`run` /
  :meth:`run_until_idle`;
* per-NIC counters (:meth:`nic` → object with a ``counters``
  :class:`~repro.network.counters.NicCounters` block) and per-router
  statistics (:meth:`router`, :meth:`total_flits_traversed`) — the simulated
  PAPI surface Algorithm 1 (:mod:`repro.core.selector`) is driven by.

The two backends form a closed pair: :func:`build_network_model` picks
one by name from ``SimulationConfig.backend`` (or an explicit override).
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, Iterable, Optional, TYPE_CHECKING

from repro.config import SimulationConfig
from repro.routing.modes import RoutingMode
from repro.network.packet import Message, RdmaOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.topology.dragonfly import DragonflyTopology


class NetworkModel(abc.ABC):
    """Abstract substrate: a wired system ready to carry traffic.

    Concrete backends provide the attributes ``config``
    (:class:`~repro.config.SimulationConfig`), ``sim``
    (:class:`~repro.sim.engine.Simulator`), ``streams``
    (:class:`~repro.sim.rng.RandomStreams`), ``topology``
    (:class:`~repro.topology.dragonfly.DragonflyTopology`) and the counter
    ``delivered_messages`` in addition to the methods below.
    """

    #: Name of the backend (``"flit"`` or ``"flow"``).
    backend_name: ClassVar[str] = "abstract"

    config: SimulationConfig
    sim: "Simulator"
    streams: "RandomStreams"
    topology: "DragonflyTopology"
    delivered_messages: int

    # -- traffic ---------------------------------------------------------------

    @abc.abstractmethod
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
        """Submit a message to the source NIC and return its handle."""

    # -- access helpers --------------------------------------------------------

    @abc.abstractmethod
    def nic(self, node_id: int):
        """The NIC attached to a node (must expose ``counters``)."""

    @abc.abstractmethod
    def router(self, router_id: int):
        """Per-router statistics view (``flits_traversed``, ``stalled_cycles``)."""

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of compute nodes in the system."""

    @property
    @abc.abstractmethod
    def num_routers(self) -> int:
        """Number of routers in the system."""

    # -- execution -------------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Advance the simulation (see :meth:`repro.sim.engine.Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until every queued event has been processed."""
        return self.sim.run_until_idle(max_events=max_events)

    # -- system-wide statistics ------------------------------------------------

    @abc.abstractmethod
    def total_flits_traversed(self, router_ids: Optional[Iterable[int]] = None) -> int:
        """Flits observed by the (selected) routers — Table 1 'incoming flits'."""

    @abc.abstractmethod
    def reset_counters(self) -> None:
        """Zero every NIC and router counter (a fresh measurement interval)."""


class BackendError(LookupError):
    """Unknown backend name (subclasses LookupError for clean CLI messages)."""


def build_network_model(
    config: Optional[SimulationConfig] = None,
    sim: Optional["Simulator"] = None,
    streams: Optional["RandomStreams"] = None,
    backend: Optional[str] = None,
) -> NetworkModel:
    """Build the substrate selected by ``backend`` or ``config.backend``.

    The explicit ``backend`` argument wins over the config field, so callers
    can reuse one :class:`SimulationConfig` across backends (the parity tests
    do exactly that).  The backends are imported here, not at module level:
    both import this module to subclass :class:`NetworkModel`.
    """
    config = config or SimulationConfig()
    name = backend if backend is not None else config.backend
    if name == "flit":
        from repro.network.network import Network as model
    elif name == "flow":
        from repro.model.flow.network import FlowNetwork as model
    else:
        raise BackendError(
            f"unknown network-model backend {name!r} (known: flit, flow)"
        )
    return model(config=config, sim=sim, streams=streams)
