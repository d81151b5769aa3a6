"""repro — reproduction of *Mitigating Network Noise on Dragonfly Networks
through Application-Aware Routing* (De Sensi, Di Girolamo, Hoefler — SC '19).

The package provides, from the bottom up:

* a packet-level discrete-event simulator of an Aries-like Dragonfly network
  (:mod:`repro.sim`, :mod:`repro.topology`, :mod:`repro.network`), plus a
  fast flow-level engine behind the same :class:`~repro.model.base.
  NetworkModel` protocol (:mod:`repro.model`);
* the routing modes of the Cray Aries interconnect, including UGAL adaptive
  routing with configurable minimal bias (:mod:`repro.routing`);
* the paper's contribution: the NIC-counter performance model, the
  application-aware routing selector (Algorithm 1) and the per-rank
  routing policies the MPI layer runs it through (:mod:`repro.core`);
* an MPI-like layer with collectives, microbenchmarks and application
  proxies, job allocation and background noise
  (:mod:`repro.mpi`, :mod:`repro.workloads`, :mod:`repro.allocation`,
  :mod:`repro.noise`);
* statistics helpers and one experiment driver per table/figure
  (:mod:`repro.analysis`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import SimulationConfig, Network, RoutingMode
>>> net = Network(SimulationConfig.small())
>>> msg = net.send(0, net.num_nodes - 1, 4096, RoutingMode.ADAPTIVE_3)
>>> _ = net.run_until_idle()
>>> msg.delivered
True
"""

from repro.config import (
    HostConfig,
    NicConfig,
    RoutingConfig,
    SimulationConfig,
    TopologyConfig,
)
from repro.core.perf_model import (
    estimate_transmission_cycles,
    estimate_transmission_cycles_simple,
    model_correlation,
)
from repro.core.policy import (
    ApplicationAwarePolicy,
    RoutingPolicy,
    StaticRoutingPolicy,
    default_policy,
    high_bias_policy,
)
from repro.core.selector import AppAwareSelector, SelectorParams
from repro.model.base import NetworkModel, build_network_model
from repro.mpi.job import MpiJob, RankContext
from repro.network.network import Network
from repro.network.packet import Message, RdmaOp
from repro.routing.modes import RoutingMode
from repro.sim.engine import Simulator
from repro.topology.dragonfly import DragonflyTopology
from repro.allocation.job import JobAllocation
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.experiments.harness import ExperimentScale

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "TopologyConfig",
    "NicConfig",
    "RoutingConfig",
    "HostConfig",
    # substrate
    "Simulator",
    "DragonflyTopology",
    "Network",
    "NetworkModel",
    "build_network_model",
    "Message",
    "RdmaOp",
    "RoutingMode",
    # the paper's contribution
    "estimate_transmission_cycles",
    "estimate_transmission_cycles_simple",
    "model_correlation",
    "AppAwareSelector",
    "SelectorParams",
    "RoutingPolicy",
    "StaticRoutingPolicy",
    "ApplicationAwarePolicy",
    "default_policy",
    "high_bias_policy",
    # MPI-like layer and experiments
    "MpiJob",
    "RankContext",
    "JobAllocation",
    "BackgroundTraffic",
    "NoiseLevel",
    "ExperimentScale",
]
