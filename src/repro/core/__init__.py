"""The paper's primary contribution.

* :mod:`repro.core.perf_model` — the LogP-inspired transmission-time model of
  Section 2.4 (Equations 1 and 2) built on the NIC counters ``L`` (packet
  latency) and ``s`` (stall cycles per flit);
* :mod:`repro.core.selector` — Algorithm 1, the application-aware routing
  selection performed before every message send;
* :mod:`repro.core.policy` — per-rank routing policies (static Default /
  High-Bias and the Application-Aware policy) consumed by the MPI layer.

:class:`repro.mpi.job.MpiJob` is the simulated analogue of the LD_PRELOAD
library of Section 4.3, and the only place a policy runs: before every
network send it asks the rank's policy for the routing mode, and once the
send is acknowledged it feeds the NIC-counter delta back to a policy that
observes (Algorithm 1's).
"""

from repro.core.perf_model import (
    estimate_transmission_cycles,
    estimate_transmission_cycles_simple,
    model_correlation,
)
from repro.core.selector import AppAwareSelector, SelectorParams
from repro.core.policy import (
    ApplicationAwarePolicy,
    RoutingPolicy,
    StaticRoutingPolicy,
    default_policy,
    high_bias_policy,
)

__all__ = [
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
]
