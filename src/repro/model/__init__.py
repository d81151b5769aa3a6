"""The two network-model backends behind the :class:`NetworkModel` protocol.

* ``flit`` — cycle-accurate flit-level simulation
  (:class:`repro.network.network.Network`);
* ``flow`` — fast flow-level engine with max-min fair-share bandwidth
  allocation (:class:`repro.model.flow.network.FlowNetwork`).

Use :func:`build_network_model` to construct the substrate selected by a
:class:`~repro.config.SimulationConfig` (or an explicit backend override);
:data:`BACKENDS` names both.  It imports the backend modules on first use,
because both import :mod:`repro.model.base` to subclass the protocol;
importing them at package-import time would be circular.
"""

from repro.model.base import (
    BACKENDS,
    BackendError,
    NetworkModel,
    build_network_model,
)

__all__ = [
    "BACKENDS",
    "BackendError",
    "NetworkModel",
    "build_network_model",
]
