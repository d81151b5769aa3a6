"""Routing mode identifiers and their properties."""

from __future__ import annotations

from enum import Enum
from typing import FrozenSet


class RoutingMode(str, Enum):
    """The routing modes selectable per message.

    The names follow the ``MPICH_GNI_ROUTING_MODE`` values; the aliases used
    in the paper's text are available through :meth:`paper_name`.
    """

    ADAPTIVE_0 = "ADAPTIVE_0"
    ADAPTIVE_1 = "ADAPTIVE_1"
    ADAPTIVE_2 = "ADAPTIVE_2"
    ADAPTIVE_3 = "ADAPTIVE_3"
    MIN_HASH = "MIN_HASH"
    NMIN_HASH = "NMIN_HASH"
    IN_ORDER = "IN_ORDER"

    def __init__(self, value: str):
        #: True for the UGAL-based modes (bias may still be applied).  Set
        #: once per member from its value: every flit UGAL decision and
        #: flow send reads it, and a plain attribute costs a third of a
        #: property's set lookup.
        self.is_adaptive = value.startswith("ADAPTIVE_")

    @property
    def always_minimal(self) -> bool:
        """True when every packet is forced onto a minimal path."""
        return self in (RoutingMode.MIN_HASH, RoutingMode.IN_ORDER)

    @property
    def always_nonminimal(self) -> bool:
        """True when every packet is forced onto a non-minimal path."""
        return self is RoutingMode.NMIN_HASH

    def paper_name(self) -> str:
        """The human name used in the paper's figures."""
        return _PAPER_NAMES[self]

    @classmethod
    def default(cls) -> "RoutingMode":
        """The system default ("Default"/"Adaptive" in the figures)."""
        return cls.ADAPTIVE_0

    @classmethod
    def alltoall_default(cls) -> "RoutingMode":
        """The default mode applied to MPI_Alltoall traffic."""
        return cls.ADAPTIVE_1

    @classmethod
    def high_bias(cls) -> "RoutingMode":
        """The "Adaptive with High Bias" mode."""
        return cls.ADAPTIVE_3


_PAPER_NAMES = {
    RoutingMode.ADAPTIVE_0: "Adaptive",
    RoutingMode.ADAPTIVE_1: "Increasingly Minimal Bias",
    RoutingMode.ADAPTIVE_2: "Adaptive with Low Bias",
    RoutingMode.ADAPTIVE_3: "Adaptive with High Bias",
    RoutingMode.MIN_HASH: "Minimal Hashed",
    RoutingMode.NMIN_HASH: "Non-Minimal Hashed",
    RoutingMode.IN_ORDER: "In-Order Minimal",
}

#: Modes that perform per-packet adaptive (UGAL) decisions.
ADAPTIVE_MODES: FrozenSet[RoutingMode] = frozenset(
    {
        RoutingMode.ADAPTIVE_0,
        RoutingMode.ADAPTIVE_1,
        RoutingMode.ADAPTIVE_2,
        RoutingMode.ADAPTIVE_3,
    }
)

#: Modes that never adapt (fixed minimal or non-minimal path classes).
DETERMINISTIC_MODES: FrozenSet[RoutingMode] = frozenset(
    {RoutingMode.MIN_HASH, RoutingMode.NMIN_HASH, RoutingMode.IN_ORDER}
)
