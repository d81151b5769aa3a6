"""Iterative max-min fair-share bandwidth allocation over a link graph.

The flow-level engine replaces per-flit event processing with a fluid
approximation: every in-flight message (or sub-flow, when a message is
spread over several paths) is a *flow* with a remaining volume in flits and
a set of directed links it occupies.  Link capacities are expressed in
flits per cycle.  Whenever the flow set changes, the solver recomputes the
max-min fair allocation by *progressive filling* (Bertsekas & Gallager):

1. every unfrozen flow's rate grows uniformly;
2. the growth step is the largest delta that neither saturates a link nor
   pushes a flow past its individual rate cap (e.g. the NIC's outstanding-
   packet window expressed as a bandwidth-delay product);
3. flows on saturated links — and flows that hit their cap — are frozen;
4. repeat until every flow is frozen.

The algorithm terminates after at most ``len(flows) + len(links)``
iterations and allocates every link either fully or up to the demand of the
flows crossing it — the textbook water-filling fixed point.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Tuple

LinkKey = Hashable

#: Relative tolerance used when comparing rates/capacities.  Saturation and
#: cap tests scale it by the capacity being compared against: float error in
#: the progressive-filling arithmetic is relative to the operand magnitude,
#: so an absolute epsilon mis-freezes links whose capacity is far from 1.0
#: (a 1e6-flits/cycle link never gets within 1e-9 of empty; a 1e-6 link is
#: "saturated" before any flow touches it).
EPS = 1e-9


def saturation_eps(capacity: float) -> float:
    """Saturation tolerance for a link of the given capacity."""
    return EPS * capacity


def cap_eps(cap: float) -> float:
    """Tolerance for a flow-rate cap comparison (finite caps scale, inf never hits)."""
    if math.isinf(cap):
        return EPS
    return EPS * max(1.0, cap)


def new_stats() -> Dict[str, int]:
    """A zeroed engine-statistics block (shared shape across engines)."""
    return {
        "solves": 0,
        "full": 0,
        "incremental": 0,
        "skipped": 0,
        "rounds": 0,
        "flows_touched": 0,
        # Incremental component walks that crossed _FULL_SOLVE_FRACTION and
        # fell back to a full solve (always 0 for the reference engine).
        "aborts": 0,
    }


class FlowState:
    """One fluid flow: remaining volume, occupied links and a rate cap."""

    __slots__ = ("flow_id", "links", "remaining", "rate", "cap", "payload")

    def __init__(
        self,
        flow_id: int,
        links: Tuple[LinkKey, ...],
        volume_flits: float,
        cap: float = float("inf"),
        payload: object = None,
    ):
        if volume_flits <= 0:
            raise ValueError("flow volume must be positive")
        if cap <= 0:
            raise ValueError("flow rate cap must be positive")
        self.flow_id = flow_id
        self.links = links
        self.remaining = float(volume_flits)
        #: Current allocated rate in flits/cycle (set by the solver).
        self.rate = 0.0
        self.cap = cap
        #: Opaque owner data (the engine stores its message bookkeeping here).
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowState {self.flow_id} remaining={self.remaining:.1f} "
            f"rate={self.rate:.3f}>"
        )


class FairShareSolver:
    """Computes max-min fair rates for a set of flows over shared links."""

    def __init__(self, capacity_of):
        #: ``capacity_of(link_key) -> flits/cycle`` for any link a flow uses.
        self._capacity_of = capacity_of

    def solve(self, flows: Iterable[FlowState]) -> int:
        """Assign ``flow.rate`` for every flow (progressive filling).

        Returns the number of filling rounds performed (for the engine
        statistics; callers are free to ignore it).
        """
        rounds = 0
        active: List[FlowState] = [f for f in flows]
        if not active:
            return rounds
        # Residual capacity, saturation tolerance and unfrozen-flow count per
        # link actually in use.
        residual: Dict[LinkKey, float] = {}
        sat_eps: Dict[LinkKey, float] = {}
        count: Dict[LinkKey, int] = {}
        for flow in active:
            flow.rate = 0.0
            for link in flow.links:
                if link not in residual:
                    capacity = float(self._capacity_of(link))
                    residual[link] = capacity
                    sat_eps[link] = saturation_eps(capacity)
                    count[link] = 0
                count[link] += 1

        # Progressive filling: all unfrozen rates rise together by the
        # largest step allowed by the tightest link or flow cap.
        unfrozen = active
        while unfrozen:
            rounds += 1
            step = min(f.cap - f.rate for f in unfrozen)
            for link, n in count.items():
                if n > 0:
                    share = residual[link] / n
                    if share < step:
                        step = share
            step = max(step, 0.0)
            saturated: List[LinkKey] = []
            for link, n in count.items():
                if n > 0:
                    residual[link] -= step * n
                    if residual[link] <= sat_eps[link]:
                        saturated.append(link)
            saturated_set = set(saturated)
            still: List[FlowState] = []
            for flow in unfrozen:
                flow.rate += step
                if flow.rate >= flow.cap - cap_eps(flow.cap):
                    frozen = True
                else:
                    frozen = any(link in saturated_set for link in flow.links)
                if frozen:
                    for link in flow.links:
                        count[link] -= 1
                else:
                    still.append(flow)
            if len(still) == len(unfrozen):  # pragma: no cover - safety valve
                # No progress is only possible through floating-point
                # pathology; freeze everything rather than spin.
                break
            unfrozen = still
        return rounds

    def completion_horizon(self, flows: Iterable[FlowState]) -> float:
        """Cycles until the earliest flow drains at current rates (inf if none)."""
        horizon = float("inf")
        for flow in flows:
            if flow.rate > EPS:
                horizon = min(horizon, flow.remaining / flow.rate)
        return horizon
