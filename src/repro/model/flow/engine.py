"""Solver engines: incremental drivers around the fair-share allocation.

:class:`~repro.model.flow.network.FlowNetwork` does not call the solver
directly; it talks to an *engine* that owns the active flow set and decides
how much work each re-solve actually performs.  Two implementations share
the same API:

``vectorized`` (the default, :func:`default_engine_kind`)
    :class:`~repro.model.flow.vectorized.VectorizedFairShareEngine` —
    per-flow state in Python lists indexed by slot, *incremental*
    re-solves that only touch the connected component of the flow/link
    sharing graph whose membership changed, an event-driven plain-Python
    fill for up to 48 flows and a NumPy per-component fill above that.
    The name predates the lists; perfbench's layer probes wrap the class
    by name, so it stays.

``reference``
    Pure-Python dict arithmetic (:class:`ReferenceFairShareEngine` wrapping
    :class:`~repro.model.flow.solver.FairShareSolver`).  Every ``solve()``
    recomputes every flow from scratch.  Kept as the executable
    specification the vectorized engine is property-tested against; only
    ``FlowNetwork(solver="reference")`` selects it.

Engine API (duck-typed; both classes implement it):

* ``add_flow(flow)`` / ``remove_flow(flow)`` — membership changes; the
  engine tracks which links became dirty.
* ``solve()`` — recompute rates for whatever subset the dirty state
  requires.  A call with no membership changes is (near) free.
* ``advance(dt)`` — drain ``remaining`` by ``rate * dt`` for every flow.
* ``completion_horizon()`` — cycles until the earliest flow drains.
* ``drained(threshold)`` — flows whose remaining volume is exhausted, with
  their ``remaining``/``rate`` attributes synchronized.
* ``rate_of(flow)`` / ``remaining_of(flow)`` — current per-flow values
  (under the vectorized engine the authoritative copy lives in its slot
  lists, and ``FlowState`` attributes are synchronized only on removal or
  when ``drained`` reports the flow).
* ``stats`` — dict of solve counters (``solves``, ``full``,
  ``incremental``, ``skipped``, ``rounds``, ``flows_touched``) used by the
  coalescing tests and the solver benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from repro.model.flow.solver import EPS, FairShareSolver, FlowState

#: Engine names accepted by :func:`make_engine`.
ENGINE_KINDS = ("reference", "vectorized")


class SolverEngineError(RuntimeError):
    """Unknown engine kind."""


def default_engine_kind() -> str:
    """The engine a :class:`FlowNetwork` uses when none is requested."""
    return "vectorized"


def make_engine(kind: str, capacity_of: Callable[[object], float]):
    """Build a solver engine by name (``reference`` or ``vectorized``)."""
    if kind == "reference":
        return ReferenceFairShareEngine(capacity_of)
    if kind == "vectorized":
        from repro.model.flow.vectorized import VectorizedFairShareEngine

        return VectorizedFairShareEngine(capacity_of)
    raise SolverEngineError(
        f"unknown flow-solver engine {kind!r} (known: {', '.join(ENGINE_KINDS)})"
    )


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


class ReferenceFairShareEngine:
    """Pure-Python engine: full re-solve over a dict of flows.

    The executable specification for the vectorized engine.  ``FlowState``
    attributes (``rate``, ``remaining``) are always authoritative here.
    """

    kind = "reference"

    def __init__(self, capacity_of: Callable[[object], float]):
        self._solver = FairShareSolver(capacity_of)
        self._flows: Dict[int, FlowState] = {}
        self._dirty = False
        self.stats = new_stats()

    # -- membership --------------------------------------------------------

    def add_flow(self, flow: FlowState) -> None:
        if flow.flow_id in self._flows:
            raise ValueError(f"flow {flow.flow_id} already registered")
        self._flows[flow.flow_id] = flow
        self._dirty = True

    def remove_flow(self, flow: FlowState) -> None:
        del self._flows[flow.flow_id]
        self._dirty = True

    def __len__(self) -> int:
        return len(self._flows)

    def flows(self) -> Iterator[FlowState]:
        return iter(self._flows.values())

    # -- solving -----------------------------------------------------------

    def solve(self) -> None:
        self.stats["solves"] += 1
        if not self._dirty:
            self.stats["skipped"] += 1
            return
        self._dirty = False
        self.stats["full"] += 1
        self.stats["flows_touched"] += len(self._flows)
        self.stats["rounds"] += self._solver.solve(self._flows.values())

    # -- progress ----------------------------------------------------------

    def advance(self, dt: float) -> None:
        if dt <= 0:
            return
        for flow in self._flows.values():
            if flow.rate > 0.0:
                flow.remaining -= flow.rate * dt

    def completion_horizon(self) -> float:
        return self._solver.completion_horizon(self._flows.values())

    def drained(self, threshold: float) -> List[FlowState]:
        return [f for f in self._flows.values() if f.remaining <= threshold]

    # -- per-flow access ---------------------------------------------------

    def rate_of(self, flow: FlowState) -> float:
        return flow.rate

    def remaining_of(self, flow: FlowState) -> float:
        return flow.remaining


__all__ = [
    "ENGINE_KINDS",
    "EPS",
    "ReferenceFairShareEngine",
    "SolverEngineError",
    "default_engine_kind",
    "make_engine",
    "new_stats",
]
