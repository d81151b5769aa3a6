"""Vectorized, incrementally-updated max-min fair-share engine.

Same fixed point as :class:`~repro.model.flow.solver.FairShareSolver`
(progressive filling / water-filling), computed over flat NumPy arrays
instead of per-flow Python loops:

* **Dense link table.**  Every distinct link key is interned to an integer
  id; capacities (and the per-link relative saturation tolerance) live in
  dense vectors built once per topology — the ``capacity_of`` callback runs
  once per link, ever, not once per link per solve.
* **CSR incidence.**  Each solve gathers the affected flows' link-id arrays
  into one flat ``cols`` array with row offsets, so a filling round is a
  handful of ``np.minimum``/``np.logical_or.reduceat``/``np.bincount``
  operations over the whole component at once.
* **Incremental re-solves.**  ``add_flow``/``remove_flow`` mark the touched
  links dirty.  ``solve()`` walks the flow/link sharing graph from the
  dirty links and re-runs filling only over that connected component — the
  max-min allocation decomposes exactly over components, so every other
  flow keeps its frozen rate.  When the dirty region grows past half the
  active flows the walk aborts and a plain full vectorized solve runs
  instead (the walk would cost more than it saves).
* **Vectorized progress.**  ``advance``/``completion_horizon``/``drained``
  are single array expressions, which is what keeps *completion handling*
  (one event per message, each previously touching every live flow in
  Python) from dominating at 10^5 concurrent flows.

``FlowState`` attributes are synchronized lazily: the authoritative
``rate``/``remaining`` live in the slot arrays, and are written back to the
Python objects when a flow is removed or reported drained.  Use
``rate_of``/``remaining_of`` to observe a live flow.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.model.flow.engine import new_stats
from repro.model.flow.solver import EPS, FlowState, cap_eps

#: Rebuild the per-round CSR arrays once this fraction of rows froze.
_COMPACT_FRACTION = 0.5

#: Minimum component size for which compaction is worth the rebuild.
_COMPACT_MIN_ROWS = 128

#: Fraction of the active flow set beyond which the component walk aborts
#: into a full solve.
_FULL_SOLVE_FRACTION = 0.5

#: Components at or below this many flows fill through the scalar path:
#: NumPy's fixed per-call overhead (array gathering, unique, reduceat
#: setup) exceeds the cost of a plain dict loop for small problems, and
#: most incremental re-solves on lightly loaded systems are small.
_SMALL_COMPONENT = 48


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` grown geometrically to cover index ``needed``."""
    size = max(16, array.size)
    while size <= needed:
        size *= 2
    grown = np.zeros(size, dtype=array.dtype)
    grown[: array.size] = array
    return grown


class VectorizedFairShareEngine:
    """NumPy-backed fair-share engine with incremental component re-solves."""

    kind = "vectorized"

    def __init__(self, capacity_of: Callable[[object], float], initial: int = 256):
        self._capacity_of = capacity_of

        # -- link table (dense, grown geometrically) -----------------------
        self._link_index: Dict[object, int] = {}
        self._cap = np.zeros(initial)
        self._sat_eps = np.zeros(initial)
        #: link id -> set of flow slots crossing it (for the component walk).
        self._members: List[set] = []

        # -- flow slots ----------------------------------------------------
        self._remaining = np.zeros(initial)
        self._rate = np.zeros(initial)
        self._fcap = np.zeros(initial)
        self._fcap_eps = np.zeros(initial)
        self._alive = np.zeros(initial, dtype=bool)
        self._slot_links: List[Optional[np.ndarray]] = [None] * initial
        self._flow_at: List[Optional[FlowState]] = [None] * initial
        self._free: List[int] = list(range(initial - 1, -1, -1))
        self._slot_of: Dict[int, int] = {}
        self._count = 0

        #: Link ids whose flow membership changed since the last solve.
        self._dirty: set = set()
        #: Slots of newly added linkless flows, awaiting their cap rate at
        #: the next solve (they join no component, so no link goes dirty).
        self._linkless_pending: List[int] = []
        self.stats = new_stats()

    # -- link interning ----------------------------------------------------

    def _link_id(self, key: object) -> int:
        lid = self._link_index.get(key)
        if lid is None:
            lid = len(self._link_index)
            self._link_index[key] = lid
            if lid >= self._cap.size:
                self._cap = _grow(self._cap, lid)
                self._sat_eps = _grow(self._sat_eps, lid)
            capacity = float(self._capacity_of(key))
            self._cap[lid] = capacity
            self._sat_eps[lid] = EPS * capacity
            self._members.append(set())
        return lid

    # -- membership --------------------------------------------------------

    def _alloc_slot(self) -> int:
        if not self._free:
            old = self._alive.size
            self._remaining = _grow(self._remaining, old)
            self._rate = _grow(self._rate, old)
            self._fcap = _grow(self._fcap, old)
            self._fcap_eps = _grow(self._fcap_eps, old)
            alive = np.zeros(self._remaining.size, dtype=bool)
            alive[:old] = self._alive
            self._alive = alive
            self._slot_links.extend([None] * (self._remaining.size - old))
            self._flow_at.extend([None] * (self._remaining.size - old))
            self._free.extend(range(self._remaining.size - 1, old - 1, -1))
        return self._free.pop()

    def add_flow(self, flow: FlowState) -> None:
        if flow.flow_id in self._slot_of:
            raise ValueError(f"flow {flow.flow_id} already registered")
        slot = self._alloc_slot()
        links = np.fromiter(
            (self._link_id(key) for key in flow.links),
            dtype=np.int64,
            count=len(flow.links),
        )
        self._slot_links[slot] = links
        self._flow_at[slot] = flow
        self._slot_of[flow.flow_id] = slot
        self._remaining[slot] = flow.remaining
        self._rate[slot] = flow.rate
        self._fcap[slot] = flow.cap
        self._fcap_eps[slot] = cap_eps(flow.cap)
        self._alive[slot] = True
        self._count += 1
        if links.size == 0:
            self._linkless_pending.append(slot)
        dirty = self._dirty
        for lid in links.tolist():
            self._members[lid].add(slot)
            dirty.add(lid)

    def remove_flow(self, flow: FlowState) -> None:
        slot = self._slot_of.pop(flow.flow_id)
        flow.remaining = float(self._remaining[slot])
        flow.rate = float(self._rate[slot])
        dirty = self._dirty
        for lid in self._slot_links[slot].tolist():
            self._members[lid].discard(slot)
            dirty.add(lid)
        self._alive[slot] = False
        self._rate[slot] = 0.0
        self._remaining[slot] = 0.0
        self._slot_links[slot] = None
        self._flow_at[slot] = None
        self._free.append(slot)
        self._count -= 1

    def __len__(self) -> int:
        return self._count

    def flows(self) -> Iterator[FlowState]:
        return (f for f in self._flow_at if f is not None)

    # -- solving -----------------------------------------------------------

    def solve(self) -> None:
        self.stats["solves"] += 1
        if self._linkless_pending:
            # Same fixed point as the reference solver: a flow crossing no
            # link is bounded only by its own cap.
            for slot in self._linkless_pending:
                if self._alive[slot] and self._slot_links[slot].size == 0:
                    self._rate[slot] = self._fcap[slot]
            self._linkless_pending.clear()
        if not self._dirty:
            self.stats["skipped"] += 1
            return
        dirty = [lid for lid in self._dirty if self._members[lid]]
        self._dirty.clear()
        if not dirty or self._count == 0:
            # Only emptied links were touched: no surviving flow shares a
            # link with anything that changed, so every rate stands.
            self.stats["skipped"] += 1
            return

        slots = self._affected_component(dirty)
        self.stats["flows_touched"] += slots.size
        self._fill(slots)

    def _affected_component(self, dirty: List[int]) -> np.ndarray:
        """Slots of the connected component(s) containing the dirty links.

        Aborts into the full alive set once the component covers more than
        ``_FULL_SOLVE_FRACTION`` of the active flows — closure still holds
        (the full set trivially contains every co-flow), and the walk is
        pure-Python, so past that point it costs more than the fill saves.
        """
        threshold = self._count * _FULL_SOLVE_FRACTION
        affected: set = set()
        seen_links = set(dirty)
        stack = list(dirty)
        full = False
        while stack and not full:
            lid = stack.pop()
            for slot in self._members[lid]:
                if slot in affected:
                    continue
                affected.add(slot)
                if len(affected) > threshold:
                    full = True
                    break
                for other in self._slot_links[slot].tolist():
                    if other not in seen_links:
                        seen_links.add(other)
                        stack.append(other)
        if full or len(affected) >= self._count:
            if full:
                self.stats["aborts"] += 1
            self.stats["full"] += 1
            return np.flatnonzero(self._alive)
        self.stats["incremental"] += 1
        slots = np.fromiter(affected, dtype=np.int64, count=len(affected))
        slots.sort()
        return slots

    def _fill(self, slots: np.ndarray) -> None:
        """Progressive filling over one closed set of slots (vectorized)."""
        if slots.size == 0:
            return
        slot_links = self._slot_links
        row_lens = np.fromiter(
            (slot_links[s].size for s in slots), dtype=np.int64, count=slots.size
        )
        empty = row_lens == 0
        if empty.any():
            # A linkless flow is only bounded by its own cap; it also shares
            # nothing, so it drops out of the component before the fill.
            for slot in slots[empty].tolist():
                self._rate[slot] = self._fcap[slot]
            slots = slots[~empty]
            row_lens = row_lens[~empty]
            if slots.size == 0:
                return
        if slots.size == 1:
            # Single-flow fast path: alone on its links, the flow takes the
            # tightest capacity (or its own cap) with no filling rounds.
            slot = int(slots[0])
            links = slot_links[slot]
            occupied, occurrences = np.unique(links, return_counts=True)
            rate = min(
                float(self._fcap[slot]),
                float(np.min(self._cap[occupied] / occurrences)),
            )
            self._rate[slot] = rate
            self.stats["rounds"] += 1
            return
        if slots.size <= _SMALL_COMPONENT:
            self._fill_small(slots)
            return

        cols = np.concatenate([slot_links[s] for s in slots])
        uniq, inv = np.unique(cols, return_inverse=True)
        residual = self._cap[uniq].copy()
        sat_eps = self._sat_eps[uniq]
        ptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(row_lens, out=ptr[1:])

        cur_slots = slots
        rate = np.zeros(slots.size)
        fcap = self._fcap[slots].copy()
        fcap_eps = self._fcap_eps[slots]
        count = np.bincount(inv, minlength=uniq.size).astype(np.float64)
        unfrozen = np.ones(slots.size, dtype=bool)
        n_unfrozen = slots.size
        flow_comp, link_comp, n_comp = self._label_components(inv, ptr, row_lens)
        # Uniform filling with one min-step *per connected component*: the
        # max-min allocation decomposes over components, so each component
        # follows exactly the reference solver's trajectory while disjoint
        # bottlenecks resolve in the same round instead of serializing on
        # the global minimum.  Every round saturates at least one link or
        # cap-freezes at least one flow per active component, so the bound
        # below only trips on floating-point pathology.
        max_rounds = 2 * (slots.size + uniq.size) + 8

        while n_unfrozen:
            self.stats["rounds"] += 1
            max_rounds -= 1
            active = count > 0.0
            share = np.divide(
                residual, count, out=np.full(uniq.size, np.inf), where=active
            )
            comp_step = np.full(n_comp, np.inf)
            np.minimum.at(comp_step, flow_comp[unfrozen], (fcap - rate)[unfrozen])
            np.minimum.at(comp_step, link_comp, share)
            np.maximum(comp_step, 0.0, out=comp_step)

            rate[unfrozen] += comp_step[flow_comp[unfrozen]]
            # Finished components carry an inf step; their links all have
            # count == 0, so the masked product keeps residual untouched.
            consumed = np.zeros(uniq.size)
            np.multiply(comp_step[link_comp], count, out=consumed, where=active)
            residual -= consumed

            saturated = (residual <= sat_eps) & active
            if saturated.any():
                row_sat = np.logical_or.reduceat(saturated[inv], ptr[:-1])
            else:
                row_sat = np.zeros(cur_slots.size, dtype=bool)
            newly = unfrozen & (row_sat | (rate >= fcap - fcap_eps))
            if not newly.any():
                if max_rounds <= 0 or not np.isfinite(comp_step).any():
                    # Safety valve (same as the reference solver): freeze
                    # everything rather than spin on numerical noise.
                    break
                continue

            count -= np.bincount(
                inv[np.repeat(newly, row_lens)], minlength=uniq.size
            )
            unfrozen &= ~newly
            n_unfrozen = int(np.count_nonzero(unfrozen))

            if (
                n_unfrozen
                and cur_slots.size > _COMPACT_MIN_ROWS
                and n_unfrozen < cur_slots.size * _COMPACT_FRACTION
            ):
                # Compact: flush frozen rates, keep only unfrozen rows, and
                # remap the link arrays to the surviving local ids so every
                # later round works on the smaller problem.
                self._rate[cur_slots] = rate
                keep_rows = np.repeat(unfrozen, row_lens)
                cur_slots = cur_slots[unfrozen]
                flow_comp = flow_comp[unfrozen]
                row_lens = row_lens[unfrozen]
                cols = cols[keep_rows]
                sub_uniq, inv = np.unique(cols, return_inverse=True)
                pos = np.searchsorted(uniq, sub_uniq)
                residual = residual[pos]
                sat_eps = sat_eps[pos]
                link_comp = link_comp[pos]
                uniq = sub_uniq
                ptr = np.zeros(cur_slots.size + 1, dtype=np.int64)
                np.cumsum(row_lens, out=ptr[1:])
                rate = rate[unfrozen]
                fcap = fcap[unfrozen]
                fcap_eps = fcap_eps[unfrozen]
                count = np.bincount(inv, minlength=uniq.size).astype(np.float64)
                unfrozen = np.ones(cur_slots.size, dtype=bool)

        self._rate[cur_slots] = rate

    def _fill_small(self, slots: np.ndarray) -> None:
        """Scalar progressive filling for a small component.

        Identical algorithm (and trajectory) to the reference solver, but
        reading capacities/tolerances from the dense tables and writing
        rates straight into the slot arrays — cheaper than assembling the
        CSR machinery for a handful of flows.
        """
        slot_links = self._slot_links
        links_of = {s: slot_links[s].tolist() for s in slots.tolist()}
        residual: dict = {}
        sat_eps: dict = {}
        count: dict = {}
        for s, links in links_of.items():
            for lid in links:
                if lid not in residual:
                    residual[lid] = float(self._cap[lid])
                    sat_eps[lid] = float(self._sat_eps[lid])
                    count[lid] = 0
                count[lid] += 1
        fcap = {s: float(self._fcap[s]) for s in links_of}
        fcap_eps = {s: float(self._fcap_eps[s]) for s in links_of}
        rate = {s: 0.0 for s in links_of}
        unfrozen = list(links_of)
        while unfrozen:
            self.stats["rounds"] += 1
            step = min(fcap[s] - rate[s] for s in unfrozen)
            for lid, n in count.items():
                if n > 0:
                    share = residual[lid] / n
                    if share < step:
                        step = share
            step = max(step, 0.0)
            saturated = set()
            for lid, n in count.items():
                if n > 0:
                    residual[lid] -= step * n
                    if residual[lid] <= sat_eps[lid]:
                        saturated.add(lid)
            still = []
            for s in unfrozen:
                rate[s] += step
                if rate[s] >= fcap[s] - fcap_eps[s]:
                    frozen = True
                else:
                    frozen = any(lid in saturated for lid in links_of[s])
                if frozen:
                    for lid in links_of[s]:
                        count[lid] -= 1
                else:
                    still.append(s)
            if len(still) == len(unfrozen):  # pragma: no cover - safety valve
                break
            unfrozen = still
        for s, value in rate.items():
            self._rate[s] = value

    @staticmethod
    def _label_components(
        inv: np.ndarray, ptr: np.ndarray, row_lens: np.ndarray
    ) -> "tuple":
        """Connected components of the flow/link sharing graph (vectorized).

        Alternating min-label propagation over the bipartite incidence:
        every flow takes the smallest label among its links, every link the
        smallest among its flows, until a fixed point — a handful of
        O(nnz) array passes instead of a Python graph walk.
        """
        n_links = int(inv.max()) + 1
        link_label = np.arange(n_links, dtype=np.int64)
        while True:
            flow_label = np.minimum.reduceat(link_label[inv], ptr[:-1])
            prev = link_label
            link_label = link_label.copy()
            np.minimum.at(link_label, inv, np.repeat(flow_label, row_lens))
            if np.array_equal(link_label, prev):
                break
        comp_ids, link_comp = np.unique(link_label, return_inverse=True)
        flow_comp = np.searchsorted(comp_ids, flow_label)
        return flow_comp, link_comp, comp_ids.size

    # -- progress ----------------------------------------------------------

    def advance(self, dt: float) -> None:
        if dt <= 0:
            return
        # Dead slots keep rate == 0, so the unmasked update is safe.
        self._remaining -= self._rate * dt

    def completion_horizon(self) -> float:
        moving = self._rate > EPS
        if not moving.any():
            return float("inf")
        return float(np.min(self._remaining[moving] / self._rate[moving]))

    def drained(self, threshold: float) -> List[FlowState]:
        mask = self._alive & (self._remaining <= threshold)
        flows: List[FlowState] = []
        for slot in np.flatnonzero(mask).tolist():
            flow = self._flow_at[slot]
            flow.remaining = float(self._remaining[slot])
            flow.rate = float(self._rate[slot])
            flows.append(flow)
        return flows

    # -- per-flow access ---------------------------------------------------

    def rate_of(self, flow: FlowState) -> float:
        return float(self._rate[self._slot_of[flow.flow_id]])

    def remaining_of(self, flow: FlowState) -> float:
        return float(self._remaining[self._slot_of[flow.flow_id]])


__all__ = ["VectorizedFairShareEngine"]
