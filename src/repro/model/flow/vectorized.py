"""Incrementally-updated max-min fair-share engine.

Same fixed point as :class:`~repro.model.flow.solver.FairShareSolver`
(progressive filling / water-filling):

* **Per-flow state in Python lists.**  Every distinct link key is interned
  to an integer id with its capacity and relative saturation tolerance —
  the ``capacity_of`` callback runs once per link, ever.  Each flow gets a
  slot; its ``remaining``, ``rate``, cap and link-id tuple live in lists
  indexed by slot, and freed slots are reused last-in first-out.  Most
  solves see a handful of live flows, where a NumPy call's fixed cost
  outweighs the arithmetic, so ``add_flow``/``advance``/``drained`` and
  the small fills below are plain Python.
* **Incremental re-solves.**  ``add_flow``/``remove_flow`` mark the touched
  links dirty.  ``solve()`` walks the flow/link sharing graph from the
  dirty links and re-runs filling only over that connected component — the
  max-min allocation decomposes exactly over components, so every other
  flow keeps its frozen rate.  When the dirty region grows past half the
  active flows the walk aborts and every flow is filled instead.
* **Two fills.**  Up to ``_SMALL_COMPONENT`` flows fill *jointly*: one
  uniform level rises for every unfrozen flow, and a round visits only the
  links still in use plus the flows that freeze (event-driven: the cap
  step and cap freezes come from pre-sorted lists, saturation freezes from
  each link's user list).  Larger sets fill *per component* over NumPy
  CSR arrays, one min-step per connected component.

Why the split and the abort cannot move: a joint fill over several
components adds each component's increments in the order of *all*
components' events, so its rates differ in the last bits from a
per-component fill.  Which flows a solve fills jointly therefore depends
on ``_FULL_SOLVE_FRACTION`` and ``_SMALL_COMPONENT``; changing either
changes the float trajectory, and with it the pinned digests
(``perfbench/pins.json``, ``tests/test_flow_solver.py``,
``tests/test_cluster.py``), which would need re-recording.

The class keeps its historic name: perfbench's layer probes wrap its
methods by module, class and method name.

``FlowState`` attributes are synchronized lazily: the authoritative
``rate``/``remaining`` live in the slot lists, and are written back to the
Python objects when a flow is removed or reported drained.  Use
``rate_of``/``remaining_of`` to observe a live flow.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.model.flow.solver import EPS, FlowState, cap_eps, new_stats

#: Rebuild the per-round CSR arrays once this fraction of rows froze.
_COMPACT_FRACTION = 0.5

#: Minimum component size for which compaction is worth the rebuild.
_COMPACT_MIN_ROWS = 128

#: Fraction of the active flow set beyond which the component walk aborts
#: into a full solve.
_FULL_SOLVE_FRACTION = 0.5

#: Fill sets at or below this many flows fill jointly in plain Python;
#: larger ones go through the NumPy per-component fill.
_SMALL_COMPONENT = 48


class VectorizedFairShareEngine:
    """Fair-share engine with incremental component re-solves."""

    kind = "vectorized"

    def __init__(self, capacity_of: Callable[[object], float]):
        self._capacity_of = capacity_of

        # -- link table ----------------------------------------------------
        self._link_index: Dict[object, int] = {}
        self._cap: List[float] = []
        self._sat_eps: List[float] = []
        #: link id -> set of flow slots crossing it (for the component walk).
        self._members: List[set] = []
        #: NumPy copies of the link table for the large fill, rebuilt when
        #: links were interned since.
        self._cap_array = np.zeros(0)
        self._sat_eps_array = np.zeros(0)

        # -- flow slots ----------------------------------------------------
        self._remaining: List[float] = []
        self._rate: List[float] = []
        self._fcap: List[float] = []
        #: ``cap - cap_eps(cap)``: the rate at which a flow cap-freezes.
        self._flimit: List[float] = []
        self._slot_links: List[Optional[Tuple[int, ...]]] = []
        #: Link ids as an array, built when the slot first enters a large fill.
        self._slot_cols: List[Optional[np.ndarray]] = []
        self._flow_at: List[Optional[FlowState]] = []
        #: Freed slots, reused last-in first-out; a slot is appended only
        #: when none is free.  Slot order is the order ``drained`` reports.
        self._free: List[int] = []
        self._slot_of: Dict[int, int] = {}

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
            capacity = float(self._capacity_of(key))
            self._cap.append(capacity)
            self._sat_eps.append(EPS * capacity)
            self._members.append(set())
        return lid

    # -- membership --------------------------------------------------------

    def add_flow(self, flow: FlowState) -> None:
        if flow.flow_id in self._slot_of:
            raise ValueError(f"flow {flow.flow_id} already registered")
        try:
            links = tuple(map(self._link_index.__getitem__, flow.links))
        except KeyError:
            links = tuple([self._link_id(key) for key in flow.links])
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._rate)
            for column in (self._remaining, self._rate, self._fcap, self._flimit,
                           self._slot_links, self._slot_cols, self._flow_at):
                column.append(None)
        cap = float(flow.cap)
        self._remaining[slot] = float(flow.remaining)
        self._rate[slot] = float(flow.rate)
        self._fcap[slot] = cap
        self._flimit[slot] = cap - cap_eps(cap)
        self._slot_links[slot] = links
        self._flow_at[slot] = flow
        self._slot_of[flow.flow_id] = slot
        if not links:
            self._linkless_pending.append(slot)
        members = self._members
        for lid in links:
            members[lid].add(slot)
        self._dirty.update(links)

    def remove_flow(self, flow: FlowState) -> None:
        slot = self._slot_of.pop(flow.flow_id)
        flow.remaining = self._remaining[slot]
        flow.rate = self._rate[slot]
        links = self._slot_links[slot]
        members = self._members
        for lid in links:
            members[lid].discard(slot)
        self._dirty.update(links)
        self._slot_links[slot] = None
        self._slot_cols[slot] = None
        self._flow_at[slot] = None
        self._free.append(slot)

    def __len__(self) -> int:
        return len(self._slot_of)

    def flows(self) -> Iterator[FlowState]:
        return (f for f in self._flow_at if f is not None)

    # -- solving -----------------------------------------------------------

    def solve(self) -> None:
        stats = self.stats
        stats["solves"] += 1
        if self._linkless_pending:
            # Same fixed point as the reference solver: a flow crossing no
            # link is bounded only by its own cap.
            for slot in self._linkless_pending:
                if self._flow_at[slot] is not None and not self._slot_links[slot]:
                    self._rate[slot] = self._fcap[slot]
            self._linkless_pending.clear()
        if not self._dirty:
            stats["skipped"] += 1
            return
        dirty = list(filter(self._members.__getitem__, self._dirty))
        self._dirty.clear()
        if not dirty or not self._slot_of:
            # Only emptied links were touched: no surviving flow shares a
            # link with anything that changed, so every rate stands.
            stats["skipped"] += 1
            return

        slots = self._affected_component(dirty)
        stats["flows_touched"] += len(slots)
        self._fill(slots)

    def _affected_component(self, dirty: List[int]) -> List[int]:
        """Sorted slots of the connected component(s) containing the dirty links.

        Aborts into the full live set once the component covers more than
        ``_FULL_SOLVE_FRACTION`` of the active flows — closure still holds
        (the full set trivially contains every co-flow), and the walk is
        pure-Python, so past that point it costs more than the fill saves.
        """
        count = len(self._slot_of)
        threshold = count * _FULL_SOLVE_FRACTION
        members = self._members
        slot_links = self._slot_links
        affected: set = set()
        seen_links = set(dirty)
        stack = list(dirty)
        while stack:
            fresh = members[stack.pop()] - affected
            if not fresh:
                continue
            affected |= fresh
            if len(affected) > threshold:
                self.stats["aborts"] += 1
                self.stats["full"] += 1
                return sorted(self._slot_of.values())
            for slot in fresh:
                for other in slot_links[slot]:
                    if other not in seen_links:
                        seen_links.add(other)
                        stack.append(other)
        if len(affected) >= count:
            self.stats["full"] += 1
        else:
            self.stats["incremental"] += 1
        return sorted(affected)

    def _fill(self, slots: List[int]) -> None:
        """Progressive filling over one closed set of slots."""
        slot_links = self._slot_links
        if not all(map(slot_links.__getitem__, slots)):
            # A linkless flow is only bounded by its own cap; it also shares
            # nothing, so it drops out of the component before the fill.
            for slot in slots:
                if not slot_links[slot]:
                    self._rate[slot] = self._fcap[slot]
            slots = [s for s in slots if slot_links[s]]
        if not slots:
            return
        if len(slots) == 1:
            # Single-flow fast path: alone on its links, the flow takes the
            # tightest capacity per occurrence (or its own cap) at once.
            slot = slots[0]
            links = slot_links[slot]
            cap = self._cap
            share = min([cap[lid] / links.count(lid) for lid in links])
            self._rate[slot] = min(self._fcap[slot], share)
            self.stats["rounds"] += 1
        elif len(slots) <= _SMALL_COMPONENT:
            self._fill_small(slots)
        else:
            self._fill_large(slots)

    def _fill_small(self, slots: List[int]) -> None:
        """Joint progressive filling, event-driven, for a small fill set.

        The reference solver's trajectory, float operation for float
        operation: every unfrozen flow holds the same rate ``level`` (the
        same steps added to 0.0), so the cap step is the smallest unfrozen
        cap minus ``level`` (subtraction is monotone, so it equals the
        smallest difference), a cap freeze is ``level`` reaching the flow's
        ``cap - cap_eps``, and a saturation freeze reaches exactly the
        unfrozen users of the saturated link.  A round touches only links
        still in use and the flows it freezes.
        """
        slot_links = self._slot_links
        #: link id -> its users, once per occurrence.
        users: Dict[int, List[int]] = {}
        for slot in slots:
            for lid in slot_links[slot]:
                if lid in users:
                    users[lid].append(slot)
                else:
                    users[lid] = [slot]
        cap = self._cap
        residual = {lid: cap[lid] for lid in users}
        #: Unfrozen occurrences per link; a link leaves when it reaches 0.
        count = {lid: len(user) for lid, user in users.items()}
        sat_eps = self._sat_eps
        fcap = self._fcap
        limit = self._flimit
        rate = self._rate
        by_cap = sorted(slots, key=fcap.__getitem__)
        by_limit = sorted(slots, key=limit.__getitem__)
        n = len(slots)
        next_cap = next_limit = 0
        frozen: set = set()
        level = 0.0
        rounds = 0
        while True:
            rounds += 1
            while by_cap[next_cap] in frozen:
                next_cap += 1
            step = fcap[by_cap[next_cap]] - level
            for lid, k in count.items():
                share = residual[lid] / k
                if share < step:
                    step = share
            step = max(step, 0.0)
            saturated = []
            for lid, k in count.items():
                left = residual[lid] - step * k
                residual[lid] = left
                if left <= sat_eps[lid]:
                    saturated.append(lid)
            level += step

            newly = []
            while next_limit < n:
                slot = by_limit[next_limit]
                if limit[slot] > level:
                    break
                next_limit += 1
                if slot not in frozen:
                    frozen.add(slot)
                    newly.append(slot)
            for lid in saturated:
                for slot in users[lid]:
                    if slot not in frozen:
                        frozen.add(slot)
                        newly.append(slot)
            for slot in newly:
                rate[slot] = level
            if len(frozen) == n or not newly:
                # Done; or the safety valve: no progress is only possible
                # through floating-point pathology, so freeze everything
                # rather than spin.
                break
            for slot in newly:
                for lid in slot_links[slot]:
                    k = count[lid] - 1
                    if k:
                        count[lid] = k
                    else:
                        del count[lid]
        self.stats["rounds"] += rounds
        if len(frozen) < n:  # pragma: no cover - safety valve
            for slot in slots:
                if slot not in frozen:
                    rate[slot] = level

    def _fill_large(self, slot_list: List[int]) -> None:
        """Progressive filling per connected component over NumPy arrays."""
        if self._cap_array.size != len(self._cap):
            self._cap_array = np.array(self._cap)
            self._sat_eps_array = np.array(self._sat_eps)
        slot_links = self._slot_links
        slot_cols = self._slot_cols
        rows = []
        for slot in slot_list:
            cols = slot_cols[slot]
            if cols is None:
                cols = slot_cols[slot] = np.array(slot_links[slot], dtype=np.int64)
            rows.append(cols)
        n = len(slot_list)
        slots = np.array(slot_list, dtype=np.int64)
        row_lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        cols = np.concatenate(rows)
        uniq, inv = np.unique(cols, return_inverse=True)
        residual = self._cap_array[uniq].copy()
        sat_eps = self._sat_eps_array[uniq]
        ptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(row_lens, out=ptr[1:])

        cur_slots = slots
        rate = np.zeros(slots.size)
        fcap = np.fromiter(map(self._fcap.__getitem__, slot_list), np.float64, n)
        limit = np.fromiter(map(self._flimit.__getitem__, slot_list), np.float64, n)
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
            newly = unfrozen & (row_sat | (rate >= limit))
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
                self._store_rates(cur_slots[~unfrozen], rate[~unfrozen])
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
                limit = limit[unfrozen]
                count = np.bincount(inv, minlength=uniq.size).astype(np.float64)
                unfrozen = np.ones(cur_slots.size, dtype=bool)

        self._store_rates(cur_slots, rate)

    def _store_rates(self, slots: np.ndarray, rates: np.ndarray) -> None:
        rate = self._rate
        for slot, value in zip(slots.tolist(), rates.tolist()):
            rate[slot] = value

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
        remaining = self._remaining
        rate = self._rate
        for slot in self._slot_of.values():
            remaining[slot] -= rate[slot] * dt

    def completion_horizon(self) -> float:
        remaining = self._remaining
        rate = self._rate
        horizon = float("inf")
        for slot in self._slot_of.values():
            moving = rate[slot]
            if moving > EPS:
                cycles = remaining[slot] / moving
                if cycles < horizon:
                    horizon = cycles
        return horizon

    def drained(self, threshold: float) -> List[FlowState]:
        remaining = self._remaining
        slots = [s for s in self._slot_of.values() if remaining[s] <= threshold]
        slots.sort()
        flows: List[FlowState] = []
        for slot in slots:
            flow = self._flow_at[slot]
            flow.remaining = remaining[slot]
            flow.rate = self._rate[slot]
            flows.append(flow)
        return flows

    # -- per-flow access ---------------------------------------------------

    def rate_of(self, flow: FlowState) -> float:
        return self._rate[self._slot_of[flow.flow_id]]

    def remaining_of(self, flow: FlowState) -> float:
        return self._remaining[self._slot_of[flow.flow_id]]


__all__ = ["VectorizedFairShareEngine"]
